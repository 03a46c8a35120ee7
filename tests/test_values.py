"""Batched gauge evaluation: ``values(X)`` against ``value`` row by row."""

import inspect

import numpy as np
import pytest

from gaugerec import gauges, model
from gaugerec.gauges import (Gauge, L1, L2, Linf, GroupL1L2, PolyhedralH,
                             PositivePartMax, Precomposed, SumGauge, MaxGauge,
                             BlockPartition)
from gaugerec.linalg import Subspace
from gaugerec.model import (GroupLinf2, SubdiffGauge, decompose_l1,
                            decompose_linf, decompose_group,
                            sum_decompositions, tv1d_gauge)

N = 6
PART = BlockPartition([[0, 3], [1], [2, 4, 5]], N)


def _sum_md():
    x = np.array([2.0, -2.0, 0.0, 0.5, 0.0, 1.0])
    return sum_decompositions(decompose_l1(x)[0], decompose_linf(x)[0])


def _gauges():
    """(name, gauge, exact) for every kind with a value; ``exact`` marks
    the kinds whose batched values must equal value bit for bit."""
    rng = np.random.default_rng(5)
    x = np.array([1.5, 0.0, -2.0, 0.0, 0.0, 0.7])
    group_x = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    return [
        ("l1", L1(N), True),
        ("linf", Linf(N), True),
        ("l2", L2(N), False),
        ("group", GroupL1L2(PART), False),
        ("group-linf2", GroupLinf2(PART), False),
        ("max", MaxGauge([L1(N), L2(N), Linf(N)]), False),
        ("sum", SumGauge([L1(N), GroupL1L2(PART), Linf(N)]), False),
        ("tv", tv1d_gauge(N), False),
        ("precomposed", Precomposed(Linf(4), rng.standard_normal((4, N))),
         False),
        ("polyhedral", PolyhedralH(rng.standard_normal((N, 9))), False),
        ("positive-part-max", PositivePartMax(N), True),
        ("antig-atoms", decompose_l1(x)[0].antig, False),
        ("antig-saturation", decompose_linf(x)[0].antig, False),
        ("antig-blocks", decompose_group(group_x, PART)[0].antig, False),
        ("antig-no-blocks", decompose_group(np.ones(N), PART)[0].antig,
         False),
        ("antig-lifted", _sum_md().antig, False),
        ("antig-value-fn", SubdiffGauge(
            Subspace.coordinate(N, [1, 4]),
            value_fn=lambda eta: float(np.abs(eta).sum())), False),
    ]


def _rows(g, rng):
    """Rows on S (or anywhere), scaled rows, a zero row and, for a gauge
    finite only on S, rows off S."""
    S = getattr(g, "S", None)
    Z = rng.standard_normal((12, N))
    if S is not None:
        on = S.project(Z[:8].T).T
        on[1] *= 1e-6
        on[2] *= 1e6
        return np.vstack([on, np.zeros(N), Z[8:]])
    Z[1] *= 1e-6
    Z[2] *= 1e6
    return np.vstack([Z, np.zeros(N)])


def _assert_matches(batch, loop, exact):
    assert batch.shape == loop.shape
    if exact:
        assert np.array_equal(batch, loop)
        return
    assert np.array_equal(np.isinf(batch), np.isinf(loop))
    fin = np.isfinite(loop)
    np.testing.assert_array_max_ulp(batch[fin], loop[fin], maxulp=4)


@pytest.mark.parametrize("name, g, exact", _gauges(),
                         ids=[c[0] for c in _gauges()])
class TestValues:
    def test_rows_match_value(self, name, g, exact, rng):
        X = _rows(g, rng)
        loop = np.array([g.value(x) for x in X])
        _assert_matches(g.values(X), loop, exact)
        assert np.all(loop[np.all(X == 0.0, axis=1)] == 0.0)
        if getattr(g, "S", None) is not None and g.S.dim < N:
            assert np.isinf(loop[-4:]).all()

    def test_empty_input(self, name, g, exact):
        out = g.values(np.zeros((0, N)))
        assert out.shape == (0,)

    def test_non_finite_row_raises(self, name, g, exact, rng):
        X = _rows(g, rng)
        for bad in (np.nan, np.inf):
            Y = X.copy()
            Y[3, 0] = bad
            with pytest.raises(ValueError):
                g.values(Y)
            with pytest.raises(ValueError):
                g.value(Y[3])

    def test_wrong_width_raises(self, name, g, exact):
        with pytest.raises(ValueError):
            g.values(np.ones((2, N + 1)))
        with pytest.raises(ValueError):
            g.values(np.ones(N))

    def test_value_takes_one_vector(self, name, g, exact):
        # a square array has as many rows as the gauge has coordinates
        for bad in (np.arange(N * N, dtype=float).reshape(N, N),
                    np.ones((1, N)), np.ones(N + 1), np.float64(1.0)):
            with pytest.raises(ValueError):
                g.value(bad)

    def test_value_is_the_one_row_case_of_values(self, name, g, exact, rng):
        for x in _rows(g, rng):
            assert np.array_equal(g.value(x), g.values(x[None])[0])


def _gauge_classes():
    return sorted({cls for mod in (gauges, model)
                   for _, cls in inspect.getmembers(mod, inspect.isclass)
                   if issubclass(cls, Gauge)}, key=lambda cls: cls.__name__)


def test_one_evaluator_per_gauge_class():
    classes = _gauge_classes()
    assert SubdiffGauge in classes and GroupLinf2 in classes
    for cls in classes:
        # value is defined once, on the base class, as the one-row values
        assert ("value" in vars(cls)) == (cls is Gauge), cls.__name__
        if cls is not Gauge:
            assert cls.values is not Gauge.values, cls.__name__


def test_lifted_zero_is_positive_zero():
    # an LP value of -0.0 used to come back as max(-0.0, 0.0) = -0.0
    g = SubdiffGauge(Subspace.full(3), atoms=np.eye(3), lift=np.ones((3, 1)))
    eta = np.array([1.0, 2.0, 0.5])
    assert np.copysign(1.0, g.value(eta)) == 1.0
    out = g.values(np.vstack([eta, -eta, np.zeros(3)]))
    assert np.array_equal(out, np.zeros(3))
    assert np.all(np.copysign(1.0, out) == 1.0)


@pytest.mark.parametrize("n", [3, 8, 40, 129])
def test_l1_and_linf_are_exact_in_any_memory_order(n):
    # a row sum of a Fortran-ordered or strided array would add in another
    # order than the 1-d sum of ``value``
    rng = np.random.default_rng(n)
    X = rng.standard_normal((7, n)) * rng.uniform(0.1, 1e3, (7, 1))
    for g in (L1(n), Linf(n)):
        loop = np.array([g.value(x) for x in X])
        for Y in (X, np.asfortranarray(X), np.repeat(X, 2, axis=0)[::2],
                  np.repeat(X, 2, axis=1)[:, ::2]):
            assert np.array_equal(g.values(Y), loop)
