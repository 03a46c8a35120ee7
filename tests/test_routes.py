"""Routes as each other's oracle: where two exact routes solve the same
problem, both must pass the first-order test and reach one objective.  A
disagreement is a defect in one of them, with no tolerance to tune."""

import itertools

import numpy as np
import pytest

from gaugerec import solvers
from gaugerec.gauges import L1, L2, Linf, GroupL1L2, BlockPartition, \
    Precomposed, PolyhedralH, SumGauge
from gaugerec.model import tv1d_gauge
from gaugerec.solvers import solve_penalized, SolveOptions

from conftest import tie_heavy_instance, active_set_solve

GAUGES = {"l1": L1, "linf": Linf, "tv": tv1d_gauge}
SWEEP = range(600)
# the seeds of SWEEP whose path falls back to the active set: singular
# Gram matrices and end points that fail the test, which ties make common
FALLBACKS = {"l1": 4, "linf": 33, "tv": 4}


def _relative_gap(a, b):
    return abs(a - b) / max(1.0, abs(b))


@pytest.mark.parametrize("kind", sorted(GAUGES))
def test_the_path_and_the_active_set_agree_on_ties(kind):
    # solve_penalized (the path, or the active set behind it) against the
    # active set alone on the same atom blocks, on tie-heavy integer data
    fell = 0
    for seed in SWEEP:
        Phi, y, lam = tie_heavy_instance(seed)
        g = GAUGES[kind](Phi.shape[1])
        res = solve_penalized(Phi, y, lam, g)
        ref = active_set_solve(Phi, y, lam, g, SolveOptions())
        # converged: the first-order test passed at the default tol, 1e-8
        assert res.converged and ref.converged, seed
        assert res.method in ("path", "active-set"), seed
        fell += res.method != "path"
        assert _relative_gap(solvers._objective(Phi, y, lam, g, res.x_hat),
                             solvers._objective(Phi, y, lam, g, ref.x_hat)) \
            <= 1e-9, seed
    assert fell <= FALLBACKS[kind]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lam", [0.05, 0.5, 5.0])
def test_euclidean_norm_routes_agree(seed, lam):
    # L2 and the one-block group are one gauge: FISTA gives the same bits;
    # pre-composed with I it takes Chambolle-Pock, to the same objective
    r = np.random.default_rng([seed, 45])
    n = 8
    Phi = r.standard_normal((5, n))
    y = Phi @ r.standard_normal(n) + 0.1 * r.standard_normal(5)
    group = GroupL1L2(BlockPartition([range(n)], n))
    opts = SolveOptions(tol=1e-10)
    l2 = solve_penalized(Phi, y, lam, L2(n), opts)
    one = solve_penalized(Phi, y, lam, group, opts)
    pd = solve_penalized(Phi, y, lam, Precomposed(L2(n), np.eye(n)), opts)
    assert (l2.method, one.method, pd.method) == ("fista", "fista", "pd")
    assert l2.converged and one.converged and pd.converged
    assert np.array_equal(l2.x_hat, one.x_hat)
    assert _relative_gap(solvers._objective(Phi, y, lam, group, pd.x_hat),
                         solvers._objective(Phi, y, lam, group, l2.x_hat)) \
        <= 1e-9


def _fused_lasso_pair(n):
    """L1 + tv, and the same gauge as the l1 norm of (x, D* x)."""
    tv = tv1d_gauge(n)
    return (SumGauge([L1(n), tv]),
            Precomposed(L1(2 * n - 1), np.vstack([np.eye(n), tv.dstar])))


def _l1_plus_linf_pair(n):
    """L1 + Linf, and the same gauge as one PolyhedralH whose columns are
    the sums of an atom of each part: a sign vector and a +-e_i."""
    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    eye = np.eye(n)
    H = (signs[:, None, :] + np.vstack([eye, -eye])[None]).reshape(-1, n).T
    return SumGauge([L1(n), Linf(n)]), PolyhedralH(H)


SUM_PAIRS = {"fused": _fused_lasso_pair, "l1+linf": _l1_plus_linf_pair}
SUM_SWEEP = range(80)


@pytest.mark.parametrize("kind", sorted(SUM_PAIRS))
def test_a_sum_and_its_one_gauge_form_agree(kind):
    # the sum's joined atom blocks against the same gauge written as one
    # pre-composition or one PolyhedralH: the same polar, and the same
    # objective at the instance's lam and above lam_max, where the
    # first-order test at x = 0 reads the polar
    for seed in SUM_SWEEP:
        Phi, y, lam = tie_heavy_instance(seed)
        g, one = SUM_PAIRS[kind](Phi.shape[1])
        polar = one.polar(Phi.T @ y)
        assert _relative_gap(g.polar(Phi.T @ y), polar) <= 1e-12, seed
        for lam in ([lam, 1.5 * polar] if polar > 0 else [lam]):
            res = solve_penalized(Phi, y, lam, g)
            ref = solve_penalized(Phi, y, lam, one)
            assert res.converged and ref.converged, (seed, lam)
            assert _relative_gap(solvers._objective(Phi, y, lam, g, res.x_hat),
                                 solvers._objective(Phi, y, lam, g, ref.x_hat)) \
                <= 1e-9, (seed, lam)
