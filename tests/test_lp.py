import numpy as np
import pytest
from scipy.optimize import linprog

from gaugerec import lp
from gaugerec.lp import (LpProblem, lp_solve, lp_minimize_linf,
                         lp_min_halfspaces, LpNumericalError, OPTIMAL,
                         INFEASIBLE, UNBOUNDED)
from gaugerec.polytopes import Polytope


def test_min_x_above_three():
    res = lp_solve(LpProblem([1.0], a_ub=[[-1.0]], b_ub=[-3.0]))
    assert res.status == OPTIMAL
    assert abs(res.value - 3.0) <= 1e-12


def test_infeasible_toy():
    res = lp_solve(LpProblem([1.0], a_ub=[[-1.0], [1.0]], b_ub=[-1.0, 0.0]))
    assert res.status == INFEASIBLE


def test_unbounded():
    res = lp_solve(LpProblem([-1.0], bounds=[(0, None)]))
    assert res.status == UNBOUNDED


def _ref_status(r):
    return {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(r.status, "other")


@pytest.mark.parametrize("bounds_kind", ["nonneg", "free", "boxed"])
def test_random_against_scipy(bounds_kind):
    seeds = {"nonneg": 101, "free": 202, "boxed": 303}
    rng = np.random.default_rng(seeds[bounds_kind])
    for _ in range(60):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 11))
        me = int(rng.integers(0, 3))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m) + 1.0
        Ae = rng.standard_normal((me, n)) if me else None
        be = rng.standard_normal(me) * 0.5 if me else None
        c = rng.standard_normal(n)
        bounds = {"nonneg": [(0, None)] * n,
                  "free": [(None, None)] * n,
                  "boxed": [(-1.0, 2.0)] * n}[bounds_kind]
        res = lp_solve(LpProblem(c, a_ub=A, b_ub=b, a_eq=Ae, b_eq=be,
                                 bounds=bounds))
        ref = linprog(c, A_ub=A, b_ub=b, A_eq=Ae, b_eq=be, bounds=bounds,
                      method="highs")
        ref_st = _ref_status(ref)
        if res.status != ref_st and {res.status, ref_st} == {UNBOUNDED,
                                                             INFEASIBLE}:
            # HiGHS presolve may report "infeasible" for problems that are
            # feasible but unbounded; adjudicate with a feasibility probe
            probe = linprog(np.zeros(n), A_ub=A, b_ub=b, A_eq=Ae, b_eq=be,
                            bounds=bounds, method="highs")
            truth = UNBOUNDED if probe.status == 0 else INFEASIBLE
            assert res.status == truth
            continue
        assert res.status == ref_st
        if res.status == OPTIMAL:
            assert abs(res.value - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))
            # primal feasibility of the returned point
            assert np.all(A @ res.x <= b + 1e-7)
            if me:
                assert np.max(np.abs(Ae @ res.x - be)) <= 1e-7


def test_strong_duality_on_random_feasible():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(80):
        m, n = int(rng.integers(1, 7)), int(rng.integers(2, 9))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m) + 2.0
        me = int(rng.integers(0, 2))
        Ae = rng.standard_normal((me, n)) if me else None
        be = rng.standard_normal(me) * 0.2 if me else None
        c = rng.standard_normal(n)
        res = lp_solve(LpProblem(c, a_ub=A, b_ub=b, a_eq=Ae, b_eq=be,
                                 bounds=[(0, None)] * n))
        if res.status != OPTIMAL:
            continue
        dual = float(res.dual_ub @ b)
        if me:
            dual += float(res.dual_eq @ be)
        assert abs(dual - res.value) <= 1e-8 * (1.0 + abs(res.value))
        checked += 1
    assert checked >= 30


def test_degenerate_problem_terminates():
    # many tied basic feasible points; Bland fallback must end the cycle
    n = 6
    A = np.vstack([np.eye(n), -np.eye(n), np.ones((1, n))])
    b = np.concatenate([np.zeros(n), np.zeros(n), [0.0]])
    res = lp_solve(LpProblem(np.ones(n), a_ub=A, b_ub=b))
    assert res.status == OPTIMAL
    assert abs(res.value) <= 1e-9


def test_chebyshev_helper():
    val, w = lp_minimize_linf(np.array([[1.0], [-1.0]]), np.array([1.5, 1.5]))
    assert abs(val - 1.5) <= 1e-10
    assert abs(w[0]) <= 1e-9


def _drifting_minkowski_lp():
    """The epigraph LP of the Minkowski-sum gauge of two random 5-d
    polytopes (the inputs of one polar-calculus benchmark item), on which
    the eta-updated basis drifts to an infeasible point by the optimum."""
    rng = np.random.default_rng([43, 7, 13])

    def points():
        pts = rng.standard_normal((9, 5))
        return np.vstack([pts, -0.7 * pts])

    P1 = Polytope.from_vertices(points())
    P2 = Polytope.from_vertices(points())
    x = rng.standard_normal((60, 5))[1]
    a_ub = np.vstack([np.hstack([P1.normals, -P1.offsets[:, None]]),
                      np.hstack([-P2.normals, -P2.offsets[:, None]])])
    b_ub = np.concatenate([np.zeros(len(P1.offsets)), -(P2.normals @ x)])
    c = np.zeros(6)
    c[-1] = 1.0
    return c, a_ub, b_ub, [(None, None)] * 5 + [(0, None)]


def test_drifted_optimum_is_solved_again():
    c, a_ub, b_ub, bounds = _drifting_minkowski_lp()
    res = lp_solve(LpProblem(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds))
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == OPTIMAL
    assert abs(res.value - ref.fun) <= 1e-9
    assert np.max(a_ub @ res.x - b_ub) <= 1e-9


def test_drift_that_persists_raises(monkeypatch):
    monkeypatch.setattr(lp._Simplex, "solve",
                        lambda self: (lp._DRIFTED, None, None, None))
    with pytest.raises(LpNumericalError):
        lp_solve(LpProblem([1.0], a_ub=[[-1.0]], b_ub=[-3.0]))


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_min_halfspaces_matches_primal(seed):
    rng = np.random.default_rng(seed)
    kinds = [(None, None), (0.0, None), (-1.0, None), (None, 2.0),
             (-1.0, 2.0)]
    optimal = 0
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(n, 40))
        A = rng.standard_normal((m, n))
        b = rng.uniform(0.1, 1.0, m)      # x = 0 is strictly feasible
        c = rng.standard_normal(n)
        bounds = [kinds[k] for k in rng.integers(0, len(kinds), n)]
        ref = lp_solve(LpProblem(c, a_ub=A, b_ub=b, bounds=bounds))
        res = lp_min_halfspaces(c, A, b, bounds=bounds)
        assert res.status == ref.status
        if res.status != OPTIMAL:
            continue
        optimal += 1
        assert abs(res.value - ref.value) <= 1e-9 * (1.0 + abs(ref.value))
        assert np.max(A @ res.x - b) <= 1e-8
        for xj, (lo, hi) in zip(res.x, bounds):
            assert lo is None or xj >= lo - 1e-8
            assert hi is None or xj <= hi + 1e-8
        # d value / d b_ub is nonpositive and vanishes on slack rows
        assert np.all(res.dual_ub <= 0.0)
        assert np.max(np.abs(res.dual_ub * (A @ res.x - b))) <= 1e-8
    assert optimal >= 25


def test_min_halfspaces_infeasible():
    # x <= -1 with x >= 0: the dual is unbounded
    res = lp_min_halfspaces([1.0], [[1.0]], [-1.0], bounds=[(0.0, None)])
    assert res.status == INFEASIBLE


def test_min_halfspaces_unbounded():
    # min -x over x >= 0: the dual is infeasible, the primal tells which
    res = lp_min_halfspaces([-1.0], np.zeros((0, 1)), np.zeros(0),
                            bounds=[(0.0, None)])
    assert res.status == UNBOUNDED


def test_min_halfspaces_infeasible_with_infeasible_dual():
    # x1 <= -1 and x1 >= 0 while -x2 is unbounded below: both the primal
    # and the dual are infeasible
    res = lp_min_halfspaces([0.0, -1.0], [[1.0, 0.0], [-1.0, 0.0]],
                            [-1.0, 0.0])
    assert res.status == INFEASIBLE
