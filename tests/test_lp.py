import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linprog

from gaugerec import lp
from gaugerec.lp import (LpProblem, lp_solve, lp_minimize_linf,
                         lp_min_halfspaces, lp_min_max, LpNumericalError,
                         OPTIMAL, INFEASIBLE, UNBOUNDED)
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


@pytest.mark.parametrize("bad", [(np.nan, None), (0, np.inf), (-np.inf, 1),
                                 (0, "1")])
@pytest.mark.parametrize("solve", [
    lambda bounds: lp_solve(LpProblem([-1, -1], a_ub=[[1, 2]], b_ub=[4],
                                      bounds=bounds)),
    lambda bounds: lp_min_halfspaces([-1, -1], [[1, 2]], [4], bounds=bounds),
], ids=["lp_solve", "lp_min_halfspaces"])
def test_bound_that_is_not_a_finite_real_is_rejected(solve, bad):
    # a nan bound used to give "optimal" with a nan x and value, an infinite
    # one a bare ValueError from the ratio test's tie-break
    with pytest.raises(ValueError, match=r"bounds\[1\]"):
        solve([(0, None), bad])


def test_finite_numpy_bounds_are_accepted():
    res = lp_solve(LpProblem([-1, -1], a_ub=[[1, 2]], b_ub=[4],
                             bounds=[(np.float64(0), np.int64(3)), (0, None)]))
    assert res.status == OPTIMAL
    assert np.array_equal(res.x, [3.0, 0.5])


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


# ---------------------------------------------------------------------------
# against HiGHS: redundant rows, zero right-hand sides, infeasible and
# unbounded problems, and the min-max LP
# ---------------------------------------------------------------------------

def _assert_matches_highs(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                          bounds=None, status=None):
    bounds = [(None, None)] * len(c) if bounds is None else bounds
    res = lp_solve(LpProblem(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
                             bounds=bounds))
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    assert res.status == _ref_status(ref)
    if status is not None:
        assert res.status == status
    if res.status == OPTIMAL:
        assert abs(res.value - ref.fun) <= 1e-8 * (1.0 + abs(ref.fun))
        if a_eq is not None:
            assert np.max(np.abs(a_eq @ res.x - b_eq)) <= 1e-8
        if a_ub is not None:
            assert np.max(a_ub @ res.x - b_ub) <= 1e-8
    return res


@pytest.mark.parametrize("seed", range(6))
def test_redundant_equality_rows(seed):
    rng = np.random.default_rng([11, seed])
    n, m = 9, 4
    a = rng.standard_normal((m, n))
    x = rng.uniform(0.0, 1.0, n)
    # duplicated rows, one of them twice, and a sum of two rows
    a_eq = np.vstack([a, a[[0, 2, 0]], a[1] + a[3]])
    res = _assert_matches_highs(rng.uniform(0.1, 1.0, n), a_eq=a_eq,
                                b_eq=a_eq @ x, bounds=[(0, None)] * n,
                                status=OPTIMAL)
    # a dropped row leaves no dual: the kept ones still price the optimum
    assert abs(res.dual_eq @ (a_eq @ x) - res.value) <= 1e-8 * (
        1.0 + abs(res.value))


@pytest.mark.parametrize("seed", range(6))
def test_zero_right_hand_side_rows(seed):
    # homogeneous equality rows next to ordinary ones: their artificials
    # start, and phase 1 may end, at level 0
    rng = np.random.default_rng([12, seed])
    n = 10
    a0 = rng.standard_normal((4, n))
    a1 = rng.standard_normal((2, n))
    a_eq = np.vstack([a0, a1])
    # a feasible point: in Ker(a0), inside the box, slack in a_ub
    xf = scipy.linalg.null_space(a0) @ rng.standard_normal(n - 4)
    xf *= 0.9 / np.max(np.abs(xf))
    b_eq = np.concatenate([np.zeros(4), a1 @ xf])
    a_ub = rng.standard_normal((5, n))
    b_ub = a_ub @ xf + rng.uniform(0.0, 1.0, 5)
    _assert_matches_highs(rng.standard_normal(n), a_ub=a_ub, b_ub=b_ub,
                          a_eq=a_eq, b_eq=b_eq, bounds=[(-1.0, 1.0)] * n,
                          status=OPTIMAL)


def test_infeasible_problems():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        # x >= 0 with a positive row forced to 0 and the sum forced to 1
        a_eq = np.vstack([rng.uniform(0.1, 1.0, n), np.ones(n),
                          rng.standard_normal((2, n))])
        b_eq = np.concatenate([[0.0, 1.0], np.zeros(2)])
        _assert_matches_highs(rng.standard_normal(n), a_eq=a_eq, b_eq=b_eq,
                              bounds=[(0, None)] * n, status=INFEASIBLE)
        # contradictory inequality rows among free variables
        a = rng.standard_normal(n)
        a_ub = np.vstack([a, -a, rng.standard_normal((3, n))])
        b_ub = np.concatenate([[-1.0, 0.5], rng.uniform(0.0, 1.0, 3)])
        _assert_matches_highs(rng.standard_normal(n), a_ub=a_ub, b_ub=b_ub,
                              status=INFEASIBLE)


def test_unbounded_problems():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n))
        # free variables, c outside the row space of a_eq: a feasible ray
        a_eq = rng.standard_normal((m, n))
        b_eq = a_eq @ rng.standard_normal(n)
        _assert_matches_highs(rng.standard_normal(n), a_eq=a_eq, b_eq=b_eq,
                              status=UNBOUNDED)
        # x >= 0 with a zero-right-hand-side row and a ray d >= 0 in its
        # kernel along which c decreases
        d = rng.uniform(0.5, 1.0, n)
        row = rng.standard_normal(n)
        row -= (row @ d) / (d @ d) * d
        c = rng.uniform(0.0, 1.0, n)
        c -= (c @ d + 1.0) / (d @ d) * d
        _assert_matches_highs(c, a_eq=row[None, :], b_eq=np.zeros(1),
                              bounds=[(0, None)] * n, status=UNBOUNDED)


def _min_max_by_highs(h, G, b=None):
    """The value of ``lp_min_max(h, G, b)`` by HiGHS, +inf where its hard
    rows (b_j = 0) have no solution."""
    m, k = G.shape
    b = np.ones(m) if b is None else b
    c = np.zeros(k + 1)
    c[-1] = 1.0
    ref = linprog(c, A_ub=np.hstack([G, -b[:, None]]), b_ub=-h,
                  bounds=[(None, None)] * k + [(0, None)], method="highs")
    assert ref.status in (0, 2)    # optimal or infeasible
    return ref.fun if ref.status == 0 else np.inf


@pytest.mark.parametrize("seed", range(8))
def test_min_max_matches_highs(seed):
    rng = np.random.default_rng([15, seed])
    m, k = int(rng.integers(4, 40)), int(rng.integers(1, 6))
    # atoms of a bounded ball: the rows of G positively span R^k
    G = np.vstack([rng.standard_normal((m, k)), np.eye(k), -np.eye(k)])
    h = rng.standard_normal(len(G)) - float(seed % 2)
    res = lp_min_max(h, G)
    assert res.status == OPTIMAL
    assert abs(res.value - _min_max_by_highs(h, G)) <= 1e-9
    assert abs(max(0.0, np.max(h + G @ res.x)) - res.value) <= 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_min_max_with_hard_rows_matches_highs(seed):
    # rows of b_j = 0 are the hard constraints h_j + (G w)_j <= 0, strictly
    # met at a random w0; the other rows have offsets b_j in [0.5, 2]
    rng = np.random.default_rng([18, seed])
    m, k = int(rng.integers(4, 30)), int(rng.integers(1, 5))
    G = np.vstack([rng.standard_normal((m, k)), np.eye(k), -np.eye(k)])
    b = rng.uniform(0.5, 2.0, len(G))
    hard = rng.random(len(G)) < 0.3
    hard[0] = True
    b[hard] = 0.0
    h = rng.standard_normal(len(G)) - float(seed % 2)
    w0 = 3.0 * rng.standard_normal(k)
    h[hard] = -(G[hard] @ w0) - rng.uniform(0.0, 1.0, int(hard.sum()))
    res = lp_min_max(h, G, b)
    assert res.status == OPTIMAL
    assert abs(res.value - _min_max_by_highs(h, G, b)) <= 1e-9
    r = h + G @ res.x
    assert np.max(r[hard]) <= 1e-9
    assert abs(max(0.0, np.max(r[~hard] / b[~hard])) - res.value) <= 1e-9


def test_min_max_with_contradicting_hard_rows_is_infeasible():
    # g w <= -1 and -g w <= -1 have no common solution
    rng = np.random.default_rng(19)
    g = rng.standard_normal(3)
    G = np.vstack([g, -g, rng.standard_normal((6, 3))])
    h = np.concatenate([[1.0, 1.0], rng.standard_normal(6)])
    b = np.concatenate([[0.0, 0.0], np.ones(6)])
    assert _min_max_by_highs(h, G, b) == np.inf
    assert lp_min_max(h, G, b).status == INFEASIBLE


def test_min_max_without_free_directions():
    rng = np.random.default_rng(16)
    for h in (rng.standard_normal(7), -rng.uniform(0.1, 1.0, 5)):
        G = np.zeros((len(h), 0))
        res = lp_min_max(h, G)
        assert res.status == OPTIMAL
        assert res.x.shape == (0,)
        assert abs(res.value - max(0.0, h.max())) <= 1e-12
        assert abs(res.value - _min_max_by_highs(h, G)) <= 1e-12


def _blocked_min_max_by_hand(h, G, b, block):
    """The value of ``lp_min_max(h, G, b, block)`` by ``lp_solve`` on its
    epigraph LP in (w, t), one t_k per block, assembled row by row."""
    m, k = G.shape
    nb = int(max(block)) + 1
    a_ub = np.zeros((m, k + nb))
    for j in range(m):
        a_ub[j, :k] = G[j]
        a_ub[j, k + block[j]] = -b[j]
    c = np.concatenate([np.zeros(k), np.ones(nb)])
    ref = lp_solve(LpProblem(c, a_ub=a_ub, b_ub=-h,
                             bounds=[(None, None)] * k + [(0, None)] * nb))
    assert ref.status == OPTIMAL
    return ref.value


def _blocked_value(h, G, b, block, w):
    """sum_k max(0, max_{j in k} (h_j + (G w)_j) / b_j) over the rows of
    b_j > 0."""
    r = h + G @ w
    rows = [(b > 0) & (block == k) for k in np.unique(block)]
    return sum(max(0.0, np.max(r[j] / b[j], initial=0.0)) for j in rows)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("cols", ["free", "none"])
def test_blocked_min_max_matches_the_epigraph_lp(seed, cols):
    # random blocks of rows with offsets in [0.5, 2], a share of them hard
    # (b_j = 0) and strictly met at a random w0; with no columns of G the
    # value is that of w = 0
    rng = np.random.default_rng([41, seed])
    m, k = int(rng.integers(6, 40)), int(rng.integers(1, 6))
    G = np.vstack([rng.standard_normal((m, k)), np.eye(k), -np.eye(k)])
    if cols == "none":
        G = np.zeros((len(G), 0))
    block = rng.integers(0, int(rng.integers(1, 8)), len(G))
    b = rng.uniform(0.5, 2.0, len(G))
    hard = rng.random(len(G)) < 0.2
    b[hard] = 0.0
    h = rng.standard_normal(len(G)) - float(seed % 2)
    w0 = 3.0 * rng.standard_normal(G.shape[1])
    h[hard] = -(G[hard] @ w0) - rng.uniform(0.0, 1.0, int(hard.sum()))
    res = lp_min_max(h, G, b, block=block)
    assert res.status == OPTIMAL
    ref = _blocked_min_max_by_hand(h, G, b, block)
    assert abs(res.value - ref) <= 1e-9 * (1.0 + ref)
    assert np.max(h[hard] + G[hard] @ res.x, initial=-1.0) <= 1e-9
    assert abs(_blocked_value(h, G, b, block, res.x) - res.value) \
        <= 1e-9 * (1.0 + ref)


@pytest.mark.parametrize("seed", range(4))
def test_one_block_keeps_the_bits_of_no_blocks(seed):
    rng = np.random.default_rng([42, seed])
    G = np.vstack([rng.standard_normal((20, 4)), np.eye(4), -np.eye(4)])
    h = rng.standard_normal(len(G))
    b = rng.uniform(0.5, 2.0, len(G))
    plain = lp_min_max(h, G, b)
    zeros = lp_min_max(h, G, b, block=np.zeros(len(G), int))
    assert plain.x.tobytes() == zeros.x.tobytes()
    assert (plain.value, plain.iterations) == (zeros.value, zeros.iterations)


def _phase_one_pivots(monkeypatch):
    """Record the pivots of every phase 1 that ``_Simplex`` runs."""
    counts = []
    iterate = lp._Simplex._iterate

    def spy(self, A, c, basis, phase):
        before = self.iterations
        out = iterate(self, A, c, basis, phase)
        if phase == 1:
            counts.append(self.iterations - before)
        return out

    monkeypatch.setattr(lp._Simplex, "_iterate", spy)
    return counts


@pytest.mark.parametrize("seed", range(4))
def test_no_phase_one_pivot_when_artificials_start_at_zero(seed,
                                                           monkeypatch):
    counts = _phase_one_pivots(monkeypatch)
    rng = np.random.default_rng([17, seed])
    # the dual of lp_min_max: the G^T lam = 0 rows get artificials at level
    # 0, and the row of t is covered by its bound's column
    m, k = 60, 8
    G = np.vstack([rng.standard_normal((m, k)), np.eye(k), -np.eye(k)])
    h = rng.standard_normal(len(G))
    res = lp_min_max(h, G)
    assert counts == [0]
    assert res.status == OPTIMAL
    assert abs(res.value - _min_max_by_highs(h, G)) <= 1e-9
    # a standard-form problem whose rows all have b = 0 and no unit column
    counts.clear()
    A = rng.standard_normal((5, 12))
    status, z, value, _ = lp._Simplex(A, np.zeros(5),
                                      rng.uniform(0.1, 1.0, 12)).solve()
    assert counts == [0]
    assert status == OPTIMAL and abs(value) <= 1e-12
    assert np.max(np.abs(A @ z)) <= 1e-12


# ---------------------------------------------------------------------------
# the standard form against the per-column loop it replaced
# ---------------------------------------------------------------------------

def _standard_form_loop(p):
    n = p.n_vars
    cols = []
    shifts = np.zeros(n)
    c_std = []
    extra_ub = []
    k = 0
    for j, (lo, hi) in enumerate(p.bounds):
        if lo is None:
            cols.append([(k, 1.0), (k + 1, -1.0)])
            c_std.extend([p.c[j], -p.c[j]])
            k += 2
        else:
            shifts[j] = lo
            cols.append([(k, 1.0)])
            c_std.append(p.c[j])
            k += 1
        if hi is not None:
            row = np.zeros(n)
            row[j] = 1.0
            extra_ub.append((row, hi))
    a_ub = p.a_ub
    b_ub = p.b_ub
    if extra_ub:
        a_ub = np.vstack([a_ub] + [r for r, _ in extra_ub])
        b_ub = np.concatenate([b_ub, [h for _, h in extra_ub]])
    m_eq, m_ub = p.a_eq.shape[0], a_ub.shape[0]
    A = np.zeros((m_eq + m_ub, k + m_ub))
    orig = np.vstack([p.a_eq, a_ub]) if m_eq + m_ub else np.zeros((0, n))
    for j in range(n):
        for idx, sgn in cols[j]:
            A[:, idx] += sgn * orig[:, j]
    for i in range(m_ub):
        A[m_eq + i, k + i] = 1.0
    b = np.concatenate([p.b_eq, b_ub]) - orig @ shifts
    c_full = np.concatenate([np.asarray(c_std), np.zeros(m_ub)])

    def recover(z):
        x = shifts.copy()
        for j in range(n):
            for idx, sgn in cols[j]:
                x[j] += sgn * z[idx]
        return x

    return A, b, c_full, recover, m_eq, m_ub


def test_standard_form_is_bit_identical_to_the_column_loop():
    rng = np.random.default_rng(18)
    kinds = [(None, None), (0.0, None), (-1.5, None), (None, 2.0),
             (-1.0, 2.5), (0.5, 0.5)]
    for trial in range(200):
        n = int(rng.integers(0, 9))
        m_ub, m_eq = int(rng.integers(0, 5)), int(rng.integers(0, 4))
        a_ub = rng.standard_normal((m_ub, n))
        a_eq = rng.standard_normal((m_eq, n))
        # signed zeros and exact zeros in the data
        a_ub[rng.random(a_ub.shape) < 0.2] = -0.0
        a_eq[rng.random(a_eq.shape) < 0.2] = 0.0
        bounds = [kinds[i] for i in rng.integers(0, len(kinds), n)]
        p = LpProblem(rng.standard_normal(n), a_ub=a_ub,
                      b_ub=rng.standard_normal(m_ub), a_eq=a_eq,
                      b_eq=rng.standard_normal(m_eq), bounds=bounds)
        new, old = lp._to_standard_form(p), _standard_form_loop(p)
        for a, b in zip(new[:3], old[:3]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert new[4:] == old[4:]
        z = rng.standard_normal(new[0].shape[1])
        assert new[3](z).tobytes() == old[3](z).tobytes()


# ---------------------------------------------------------------------------
# the pivot loop against the list-based loop it replaced
# ---------------------------------------------------------------------------

def _iterate_loop(simplex, A, c, basis, phase):
    """``_Simplex._iterate`` as a loop over a Python list basis, with the
    ratios filled by a masked assignment and the ties broken by ``min``;
    returns (basis, xB, ok)."""
    basis = list(basis)
    Binv = simplex._invert(A, basis)
    xB = np.maximum(Binv @ simplex.b, 0.0)
    bland = False
    degenerate_run = 0
    max_iter = 2000 + 40 * (A.shape[0] + A.shape[1])
    since_refactor = 0
    for _ in range(max_iter):
        cB = c[np.asarray(basis)]
        if phase == 1 and cB @ xB <= 0.0:
            return basis, xB, True
        simplex.iterations += 1
        y = cB @ Binv
        reduced = c - y @ A
        reduced[np.asarray(basis)] = 0.0
        if bland:
            cand = np.flatnonzero(reduced < -lp.COST_TOL)
            if cand.size == 0:
                return basis, xB, True
            enter = int(cand[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -lp.COST_TOL:
                return basis, xB, True
        d = Binv @ A[:, enter]
        pos = d > lp.PIVOT_TOL
        if not np.any(pos):
            return basis, xB, False
        ratios = np.full(d.shape, np.inf)
        ratios[pos] = xB[pos] / d[pos]
        theta = ratios.min()
        ties = np.flatnonzero(ratios <= theta + 1e-12)
        leave = int(min(ties, key=lambda i: basis[i]))
        if theta <= 1e-12:
            degenerate_run += 1
            if degenerate_run > 2 * (A.shape[0] + 10):
                bland = True
        else:
            degenerate_run = 0
        basis[leave] = enter
        xB = xB - theta * d
        xB[leave] = theta
        np.maximum(xB, 0.0, out=xB)
        since_refactor += 1
        if since_refactor >= simplex.refactor_every:
            Binv = simplex._invert(A, basis)
            xB = np.maximum(Binv @ simplex.b, 0.0)
            since_refactor = 0
        else:
            row = Binv[leave].copy()
            coef = -d / d[leave]
            coef[leave] = 0.0
            Binv += np.outer(coef, row)
            Binv[leave] = row / d[leave]
    raise LpNumericalError("iteration cap")


def _random_start(rng, trial):
    """(A, b, c, basis, phase): a slack basis of [M, I] for phase 2, or an
    artificial basis of [M, I] with unit costs on I for phase 1; small
    integers in every other trial make ties in the ratio test."""
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 14))
    if trial % 2:
        M = rng.integers(-2, 3, (m, n)).astype(float)
        b = rng.integers(0, 3, m).astype(float)
        c = rng.integers(-2, 3, n).astype(float)
    else:
        M = rng.standard_normal((m, n))
        b = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 2.0, m))
        c = rng.standard_normal(n)
    A = np.hstack([M, np.eye(m)])
    basis = np.arange(n, n + m)
    if trial % 4 < 2:
        return A, b, np.concatenate([c, np.zeros(m)]), basis, 2
    return A, b, np.concatenate([np.zeros(n), np.ones(m)]), basis, 1


@pytest.mark.parametrize("refactor_every", [lp.REFACTOR_EVERY, 3])
def test_iterate_is_bit_identical_to_the_list_loop(refactor_every):
    rng = np.random.default_rng(21)
    outcomes = set()
    for trial in range(300):
        A, b, c, basis, phase = _random_start(rng, trial)
        new = lp._Simplex(A, b, c, refactor_every)
        old = lp._Simplex(A, b, c, refactor_every)
        got = new._iterate(A, c, basis, phase)
        ref = _iterate_loop(old, A, c, basis, phase)
        assert got[2] == ref[2]
        assert list(got[0]) == ref[0]
        assert got[1].tobytes() == ref[1].tobytes()
        assert new.iterations == old.iterations
        outcomes.add((phase, got[2], new.iterations > 3))
    # both phases, unbounded ends and runs of several pivots are covered
    assert outcomes >= {(1, True, True), (2, True, True), (2, False, True)}


# ---------------------------------------------------------------------------
# every LP is one call of lp.lp_solve, the name bench/spans.py wraps
# ---------------------------------------------------------------------------

def _spy_lp_solve(monkeypatch):
    """Count the calls of ``lp.lp_solve`` and check that every simplex run
    happens inside one."""
    calls = []
    depth = [0]
    solve, run = lp.lp_solve, lp._Simplex.solve

    def spy(problem):
        calls.append(problem)
        depth[0] += 1
        try:
            return solve(problem)
        finally:
            depth[0] -= 1

    def run_spy(self):
        assert depth[0] == 1, "a simplex ran outside lp.lp_solve"
        return run(self)

    monkeypatch.setattr(lp, "lp_solve", spy)
    monkeypatch.setattr(lp._Simplex, "solve", run_spy)
    return calls


def test_each_lp_is_one_lp_solve_call(monkeypatch):
    from gaugerec.gauges import L1, Linf, Precomposed
    from gaugerec.solvers import solve_noiseless
    calls = _spy_lp_solve(monkeypatch)
    rng = np.random.default_rng(22)
    G = np.vstack([rng.standard_normal((12, 3)), np.eye(3), -np.eye(3)])
    assert lp_min_max(rng.standard_normal(len(G)), G).status == OPTIMAL
    assert len(calls) == 1
    res = lp_min_halfspaces(rng.standard_normal(4),
                            rng.standard_normal((15, 4)),
                            rng.uniform(0.1, 1.0, 15),
                            bounds=[(-1.0, 1.0)] * 4)
    assert res.status == OPTIMAL
    assert len(calls) == 2
    Phi = rng.standard_normal((5, 10))
    y = Phi @ rng.standard_normal(10)
    gauges = (L1(10), Linf(10), Precomposed(L1(9), np.diff(np.eye(10)).T),
              Precomposed(Linf(12), rng.standard_normal((12, 10))))
    for k, g in enumerate(gauges, start=3):
        assert solve_noiseless(Phi, y, g).method == "lp"
        assert len(calls) == k


# ---------------------------------------------------------------------------
# the drive-out of zero-level artificials: scale and cost
# ---------------------------------------------------------------------------

SCALES = [10.0 ** e for e in range(-12, 10)]


def test_min_max_value_does_not_depend_on_the_scale_of_G():
    # w rescales, so the value is the same for every s; redundancy judged
    # on an absolute scale dropped every G^T lam = 0 row below s = 1e-9
    # and returned max(h), the value at w = 0
    rng = np.random.default_rng(0)
    h = rng.standard_normal(12)
    G = rng.standard_normal((12, 3))
    ref = _min_max_by_highs(h, G)
    for s in SCALES:
        res = lp_min_max(h, s * G)
        assert res.status == OPTIMAL
        assert abs(res.value - ref) <= 1e-9 * ref, s


def test_noiseless_l1_does_not_depend_on_the_scale_of_phi():
    # x0 is the l1 minimizer of Phi x = Phi x0 at every scale of (Phi, y);
    # small scales used to drop every row and index an empty basis
    from gaugerec.gauges import L1
    from gaugerec.solvers import solve_noiseless
    Phi = np.random.default_rng(1).standard_normal((6, 12))
    x0 = np.zeros(12)
    x0[[1, 5]] = [1.0, -2.0]
    y = Phi @ x0
    for s in SCALES:
        res = solve_noiseless(s * Phi, s * y, L1(12))
        assert res.method == "lp"
        assert np.max(np.abs(res.x_hat - x0)) <= 1e-9, s


@pytest.mark.parametrize("seed", range(6))
def test_min_max_with_tied_rows_matches_highs(seed):
    # small integers: repeated rows, equal values and degenerate vertices
    rng = np.random.default_rng([23, seed])
    for _ in range(15):
        m, k = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        G = rng.integers(-2, 3, (m, k)).astype(float)
        G = np.vstack([G, G[: m // 2], np.eye(k), -np.eye(k)])
        h = rng.integers(-2, 3, len(G)).astype(float)
        res = lp_min_max(h, G)
        assert res.status == OPTIMAL
        assert abs(res.value - _min_max_by_highs(h, G)) <= 1e-9
        assert abs(max(0.0, np.max(h + G @ res.x)) - res.value) <= 1e-9


def test_chebyshev_matches_highs():
    rng = np.random.default_rng(24)
    for _ in range(20):
        r, k = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        M = rng.standard_normal((r, k))
        q = rng.standard_normal(r)
        val, w = lp_minimize_linf(M, q)
        ref = _min_max_by_highs(np.concatenate([q, -q]), np.vstack([M, -M]))
        assert abs(val - ref) <= 1e-9
        assert abs(np.max(np.abs(M @ w + q)) - val) <= 1e-9


def _phase_items(seed, n_items, N=64, I=16, Qs=(50, 52, 54, 56, 58, 60)):
    """(Phi, y) of the max-abs phase-transition items: |I| entries of x0
    saturated at +-1, the rest uniform in (-1/2, 1/2), Phi Gaussian with Q
    rows rotating over Qs."""
    for i in range(n_items):
        rng = np.random.default_rng([seed, 1, i])
        x0 = np.zeros(N)
        idx = rng.choice(N, size=I, replace=False)
        x0[idx] = rng.choice([-1.0, 1.0], size=I)
        rest = np.setdiff1d(np.arange(N), idx)
        x0[rest] = rng.uniform(-0.5, 0.5, size=N - I)
        Phi = rng.standard_normal((Qs[i % len(Qs)], N))
        yield Phi, Phi @ x0


def _svd_basis_pivots(Phi, y):
    """Pivots of the LP that ``solve_noiseless(Phi, y, Linf(N))`` solves,
    built on xls and Ker(Phi) from the full SVD of Phi."""
    from gaugerec.gauges import Linf
    from gaugerec.linalg import numerical_rank
    from gaugerec.solvers import _noiseless_lp
    U, s, Vt = np.linalg.svd(Phi, full_matrices=True)
    r = numerical_rank(s, Phi.shape)
    xls = Vt[:r].T @ ((U[:, :r].T @ y) / s[:r])
    res, _ = _noiseless_lp(Linf(Phi.shape[1]), xls, Vt[r:].T)
    assert res.status == OPTIMAL
    return res.iterations


def test_phase_transition_lps_take_few_pivots():
    # the cost-aware drive-out starts phase 2 near its optimum: these 24
    # LPs take 264 pivots, against 470 when the largest entry entered.
    # They are built on the SVD basis of Ker(Phi) that this bound was
    # calibrated on; a different orthonormal basis moves the pivot path
    pivots = sum(_svd_basis_pivots(Phi, y) for Phi, y in _phase_items(7, 24))
    assert pivots <= 275


def test_noiseless_linf_takes_no_more_pivots_than_on_the_svd_basis():
    # solve_noiseless takes Ker(Phi) from a QR of Phi^T; over seeds 1-8
    # its LPs take no more pivots in total than on the SVD basis (seed 7
    # alone is the SVD basis's best draw)
    from gaugerec.gauges import Linf
    from gaugerec.solvers import solve_noiseless
    items = [item for seed in range(1, 9) for item in _phase_items(seed, 24)]
    ours = sum(solve_noiseless(Phi, y, Linf(64)).iterations
               for Phi, y in items)
    assert ours <= sum(_svd_basis_pivots(Phi, y) for Phi, y in items)
