import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gaugerec.gauges import (L1, L2, Linf, GroupL1L2, PolyhedralH, Precomposed,
                             PositivePartMax, SumGauge, BlockPartition,
                             UnsupportedGaugeError, project_l1_ball,
                             project_simplex_interior)
from gaugerec import gauges as gauges_mod
from gaugerec.lp import (LpProblem, LpResult, LpNumericalError, lp_solve,
                         OPTIMAL, INFEASIBLE, UNBOUNDED)
from gaugerec.model import decompose, subdiff_membership, tv1d_gauge
from gaugerec.linalg import null_space
from gaugerec.polytopes import (random_polytope, Polytope, PolytopeError,
                                MAX_ENUM_DIM)


def all_gauges(n=4):
    part = BlockPartition([[0, 1], [2, 3]], 4)
    H = np.random.default_rng(3).standard_normal((4, 9))
    return [L1(n), L2(n), Linf(n), GroupL1L2(part), PolyhedralH(H),
            tv1d_gauge(n)]


finite_vecs = arrays(np.float64, (4,),
                     elements=st.floats(-10, 10, allow_nan=False))
# draws that repeat values and hit exact zeros, so the sorted input has ties
entries_with_ties = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0]),
                              st.floats(-5, 5))
radii = st.one_of(st.just(0.0), st.floats(0.0, 12.0))


def _bisection_threshold(a, radius):
    """theta >= 0 with sum(max(a - theta, 0)) = radius, by bisection."""
    lo, hi = 0.0, float(a.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    return hi


class TestEval:
    def test_linf_example(self):
        assert Linf(2).value(np.array([3.0, -5.0])) == 5.0

    def test_polyhedral_recovers_linf(self, rng):
        H = np.hstack([np.eye(2), -np.eye(2)])
        g = PolyhedralH(H)
        assert abs(g.value(np.array([3.0, -5.0])) - 5.0) <= 1e-12
        for _ in range(50):
            x = rng.standard_normal(2) * 3
            assert abs(g.value(x) - Linf(2).value(x)) <= 1e-12

    def test_group_blocks(self):
        part = BlockPartition([[0, 1], [2]], 3)
        g = GroupL1L2(part)
        assert abs(g.value(np.array([3.0, 4.0, -2.0])) - 7.0) <= 1e-12

    def test_sum(self):
        g = SumGauge([L1(3), Linf(3)])
        x = np.array([1.0, -2.0, 0.5])
        assert abs(g.value(x) - (3.5 + 2.0)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(x=finite_vecs, t=st.floats(0.01, 100.0))
    def test_positive_homogeneity(self, x, t):
        for g in all_gauges():
            v = g.value(x)
            assert abs(g.value(t * x) - t * v) <= 1e-10 * (1.0 + t * abs(v))

    @settings(max_examples=60, deadline=None)
    @given(x=finite_vecs, y=finite_vecs)
    def test_subadditivity(self, x, y):
        for g in all_gauges():
            lhs = g.value(x + y)
            rhs = g.value(x) + g.value(y)
            assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs))

    def test_zero_is_zero(self):
        for g in all_gauges():
            assert g.value(np.zeros(4)) == 0.0


class TestPolar:
    def test_l1_to_linf(self):
        assert L1(2).polar(np.array([3.0, -5.0])) == 5.0

    def test_l2_self_polar(self, rng):
        u = rng.standard_normal(5)
        assert abs(L2(5).polar(u) - np.linalg.norm(u)) <= 1e-12

    def test_group_duality(self, rng):
        part = BlockPartition([[0, 1], [2, 3, 4]], 5)
        g = GroupL1L2(part)
        u = rng.standard_normal(5)
        expect = max(np.linalg.norm(u[:2]), np.linalg.norm(u[2:]))
        assert abs(g.polar(u) - expect) <= 1e-12

    def test_polytope_gauge_polar_tightness(self, rng):
        # Hölder holds with equality attained by the LP maximizer
        P = random_polytope(3, seed=17)
        g = PolyhedralH((P.normals / P.offsets[:, None]).T)
        for _ in range(10):
            u = rng.standard_normal(3)
            v = g.polar(u)
            xs = rng.standard_normal((1000, 3))
            for x in xs[:100]:
                assert u @ x <= g.value(x) * v + 1e-8
            best = max((u @ x) / g.value(x) for x in xs if g.value(x) > 1e-12)
            # LP maximizer achieves the bound within 1e-6
            assert v >= best - 1e-6
            star = P.vertices[np.argmax(P.vertices @ u)]
            assert abs(u @ star - g.value(star) * v) <= 1e-6 * (1.0 + abs(v))

    def test_precomposed_polar_tv(self, rng):
        g = tv1d_gauge(5)
        # finite only on the image of D (zero-sum directions here)
        u = rng.standard_normal(5)
        u -= u.mean()
        val = g.polar(u)
        assert np.isfinite(val)
        assert g.polar(np.ones(5)) == np.inf

    def test_precomposed_polar_lp_status(self, rng, monkeypatch):
        # x = 0 is feasible in the polar LP of a base with atoms, so an
        # unbounded LP is +inf and any other non-optimal end is an error
        u = rng.standard_normal(4)
        for base in (Linf(6), PositivePartMax(6)):
            g = Precomposed(base, rng.standard_normal((6, 4)))
            monkeypatch.setattr(gauges_mod, "lp_solve",
                                lambda prob: LpResult(UNBOUNDED))
            assert g.polar(u) == np.inf
            monkeypatch.setattr(gauges_mod, "lp_solve",
                                lambda prob: LpResult(INFEASIBLE))
            with pytest.raises(LpNumericalError):
                g.polar(u)

    @pytest.mark.parametrize("shape", [(9, 7), (5, 7)],
                             ids=["kernel", "off-range"])
    def test_precomposed_linf_polar_matches_the_kernel_lp(self, rng, shape):
        # D = dstar^T has a kernel of dim 2 at (9, 7); at (5, 7) its range
        # has dim 5, so a random u lies off it
        finite = 0
        for _ in range(20):
            dstar = rng.standard_normal(shape)
            g = Precomposed(Linf(shape[0]), dstar)
            for u in (rng.standard_normal(shape[1]),
                      dstar.T @ rng.standard_normal(shape[0])):
                want = _reference_linf_polar(dstar, u)
                got = g.polar(u)
                if np.isinf(want):
                    assert got == np.inf
                else:
                    assert abs(got - want) <= 1e-12 * abs(want)
                    finite += 1
        assert finite >= 20

    def test_sum_polar_nonoptimal_lp_raises(self, monkeypatch):
        # the split LP is feasible and bounded below by 0
        monkeypatch.setattr(gauges_mod, "lp_min_max",
                            lambda h, G, b: LpResult(INFEASIBLE))
        with pytest.raises(LpNumericalError):
            SumGauge([L1(3), Linf(3)]).polar(np.ones(3))

    def test_sum_polar_doubled_gauge(self, rng):
        # the ball of l1+l1 is half the l1 ball, so the polar gauge is
        # half the linf value; exercises the split LP
        g = SumGauge([L1(3), L1(3)])
        for _ in range(20):
            u = rng.standard_normal(3)
            assert abs(g.polar(u) - 0.5 * np.max(np.abs(u))) <= 1e-9

    def test_sum_polar_vs_brute_support(self, rng):
        # sup over the summed-gauge unit ball, brute-forced on a dense grid
        g = SumGauge([L1(2), Linf(2)])
        grid = np.stack(np.meshgrid(np.linspace(-1, 1, 401),
                                    np.linspace(-1, 1, 401)), axis=-1)
        pts = grid.reshape(-1, 2)
        vals = np.abs(pts).sum(1) + np.abs(pts).max(1)
        ball = pts[vals <= 1.0]
        for _ in range(10):
            u = rng.standard_normal(2)
            brute = float(np.max(ball @ u))
            assert abs(g.polar(u) - brute) <= 3e-3 * (1.0 + abs(brute))

    def test_nested_sum_polar_equals_the_flat_sum(self, rng):
        # the inner sum's ball vertices come from its _ball_halfspaces
        nested = SumGauge([SumGauge([L1(3), Linf(3)]), L1(3)])
        flat = SumGauge([L1(3), Linf(3), L1(3)])
        for _ in range(10):
            u = rng.standard_normal(3)
            want = flat.polar(u)
            assert abs(nested.polar(u) - want) <= 1e-12 * (1.0 + want)

    def test_precomposed_l1_polar_over_a_kernel_matches_highs(self, rng):
        # x -> ||x||_1 + ||D* x||_1 as l1 over [I; D*]: D = [I, D] has a
        # kernel of dim n - 1, and the polar at u is min ||w||_inf over
        # D w = u, an LP that scipy's HiGHS solves independently
        from scipy.optimize import linprog
        n = 6
        dstar = np.vstack([np.eye(n), tv1d_gauge(n).dstar])
        m = dstar.shape[0]
        g = Precomposed(L1(m), dstar)
        # variables (w, s): min s subject to -s <= w_i <= s, D w = u
        c = np.append(np.zeros(m), 1.0)
        a_ub = np.vstack([np.hstack([np.eye(m), -np.ones((m, 1))]),
                          np.hstack([-np.eye(m), -np.ones((m, 1))])])
        a_eq = np.hstack([dstar.T, np.zeros((n, 1))])
        for _ in range(10):
            u = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
            ref = linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * m), A_eq=a_eq,
                          b_eq=u, bounds=[(None, None)] * (m + 1),
                          method="highs")
            assert ref.status == 0
            assert abs(g.polar(u) - ref.fun) <= 1e-9 * (1.0 + ref.fun)

    def test_unsupported_combination(self):
        g = SumGauge([L2(3), L2(3)])
        with pytest.raises(UnsupportedGaugeError):
            g.polar(np.ones(3))

    def test_holder_bulk(self, rng):
        part = BlockPartition([[0, 1], [2, 3]], 4)
        gauges = [L1(4), L2(4), Linf(4), GroupL1L2(part)]
        for g in gauges:
            X = rng.standard_normal((1000, 4))
            U = rng.standard_normal((1000, 4))
            for x, u in zip(X, U):
                assert x @ u <= g.value(x) * g.polar(u) + 1e-9

    def test_bipolarity_of_evaluation(self, rng):
        # polar of the polar recovers the gauge on supported kinds
        pairs = [(L1(4), Linf(4)), (Linf(4), L1(4)), (L2(4), L2(4))]
        for g, gp in pairs:
            for _ in range(50):
                x = rng.standard_normal(4)
                assert abs(g.value(x) - gp.polar(x)) <= 1e-9 * (1 + g.value(x))


class TestProx:
    def test_l1_soft_threshold(self):
        out = L1(2).prox(1.0, np.array([3.0, -0.5]))
        assert np.allclose(out, [2.0, 0.0])

    def test_linf_moreau_zero(self):
        out = Linf(2).prox(10.0, np.array([3.0, -0.5]))
        assert np.allclose(out, [0.0, 0.0], atol=1e-15)

    def test_prox_of_zero(self):
        part = BlockPartition([[0, 1], [2, 3]], 4)
        for g in (L1(4), Linf(4), GroupL1L2(part)):
            assert np.allclose(g.prox(0.7, np.zeros(4)), np.zeros(4))

    def test_unsupported(self):
        with pytest.raises(UnsupportedGaugeError):
            PolyhedralH(np.eye(3)).prox(1.0, np.ones(3))

    PROXABLE = [L1(4), Linf(4), GroupL1L2(BlockPartition([[0, 1], [2, 3]], 4))]

    @pytest.mark.parametrize("g", PROXABLE, ids=["l1", "linf", "group"])
    def test_prox_validates_its_input(self, g):
        for bad in (np.array([1.0, np.nan, 0.0, 2.0]),
                    np.array([1.0, np.inf, 0.0, 2.0]),
                    np.array([1.0, -np.inf, 0.0, 2.0]),
                    np.ones((1, 4)), np.ones((4, 4)), np.ones(3),
                    np.float64(1.0)):
            with pytest.raises(ValueError):
                g.prox(0.5, bad)

    @pytest.mark.parametrize("g", PROXABLE, ids=["l1", "linf", "group"])
    def test_prox_validates_lam(self, g):
        # a negative lam expanded v (L1 gave [2, -3, 1.5, 0] at -1), a nan
        # lam gave all-nan, and the group prox at inf gave nan
        v = np.array([1.0, -2.0, 0.5, 0.0])
        for lam in (-1.0, -1e-300, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^lam must be finite"):
                g.prox(lam, v)
        assert np.array_equal(g.prox(0.0, v), v)
        assert np.array_equal(g.prox(np.float64(1e300), v), np.zeros(4))

    @settings(max_examples=300, deadline=None)
    @given(v=arrays(np.float64, st.integers(1, 9), elements=entries_with_ties),
           lam=radii)
    @example(v=np.array([2.0, -2.0, 2.0, 1.0]), lam=0.5)
    @example(v=np.array([-2.0, 2.0, 0.5]), lam=5.0)
    @example(v=np.array([0.5, -0.25]), lam=0.75)
    @example(v=np.array([3.0, -1.0, 0.0]), lam=0.0)
    @example(v=np.zeros(3), lam=0.0)
    def test_linf_prox_is_v_minus_the_l1_projection(self, v, lam):
        # Moreau's v - project_l1_ball(v, lam), which the clip replaced:
        # the entries below the threshold are v's own, the rest agree to
        # 1e-15 relative; ties at the max, ||v||_1 <= lam and lam = 0
        ref = v - project_l1_ball(v, lam)
        out = Linf(len(v))._prox(lam, v)
        a = np.abs(v)
        assert np.abs(out - ref).max() <= 1e-15 * a.max()
        if a.sum() > lam:
            below = a < gauges_mod._descending_threshold(a, lam)
            assert np.array_equal(out[below], ref[below])
        else:
            assert not np.any(out)

    @pytest.mark.parametrize("g", PROXABLE, ids=["l1", "linf", "group"])
    def test_prox_is_the_checked_unchecked_prox(self, g, rng):
        # bit for bit, signed zeros included: a dropped group block is +0
        for _ in range(200):
            v = rng.standard_normal(4) * rng.choice([0.1, 1.0, 10.0])
            v[rng.random(4) < 0.2] = 0.0
            lam = float(rng.choice([0.0, rng.uniform(0.01, 3.0)]))
            out = g.prox(lam, list(v))
            assert out.dtype == float and out.shape == (4,)
            assert out.tobytes() == g._prox(lam, v).tobytes()

    def test_prox_optimality_via_membership(self, rng):
        # v - p must be a subgradient of lam*g at p
        part = BlockPartition([[0, 1], [2, 3]], 4)
        for g in (L1(4), GroupL1L2(part), Linf(4)):
            for _ in range(40):
                v = rng.standard_normal(4) * 2
                lam = float(rng.uniform(0.2, 2.0))
                p = g.prox(lam, v)
                eta = (v - p) / lam
                if np.max(np.abs(p)) == 0.0:
                    assert g.polar(eta) <= 1.0 + 1e-9
                    continue
                md = decompose(g, p)
                assert subdiff_membership(md, eta, band=1e-7) in (
                    "interior", "boundary")


class _ReferencePolyhedralH:
    """max_i (<x, h_i>)_+ with its own value, polar and kernel, as the
    gauge was written before it became the positive-part max pre-composed
    with H^T."""

    def __init__(self, H):
        self.H = H
        self.dim = H.shape[0]

    def value(self, x):
        return float(np.max(self.H.T @ x, initial=0.0))

    def _bounded_ball(self):
        if self.dim > MAX_ENUM_DIM:
            return None
        try:
            return Polytope.from_halfspaces(self.H.T, np.ones(self.H.shape[1]))
        except PolytopeError:
            return None

    def polar(self, u):
        ball = self._bounded_ball()
        if ball is not None:
            return ball.support(u)
        res = lp_solve(LpProblem(-u, a_ub=self.H.T,
                                 b_ub=np.ones(self.H.shape[1]),
                                 bounds=[(None, None)] * self.dim))
        if res.status != OPTIMAL:
            return np.inf
        return -float(res.value)

    def kernel_directions(self):
        lin = null_space(self.H.T)
        dirs = [v for v in lin.T] + [-v for v in lin.T]
        if self.dim <= MAX_ENUM_DIM:
            eye = np.eye(self.dim)
            try:
                box = Polytope.from_halfspaces(
                    np.vstack([self.H.T, eye, -eye]),
                    np.concatenate([np.zeros(self.H.shape[1]),
                                    np.ones(2 * self.dim)]))
                for v in box.vertices:
                    if np.linalg.norm(v) > 1e-7:
                        dirs.append(v)
            except PolytopeError:
                pass
        return np.asarray(dirs) if dirs else np.zeros((0, self.dim))


def _in_cone(d, G):
    """d is a nonnegative combination of the rows of G."""
    if len(G) == 0:
        return not np.any(d)
    res = lp_solve(LpProblem(np.zeros(len(G)), a_eq=G.T, b_eq=d,
                             bounds=[(0, None)] * len(G)))
    return res.status == OPTIMAL


def _reference_linf_polar(dstar, u):
    """The polar of x -> ||dstar x||_inf as the min of ||q + Z w||_1 over w,
    q = D^+ u and Z a basis of Ker D (D = dstar^T), +inf off range(D)."""
    D = dstar.T
    q = np.linalg.pinv(D) @ u
    if np.linalg.norm(D @ q - u) > 1e-9 * (1.0 + np.linalg.norm(u)):
        return np.inf
    Z = null_space(D)
    r, k = Z.shape
    c = np.concatenate([np.zeros(k), np.ones(r)])
    a_ub = np.vstack([np.hstack([Z, -np.eye(r)]), np.hstack([-Z, -np.eye(r)])])
    res = lp_solve(LpProblem(c, a_ub=a_ub, b_ub=np.concatenate([-q, q]),
                             bounds=[(None, None)] * k + [(0, None)] * r))
    assert res.status == OPTIMAL
    return float(res.value)


class TestPolyhedralIsPrecomposed:
    @staticmethod
    def _matrices(rng):
        """Positively spanning H (bounded ball), H with all columns in the
        half-space x_0 > 0 (unbounded ball, a kernel cone) and a tall H
        beyond vertex enumeration."""
        spanning = rng.standard_normal((3, 9))
        halfspace = rng.standard_normal((4, 6))
        halfspace[0] = np.abs(halfspace[0]) + 0.1
        return [spanning, halfspace, rng.standard_normal((10, 14))]

    def test_is_the_positive_part_max_over_h_transpose(self, rng):
        H = rng.standard_normal((4, 6))
        g = PolyhedralH(H)
        assert isinstance(g, Precomposed)
        assert isinstance(g.base, PositivePartMax)
        assert g.base.dim == 6 and g.dim == 4
        assert np.array_equal(g.dstar, H.T) and g.H is H

    def test_value_and_polar_match_the_reference(self, rng):
        finite = infinite = 0
        for H in self._matrices(rng):
            g, ref = PolyhedralH(H), _ReferencePolyhedralH(H)
            n = H.shape[0]
            # random directions, and directions inside the cone of the
            # columns, where the polar is finite
            us = np.vstack([rng.standard_normal((15, n)),
                            rng.uniform(0.0, 1.0, (15, H.shape[1])) @ H.T])
            for u in us:
                assert abs(g.value(u) - ref.value(u)) <= 1e-12 * (
                    1.0 + abs(ref.value(u)))
                want, got = ref.polar(u), g.polar(u)
                if np.isinf(want):
                    assert got == np.inf
                    infinite += 1
                else:
                    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
                    finite += 1
        assert finite and infinite

    def test_kernel_generates_the_reference_cone(self, rng):
        for H in self._matrices(rng):
            new = PolyhedralH(H).kernel_directions()
            old = _ReferencePolyhedralH(H).kernel_directions()
            assert all(_in_cone(d, old) for d in new)
            assert all(_in_cone(d, new) for d in old)
            # every generator lies in the kernel cone {x : H^T x <= 0}
            assert np.all(new @ H <= 1e-9)

    def test_construction_and_evaluation_need_no_svd(self, rng,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("an SVD was computed")

        monkeypatch.setattr(gauges_mod, "svd_pinv", refuse)
        monkeypatch.setattr(gauges_mod, "null_space", refuse)
        H = rng.standard_normal((4, 6))
        g = PolyhedralH(H)
        x = rng.standard_normal(4)
        assert g.value(x) == float(np.max(H.T @ x, initial=0.0))
        g.polar(x)


class TestGroupKernels:
    # uneven blocks (sizes 1 and 3) over shuffled indices, one block empty
    PART = BlockPartition([[4], [6, 0, 3], [], [2, 7, 5], [1]], 8)

    @settings(max_examples=200, deadline=None)
    @given(v=arrays(np.float64, (8,), elements=entries_with_ties),
           lam=st.floats(0.01, 4.0))
    def test_match_per_block_formulas(self, v, lam):
        g = GroupL1L2(self.PART)
        norms = [np.linalg.norm(v[b]) for b in self.PART]
        value = sum(norms)
        assert abs(g.value(v) - value) <= 1e-15 * max(1.0, value)
        assert abs(g.polar(v) - max(norms)) <= 1e-15 * max(1.0, max(norms))
        ref = v.copy()
        for b, nb in zip(self.PART, norms):
            ref[b] = 0.0 if nb <= lam else v[b] * (1.0 - lam / nb)
        out = g.prox(lam, v)
        assert np.abs(out - ref).max() <= 1e-15 * (1.0 + np.abs(v).max())
        # a dropped block is +0, as the loop writes it
        assert not np.signbit(out[ref == 0.0]).any()
        assert np.array_equal(g.prox(0.0, v), v)

    def test_block_index(self):
        assert list(self.PART.block_of) == [1, 4, 3, 1, 0, 3, 1, 3]
        assert len(self.PART.norms(np.ones(8))) == 5


@pytest.mark.parametrize("k", range(7))
def test_sign_patterns_keep_the_meshgrid_rows(k):
    # the rows, and their order, of the meshgrid construction they replace
    if k == 0:
        old = np.zeros((1, 0))
    else:
        span = np.array(np.meshgrid(*([[-1.0, 1.0]] * k), indexing="ij"))
        old = span.reshape(k, -1).T
    assert np.array_equal(gauges_mod._sign_patterns(k), old)
    assert gauges_mod._sign_patterns(k).shape == old.shape


class TestUnitBallConsistency:
    @pytest.mark.parametrize("kind", ["l1", "linf", "poly"])
    def test_eval_matches_ball_membership(self, kind, rng):
        if kind == "l1":
            g = L1(3)
        elif kind == "linf":
            g = Linf(3)
        else:
            P = random_polytope(3, seed=23)
            g = PolyhedralH((P.normals / P.offsets[:, None]).T)
        verts = g.ball_vertices()
        for _ in range(200):
            x = rng.standard_normal(3) * rng.uniform(0.2, 2.0)
            inside = g.value(x) <= 1.0
            # membership in conv(verts) via LP feasibility
            nv = len(verts)
            prob = LpProblem(np.zeros(nv),
                             a_eq=np.vstack([verts.T, np.ones((1, nv))]),
                             b_eq=np.concatenate([x, [1.0]]),
                             bounds=[(0, None)] * nv)
            feasible = lp_solve(prob).status == OPTIMAL
            if abs(g.value(x) - 1.0) > 1e-7:
                assert inside == feasible


class TestL1BallProjection:
    def test_inside_untouched(self):
        v = np.array([0.2, -0.3, 0.1])
        assert np.allclose(project_l1_ball(v, 1.0), v)

    @settings(max_examples=80, deadline=None)
    @given(v=arrays(np.float64, (5,), elements=st.floats(-5, 5)),
           r=st.floats(0.1, 4.0))
    def test_optimality(self, v, r):
        p = project_l1_ball(v, r)
        assert np.abs(p).sum() <= r + 1e-9
        # projection onto a convex set: <v - p, z - p> <= 0 for feasible z
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.standard_normal(5)
            z = project_l1_ball(z * r, r)
            assert (v - p) @ (z - p) <= 1e-7 * (1 + np.linalg.norm(v))

    @settings(max_examples=300, deadline=None)
    @given(v=arrays(np.float64, st.integers(1, 9), elements=entries_with_ties),
           r=radii)
    @example(v=np.array([-3.0]), r=1.0)
    @example(v=np.array([1.0, -2.0, 0.5, 0.0]), r=3.5)
    @example(v=np.array([2.0, -2.0, 2.0]), r=0.0)
    def test_projections_match_bisection(self, v, r):
        a = np.abs(v)
        ref = v if a.sum() <= r else np.sign(v) * np.maximum(
            a - _bisection_threshold(a, r), 0.0)
        tol = 1e-12 * (1.0 + a.max())
        assert np.abs(project_l1_ball(v, r) - ref).max() <= tol
        p = np.maximum(v, 0.0)
        ref = p if p.sum() <= r else np.maximum(
            p - _bisection_threshold(p, r), 0.0)
        assert np.abs(project_simplex_interior(v, r) - ref).max() <= tol

    @pytest.mark.parametrize("project", [project_l1_ball,
                                         project_simplex_interior])
    def test_radius_zero_and_negative(self, project):
        assert np.array_equal(project(np.array([1.0, 2.0]), 0.0), [0.0, 0.0])
        assert np.array_equal(project(np.array([-1.0, 0.0]), 0.0), [0.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            project(np.array([1.0, 2.0]), -0.5)

    def test_simplex_interior_projection(self, rng):
        for _ in range(100):
            v = rng.standard_normal(4)
            r = float(rng.uniform(0.2, 2.0))
            p = project_simplex_interior(v, r)
            assert np.all(p >= -1e-12) and p.sum() <= r + 1e-9
            for _ in range(10):
                z = np.abs(rng.standard_normal(4))
                z *= min(1.0, r / z.sum())
                assert (v - p) @ (z - p) <= 1e-7 * (1 + np.linalg.norm(v))
