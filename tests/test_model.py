import numpy as np
import pytest

from gaugerec.gauges import (Gauge, L1, L2, Linf, GroupL1L2, PolyhedralH,
                             SumGauge,
                             BlockPartition, UnsupportedGaugeError)
from gaugerec.linalg import (Subspace, null_space, operator_bound,
                             NoBoundRouteError)
from gaugerec.certificates import stability_constants
from gaugerec.solvers import solve_penalized, SolveOptions
from gaugerec.model import (ModelDecomposition, decompose, decompose_l1,
                            decompose_l2, decompose_linf, decompose_group,
                            decompose_polyhedral, precompose,
                            sum_decompositions, subdiff_membership,
                            directional_derivative, psfl_sum, psfl_precompose,
                            tv1d_gauge, DegenerateModelError, GroupLinf2)
from gaugerec.polytopes import Polytope
from gaugerec import model as model_mod

from conftest import random_l1_instance


@pytest.mark.parametrize("gauge", [
    L1(3), L2(3), Linf(3), GroupL1L2(BlockPartition([[0, 1], [2]], 3)),
    PolyhedralH(np.eye(3)), tv1d_gauge(3)],
    ids=["l1", "l2", "linf", "group", "polyhedral", "tv"])
def test_delta_outside_the_unit_interval_is_rejected(gauge):
    for delta in (1.5, 1.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta"):
            decompose(gauge, np.array([3.0, 0.0, -2.0]), delta=delta)


class TestDecomposeL1:
    def test_example(self):
        md, p = decompose_l1(np.array([3.0, 0.0, -2.0]))
        assert np.allclose(md.e, [1, 0, -1])
        assert md.T.coord_idx == (0, 2)
        assert abs(p.nu - 0.5 * 2.0) <= 1e-12
        # cross-check e: projection of 0 onto the affine hull of the
        # subdifferential built from the sign pattern
        # affine hull = {eta: eta_I = sign(x_I)}; projection of 0 fills I^c
        assert np.allclose(md.e, np.array([1.0, 0.0, -1.0]))

    def test_zero_point(self):
        md, _ = decompose_l1(np.zeros(3))
        assert md.T.dim == 0
        assert np.allclose(md.e, 0)
        # subdifferential at 0 is the polar ball
        assert md.antig.value(np.array([0.5, -0.5, 0.0])) == 0.5

    def test_full_support(self):
        md, _ = decompose_l1(np.array([1.0, 1.0]))
        assert np.allclose(md.e, [1, 1])
        assert md.S.dim == 0
        eta = np.array([0.3, 0.0])
        assert md.antig.value(eta) == np.inf  # off S = {0}


class TestDecomposeLinf:
    def test_two_saturated(self):
        md, _ = decompose_linf(np.array([2.0, 2.0]))
        assert np.allclose(md.e, [0.5, 0.5])
        eta = np.array([1.0, -1.0])
        assert abs(md.antig.value(eta) - 2.0) <= 1e-12
        # oracle: gauge of the segment {t(1,-1): t in [-1/2, 1/2]}
        # = subdifferential minus its barycenter, evaluated directly
        seg = Polytope.from_vertices(np.array([[-0.5], [0.5]]))
        coord = md.S.coords(eta) / np.linalg.norm(md.S.basis[:, 0] @ np.array([1.0, -1.0])) \
            if False else None
        assert abs(md.antig.value(eta) - seg.gauge(
            np.array([eta @ np.array([1.0, 0.0])]))) <= 1e-12

    def test_saturation_gap(self):
        md, p = decompose_linf(np.array([2.0, 2.0, -1.0]))
        assert np.allclose(md.e, [0.5, 0.5, 0.0])
        assert abs(p.nu - 0.5 * (2.0 - 1.0)) <= 1e-12

    def test_single_saturation_full_T(self):
        md, _ = decompose_linf(np.array([5.0, 0.0]))
        assert md.T.dim == 2
        assert md.S.dim == 0

    def test_zero_rejected(self):
        with pytest.raises(DegenerateModelError):
            decompose_linf(np.zeros(2))

    @pytest.mark.parametrize("seed", range(6))
    def test_vectorised_model_keeps_the_per_entry_bits(self, seed):
        # T, S, e, the antig atoms and nu, bit for bit, against the
        # per-entry construction; ties at the max, a saturation within
        # SATURATION_TOL of it, every entry saturated and one saturated
        r = np.random.default_rng(seed)
        for n in (1, 2, 5, 20, 64):
            for _ in range(10):
                x = r.standard_normal(n)
                top = np.abs(x).max()
                k = int(r.integers(0, n + 1))
                idx = r.choice(n, k, replace=False)
                x[idx] = r.choice([-1.0, 1.0], k) * top
                if n > 1 and r.random() < 0.3:
                    x[idx[:1]] *= 1.0 - 1e-12
                md, p = decompose_linf(x)
                T, S, e, atoms, nu = _per_entry_linf_model(x)
                assert np.array_equal(md.T.basis, T)
                assert np.array_equal(md.S.basis, S)
                assert np.array_equal(md.e, e)
                assert np.array_equal(md.antig.atoms, atoms)
                assert p.nu == nu


class TestDecomposeGroup:
    def test_example(self):
        part = BlockPartition([[0, 1], [2, 3]], 4)
        md, _ = decompose_group(np.array([3.0, 4.0, 0.0, 0.0]), part)
        assert np.allclose(md.e, [0.6, 0.8, 0, 0])
        assert md.T.coord_idx == (0, 1)

    def test_zero(self):
        part = BlockPartition([[0, 1], [2, 3]], 4)
        md, _ = decompose_group(np.zeros(4), part)
        assert md.T.dim == 0

    def test_nu_min_block(self):
        part = BlockPartition([[0, 1], [2, 3]], 4)
        _, p = decompose_group(np.array([3.0, 4.0, 0.3, 0.4]), part,
                               delta=1e-14)
        assert abs(p.nu - 0.5) <= 1e-9
        assert abs(p.mu - np.sqrt(2.0) / p.nu) <= 1e-9


class TestDecomposePolyhedral:
    def test_positive_branch_matches_linf_pattern(self):
        md, _ = decompose_polyhedral(np.array([2.0, 2.0, -1.0]))
        ml, _ = decompose_linf(np.array([2.0, 2.0, 1e-9]))  # same I pattern
        assert np.allclose(md.e, [0.5, 0.5, 0.0])
        eta = np.zeros(3)
        eta[:2] = [0.4, -0.4]
        assert abs(md.antig.value(eta) - 2 * 0.4) <= 1e-12

    def test_nonpositive_branch(self):
        md, _ = decompose_polyhedral(np.array([-1.0, -2.0, 0.0, 0.0]),
                                     mu_choice=0.5)
        assert np.allclose(md.e, 0)
        assert np.allclose(md.f, [0, 0, 0.25, 0.25])
        assert md.S.coord_idx == (2, 3)

    def test_nonpositive_antig_vs_ball_gauge(self, rng):
        md, _ = decompose_polyhedral(np.array([-1.0, -2.0, 0.0, 0.0]),
                                     mu_choice=0.5)
        K = Polytope.from_vertices(
            np.array([[1.0, 0], [0, 1], [0, 0]]) - 0.25)
        for _ in range(300):
            eta = np.zeros(4)
            eta[2:] = rng.standard_normal(2)
            assert abs(md.antig.value(eta) - K.gauge(eta[2:])) <= 1e-10 * (
                1.0 + K.gauge(eta[2:]))

    def test_nonpositive_antig_golden_section_oracle(self, rng):
        # independent 1-d oracle: antig(eta) = inf {t >= 0 : J0°(t f + eta) <= t}
        # with J0° the simplex gauge (sum if nonnegative else +inf)
        md, _ = decompose_polyhedral(np.array([-1.0, 0.0, 0.0]),
                                     mu_choice=0.5)
        mu_eff = 0.25
        I0 = [1, 2]

        ts = np.linspace(0.0, 50.0, 200001)
        for _ in range(100):
            eta = np.zeros(3)
            eta[I0] = rng.standard_normal(2)
            w = ts[:, None] * mu_eff + eta[I0][None, :]
            feas = (w >= -1e-15).all(axis=1) & (w.sum(axis=1) <= ts)
            idx = np.flatnonzero(feas)
            oracle = ts[idx[0]] if idx.size else np.inf
            ours = md.antig.value(eta)
            assert abs(ours - oracle) <= 5e-4 * (1.0 + abs(ours))

    def test_round_off_maximum_takes_the_zero_branch(self):
        # a minimizer with nine atoms at zero, seen through round-off: the
        # largest is 3.6e-14, so a test of top > 0 would model one
        # saturated atom instead of nine atoms at zero
        u = -np.linspace(0.5, 1.5, 24)
        u[:9] = [3.6e-14, 1e-15, -1e-15, 1e-15, -1e-15, 1e-15, -1e-15,
                 1e-15, -1e-15]
        md, _ = decompose_polyhedral(u)
        assert md.S.coord_idx == tuple(range(9))
        assert md.T.dim == 15
        assert np.allclose(md.e, 0)

    def test_all_negative_smooth_point(self):
        md, p = decompose_polyhedral(np.array([-1.0, -2.0]))
        assert md.T.dim == 2 and md.S.dim == 0
        assert np.allclose(md.e, 0)

    def test_mu_choice_validated(self):
        with pytest.raises(ValueError):
            decompose_polyhedral(np.array([-1.0, 0.0]), mu_choice=1.5)

    @pytest.mark.parametrize("branch", ["positive", "nonpositive"])
    def test_signal_domain_is_the_precomposed_analysis_model(self, branch,
                                                             rng):
        # H^T x = t up to round-off: two atoms tie at the top, or at zero
        t = ([3.0, 3.0, 1.0, -1.0, 2.0, 0.5, -2.0] if branch == "positive"
             else [0.0, 0.0, -1.0, -2.0, -1.0, -3.0, -2.0])
        H = rng.standard_normal((5, 7))
        x = rng.standard_normal(5)
        H -= np.outer(x, (H.T @ x - t) / (x @ x))
        md = decompose(PolyhedralH(H), x)
        hand = precompose(decompose_polyhedral(H.T @ x)[0], H, x)
        assert np.array_equal(md.T.basis, hand.T.basis)
        assert np.array_equal(md.S.basis, hand.S.basis)
        assert np.array_equal(md.e, hand.e)
        assert np.array_equal(md.f, hand.f)
        assert np.array_equal(md.antig.atoms, hand.antig.atoms)
        assert np.array_equal(md.antig.lift, hand.antig.lift)
        assert md.S.dim > 0


class TestPrecompose:
    def test_identity_operator(self):
        x = np.array([3.0, 0.0, -2.0])
        md0, _ = decompose_l1(x)
        md = precompose(md0, np.eye(3), x)
        assert np.allclose(md.e, md0.e, atol=1e-10)
        assert np.allclose(md.f, md0.f, atol=1e-10)
        assert np.allclose(md.T.basis @ md.T.basis.T,
                           md0.T.basis @ md0.T.basis.T, atol=1e-10)

    def test_tv_staircase(self):
        g = tv1d_gauge(4)
        x = np.array([1.0, 1.0, 2.0, 2.0])
        md = decompose(g, x)
        assert md.T.dim == 2
        # T = piecewise-constant with a single jump between positions 1 and 2
        for v in md.T.basis.T:
            assert abs(v[0] - v[1]) <= 1e-10 and abs(v[2] - v[3]) <= 1e-10

    def test_tv_e_formula(self):
        g = tv1d_gauge(4)
        x = np.array([1.0, 1.0, 2.0, 2.0])
        md = decompose(g, x)
        D = g.dstar.T
        e_hand = md.T.project(D @ np.sign(g.dstar @ x))
        assert np.allclose(md.e, e_hand, atol=1e-10)

    def test_analysis_antig_lp_vs_generic(self, rng):
        # LP-backed composed evaluator vs brute minimization over the kernel
        g = tv1d_gauge(5)
        x = np.array([1.0, 1.0, 2.0, 3.0, 3.0])
        md = decompose(g, x)
        B0 = None
        for _ in range(20):
            eta = md.S.project(rng.standard_normal(5))
            val = md.antig.value(eta)
            # brute force: the same infimum on a dense grid of kernel coeffs
            from gaugerec.linalg import null_space, svd_pinv
            u = g.dstar @ x
            I = [i for i in range(4) if abs(u[i]) > 1e-10]
            Ic = [i for i in range(4) if i not in I]
            Dic = g.dstar.T[:, Ic]
            q = svd_pinv(Dic) @ eta
            Z = null_space(Dic)
            if Z.shape[1] == 0:
                brute = np.max(np.abs(q), initial=0.0)
            else:
                ts = np.linspace(-5, 5, 4001)
                brute = min(np.max(np.abs(q + Z @ np.atleast_1d(t)))
                            for t in ts)
            assert val <= brute + 1e-6
            assert val >= brute - 2e-3 * (1 + abs(brute))


class TestSumAndPerturb:
    def test_double_same_regularizer(self):
        x = np.array([2.0, 0.0, -1.0])
        mdJ, _ = decompose_l1(x)
        mdH = sum_decompositions(mdJ, mdJ)
        assert np.allclose(mdH.e, 2 * mdJ.e, atol=1e-10)
        assert mdH.T.dim == mdJ.T.dim

    def test_l1_plus_linf(self):
        x = np.array([2.0, 2.0, 0.0])
        mdJ, _ = decompose_l1(x)
        mdG, _ = decompose_linf(x)
        mdH = sum_decompositions(mdJ, mdG)
        assert mdH.T.dim == 1
        direction = mdH.T.basis[:, 0]
        assert abs(abs(direction @ np.array([1, 1, 0]) / np.sqrt(2)) - 1) <= 1e-10


class TestMembership:
    def test_f_is_interior(self):
        md, _ = decompose_l1(np.array([3.0, 0.0]))
        assert subdiff_membership(md, md.f) == "interior"

    def test_boundary(self):
        md, _ = decompose_l1(np.array([3.0, 0.0]))
        assert subdiff_membership(md, np.array([1.0, 1.0])) == "boundary"

    def test_wrong_T_part(self):
        md, _ = decompose_l1(np.array([3.0, 0.0]))
        assert subdiff_membership(md, np.array([0.9, 0.0])) == "outside"

    def test_consistency_with_subgradient_inequality(self, rng):
        # small-scale version of the acceptance oracle
        x = np.array([2.0, -1.0, 0.0, 0.0])
        md, _ = decompose_l1(x)
        J = L1(4)
        for _ in range(200):
            eta = rng.standard_normal(4)
            if rng.uniform() < 0.5:
                idx = list(md.T.coord_idx)
                eta[idx] = md.e[idx]
            cls = subdiff_membership(md, eta)
            X = rng.standard_normal((100, 4)) * 2
            ok = all(J.value(xp) >= J.value(x) + eta @ (xp - x) - 1e-8
                     for xp in X)
            if cls in ("interior", "boundary"):
                assert ok
            # outside eta with margin must eventually be violated
            a = md.antig.value(md.S.project(eta - md.f))
            tpart = np.max(np.abs(md.T.project(eta) - md.e))
            if cls == "outside" and (a > 1.01 or tpart > 0.01):
                dirs = [md.T.project(eta) - md.e, -(md.T.project(eta) - md.e)]
                v = md.S.project(eta - md.f)
                if md.antig.support_atoms() is not None and a > 1.01:
                    dirs.append(md.antig.support_atoms()[
                        int(np.argmax(md.antig.support_atoms() @ v))])
                viol = False
                for d in dirs:
                    if np.linalg.norm(d) < 1e-12:
                        continue
                    d = d / np.linalg.norm(d)
                    for t in (1e-4, 1e-2, 1.0):
                        if J.value(x + t * d) - J.value(x) - t * (eta @ d) \
                                < -1e-10:
                            viol = True
                            break
                    if viol:
                        break
                assert viol


class TestDirectionalDerivative:
    def test_tangent_direction(self, rng):
        md, _ = decompose_l1(np.array([3.0, 0.0, -1.0]))
        d = md.T.project(rng.standard_normal(3))
        assert abs(directional_derivative(md, d) - md.e @ d) <= 1e-12

    def test_l1_normal_direction(self):
        md, _ = decompose_l1(np.array([3.0, 0.0]))
        assert abs(directional_derivative(md, np.array([0.0, 1.0])) - 1.0) \
            <= 1e-12

    @pytest.mark.parametrize("kind", ["l1", "linf", "group", "tv", "poly"])
    def test_finite_difference_oracle(self, kind, rng):
        for trial in range(20):
            if kind == "l1":
                x = rng.standard_normal(5)
                x[rng.choice(5, 2, replace=False)] = 0.0
                g = L1(5)
                md = decompose(g, x)
            elif kind == "linf":
                x = rng.standard_normal(5)
                x[[0, 2]] = 3.0 * np.array([1.0, -1.0])
                x[[1, 3, 4]] = rng.uniform(-1, 1, 3)
                g = Linf(5)
                md = decompose(g, x)
            elif kind == "group":
                part = BlockPartition([[0, 1], [2, 3], [4, 5]], 6)
                g = GroupL1L2(part)
                x = rng.standard_normal(6)
                x[4:] = 0.0
                md = decompose(g, x)
            elif kind == "tv":
                g = tv1d_gauge(5)
                x = np.array([1.0, 1.0, 2.0, 2.0, 2.0]) + 0.1 * trial
                md = decompose(g, x)
            else:
                H = rng.standard_normal((4, 7))
                g = PolyhedralH(H)
                x = rng.standard_normal(4)
                md = decompose(g, x)
            delta = rng.standard_normal(md.ambient_dim)
            t = 1e-6
            fd = (g.value(md.x + t * delta) - g.value(md.x)) / t
            assert abs(directional_derivative(md, delta) - fd) <= 1e-4 * (
                1.0 + abs(fd))


class TestModelInvariants:
    @pytest.mark.parametrize("kind", ["l1", "l2", "linf", "group", "tv",
                                      "poly", "poly-analysis", "sum",
                                      "sum-blocks"])
    def test_subdifferential_gauge_is_a_gauge(self, kind, rng):
        if kind in ("l1", "linf", "group", "tv", "poly"):
            md = decompose(*_instance(kind, rng))
        elif kind == "l2":
            md = decompose(L2(4), np.array([0.0, 0.0, 0.0, 0.0]))
        elif kind == "poly-analysis":
            md, _ = decompose_polyhedral(np.array([-1.0, 0.0, 0.0]))
        else:
            x = np.array([2.0, -2.0, 0.0, 0.5])
            other = Linf(4) if kind == "sum" else \
                GroupL1L2(BlockPartition([[0, 1], [2, 3]], 4))
            md = decompose(SumGauge([L1(4), other]), x)
        g = md.antig
        assert isinstance(g, Gauge)
        assert g.dim == md.ambient_dim
        eta = md.S.project(rng.standard_normal(md.ambient_dim))
        assert g.value(eta) == g.values(eta[None])[0]
        assert len(g.kernel_directions()) == 0 and not g.is_euclidean

    @pytest.mark.parametrize("kind", ["l1", "linf", "group", "tv", "poly"])
    def test_members_share_T_part_and_anchor_value(self, kind, rng):
        # P_T eta = e for every subgradient, and <e, x> = J(x) for gauges
        g, x = _instance(kind, rng)
        md = decompose(g, x)
        assert abs(md.e @ x - g.value(x)) <= 1e-8 * (1.0 + g.value(x))
        for _ in range(50):
            eta = _sample_subgradient(md, rng)
            assert np.linalg.norm(md.T.project(eta) - md.e) <= 1e-7

    @pytest.mark.parametrize("kind", ["l1", "linf", "group", "poly"])
    def test_local_T_constancy(self, kind, rng):
        from gaugerec.experiments import subspace_equal
        g, x = _instance(kind, rng)
        if kind == "poly":
            md, p = decompose_polyhedral(x)

            def redo(xp):
                return decompose_polyhedral(xp)[0]
        else:
            md = decompose(g, x)
            p = _params(kind, g, x)

            def redo(xp):
                return decompose(g, xp)
        if p.nu <= 0:
            return
        for _ in range(100):
            step = md.T.project(rng.standard_normal(md.ambient_dim))
            gm = p.gamma.value(step)
            if gm <= 1e-12:
                continue
            xp = md.x + step * (0.95 * p.nu / gm)
            md2 = redo(xp)
            assert subspace_equal(md.T, md2.T), kind

    def test_group_mu_stability(self, rng):
        part = BlockPartition([[0, 1], [2, 3], [4, 5]], 6)
        g = GroupL1L2(part)
        x = np.zeros(6)
        x[:4] = rng.standard_normal(4) + np.array([3, 3, -3, 3])
        md, p = decompose_group(x, part)
        gamma = p.gamma
        for _ in range(100):
            step = md.T.project(rng.standard_normal(6))
            gm = gamma.value(step)
            if gm <= 1e-12:
                continue
            xp = x + step * (0.9 * p.nu / gm)
            md2, _ = decompose_group(xp, part)
            lhs = gamma.value(md.e - md2.e)
            assert lhs <= p.mu * gamma.value(x - xp) + 1e-9

    @pytest.mark.parametrize("kind", ["l1", "linf", "poly"])
    def test_xi_stability_degenerate(self, kind, rng):
        # antig is literally the same function at admissible x' (xi = 0)
        g, x = _instance(kind, rng)
        if kind == "poly":
            md, p = decompose_polyhedral(x)
        else:
            md = decompose(g, x)
            p = _params(kind, g, x)
        if p.nu <= 0:
            return
        step = md.T.project(rng.standard_normal(md.ambient_dim))
        gm = p.gamma.value(step)
        if gm <= 1e-12:
            return
        xp = md.x + step * (0.5 * p.nu / gm)
        md2 = decompose_polyhedral(xp)[0] if kind == "poly" else decompose(g, xp)
        for _ in range(50):
            eta = md.S.project(rng.standard_normal(md.ambient_dim))
            a1 = md.antig.value(eta)
            a2 = md2.antig.value(md2.S.project(eta))
            assert abs(a1 - a2) <= 1e-8 * (1.0 + abs(a1))

    @pytest.mark.parametrize("kind", ["l1", "group"])
    def test_strong_gauge_simplification(self, kind, rng):
        # antig equals the polar of J on S for separable strong gauges
        g, x = _instance(kind, rng)
        md = decompose(g, x)
        for _ in range(100):
            eta = md.S.project(rng.standard_normal(md.ambient_dim))
            assert abs(md.antig.value(eta) - g.polar(eta)) <= 1e-9 * (
                1.0 + abs(g.polar(eta)))


class TestPsflCalculus:
    def test_sum_of_mu_zero(self):
        x = np.array([2.0, 2.0, 0.0])
        mdJ, pJ = decompose_l1(x)
        mdG, pG = decompose_linf(x)
        mdH = sum_decompositions(mdJ, mdG)
        pH = psfl_sum(pJ, pG, mdJ, mdG, mdH)
        assert pH.mu == 0.0
        assert pH.nu == min(pJ.nu, pG.nu)

    def test_same_regularizer_twice(self):
        x = np.array([2.0, 0.0, -1.0])
        mdJ, pJ = decompose_l1(x)
        mdH = sum_decompositions(mdJ, mdJ)
        pH = psfl_sum(pJ, pJ, mdJ, mdJ, mdH)
        assert pH.nu == pJ.nu

    def test_precompose_identity(self):
        x = np.array([3.0, 0.0, -2.0])
        md0, p0 = decompose_l1(x)
        md = precompose(md0, np.eye(3), x)
        p = psfl_precompose(p0, np.eye(3), md0, md, gamma=p0.gamma)
        assert abs(p.nu - p0.nu) <= 1e-9
        assert p.mu == p.tau == p.xi == 0.0

    def test_precompose_l1_base_zeros(self, rng):
        g = tv1d_gauge(5)
        x = np.array([1.0, 1.0, 2.0, 2.0, 2.0])
        u = g.dstar @ x
        md0, p0 = decompose_l1(u)
        md = precompose(md0, g.dstar.T, x)
        p = psfl_precompose(p0, g.dstar.T, md0, md)
        assert p.mu == p.tau == p.xi == 0.0

    def test_sum_with_group_part_composes_mu(self):
        # the group part carries mu > 0; composition visits the
        # operator-bound path and cannot be exact (group comparison gauge)
        part = BlockPartition([[0, 1], [2, 3], [4, 5]], 6)
        x = np.zeros(6)
        x[:4] = [3.0, 4.0, 1.0, -1.0]
        mdJ, pJ = decompose_group(x, part)
        mdG, pG = decompose_l1(x)
        mdH = sum_decompositions(mdJ, mdG)
        pH = psfl_sum(pJ, pG, mdJ, mdG, mdH)
        assert pH.mu > 0.0
        assert pH.nu == min(pJ.nu, pG.nu)
        assert not pH.exact

    def test_precompose_nu_vertex_bound(self):
        g = tv1d_gauge(4)
        x = np.array([1.0, 1.0, 2.0, 2.0])
        u = g.dstar @ x
        md0, p0 = decompose_l1(u)
        md = precompose(md0, g.dstar.T, x)
        p = psfl_precompose(p0, g.dstar.T, md0, md)
        bound = operator_bound(g.dstar, Linf(4), Linf(3)).value
        assert abs(bound - 2.0) <= 1e-12  # max row l1 norm of the difference map
        assert abs(p.nu - p0.nu / bound) <= 1e-12


def _per_entry_linf_model(x):
    """(T basis, S basis, e, antig atoms, nu) of the max-abs model at x,
    built one entry at a time with delta = 0.5."""
    n = x.shape[0]
    m = np.max(np.abs(x)) * (1.0 - model_mod.SATURATION_TOL)
    I = [int(i) for i in np.flatnonzero(np.abs(x) >= m)]
    s = np.zeros(n)
    s[I] = np.sign(x[I])
    k = len(I)
    SB = np.zeros((n, k - 1))
    SB[I, :] = null_space(s[I][None, :])
    TB = np.zeros((n, n - k + 1))
    TB[I, 0] = s[I] / np.sqrt(k)
    rest = np.setdiff1d(np.arange(n), I)
    TB[rest, 1 + np.arange(len(rest))] = 1.0
    atoms = np.zeros((k + 1, n))
    atoms[np.arange(k), I] = -k * s[I]
    off = [abs(x[j]) for j in range(n) if j not in I]
    gap = np.max(np.abs(x)) - (max(off) if off else 0.0)
    return TB, SB, s / k, atoms, 0.5 * gap


def _instance(kind, rng):
    if kind == "l1":
        x = rng.standard_normal(6)
        x[rng.choice(6, 3, replace=False)] = 0.0
        return L1(6), x
    if kind == "linf":
        x = rng.uniform(-0.5, 0.5, 6)
        pick = rng.choice(6, 2, replace=False)
        x[pick] = rng.choice([-2.0, 2.0], 2)
        return Linf(6), x
    if kind == "group":
        part = BlockPartition([[0, 1], [2, 3], [4, 5]], 6)
        x = rng.standard_normal(6)
        x[4:] = 0.0
        return GroupL1L2(part), x
    if kind == "tv":
        return tv1d_gauge(5), np.array([1.0, 1.0, 2.0, 3.0, 3.0])
    # polyhedral analysis-domain point (mixed active set, nonpositive)
    u = -np.abs(rng.standard_normal(5)) - 0.2
    u[rng.choice(5, 2, replace=False)] = 0.0
    return PolyhedralH(np.eye(5)), u


def _params(kind, g, x):
    from gaugerec.model import decompose_l1 as dl1, decompose_linf as dli, \
        decompose_group as dg
    if kind == "l1":
        return dl1(x)[1]
    if kind == "linf":
        return dli(x)[1]
    if kind == "group":
        return dg(x, g.partition)[1]
    raise AssertionError


def _sample_subgradient(md, rng):
    """Random point of the subdifferential via the decomposability form."""
    verts = md.antig.ball_vertices()
    if verts is not None and len(verts):
        w = rng.dirichlet(np.ones(len(verts)))
        v = verts.T @ w
    else:
        v = md.S.project(rng.standard_normal(md.ambient_dim))
        a = md.antig.value(v)
        if a > 1e-12:
            v = v * (rng.uniform(0, 1) / a)
    return md.f + v


# ---------------------------------------------------------------------------
# support-form subdifferential gauges against hand-built references
# ---------------------------------------------------------------------------

def _same_rows(A, B, tol=1e-9):
    """A and B hold the same rows up to order (a vertex-set comparison)."""
    A, B = np.asarray(A), list(np.asarray(B))
    if len(A) != len(B):
        return False
    for a in A:
        dists = [np.linalg.norm(a - b) for b in B]
        j = int(np.argmin(dists))
        if dists[j] > tol:
            return False
        B.pop(j)
    return True


def _lp_precompose_value(md0, D, eta):
    """The LP form of the pre-composed gauge: min over w in Ker(D_S0) of
    max(0, max_j <a_j, q + w>) with q = D_S0^+ eta."""
    from gaugerec.linalg import null_space, svd_pinv
    from gaugerec.lp import LpProblem, lp_solve, OPTIMAL
    B0 = md0.S.basis
    DS = D @ B0
    q = B0 @ svd_pinv(DS) @ eta
    Z = B0 @ null_space(DS)
    atoms0 = md0.antig.support_atoms()
    rows = np.hstack([atoms0 @ Z, -np.ones((len(atoms0), 1))])
    c = np.zeros(Z.shape[1] + 1)
    c[-1] = 1.0
    res = lp_solve(LpProblem(c, a_ub=rows, b_ub=-(atoms0 @ q),
                             bounds=[(None, None)] * Z.shape[1] + [(0, None)]))
    assert res.status == OPTIMAL
    return max(float(res.value), 0.0)


class TestSupportFormGauge:
    @pytest.mark.parametrize("n_off", [0, 1, 3, 8])
    def test_l1_ball_is_the_cube_on_s(self, n_off, rng):
        n = 10
        x = rng.standard_normal(n)
        off = rng.choice(n, n_off, replace=False)
        x[off] = 0.0
        md, _ = decompose_l1(x)
        # reference: every sign pattern on the off-support coordinates
        ref = np.zeros((2 ** n_off, n))
        for r, signs in enumerate(np.ndindex(*([2] * n_off))):
            ref[r, sorted(off)] = 2.0 * np.array(signs) - 1.0
        assert _same_rows(md.antig.ball_vertices(), ref)

    def test_l1_ball_not_enumerated_above_dim_8(self):
        x = np.zeros(12)
        x[:3] = 1.0
        md, _ = decompose_l1(x)
        assert md.S.dim == 9
        assert md.antig.ball_vertices() is None
        assert md.antig.value(md.S.project(np.arange(12.0))) == 11.0

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_linf_ball_is_the_shifted_simplex(self, k, rng):
        n = 8
        x = rng.uniform(-0.5, 0.5, n)
        I = sorted(rng.choice(n, k, replace=False))
        x[I] = rng.choice([-1.0, 1.0], k)
        md, _ = decompose_linf(x)
        ref = np.array([np.sign(x[i]) * np.eye(n)[i] - md.e for i in I])
        assert _same_rows(md.antig.ball_vertices(), ref)

    def test_polyhedral_positive_ball(self):
        u = np.array([1.5, -0.3, 1.5, 0.2, 1.5])
        md, _ = decompose_polyhedral(u)
        ref = np.array([np.eye(5)[i] - md.e for i in (0, 2, 4)])
        assert _same_rows(md.antig.ball_vertices(), ref)

    def test_polyhedral_nonpositive_ball(self):
        u = np.array([0.0, -1.0, 0.0, 0.0, -0.5])
        md, _ = decompose_polyhedral(u, mu_choice=0.4)
        I0 = [0, 2, 3]
        ref = np.array([np.eye(5)[i] - md.f for i in I0] + [-md.f])
        assert _same_rows(md.antig.ball_vertices(), ref)

    def test_ball_is_cached(self):
        x = np.array([1.0, 0.0, 0.0, -2.0])
        md, _ = decompose_l1(x)
        assert md.antig.ball_vertices() is md.antig.ball_vertices()

    def test_tv_support_form_matches_lp_form(self, rng):
        n = 9
        g = tv1d_gauge(n)
        for _ in range(10):
            x = np.repeat(rng.standard_normal(3), [3, 2, 4])
            md0, _ = decompose_l1(g.dstar @ x)
            md = precompose(md0, g.dstar.T, x)
            assert md.antig.support_atoms() is not None
            for _ in range(20):
                eta = md.S.project(rng.standard_normal(n))
                ref = _lp_precompose_value(md0, g.dstar.T, eta)
                assert abs(md.antig.value(eta) - ref) <= 1e-12 * (1 + ref)

    @pytest.mark.parametrize("branch", ["positive", "nonpositive"])
    def test_polyhedral_support_form_matches_lp_form(self, branch, rng):
        n, p = 7, 5
        for _ in range(10):
            H = rng.standard_normal((n, p))
            u = rng.uniform(-1.0, -0.2, p)
            if branch == "positive":
                u[rng.choice(p, 2, replace=False)] = 1.3
            else:
                u[rng.choice(p, 3, replace=False)] = 0.0
            # H^T has full row rank, so u = H^T x is reached exactly
            x = np.linalg.lstsq(H.T, u, rcond=None)[0]
            md0, _ = decompose_polyhedral(H.T @ x)
            md = decompose(PolyhedralH(H), x)
            assert md.antig.support_atoms() is not None
            for _ in range(20):
                eta = md.S.project(rng.standard_normal(n))
                ref = _lp_precompose_value(md0, H, eta)
                assert abs(md.antig.value(eta) - ref) <= 1e-12 * (1 + ref)

    def test_tv_c4_takes_the_closed_form(self, rng):
        from gaugerec.linalg import svd_pinv
        n, q = 12, 8
        x = np.repeat(rng.standard_normal(3), 4)
        Phi = rng.standard_normal((q, n))
        md = decompose(tv1d_gauge(n), x)
        M = Phi @ md.T.basis
        Q_T = np.eye(q) - M @ svd_pinv(M)
        PS = md.S.basis @ md.S.basis.T
        W4 = PS @ Phi.T @ Q_T
        b4 = operator_bound(W4, L2(q), md.antig)
        assert b4.method == "exact-closed-form"
        atoms = md.antig.support_atoms()
        assert abs(b4.value - np.max(np.linalg.norm(W4.T @ atoms.T, axis=0))) \
            <= 1e-12 * b4.value
        # a sampled lower bound never exceeds the exact value
        best = 0.0
        for z in np.random.default_rng(0).standard_normal((2000, q)):
            best = max(best, md.antig.value(W4 @ (z / np.linalg.norm(z))))
        assert best <= b4.value * (1 + 1e-12)
        assert best >= 0.5 * b4.value

    def test_precomposed_group_with_trivial_kernel_is_exact(self, rng):
        from gaugerec.certificates import irrepresentability
        from gaugerec.gauges import Precomposed
        n = 8
        part = BlockPartition([[0, 1], [2, 3], [4, 5]], 6)
        dstar = rng.standard_normal((6, n))
        x = np.linalg.lstsq(dstar, np.array([1.0, 2.0, 0, 0, 0, 0]),
                            rcond=None)[0]
        md = decompose(Precomposed(GroupL1L2(part), dstar), x)
        assert md.antig.exact
        Phi = rng.standard_normal((6, n))
        rep = irrepresentability(Phi, md)
        assert rep.method == "exact"


# ---------------------------------------------------------------------------
# lifted support form: sums and pre-compositions with a kernel
# ---------------------------------------------------------------------------

def _linprog_split_value(mds, eta):
    """min over eta = sum_k eta_k, eta_k in S_k, of max_k antig_k(eta_k),
    one scipy LP in the coordinates c_k of eta_k = B_k c_k."""
    from scipy.optimize import linprog
    Bs = [md.S.basis for md in mds]
    atoms = [md.antig.support_atoms() for md in mds]
    dims = [B.shape[1] for B in Bs]
    nv = sum(dims) + 1
    rows, at = [], 0
    for A, B, k in zip(atoms, Bs, dims):
        blk = np.zeros((len(A), nv))
        blk[:, at:at + k] = A @ B
        blk[:, -1] = -1.0
        rows.append(blk)
        at += k
    c = np.zeros(nv)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.vstack(rows), b_ub=np.zeros(sum(map(len, rows))),
                  A_eq=np.hstack(Bs + [np.zeros((len(eta), 1))]), b_eq=eta,
                  bounds=[(None, None)] * (nv - 1) + [(0, None)],
                  method="highs")
    assert res.status == 0
    return res.fun


class TestLiftedSupportForm:
    X = np.array([2.0, -2.0, 0.0, 0.5, 0.0, 1.0, 0.0, -2.0])

    @pytest.mark.parametrize("kinds", ["l1+l1", "linf+linf", "l1+linf",
                                       "l1+linf+l1"])
    def test_sum_matches_split_reference(self, kinds, rng):
        parts = {"l1": decompose_l1, "linf": decompose_linf}
        mds = [parts[k](self.X)[0] for k in kinds.split("+")]
        md = mds[0]
        for other in mds[1:]:
            md = sum_decompositions(md, other)
        assert md.antig.exact
        for _ in range(20):
            eta = md.S.project(rng.standard_normal(len(self.X)))
            ref = _linprog_split_value(mds, eta)
            assert abs(md.antig.value(eta) - ref) <= 1e-9 * (1.0 + ref)

    @pytest.mark.parametrize("g", [L1(8), Linf(8)])
    def test_doubled_regularizer_keeps_ic(self, g):
        from gaugerec.certificates import irrepresentability
        from gaugerec.gauges import SumGauge
        Phi = np.random.default_rng(5).standard_normal((6, 8))
        one = irrepresentability(Phi, decompose(g, self.X))
        two = irrepresentability(Phi, decompose(SumGauge([g, g]), self.X))
        assert two.method == "exact"
        assert abs(two.ic_value - one.ic_value) <= 1e-9 * (1 + one.ic_value)
        assert two.identifiable == one.identifiable

    def test_three_term_sum_is_exact(self):
        from gaugerec.certificates import irrepresentability
        from gaugerec.gauges import SumGauge
        g = SumGauge([L1(8), Linf(8), L1(8)])
        md = decompose(g, self.X)
        Phi = np.random.default_rng(6).standard_normal((6, 8))
        assert irrepresentability(Phi, md).method == "exact"

    def test_lifted_c4_is_a_fast_certified_upper_bound(self):
        # the c4 bound into a lifted gauge drops the free directions: an
        # upper bound in milliseconds, where sampling took seconds and
        # stayed below the norm; c4 needs its exact value, so the
        # constants stay inexact
        import time
        from gaugerec.certificates import stability_constants
        from gaugerec.gauges import SumGauge
        from gaugerec.linalg import OperatorBound, svd_pinv
        md = decompose(SumGauge([L1(8), L1(8)]), self.X)
        assert md.antig.support_atoms() is None
        Phi = np.random.default_rng(7).standard_normal((6, 8))
        M = Phi @ md.T.basis
        W4 = md.S.basis @ md.S.basis.T @ Phi.T @ (np.eye(6) - M @ svd_pinv(M))
        t0 = time.perf_counter()
        b4 = operator_bound(W4, L2(6), md.antig)
        assert time.perf_counter() - t0 < 1.0
        assert b4.method == OperatorBound.CERTIFIED_UPPER
        best = 0.0
        for z in np.random.default_rng(0).standard_normal((2000, 6)):
            best = max(best, md.antig.value(W4 @ (z / np.linalg.norm(z))))
        assert 0.0 < best <= b4.value
        mdJ, pJ = decompose_l1(self.X)
        p = psfl_sum(pJ, pJ, mdJ, mdJ, md)
        const = stability_constants(Phi, md, p)
        assert const.c4 == b4.value
        assert not const.exact

    @pytest.mark.parametrize("x", [np.array([0.0, 0.0, 0.0, 1.0, 1.0, 2.0]),
                                   np.zeros(6)])
    def test_overcomplete_analysis_kernel_matches_lp(self, x, rng):
        # D^T stacks the difference rows on the identity, so the zero
        # entries of u = D^T x outnumber what D_{S0} can map injectively
        from scipy.optimize import linprog
        from gaugerec.gauges import Precomposed
        from gaugerec.linalg import null_space
        dstar = np.vstack([tv1d_gauge(6).dstar, np.eye(6)])
        u = dstar @ x
        md0, _ = decompose_l1(u)
        assert null_space(dstar.T @ md0.S.basis).shape[1] > 0
        md = decompose(Precomposed(L1(11), dstar), x)
        assert md.antig.exact and md.antig.support_atoms() is None
        # antig(eta) = min ||z||_inf over D_{Ic} z = eta, Ic the zeros of u
        DIc = dstar.T[:, np.abs(u) <= 1e-12]
        k = DIc.shape[1]
        c = np.zeros(k + 1)
        c[-1] = 1.0
        box = np.hstack([np.vstack([np.eye(k), -np.eye(k)]),
                         -np.ones((2 * k, 1))])
        for _ in range(20):
            eta = md.S.project(rng.standard_normal(6))
            ref = linprog(c, A_ub=box, b_ub=np.zeros(2 * k),
                          A_eq=np.hstack([DIc, np.zeros((6, 1))]), b_eq=eta,
                          bounds=[(None, None)] * (k + 1), method="highs")
            assert ref.status == 0
            assert abs(md.antig.value(eta) - ref.fun) <= 1e-9 * (1 + ref.fun)


def test_lifted_value_raises_on_a_non_optimal_lp(monkeypatch):
    from gaugerec import model
    from gaugerec.lp import LpResult, LpNumericalError, UNBOUNDED
    g = model.SubdiffGauge(Subspace.full(3), atoms=np.eye(3),
                           lift=np.array([[1.0], [-1.0], [0.0]]))
    eta = np.array([1.0, 2.0, 0.5])
    assert abs(g.value(eta) - 1.5) <= 1e-12
    monkeypatch.setattr(model, "lp_min_max",
                        lambda h, G: LpResult(UNBOUNDED))
    with pytest.raises(LpNumericalError, match="unbounded"):
        g.value(eta)


def _param_fields(p):
    return (p.nu, p.mu, p.tau, p.xi, p.exact, type(p.gamma), p.gamma.dim)


class TestDispatcherParams:
    """``decompose(g, x).params`` against the per-kind functions and the
    hand-written calculus chains."""

    def test_per_kind_params_are_bit_equal(self):
        part = BlockPartition([[0, 1], [2, 3], [4, 5]], 6)
        x = np.array([3.0, 4.0, 0.0, 0.0, 1.0, -0.5])
        for g, (md, p) in [(L1(6), decompose_l1(x)),
                           (L2(6), decompose_l2(x)),
                           (Linf(6), decompose_linf(x)),
                           (GroupL1L2(part), decompose_group(x, part))]:
            assert md.params is p
            assert _param_fields(decompose(g, x).params) == _param_fields(p)

    @pytest.mark.parametrize("seed", range(4))
    def test_tv_matches_the_hand_chain(self, seed):
        # the certify_lambda tv shape: n = 20, Q = 12, four plateaus
        rng = np.random.default_rng(seed)
        x0 = np.repeat(rng.standard_normal(4), 5)
        Phi = rng.standard_normal((12, 20))
        g = tv1d_gauge(20)
        D = g.dstar.T
        md0, p0 = decompose_l1(g.dstar @ x0)
        md_hand = precompose(md0, D, x0)
        p_hand = psfl_precompose(p0, D, md0, md_hand)
        md = decompose(g, x0)
        assert _param_fields(md.params) == _param_fields(p_hand)
        assert vars(stability_constants(Phi, md, md.params)) == \
            vars(stability_constants(Phi, md_hand, p_hand))

    def test_polyhedral_matches_psfl_precompose(self, rng):
        H = rng.standard_normal((5, 7))
        x = rng.standard_normal(5)
        md0, p0 = decompose_polyhedral(H.T @ x)
        md_hand = precompose(md0, H, x)
        p_hand = psfl_precompose(p0, H, md0, md_hand)
        assert _param_fields(decompose(PolyhedralH(H), x).params) == \
            _param_fields(p_hand)

    def test_sum_matches_psfl_sum(self):
        x = np.array([2.0, 2.0, 0.0, -1.0])
        mdJ, pJ = decompose_l1(x)
        mdG, pG = decompose_linf(x)
        p_hand = psfl_sum(pJ, pG, mdJ, mdG, sum_decompositions(mdJ, mdG))
        assert _param_fields(decompose(SumGauge([L1(4), Linf(4)]),
                                       x).params) == _param_fields(p_hand)

    def test_three_part_sum_folds_left(self):
        part = BlockPartition([[0, 1], [2, 3], [4, 5]], 6)
        x = np.zeros(6)
        x[:4] = [3.0, 4.0, 1.0, -1.0]
        md1, p1 = decompose_group(x, part)
        md2, p2 = decompose_l1(x)
        md3, p3 = decompose_linf(x)
        md12 = sum_decompositions(md1, md2)
        p12 = psfl_sum(p1, p2, md1, md2, md12)
        p_hand = psfl_sum(p12, p3, md12, md3, sum_decompositions(md12, md3))
        p = decompose(SumGauge([GroupL1L2(part), L1(6), Linf(6)]), x).params
        assert p.mu > 0.0
        assert _param_fields(p) == _param_fields(p_hand)

    def test_hand_built_decomposition_has_no_params(self):
        md, _ = decompose_l1(np.array([1.0, 0.0]))
        bare = ModelDecomposition(md.gauge, md.x, md.T, md.S, md.e, md.f,
                                  md.antig)
        with pytest.raises(UnsupportedGaugeError):
            bare.params


class TestLazyParams:
    """The solvers' convergence checks decompose every iterate; the
    parameters' operator bounds must wait for a read of ``params``."""

    @staticmethod
    def _instances():
        rng = np.random.default_rng(7)
        tv_x = np.repeat(rng.standard_normal(4), 5)
        poly = PolyhedralH(rng.standard_normal((20, 24)))
        return [(tv1d_gauge(20), tv_x),
                (poly, rng.standard_normal(20))]

    def test_decompose_and_solve_call_no_bound(self, monkeypatch):
        from gaugerec import linalg

        def refuse(*args, **kwargs):
            raise AssertionError("operator_bound called")

        monkeypatch.setattr(linalg, "operator_bound", refuse)
        rng = np.random.default_rng(8)
        for g, x in self._instances():
            decompose(g, x)
            Phi = rng.standard_normal((12, 20))
            y = Phi @ x + 0.1 * rng.standard_normal(12)
            res = solve_penalized(Phi, y, 0.5, g,
                                  SolveOptions(tol=1e-7, max_iter=120000))
            assert res.converged

    def test_params_are_computed_on_first_read_only(self, monkeypatch):
        from gaugerec import linalg
        calls = []
        real = linalg.operator_bound

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg, "operator_bound", counted)
        g, x = self._instances()[0]
        md = decompose(g, x)
        assert not calls
        first = md.params
        n = len(calls)
        assert n > 0
        assert md.params is first
        assert len(calls) == n

    def test_no_route_raises_on_read_only(self):
        g, x = self._instances()[1]
        md = decompose(g, x)
        with pytest.raises(NoBoundRouteError):
            md.params
