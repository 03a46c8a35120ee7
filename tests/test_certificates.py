import itertools

import numpy as np
import pytest

from gaugerec.gauges import L1, L2, Linf, GroupL1L2, BlockPartition
from gaugerec.linalg import (svd_pinv, null_space, restricted_injectivity,
                             operator_bound, OperatorBound)
from gaugerec.lp import lp_minimize_linf
from gaugerec.polytopes import Polytope
from gaugerec.model import (decompose, decompose_l1, decompose_linf,
                            decompose_group, tv1d_gauge, precompose,
                            psfl_precompose)
from gaugerec.certificates import (linearized_precertificate,
                                   irrepresentability, check_noisy_optimality,
                                   check_noiseless_optimality, nsp_falsify,
                                   stability_constants, phi_fn, h_fn,
                                   RestrictedInjectivityError)
from gaugerec.solvers import solve_noiseless, solve_penalized, SolveOptions

from conftest import random_l1_instance


class TestPrecertificate:
    def test_identity_returns_e(self):
        md, _ = decompose_l1(np.array([3.0, 0.0, -2.0]))
        alpha = linearized_precertificate(np.eye(3), md)
        assert np.allclose(alpha, md.e, atol=1e-10)

    def test_hand_pseudo_inverse(self):
        Phi = np.array([[1.0, 0, 0], [0, 1, 1]])
        md, _ = decompose_l1(np.array([5.0, 0, 0]))
        alpha = linearized_precertificate(Phi, md)
        assert np.allclose(alpha, [1.0, 0.0], atol=1e-12)

    def test_min_norm_property(self, rng):
        Phi = rng.standard_normal((8, 12))
        x0 = np.zeros(12)
        x0[[1, 4, 7]] = [2.0, -1.0, 3.0]
        md, _ = decompose_l1(x0)
        alpha = linearized_precertificate(Phi, md)
        M = (Phi @ md.T.basis).T
        target = md.T.coords(md.e)
        assert np.linalg.norm(M @ alpha - target) <= 1e-8
        Z = null_space(M)
        for _ in range(100):
            other = alpha + Z @ rng.standard_normal(Z.shape[1])
            assert np.linalg.norm(alpha) <= np.linalg.norm(other) + 1e-10

    def test_requires_injectivity(self):
        md, _ = decompose_l1(np.array([1.0, 2.0]))
        with pytest.raises(RestrictedInjectivityError):
            linearized_precertificate(np.array([[1.0, 1.0]]), md)

    def test_norm_identity_on_model_subspace(self, rng):
        # || alpha ||^2 = <e, (Phi_T^* Phi_T)^{-1} e> restricted to T, for
        # the max-abs decomposition (the quantity behind the sampling bound)
        for seed in range(20):
            r = np.random.default_rng(seed)
            N, Q, I = 16, 14, 5
            x0 = r.uniform(-0.4, 0.4, N)
            idx = r.choice(N, I, replace=False)
            x0[idx] = r.choice([-1.0, 1.0], I)
            Phi = r.standard_normal((Q, N))
            md, _ = decompose_linf(x0)
            alpha = linearized_precertificate(Phi, md)
            M = Phi @ md.T.basis
            target = md.T.coords(md.e)
            quad = float(target @ np.linalg.solve(M.T @ M, target))
            assert abs(alpha @ alpha - quad) <= 1e-10 * (1.0 + quad)


class TestIrrepresentability:
    def test_identity_phi_strong_gauge(self):
        md, _ = decompose_l1(np.array([3.0, 0.0, -2.0]))
        rep = irrepresentability(np.eye(3), md)
        assert rep.ic_value <= 1e-12
        assert rep.identifiable

    def test_orthogonal_offsupport_columns(self):
        Phi = np.array([[1.0, 0, 0], [0, 1, 1]])
        md, _ = decompose_l1(np.array([5.0, 0, 0]))
        rep = irrepresentability(Phi, md)
        assert rep.ic_value <= 1e-12

    def test_correlated_column_gives_rho(self):
        rho = 0.62
        Phi = np.column_stack([[1.0, 0.0],
                               [rho, np.sqrt(1 - rho ** 2)]])
        md, _ = decompose_l1(np.array([5.0, 0.0]))
        rep = irrepresentability(Phi, md)
        assert abs(rep.ic_value - rho) <= 1e-12

    def test_self_consistency(self, rng):
        Phi, x0 = random_l1_instance(3, 12, 8, 3)
        md, _ = decompose_l1(x0)
        rep = irrepresentability(Phi, md)
        alpha = linearized_precertificate(Phi, md)
        direct = md.antig.value(md.S.project(Phi.T @ alpha - md.f))
        assert abs(rep.ic_value - direct) <= 1e-10

    def test_fuchs_equivalence(self):
        # closed form: max_j |<Phi_j, Phi_I^{+,*} s_I>| over off-support j
        for seed in range(100):
            Phi, x0 = random_l1_instance(seed, 14, 9, 4)
            md, _ = decompose_l1(x0)
            if not restricted_injectivity(Phi, md.T):
                continue
            I = list(md.T.coord_idx)
            Ic = [j for j in range(14) if j not in I]
            v = svd_pinv(Phi[:, I]).T @ np.sign(x0[I])
            fuchs = np.max(np.abs(Phi[:, Ic].T @ v))
            rep = irrepresentability(Phi, md)
            assert abs(rep.ic_value - fuchs) <= 1e-10

    def test_analysis_equivalence(self):
        # independent LP evaluation of the analysis form
        n = 8
        g = tv1d_gauge(n)
        D = g.dstar.T
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            x0 = np.repeat(rng.standard_normal(3), [3, 2, 3])
            Phi = rng.standard_normal((6, n))
            md = decompose(g, x0)
            if not restricted_injectivity(Phi, md.T):
                continue
            rep = irrepresentability(Phi, md)
            u = g.dstar @ x0
            I = [i for i in range(n - 1) if abs(u[i]) > 1e-10]
            Ic = [i for i in range(n - 1) if i not in I]
            Dic = D[:, Ic]
            U = md.T.basis
            A_blk = U @ np.linalg.inv(U.T @ Phi.T @ Phi @ U) @ U.T
            w = svd_pinv(Dic) @ (Phi.T @ Phi @ A_blk - np.eye(n)) \
                @ D[:, I] @ np.sign(u[I])
            Z = null_space(Dic)
            val, _ = lp_minimize_linf(Z, w)
            assert abs(rep.ic_value - val) <= 1e-7

    def test_group_equivalence(self):
        part = BlockPartition([[0, 1], [2, 3], [4, 5], [6, 7]], 8)
        g = GroupL1L2(part)
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            x0 = np.zeros(8)
            x0[:4] = rng.standard_normal(4) + np.array([2, 2, -2, 2])
            Phi = rng.standard_normal((6, 8))
            md = decompose(g, x0)
            if not restricted_injectivity(Phi, md.T):
                continue
            rep = irrepresentability(Phi, md)
            I = [0, 1, 2, 3]
            Ic = [4, 5, 6, 7]
            e_blocks = np.concatenate([x0[:2] / np.linalg.norm(x0[:2]),
                                       x0[2:4] / np.linalg.norm(x0[2:4])])
            v = svd_pinv(Phi[:, I]).T @ e_blocks
            corr = Phi[:, Ic].T @ v
            closed = max(np.linalg.norm(corr[:2]), np.linalg.norm(corr[2:]))
            assert abs(rep.ic_value - closed) <= 1e-10


class TestOptimalityChecks:
    def test_constructed_certificate(self, rng):
        Phi, x0 = random_l1_instance(5, 10, 7, 3)
        md, _ = decompose_l1(x0)
        lam = 0.3
        alpha = linearized_precertificate(Phi, md)
        if md.antig.value(md.S.project(Phi.T @ alpha - md.f)) >= 1:
            pytest.skip("random instance not identifiable")
        y = Phi @ x0 + lam * alpha
        assert check_noisy_optimality(Phi, y, lam, x0, md=md) \
            == "unique_optimal"

    def test_zero_residual_needs_zero_e(self):
        Phi, x0 = random_l1_instance(6, 10, 7, 3)
        md, _ = decompose_l1(x0)
        y = Phi @ x0
        assert check_noisy_optimality(Phi, y, 1e-3, x0, md=md) == "not_optimal"

    def test_solver_agreement(self, rng):
        for seed in range(10):
            Phi, x0 = random_l1_instance(100 + seed, 16, 10, 3)
            w = rng.standard_normal(10) * 0.05
            y = Phi @ x0 + w
            res = solve_penalized(Phi, y, 0.4, L1(16), SolveOptions(tol=1e-9))
            assert res.converged
            md = decompose(L1(16), res.x_hat)
            verdict = check_noisy_optimality(Phi, y, 0.4, res.x_hat, md=md,
                                             eq_tol=1e-6)
            assert verdict in ("unique_optimal", "optimal_maybe_nonunique")

    def test_noiseless_identity(self):
        md, _ = decompose_l1(np.array([2.0, 0.0]))
        assert check_noiseless_optimality(np.eye(2), np.array([2.0, 0.0]),
                                          np.array([2.0, 0.0]), md) \
            == "unique_optimal"

    def test_noiseless_ic_certified(self):
        Phi = np.array([[1.0, 0, 0], [0, 1, 1]])
        md, _ = decompose_l1(np.array([5.0, 0, 0]))
        y = Phi @ np.array([5.0, 0, 0])
        assert check_noiseless_optimality(Phi, y, np.array([5.0, 0, 0]), md) \
            == "unique_optimal"

    def test_lp_corrected_certificate(self):
        # alpha_F fails but a corrected dual certificate exists
        phi1 = np.array([1.0, 0.0, 0.0])
        phi2 = np.array([1.2, 1.0, 0.0])
        phi3 = np.array([0.0, 0.0, 1.0])
        phi4 = np.array([0.5, 0.5, 0.5])
        Phi = np.column_stack([phi1, phi2, phi3, phi4])
        x0 = np.array([5.0, 0, 0, 0])
        md, _ = decompose_l1(x0)
        rep = irrepresentability(Phi, md)
        assert rep.ic_value > 1.0          # precertificate route fails
        y = Phi @ x0
        assert check_noiseless_optimality(Phi, y, x0, md) == "unique_optimal"
        # and the LP certificate is honest: the point really is the minimum
        res = solve_noiseless(Phi, y, L1(4))
        assert np.max(np.abs(res.x_hat - x0)) <= 1e-7

    def test_phi_t_is_factored_once(self, monkeypatch):
        # the precertificate, the injectivity verdict and the dual kernel
        # of the LP-corrected check all come from one SVD of Phi_T
        from gaugerec import certificates, linalg
        Phi = np.array([[1.0, 1.2, 0.0, 0.5], [0.0, 1.0, 0.0, 0.5],
                        [0.0, 0.0, 1.0, 0.5]])
        x0 = np.array([5.0, 0, 0, 0])
        md, _ = decompose_l1(x0)
        factored = []

        class Counting(linalg.RankedSvd):
            def __init__(self, M):
                factored.append(M.shape)
                super().__init__(M)

        def refuse(*args):
            raise AssertionError("Phi_T factored a second time")

        monkeypatch.setattr(certificates, "RankedSvd", Counting)
        monkeypatch.setattr(certificates, "restricted_injectivity", refuse)
        assert irrepresentability(Phi, md).ic_value > 1.0
        assert factored == [(3, 1)]
        factored.clear()
        assert check_noiseless_optimality(Phi, Phi @ x0, x0, md) \
            == "unique_optimal"
        assert factored == [(3, 1)]

    def test_infeasible_rejected(self):
        md, _ = decompose_l1(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            check_noiseless_optimality(np.eye(2), np.array([5.0, 1.0]),
                                       np.array([1.0, 0.0]), md)


class TestNspFalsify:
    def test_trivial_kernel(self):
        md, _ = decompose_l1(np.array([1.0, 0.0]))
        found, _ = nsp_falsify(np.eye(2), md, samples=50)
        assert not found

    def test_boundary_violation(self):
        Phi = np.array([[1.0, 1.0]])
        md, _ = decompose_l1(np.array([5.0, 0.0]))
        found, delta = nsp_falsify(Phi, md, samples=200, seed=3)
        assert found
        assert np.linalg.norm(Phi @ delta) <= 1e-10

    def test_identifiable_instances_pass(self):
        hits = 0
        for seed in range(30):
            Phi, x0 = random_l1_instance(300 + seed, 12, 8, 3)
            md, _ = decompose_l1(x0)
            if not restricted_injectivity(Phi, md.T):
                continue
            rep = irrepresentability(Phi, md)
            if rep.ic_value >= 0.9:
                continue
            found, _ = nsp_falsify(Phi, md, samples=2000, seed=seed)
            assert not found
            hits += 1
        assert hits >= 5


class TestStabilityConstants:
    def test_h_arithmetic(self):
        assert abs(phi_fn(1.0) - (np.sqrt(2) - 1)) <= 1e-15
        val = h_fn(1.0, 1.0)
        assert abs(val - 1.5 * (np.sqrt(1.5) - 1.0)) <= 1e-12
        assert abs(val - 0.337117) <= 1e-5

    def test_l1_gives_infinite_c_x0(self):
        Phi, x0 = random_l1_instance(15, 40, 25, 5)
        md, p = decompose_l1(x0)
        const = stability_constants(Phi, md, p)
        assert const.C_x0 == np.inf
        assert const.A_T == 2 * const.c4
        assert abs(const.E_T - (const.c1 / const.c4 + 2 * const.c2)) <= 1e-12
        assert const.A == const.c1          # the proof's A duplicates c1
        eps = 0.25 * const.noise_budget
        lo, hi = const.lambda_range(eps)
        assert lo <= hi
        assert abs(lo - const.A_T * eps / (1 - const.ic_value)) <= 1e-12
        assert abs(hi - const.B_T * p.nu) <= 1e-12

    def test_identity_phi_hand_computation(self):
        x0 = np.array([2.0, 0.0, 0.0])
        md, p = decompose_l1(x0)
        const = stability_constants(np.eye(3), md, p)
        # Q_T = projector on Ker(Phi_T^*) = S; W4 = P_S Q_T = P_S, so the
        # l2 -> linf-on-S bound is the largest row norm of P_S, i.e. 1
        assert abs(const.c4 - 1.0) <= 1e-12
        # (Phi_T^* Phi_T)^{-1} on T is the identity: bounds are 1; Gamma(e)=1
        assert abs(const.c1 - 1.0) <= 1e-12
        assert abs(const.c2 - 1.0) <= 1e-12
        assert abs(const.c3 - 0.0) <= 1e-12
        assert const.exact

    def test_exactness_flag_for_group(self):
        part = BlockPartition([[0, 1], [2, 3], [4, 5]], 6)
        x0 = np.zeros(6)
        x0[:2] = [3.0, 4.0]
        rng = np.random.default_rng(8)
        Phi = rng.standard_normal((5, 6))
        md, p = decompose_group(x0, part)
        const = stability_constants(Phi, md, p)
        # Gamma is a max of block l2 norms; its ball is not a polytope, so
        # the Gamma -> Gamma bound of the inverse Gram cannot be exact
        assert not const.exact

    @staticmethod
    def _linf_instance(seed, n, q, k):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-0.5, 0.5, n)
        x0[rng.choice(n, k, replace=False)] = rng.choice([-1.0, 1.0], k)
        Phi = rng.standard_normal((q, n))
        md, p = decompose_linf(x0)
        U = md.T.basis
        M = Phi @ U
        G = np.linalg.inv(M.T @ M)
        W1 = U @ G @ U.T
        W3 = -(md.S.basis @ md.S.basis.T) @ Phi.T @ M @ G @ U.T
        return Phi, md, p, W1, W3

    def test_linf_constants_match_brute_force(self):
        # c1 = ||W1||_{l1 on T -> l1} ||P_T Phi^*||_{l2 -> l1} and
        # c3 = ||W3||_{l1 on T -> antig}: the section vertices from the
        # H-representation in T coordinates and all 2^n sign vectors
        n = 8
        Phi, md, p, W1, W3 = self._linf_instance(12, n, 7, 3)
        const = stability_constants(Phi, md, p)
        assert const.exact
        U = md.T.basis
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        X = Polytope.from_halfspaces(signs @ U, np.ones(len(signs))).vertices @ U.T
        b1a = max(np.abs(W1 @ x).sum() for x in X)
        b1b = max(np.linalg.norm(Phi @ U @ (U.T @ s)) for s in signs)
        b3 = max(md.antig.value(W3 @ x) for x in X)
        assert abs(const.c1 - b1a * b1b) <= 1e-12 * const.c1
        assert abs(const.c3 - b3) <= 1e-12 * const.c3

    def test_linf_constants_past_enumeration_are_exact(self):
        # at the benchmark's n = 20 the section has no vertex list: P_T maps
        # the l1 ball into itself, so the bounds over T are attained at the
        # points P_T (+-e_i), and the l2 -> l1 bound matches all 2^19 signs
        n = 20
        Phi, md, p, W1, W3 = self._linf_instance(5, n, 18, 5)
        const = stability_constants(Phi, md, p)
        assert const.exact
        PT = md.T.basis @ md.T.basis.T
        assert np.abs(PT).sum(axis=0).max() <= 1.0 + 1e-12
        b1a = max(np.abs(W1 @ PT[:, i]).sum() for i in range(n))
        b3 = max(md.antig.value(sgn * W3 @ PT[:, i])
                 for i in range(n) for sgn in (1.0, -1.0))
        A = (PT @ Phi.T).T
        bits = np.arange(2 ** 14)[:, None] >> np.arange(14) & 1
        low = A[:, 6:] @ (1.0 - 2.0 * bits.T)
        b1b = 0.0
        for high in itertools.product((-1.0, 1.0), repeat=5):
            base = A[:, 0] + A[:, 1:6] @ np.array(high)
            b1b = max(b1b, np.max(np.linalg.norm(base[:, None] + low, axis=0)))
        assert abs(const.c3 - b3) <= 1e-12 * const.c3
        assert abs(const.c1 - b1a * b1b) <= 1e-12 * const.c1

    @pytest.mark.parametrize("n, exact", [(12, True), (20, True)])
    def test_exactness_flag_for_tv_follows_the_parameters(self, n, exact):
        # c4 of TV comes from the closed form; nu = nu0 / ||D^T||, and that
        # linf -> linf bound comes from the linf ball's 2^n vertices up to
        # n = 16 and from the largest row l1 norm beyond, exact either way
        rng = np.random.default_rng(3)
        g = tv1d_gauge(n)
        x0 = np.repeat(rng.standard_normal(4), n // 4)
        Phi = rng.standard_normal((n - 6, n))
        md0, p0 = decompose_l1(g.dstar @ x0)
        md = precompose(md0, g.dstar.T, x0)
        p = psfl_precompose(p0, g.dstar.T, md0, md)
        const = stability_constants(Phi, md, p)
        assert p.exact == exact
        assert const.exact == exact


def _three_factorization_constants(Phi, md, p):
    """(IC, c1, c2, c3, c4, exact) as stability_constants computed them
    from three factorizations of Phi_T: the SVD inside irrepresentability,
    inv(Phi_T^* Phi_T) and svd_pinv(Phi_T)."""
    ic = irrepresentability(Phi, md).ic_value
    Q = Phi.shape[0]
    U = md.T.basis
    M = Phi @ U
    G = np.linalg.inv(M.T @ M)
    PS = md.S.basis @ md.S.basis.T
    zero = OperatorBound(0.0, OperatorBound.EXACT_CLOSED_FORM)
    b3 = b4 = b1a = b1b = zero
    if md.S.dim:
        b3 = operator_bound(-PS @ Phi.T @ M @ G @ U.T, p.gamma, md.antig,
                            domain=md.T)
        b4 = operator_bound(PS @ Phi.T @ (np.eye(Q) - M @ svd_pinv(M)),
                            L2(Q), md.antig)
    if md.T.dim:
        b1a = operator_bound(U @ G @ U.T, p.gamma, p.gamma, domain=md.T)
        b1b = operator_bound(U @ U.T @ Phi.T, L2(Q), p.gamma)
    exact = (all(b.exact for b in (b1a, b1b, b3, b4)) and md.antig.exact
             and p.exact)
    return (ic, b1a.value * b1b.value, p.gamma.value(md.e) * b1a.value,
            b3.value, b4.value, exact)


def _certify_instance(kind, seed):
    """A certify-lambda instance in the benchmark's shapes: (N, Q) = (40,
    25), (20, 18), (20, 12) and (20, 12), dim T = 5, 16, 6 and 4."""
    r = np.random.default_rng([seed, 14])
    if kind == "l1":
        Phi, x0 = random_l1_instance(seed, 40, 25, 5)
        return (Phi,) + decompose_l1(x0)
    if kind == "linf":
        x0 = r.uniform(-0.5, 0.5, 20)
        x0[r.choice(20, 5, replace=False)] = r.choice([-1.0, 1.0], 5)
        return (r.standard_normal((18, 20)),) + decompose_linf(x0)
    if kind == "group":
        part = BlockPartition([[2 * b, 2 * b + 1] for b in range(10)], 20)
        x0 = np.zeros(20)
        for b in r.choice(10, 3, replace=False):
            x0[2 * b:2 * b + 2] = r.standard_normal(2) + 2.0
        return (r.standard_normal((12, 20)),) + decompose_group(x0, part)
    g = tv1d_gauge(20)
    x0 = np.repeat(r.standard_normal(4), 5)
    md0, p0 = decompose_l1(g.dstar @ x0)
    md = precompose(md0, g.dstar.T, x0)
    return (r.standard_normal((12, 20)), md,
            psfl_precompose(p0, g.dstar.T, md0, md))


@pytest.mark.parametrize("kind", ["l1", "linf", "group", "tv"])
@pytest.mark.parametrize("seed", range(3))
def test_one_factorization_keeps_the_constants(kind, seed):
    # (Phi_T^* Phi_T)^{-1} and Q_T now come from the SVD that gives IC.
    # inv(M^T M) rounds with an error that grows like cond(M)^2, the SVD
    # form like cond(M), so the two meet to 1e-13 only while Phi_T is as
    # well conditioned as in these shapes (cond 2 to 35)
    Phi, md, p = _certify_instance(kind, seed)
    const = stability_constants(Phi, md, p)
    ic, c1, c2, c3, c4, exact = _three_factorization_constants(Phi, md, p)
    assert const.ic_value == ic
    assert const.exact == exact
    for new, old in ((const.c1, c1), (const.c2, c2), (const.c3, c3),
                     (const.c4, c4)):
        assert abs(new - old) <= 1e-13 * abs(old)
    assert const.c1 > 0.0 and const.c2 > 0.0 and const.c4 > 0.0
