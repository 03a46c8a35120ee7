import itertools

import numpy as np
import pytest

from gaugerec.linalg import (Subspace, project, pseudo_inverse_apply,
                             svd_pinv, restricted_injectivity, RankedSvd,
                             null_space, power_operator_norm,
                             gaussian_ensemble, operator_bound, OperatorBound,
                             NoBoundRouteError, DimensionMismatchError)
from gaugerec.gauges import (L1, L2, Linf, Precomposed, MaxGauge,
                             BlockPartition)
from gaugerec.model import GroupLinf2, decompose_l1, decompose_linf
from gaugerec.polytopes import Polytope

from conftest import random_subspace


class TestProject:
    def test_coordinate_subspace(self):
        T = Subspace.coordinate(3, [0])
        assert np.allclose(project(np.array([1.0, 2, 3]), T), [1, 0, 0])

    def test_member_fixed(self, rng):
        T = random_subspace(rng, 6, 3)
        v = T.basis @ rng.standard_normal(3)
        assert np.allclose(project(v, T), v, atol=1e-12)

    def test_idempotent_and_symmetric(self, rng):
        for _ in range(100):
            n = rng.integers(2, 9)
            k = rng.integers(0, n + 1)
            T = random_subspace(rng, n, k)
            P = T.basis @ T.basis.T
            assert np.max(np.abs(P @ P - P)) <= 1e-10
            assert np.max(np.abs(P - P.T)) <= 1e-10
            v = rng.standard_normal(n)
            pv = project(v, T)
            assert np.linalg.norm(pv - project(pv, T)) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project(np.ones(4), Subspace.coordinate(3, [0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project(np.array([1.0, np.nan]), Subspace.coordinate(2, [0]))


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse_apply(np.eye(2), [1.0, 2.0]), [1, 2])

    def test_rank_one_diagonal(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(pseudo_inverse_apply(A, [3.0, 4.0]), [3, 0])

    def test_normal_equations_residual(self, rng):
        A = rng.standard_normal((9, 4))
        b = rng.standard_normal(9)
        x = pseudo_inverse_apply(A, b)
        assert np.linalg.norm(A.T @ A @ x - A.T @ b) <= 1e-8

    def test_penrose_identity_all_ranks(self, rng):
        for r in range(0, 5):
            U = rng.standard_normal((6, 5))
            u, s, vt = np.linalg.svd(U, full_matrices=False)
            s[r:] = 0.0
            A = (u * s) @ vt
            Ap = svd_pinv(A)
            assert np.max(np.abs(A @ Ap @ A - A)) <= 1e-8


class TestPowerOperatorNorm:
    def test_matches_two_column_angle_grid(self, rng):
        # the norm of a q x 2 matrix is the max of ||A (cos t, sin t)|| over
        # t in [0, pi); a grid of spacing h is within a factor cos(h / 2)
        t = np.linspace(0.0, np.pi, 200001)
        dirs = np.vstack([np.cos(t), np.sin(t)])
        for q in (1, 2, 5, 12):
            A = rng.standard_normal((q, 2))
            grid = np.linalg.norm(A @ dirs, axis=0).max()
            norm = power_operator_norm(A)
            assert grid <= norm * (1 + 1e-14)
            assert norm * np.cos(0.5 * (t[1] - t[0])) <= grid

    def test_matches_gram_eigenvalue_and_bounds_every_image(self, rng):
        for shape in ((12, 20), (19, 20), (20, 12), (3, 3), (1, 7)):
            A = rng.standard_normal(shape)
            norm = power_operator_norm(A)
            ref = np.sqrt(np.linalg.eigvalsh(A.T @ A)[-1])
            assert abs(norm - ref) <= 1e-13 * ref
            v = rng.standard_normal((shape[1], 100))
            assert np.all(np.linalg.norm(A @ v, axis=0)
                          <= norm * np.linalg.norm(v, axis=0) * (1 + 1e-14))

    @pytest.mark.parametrize("gap", [0.0, 1e-15, 1e-12, 1e-9])
    def test_near_degenerate_top_singular_values(self, rng, gap):
        # power iteration converges like (s2 / s1)^k, so at s2 = s1 - gap
        # it stalls short of s1; the norm itself does not
        u, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        v, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        s = np.array([3.0, 3.0 - 3.0 * gap, 1.0, 0.5, 0.25, 0.0, 0.0])
        A = (u[:, :7] * s) @ v.T
        assert abs(power_operator_norm(A) - 3.0) <= 1e-14 * 3.0

    def test_difference_operator_closed_form(self):
        # the singular values of the (n-1) x n forward difference are
        # 2 sin(k pi / (2 n)), k = 1..n-1
        for n in (2, 8, 20, 64):
            D = np.diff(np.eye(n), axis=0)
            exact = 2.0 * np.sin((n - 1) * np.pi / (2 * n))
            assert abs(power_operator_norm(D) - exact) <= 1e-14 * exact

    def test_zero_and_empty(self):
        assert power_operator_norm(np.zeros((3, 4))) == 0.0
        assert power_operator_norm(np.zeros((0, 4))) == 0.0


class TestRestrictedInjectivity:
    def test_identity_always(self, rng):
        T = random_subspace(rng, 5, 3)
        assert restricted_injectivity(np.eye(5), T)

    def test_zero_map(self):
        T = Subspace.coordinate(3, [0, 1])
        assert not restricted_injectivity(np.zeros((2, 3)), T)

    def test_fat_matrix_wide_subspace(self, rng):
        Phi = rng.standard_normal((2, 3))
        assert not restricted_injectivity(Phi, Subspace.full(3))

    def test_trivial_subspace(self, rng):
        assert restricted_injectivity(np.zeros((2, 3)), Subspace.zero(3))


class TestRankedSvd:
    @pytest.mark.parametrize("shape,rank", [((6, 4), 4), ((6, 4), 2),
                                            ((3, 7), 3), ((5, 5), 3),
                                            ((4, 0), 0), ((0, 3), 0)])
    def test_against_lstsq_and_null_space(self, rng, shape, rank):
        q, k = shape
        M = rng.standard_normal((q, rank)) @ rng.standard_normal((rank, k))
        svd = RankedSvd(M)
        assert svd.rank == rank
        assert svd.injective == (rank == k)
        if k:
            T = Subspace.full(k)
            assert svd.injective == restricted_injectivity(M, T)
        b, t = rng.standard_normal(q), rng.standard_normal(k)
        x, *_ = np.linalg.lstsq(M, b, rcond=None)
        a, *_ = np.linalg.lstsq(M.T, t, rcond=None)
        assert np.allclose(svd.solve(b), x, atol=1e-12)
        assert np.allclose(svd.solve_adjoint(t), a, atol=1e-12)
        for basis, ref in ((svd.kernel(), null_space(M)),
                           (svd.adjoint_kernel(), null_space(M.T))):
            assert basis.shape == ref.shape
            assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]),
                               atol=1e-12)
            # the same subspace: each basis projects the other onto itself
            assert np.allclose(basis @ (basis.T @ ref), ref, atol=1e-12)


class TestGaussianEnsemble:
    def test_deterministic(self):
        A = gaussian_ensemble(2, 2, seed=123)
        B = gaussian_ensemble(2, 2, seed=123)
        assert np.array_equal(A, B)

    def test_moments(self):
        A = gaussian_ensemble(200, 500, seed=7)
        assert abs(A.mean()) <= 0.02
        assert 0.97 <= A.var() <= 1.03

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gaussian_ensemble(0, 3, seed=1)


class TestOperatorBound:
    def test_identity_l1(self):
        b = operator_bound(np.eye(3), L1(3), L1(3))
        assert b.method == OperatorBound.EXACT_VERTEX
        assert abs(b.value - 1.0) <= 1e-12

    def test_diag_linf(self):
        b = operator_bound(np.diag([2.0, 3.0]), Linf(2), Linf(2))
        assert b.method == OperatorBound.EXACT_VERTEX
        assert abs(b.value - 3.0) <= 1e-12
        # oracle: max absolute row sum
        assert abs(b.value - np.max(np.abs(np.diag([2.0, 3.0])).sum(axis=1))) <= 1e-12

    def test_kernel_direction_gives_infinity(self):
        # seminorm with kernel span{e1} into a coercive gauge: the kernel
        # direction maps outside the output kernel, so the bound is +inf
        seminorm = Precomposed(L1(1), np.array([[0.0, 1.0]]))
        b = operator_bound(np.eye(2), seminorm, L2(2))
        assert np.isinf(b.value)

    def test_kernel_inclusion_stays_finite(self):
        seminorm = Precomposed(L1(1), np.array([[0.0, 1.0]]))
        b = operator_bound(np.eye(2), seminorm, seminorm)
        assert np.isfinite(b.value) and abs(b.value - 1.0) <= 1e-9

    def test_submultiplicative(self, rng):
        for _ in range(20):
            A = rng.standard_normal((4, 4))
            B = rng.standard_normal((4, 4))
            bAB = operator_bound(A @ B, Linf(4), Linf(4)).value
            bA = operator_bound(A, Linf(4), Linf(4)).value
            bB = operator_bound(B, Linf(4), Linf(4)).value
            assert bAB <= bA * bB + 1e-9

    def test_triangle_bound_downstream(self, rng):
        A = rng.standard_normal((5, 4))
        g_in, g_out = L1(4), Linf(5)
        val = operator_bound(A, g_in, g_out).value
        for _ in range(1000):
            x = rng.standard_normal(4)
            assert g_out.value(A @ x) <= val * g_in.value(x) + 1e-9

    def test_gauge_without_a_route_raises(self, rng):
        # an input gauge that exposes only its value has no exact or
        # certified-upper route: no sampled value stands in for the bound
        A = rng.standard_normal((3, 3))

        class ValueOnly:
            dim = 3

            def __init__(self, inner):
                self.inner = inner

            def value(self, x):
                return self.inner.value(x)

            def ball_vertices(self, domain=None):
                return None

            def support_atoms(self):
                return None

            def kernel_directions(self, domain=None):
                return np.zeros((0, 3))

        with pytest.raises(NoBoundRouteError):
            operator_bound(A, ValueOnly(L1(3)), Linf(3))
        with pytest.raises(NoBoundRouteError):
            operator_bound(A, ValueOnly(L1(3)), Linf(3),
                           domain=Subspace.coordinate(3, [0, 1]))

    def test_linf_to_linf_closed_form_matches_vertices(self, rng):
        class NoVertexLinf(Linf):
            def ball_vertices(self, domain=None):
                return None

        for n in range(1, 9):
            A = rng.standard_normal((5, n))
            domains = [None, Subspace.coordinate(n, range(0, n, 2))]
            for dom in domains:
                vert = operator_bound(A, Linf(n), Linf(5), domain=dom)
                closed = operator_bound(A, NoVertexLinf(n), Linf(5),
                                        domain=dom)
                assert vert.method == OperatorBound.EXACT_VERTEX
                assert closed.method == OperatorBound.EXACT_CLOSED_FORM
                assert abs(closed.value - vert.value) <= 1e-12

    def test_linf_to_linf_beyond_enumeration_is_exact(self, rng):
        # 2^20 sign vertices are too many to enumerate; the largest row
        # l1 norm replaces the sampled lower bound and dominates it
        A = rng.standard_normal((6, 20))
        b = operator_bound(A, Linf(20), Linf(6))
        assert b.method == OperatorBound.EXACT_CLOSED_FORM
        assert b.value == np.max(np.abs(A).sum(axis=1))
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0, 20)
            assert np.max(np.abs(A @ x)) <= b.value + 1e-12
        dom = Subspace.coordinate(20, range(17))
        bd = operator_bound(A, Linf(20), Linf(6), domain=dom)
        assert bd.method == OperatorBound.EXACT_CLOSED_FORM
        assert bd.value == np.max(np.abs(A[:, :17]).sum(axis=1))

    def test_l2_to_linf_closed_form(self, rng):
        A = rng.standard_normal((4, 6))
        b = operator_bound(A, L2(6), Linf(4))
        assert b.method == OperatorBound.EXACT_CLOSED_FORM
        assert abs(b.value - np.max(np.linalg.norm(A, axis=1))) <= 1e-12


def _vertex_reference(A, g_in, g_out, domain=None):
    """The vertex route as a loop of ``value`` over the ball's vertices."""
    return max(g_out.value(A @ v) for v in g_in.ball_vertices(domain))


class TestVertexRoute:
    """The batched vertex route against the per-vertex loop it replaced."""

    @staticmethod
    def _cases(rng):
        x = np.array([1.5, 0.0, -2.0, 0.0, 0.0, 0.7, 0.0, 0.3])
        md = decompose_l1(x)[0]
        mdi = decompose_linf(np.array([1.5, 0.0, -1.5, 0.0, 0.0, 0.7, 0.0,
                                       1.5]))[0]
        part = BlockPartition([[0, 1], [2, 3], [4, 5], [6, 7]], 8)
        T = Subspace.coordinate(8, [0, 2, 5, 7])
        return [
            (Linf(8), Linf(5), (5, 8), T),
            (Linf(8), md.antig, (8, 8), T),
            (Linf(8), mdi.antig, (8, 8), T),
            (L1(8), L2(6), (6, 8), None),
            (L1(8), GroupLinf2(part), (8, 8), random_subspace(rng, 8, 3)),
            (Linf(6), MaxGauge([L1(4), L2(4)]), (4, 6), None),
            (md.antig, Linf(3), (3, 8), None),
            (mdi.antig, L1(8), (8, 8), None),
        ]

    def test_matches_the_per_vertex_loop(self, rng):
        for _ in range(5):
            for g_in, g_out, shape, dom in self._cases(rng):
                A = rng.standard_normal(shape)
                if hasattr(g_out, "S"):
                    A = g_out.S.project(A)    # finite: the image lies in S
                b = operator_bound(A, g_in, g_out, domain=dom)
                ref = _vertex_reference(A, g_in, g_out, dom)
                assert b.method == OperatorBound.EXACT_VERTEX
                assert 0.0 < ref < np.inf
                assert abs(b.value - ref) <= 1e-14 * ref

    def test_output_off_its_domain_is_infinite(self, rng):
        # the images of the sign vertices leave S, where antig is +inf
        md = decompose_l1(np.array([1.0, 0.0, 0.0, 2.0]))[0]
        A = rng.standard_normal((4, 4))
        b = operator_bound(A, Linf(4), md.antig)
        assert b.method == OperatorBound.EXACT_VERTEX
        assert b.value == np.inf == _vertex_reference(A, Linf(4), md.antig)


class _NoSectionL1(L1):
    """L1 whose section vertices are withheld, so a domain takes the
    domain-drop route."""

    def ball_vertices(self, domain=None):
        return None if domain is not None else super().ball_vertices()


def _linf_model(rng, n, k):
    x = rng.uniform(-0.5, 0.5, n)
    x[rng.choice(n, k, replace=False)] = rng.choice([-1.0, 1.0], k)
    return decompose_linf(x)[0]


def _section_brute(A, g_out, T, n):
    """max g_out(A x) over the vertices of {x in T : ||x||_1 <= 1}, from
    the H-representation in T coordinates."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    sect = Polytope.from_halfspaces(signs @ T.basis, np.ones(len(signs)))
    return max(g_out.value(A @ (T.basis @ c)) for c in sect.vertices)


def _circle_grid_max(Ab, blocks, count=10 ** 6, chunk=10 ** 5):
    best = 0.0
    for start in range(0, count, chunk):
        theta = np.arange(start, start + chunk) * (np.pi / count)
        Z = Ab.T @ np.vstack([np.cos(theta), np.sin(theta)])
        f = sum(np.linalg.norm(Z[b], axis=0) for b in blocks)
        best = max(best, float(np.max(f)))
    return best


class TestOperatorBoundRoutes:
    @pytest.mark.parametrize("n, k", [(6, 2), (7, 3), (8, 3)])
    def test_domain_drop_on_the_linf_model_is_exact(self, rng, n, k):
        # P_T averages the saturated block, so ||P_T||_{1->1} = 1 and the
        # bound over the ball section equals the bound of A P_T
        md = _linf_model(rng, n, k)
        A = rng.standard_normal((n, n))
        for g_out in (L1(n), md.antig):
            W = md.S.basis @ md.S.basis.T @ A if g_out is md.antig else A
            b = operator_bound(W, _NoSectionL1(n), g_out, domain=md.T)
            assert b.method == OperatorBound.EXACT_VERTEX
            ref = _section_brute(W, g_out, md.T, n)
            assert abs(b.value - ref) <= 1e-12 * ref

    def test_domain_drop_elsewhere_is_a_certified_upper_bound(self, rng):
        n = 7
        for _ in range(5):
            T = random_subspace(rng, n, 4)
            A = rng.standard_normal((5, n))
            b = operator_bound(A, _NoSectionL1(n), L1(5), domain=T)
            ref = _section_brute(A, L1(5), T, n)
            assert b.method in (OperatorBound.CERTIFIED_UPPER,
                                OperatorBound.EXACT_VERTEX)
            assert b.value >= ref * (1 - 1e-12)
            if b.method == OperatorBound.EXACT_VERTEX:
                assert abs(b.value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("m", [1, 2, 5, 9, 12])
    def test_l2_to_l1_matches_sign_enumeration(self, rng, m):
        A = rng.standard_normal((m, 5))
        if m >= 5:
            A[1] = -A[0]          # rows equal up to sign are merged
            A[3] = 0.0            # zero rows are dropped
        b = operator_bound(A, L2(5), L1(m))
        assert b.method == OperatorBound.EXACT_CLOSED_FORM
        ref = max(np.linalg.norm(A.T @ np.array(s))
                  for s in itertools.product((-1.0, 1.0), repeat=m))
        assert abs(b.value - ref) <= 1e-12 * ref
        dom = random_subspace(rng, 5, 3)
        bd = operator_bound(A, L2(5), L1(m), domain=dom)
        M = A @ dom.basis
        ref = max(np.linalg.norm(M.T @ np.array(s))
                  for s in itertools.product((-1.0, 1.0), repeat=m))
        assert abs(bd.value - ref) <= 1e-12 * ref

    def test_l2_to_l1_beyond_enumeration_is_a_certified_upper_bound(self, rng):
        A = rng.standard_normal((30, 4))
        b = operator_bound(A, L2(4), L1(30))
        assert b.method == OperatorBound.CERTIFIED_UPPER
        sigma = np.linalg.svd(A, compute_uv=False)[0]
        ref = min(np.sqrt(30) * sigma, np.linalg.norm(A, axis=1).sum())
        assert abs(b.value - ref) <= 1e-12 * ref
        for s in rng.choice([-1.0, 1.0], (2000, 30)):
            assert np.linalg.norm(A.T @ s) <= b.value

    def test_block_input_size_two_outputs_bracket_a_fine_grid(self, rng):
        part = BlockPartition([[0, 1], [2, 3], [4, 5]], 6)
        blocks = [np.asarray(b) for b in part]
        for _ in range(3):
            A = rng.standard_normal((6, 6))
            b = operator_bound(A, GroupLinf2(part), GroupLinf2(part))
            assert b.method == OperatorBound.CERTIFIED_UPPER
            grid = max(_circle_grid_max(A[r], blocks) for r in blocks)
            assert grid <= b.value <= grid * (1 + 1e-6)

    def test_block_input_atom_outputs_are_attained(self, rng):
        part = BlockPartition([[0, 1], [2, 3, 4], [5]], 6)
        A = rng.standard_normal((4, 6))
        for g_out in (Linf(4), GroupLinf2(BlockPartition(
                [[0], [1], [2], [3]], 4))):
            b = operator_bound(A, GroupLinf2(part), g_out)
            assert b.method == OperatorBound.EXACT_CLOSED_FORM
            # the maximizing row and sign give a feasible point attaining it
            best = 0.0
            for i in range(4):
                x = np.concatenate([A[i, c] / np.linalg.norm(A[i, c])
                                    for c in part])
                assert GroupLinf2(part).value(x) <= 1 + 1e-12
                best = max(best, g_out.value(A @ x))
            assert abs(b.value - best) <= 1e-12 * best

    def test_block_input_large_output_block_is_the_triangle_sum(self, rng):
        part = BlockPartition([[0, 1], [2, 3]], 4)
        A = rng.standard_normal((3, 4))
        b = operator_bound(A, GroupLinf2(part), L2(3))
        assert b.method == OperatorBound.CERTIFIED_UPPER
        tri = sum(np.linalg.svd(A[:, c], compute_uv=False)[0] for c in part)
        assert abs(b.value - tri) <= 1e-12 * tri
        for _ in range(500):
            z = rng.standard_normal(4)
            x = z / GroupLinf2(part).value(z)
            assert np.linalg.norm(A @ x) <= b.value

    def test_max_and_precomposed_outputs_fold_exactly(self, rng):
        # singleton blocks make the block-disc ball the max-abs cube, whose
        # 2^n sign vertices give the brute-force value
        n, m = 6, 4
        cube = GroupLinf2(BlockPartition([[i] for i in range(n)], n))
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        for _ in range(3):
            A = rng.standard_normal((m, n))
            D = rng.standard_normal((3, m))
            g_out = MaxGauge([Linf(m), Precomposed(Linf(3), D)])
            b = operator_bound(A, cube, g_out)
            assert b.method == OperatorBound.EXACT_CLOSED_FORM
            ref = max(g_out.value(A @ s) for s in signs)
            assert abs(b.value - ref) <= 1e-12 * ref

    def test_max_input_is_the_smallest_part_bound(self, rng):
        # the l1 ball lies in the cube, so the max of the two gauges has
        # the l1 ball, with vertices +-e_i
        n, m = 5, 4
        cube = GroupLinf2(BlockPartition([[i] for i in range(n)], n))
        A = rng.standard_normal((m, n))
        b = operator_bound(A, MaxGauge([cube, L1(n)]), Linf(m))
        assert b.method == OperatorBound.CERTIFIED_UPPER
        ref = np.max(np.abs(A))
        assert abs(b.value - ref) <= 1e-12 * ref

    def test_precomposed_input_with_a_kernel(self, rng):
        from scipy.optimize import linprog
        n, m = 6, 4
        for rank in (3, 2):
            Dstar = rng.standard_normal((4, rank)) @ rng.standard_normal(
                (rank, n))
            g_in = Precomposed(L1(4), Dstar)
            A = rng.standard_normal((m, 4)) @ Dstar  # kills Ker(Dstar)
            b = operator_bound(A, g_in, Linf(m))
            assert b.exact
            # LP: max +-a_i^T x over ||Dstar x||_1 <= 1, variables (x, z)
            ref = 0.0
            for i in range(m):
                for sgn in (1.0, -1.0):
                    c = np.concatenate([-sgn * A[i], np.zeros(4)])
                    a_ub = np.block([[Dstar, -np.eye(4)],
                                     [-Dstar, -np.eye(4)],
                                     [np.zeros((1, n)), np.ones((1, 4))]])
                    b_ub = np.concatenate([np.zeros(8), [1.0]])
                    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                                  bounds=[(None, None)] * n + [(0, None)] * 4,
                                  method="highs")
                    ref = max(ref, -res.fun)
            assert abs(b.value - ref) <= 1e-9 * ref

    def test_zero_map_is_zero_for_any_output(self):
        class Opaque:
            def value(self, y):
                raise AssertionError("a zero map needs no evaluation")

        part = BlockPartition([[0, 1], [2, 3]], 4)
        b = operator_bound(np.zeros((3, 4)), GroupLinf2(part), Opaque())
        assert b.value == 0.0 and b.exact
