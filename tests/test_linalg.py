import numpy as np
import pytest

from gaugerec.linalg import (Subspace, project, pseudo_inverse_apply,
                             svd_pinv, restricted_injectivity,
                             gaussian_ensemble, operator_bound, OperatorBound,
                             DimensionMismatchError)
from gaugerec.gauges import L1, L2, Linf, Precomposed

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

    def test_sampled_never_exceeds_exact(self, rng):
        A = rng.standard_normal((3, 3))

        class NoVertices:
            dim = 3
            is_euclidean = False

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

        exact = operator_bound(A, L1(3), Linf(3))
        sampled = operator_bound(A, NoVertices(L1(3)), Linf(3), samples=4000)
        assert sampled.method == OperatorBound.SAMPLED
        assert sampled.value <= exact.value + 1e-12

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
