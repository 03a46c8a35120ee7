import itertools
import warnings

import numpy as np
import pytest

from gaugerec.linalg import (Subspace, project, svd_pinv,
                             restricted_injectivity, RankedSvd, null_space,
                             numerical_rank, rank_tolerance,
                             power_operator_norm, operator_bound, OperatorBound,
                             NoBoundRouteError, DimensionMismatchError)
from gaugerec.gauges import (L1, L2, Linf, Precomposed, MaxGauge, SumGauge,
                             BlockPartition, PositivePartMax, GroupL1L2)
from gaugerec.model import (GroupLinf2, SubdiffGauge, decompose,
                            decompose_l1, decompose_linf, tv1d_gauge)
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
        assert np.allclose(svd_pinv(np.eye(2)) @ [1.0, 2.0], [1, 2])

    def test_rank_one_diagonal(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(svd_pinv(A) @ [3.0, 4.0], [3, 0])

    def test_normal_equations_residual(self, rng):
        A = rng.standard_normal((9, 4))
        b = rng.standard_normal(9)
        x = svd_pinv(A) @ b
        assert np.linalg.norm(A.T @ A @ x - A.T @ b) <= 1e-8

    def test_rank_on_the_scale_of_the_matrix_it_restricts(self, rng):
        # M = D B with B orthonormal and D B of round-off: on its own scale
        # M has full rank, on ||D||'s it has rank 0
        D = rng.standard_normal((3, 4))
        B = null_space(D)[:, :1] + 1e-17 * rng.standard_normal((4, 1))
        M = D @ B
        top = np.linalg.norm(D, 2)
        assert null_space(M).shape[1] == 0
        assert null_space(M, top).shape[1] == 1
        assert not np.any(svd_pinv(M, top))
        assert null_space(M.T, top).shape[1] == 3

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


def _with_spectrum(rng, shape, s):
    """A matrix of the given shape with singular values s and random
    singular vectors."""
    q, k = shape
    U = np.linalg.qr(rng.standard_normal((q, q)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return (U[:, :s.size] * s) @ V[:, :s.size].T


def _svd_rank(M):
    """The rank that the full SVD alone gives M."""
    return numerical_rank(np.linalg.svd(M)[1], M.shape)


def _kahan(n, theta):
    """Kahan's upper-triangular matrix diag(s^i) (I - c * strict upper ones),
    s = sin(theta), c = cos(theta)."""
    c, s = np.cos(theta), np.sin(theta)
    return (s ** np.arange(n))[:, None] * (np.eye(n) - c * np.triu(
        np.ones((n, n)), 1))


class TestRankedSvd:
    # (40, 20) and (20, 40) at full rank are held as a certified QR, the
    # rest (smaller, or rank-deficient) as the SVD
    @pytest.mark.parametrize("shape,rank", [((6, 4), 4), ((6, 4), 2),
                                            ((3, 7), 3), ((5, 5), 3),
                                            ((4, 0), 0), ((0, 3), 0),
                                            ((40, 20), 20), ((20, 40), 20),
                                            ((40, 20), 12)])
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
        UM = svd.range_basis()
        assert UM.shape == (q, rank)
        assert np.allclose(UM.T @ UM, np.eye(rank), atol=1e-12)
        assert np.allclose(UM @ (UM.T @ M), M, atol=1e-12)
        if svd.injective:
            assert np.allclose(svd.gram_inverse(), np.linalg.inv(M.T @ M),
                               atol=1e-12)
        else:
            with pytest.raises(ValueError):
                svd.gram_inverse()

    def test_rank_is_the_svds_from_cond_1_to_1e17(self):
        # singular values spaced geometrically from 1 down to 1 / cond:
        # the certified QR takes the well-conditioned cases and the SVD
        # decides the rest, so every rank is the SVD's
        for shape in ((56, 49), (50, 64), (20, 16), (16, 40)):
            for seed in range(5):
                rng = np.random.default_rng([seed, *shape])
                for cond in np.logspace(0, 17, 69):
                    s = np.geomspace(1.0, 1.0 / cond, min(shape))
                    M = _with_spectrum(rng, shape, s)
                    assert RankedSvd(M).rank == _svd_rank(M), (shape, cond)

    def test_kahan_matrix_is_rank_deficient_despite_its_diagonal(self):
        # a QR without pivoting leaves Kahan's matrix as it is, and its
        # diagonal (down to s^89 = 1.9e-3) clears the cutoff, but its
        # smallest singular value does not
        K = _kahan(90, 1.2)
        d = np.abs(np.diag(K))
        assert d.min() > 1e6 * rank_tolerance(d.max(), K.shape)
        assert _svd_rank(K) == 89
        svd = RankedSvd(K)
        assert svd.rank == 89 and not svd.injective
        assert svd.kernel().shape == (90, 1)

    def test_the_span_of_kahans_matrix_has_its_rank(self):
        # the pivoted QR kept every column of Kahan's matrix, as its
        # diagonal clears the cutoff; the span takes RankedSvd's rank
        K = _kahan(90, 1.2)
        span = Subspace.from_span(K)
        assert span.dim == _svd_rank(K) == 89
        B = span.basis
        assert np.allclose(B.T @ B, np.eye(89), atol=1e-12)
        assert np.linalg.norm(K - B @ (B.T @ K)) <= 1e-12 * np.linalg.norm(K)

    @pytest.mark.parametrize("M, dim", [(np.zeros((4, 2)), 0),
                                        (np.zeros((4, 0)), 0),
                                        (np.array([1.0, 2.0, 0.0]), 1)])
    def test_the_span_of_no_columns_or_a_vector(self, M, dim):
        span = Subspace.from_span(M)
        assert span.dim == dim and span.ambient_dim == len(M)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160])
    def test_a_scale_that_overflows_the_certificate_takes_the_svd(
            self, rng, scale):
        # ||R||_F or ||R^{-1}||_F overflows: no certificate, no warning,
        # and the SVD's rank
        M = scale * rng.standard_normal((16, 40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svd = RankedSvd(M)
        assert svd.rank == _svd_rank(M) == 16
        assert np.array_equal(svd.kernel(), null_space(M))

    def test_an_exactly_singular_r_takes_the_svd(self, rng):
        # a zero column leaves an exact zero on R's diagonal, which
        # np.linalg.inv refuses
        M = rng.standard_normal((30, 20))
        M[:, 5] = 0.0
        svd = RankedSvd(M)
        assert svd.rank == 19
        assert np.allclose(np.abs(svd.kernel()[:, 0]), np.eye(20)[5],
                           atol=1e-12)

    @pytest.mark.parametrize("shape", [(50, 64), (16, 40)])
    def test_near_the_cutoff_the_svd_decides(self, shape):
        # a smallest singular value 3 to 300 times the cutoff, the others
        # 1 and 1e-5 so that the Frobenius bounds of the certificate are
        # tight: full rank either way, but within the certificate's safety
        # margin the SVD holds M, so the kernel is null_space's bit for bit
        tol = rank_tolerance(1.0, shape)
        rng = np.random.default_rng(list(shape))
        for ratio in np.geomspace(3.0, 300.0, 9):
            s = np.full(min(shape), 1e-5)
            s[0], s[-1] = 1.0, ratio * tol
            M = _with_spectrum(rng, shape, s)
            svd = RankedSvd(M)
            assert svd.rank == _svd_rank(M) == min(shape)
            assert np.array_equal(svd.kernel(), null_space(M))


class _NotMaxAbs:
    """g with its max-abs flag and its support atoms hidden, so that
    ``operator_bound`` skips the closed form of a max-abs input and takes
    the vertex route that g has without it."""

    is_max_abs = False

    def __init__(self, g):
        self._g = g

    def __getattr__(self, name):
        return getattr(self._g, name)

    def support_atoms(self):
        return None


class TestOperatorBound:
    def test_identity_l1(self):
        b = operator_bound(np.eye(3), L1(3), L1(3))
        assert b.method == OperatorBound.EXACT_VERTEX
        assert abs(b.value - 1.0) <= 1e-12

    def test_diag_linf(self):
        b = operator_bound(np.diag([2.0, 3.0]), Linf(2), _NotMaxAbs(Linf(2)))
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

    def test_inexact_output_gauge_gives_certified_upper_bounds(self):
        # a numerical-minimization evaluator returns upper estimates, so
        # neither the vertex maximum nor the kernel test is exact
        def abs_sum(eta):
            return float(np.abs(eta).sum())

        out = SubdiffGauge(Subspace.coordinate(4, [1, 3]), value_fn=abs_sum,
                           exact=False)
        b = operator_bound(np.diag([0, 1.0, 0, 2.0]), L1(4), out)
        assert (b.value, b.method) == (2.0, OperatorBound.CERTIFIED_UPPER)
        seminorm = Precomposed(L1(1), np.array([[0.0, 1.0]]))
        out = SubdiffGauge(Subspace.full(2), value_fn=abs_sum, exact=False)
        b = operator_bound(np.eye(2), seminorm, out)
        assert (b.value, b.method) == (np.inf, OperatorBound.CERTIFIED_UPPER)

    @pytest.mark.parametrize("combine, value", [(MaxGauge, 2.0),
                                                (SumGauge, 4.0)],
                             ids=["max", "sum"])
    def test_inexact_part_gives_certified_upper_bounds(self, combine, value):
        # the part's upper estimates reach the combined gauge's value
        inexact = SubdiffGauge(Subspace.full(4), exact=False,
                               value_fn=lambda e: float(np.abs(e).sum()))
        b = operator_bound(np.diag([0, 1.0, 0, 2.0]), L1(4),
                           combine([inexact, L1(4)]))
        assert (b.value, b.method) == (value, OperatorBound.CERTIFIED_UPPER)

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
                vert = operator_bound(A, Linf(n), _NotMaxAbs(Linf(5)),
                                      domain=dom)
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
                g_out = _NotMaxAbs(g_out)    # no max-abs closed form
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


class TestMaxAbsClosedForms:
    """The closed form of a max-abs input into support atoms against the
    vertex route the same inputs take without the atoms, and the
    support-atom route of a Euclidean input into the same outputs."""

    @staticmethod
    def _outputs(rng, m):
        x = np.zeros(m)
        x[rng.choice(m, 3, replace=False)] = rng.choice([-1.0, 1.0], 3)
        return [Linf(m), decompose_l1(x)[0].antig]

    def test_matches_the_vertex_route(self, rng):
        for n in range(1, 9):
            m = 8
            domains = [None, Subspace.coordinate(n, range(0, n, 2)),
                       Subspace.coordinate(n, [n - 1])]
            for g_out in self._outputs(rng, m):
                for dom in domains:
                    A = rng.standard_normal((m, n))
                    if hasattr(g_out, "S"):
                        A = g_out.S.project(A)   # rows off S exactly zero
                    closed = operator_bound(A, Linf(n), g_out, domain=dom)
                    ref = operator_bound(A, Linf(n), _NotMaxAbs(g_out),
                                         domain=dom)
                    assert closed.method == OperatorBound.EXACT_CLOSED_FORM
                    assert ref.method == OperatorBound.EXACT_VERTEX
                    assert 0.0 < ref.value < np.inf
                    assert abs(closed.value - ref.value) <= 1e-14 * ref.value

    def test_euclidean_input_is_the_largest_row_2_norm(self, rng):
        for n in range(1, 9):
            m = 8
            domains = [None, Subspace.coordinate(n, range(0, n, 2))]
            if n > 2:
                domains.append(random_subspace(rng, n, 2))
            for g_out in self._outputs(rng, m):
                rows = (list(g_out.S.coord_idx) if hasattr(g_out, "S")
                        else list(range(m)))
                for dom in domains:
                    A = rng.standard_normal((m, n))
                    if hasattr(g_out, "S"):
                        A = g_out.S.project(A)
                    b = operator_bound(A, L2(n), g_out, domain=dom)
                    M = A if dom is None else A @ dom.basis
                    ref = np.max(np.linalg.norm(M[rows], axis=1))
                    assert b.method == OperatorBound.EXACT_CLOSED_FORM
                    assert abs(b.value - ref) <= 1e-14 * ref

    def test_a_euclidean_image_off_s_is_infinite(self):
        # every column of A leaves S, where antig is +inf; the closed forms
        # read only the rows on S and gave 1.76 and 0.83
        A = np.random.default_rng(0).standard_normal((4, 3))
        md = decompose_l1(np.array([1.0, 0.0, 0.0, 2.0]))[0]
        tv = decompose(tv1d_gauge(5), np.array([1.0, 1.0, 2.0, 2.0, 2.0]))
        B = np.random.default_rng(1).standard_normal((5, 3))
        group = decompose(GroupL1L2(BlockPartition([[0, 1], [2, 3]], 4)),
                          np.array([1.0, 2.0, 0.0, 0.0]))
        for M, g_out in ((A, md.antig), (B, tv.antig), (A, group.antig)):
            assert np.isinf(g_out.values(M.T)).all()
            b = operator_bound(M, L2(3), g_out)
            assert (b.value, b.method) == (np.inf,
                                           OperatorBound.EXACT_CLOSED_FORM)
        # an image on S, with a row of round-off off a tilted S, stays finite
        Bs = tv.S.project(B)
        assert np.isfinite(operator_bound(Bs, L2(3), tv.antig).value)

    def test_any_support_atoms_on_a_coordinate_s(self, rng):
        # the closed form is max_j ||(A^T w_j)_D||_1 for any atoms w_j, not
        # only +-e_i; a lifted gauge or one on a tilted S takes the vertices
        S = Subspace.coordinate(4, [0, 1, 3])
        e = np.eye(4)
        outputs = [
            SubdiffGauge(S, atoms=np.vstack([e[[3, 0]], -e[[0, 3]]])),
            SubdiffGauge(S, atoms=np.vstack([e[[0, 3]], -e[[0]]])),
            SubdiffGauge(S, atoms=np.vstack([2 * e[[0]], -e[[1]]])),
            SubdiffGauge(S, atoms=rng.standard_normal((5, 4))),
            SubdiffGauge(S, atoms=np.zeros((0, 4))),
            PositivePartMax(4),
        ]
        domains = [None, Subspace.coordinate(3, [0, 2])]
        for g_out in outputs:
            for dom in domains:
                A = rng.standard_normal((4, 3))
                if hasattr(g_out, "S"):
                    A = g_out.S.project(A)
                b = operator_bound(A, Linf(3), g_out, domain=dom)
                ref = operator_bound(A, Linf(3), _NotMaxAbs(g_out),
                                     domain=dom)
                assert b.method == OperatorBound.EXACT_CLOSED_FORM
                assert ref.method == OperatorBound.EXACT_VERTEX
                assert abs(b.value - ref.value) <= 1e-14 * max(ref.value, 1.0)
        lifted = SubdiffGauge(S, atoms=np.vstack([e[[0]], -e[[0]]]),
                              lift=np.ones((2, 1)))
        T = random_subspace(rng, 4, 2)
        tilted = SubdiffGauge(T, atoms=np.vstack([e, -e]))
        for g_out in (lifted, tilted):
            A = g_out.S.project(rng.standard_normal((4, 3)))
            b = operator_bound(A, Linf(3), g_out)
            assert b.method == OperatorBound.EXACT_VERTEX
            assert b.value == _vertex_reference(A, Linf(3), g_out)


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
