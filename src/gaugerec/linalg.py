"""Dense linear-algebra substrate.

Subspaces are represented by matrices with orthonormal columns.  Rank
decisions everywhere use the same relative singular-value cutoff
(``sigma_max * max(shape) * eps * 64``) so that projections, pseudo-inverses
and injectivity tests stay mutually consistent.
"""

import numpy as np
import scipy.linalg

EPS = np.finfo(float).eps
RANK_TOL_FACTOR = 64.0


class DimensionMismatchError(ValueError):
    pass


def check_finite(a, name="array"):
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def rank_tolerance(sigma_max, shape):
    """Singular-value cutoff below which directions count as numerical kernel."""
    return sigma_max * max(shape) * EPS * RANK_TOL_FACTOR


def numerical_rank(s, shape):
    """Number of singular values s (sorted descending) of a matrix of the
    given shape above the rank cutoff."""
    return int(np.sum(s > rank_tolerance(s[0] if s.size else 0.0, shape)))


def orthonormal_columns(M):
    """Orthonormal basis of the column span of M (Householder QR, pivoted)."""
    M = check_finite(M, "M")
    if M.ndim == 1:
        M = M[:, None]
    if M.size == 0 or not np.any(M):
        return np.zeros((M.shape[0], 0))
    Q, R, _ = scipy.linalg.qr(M, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = rank_tolerance(diag[0] if diag.size else 0.0, M.shape)
    rank = int(np.sum(diag > tol))
    return Q[:, :rank]


def null_space(M):
    """Orthonormal basis of Ker(M)."""
    M = check_finite(M, "M")
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    u, s, vt = np.linalg.svd(M, full_matrices=True)
    return vt[numerical_rank(s, M.shape):].T


class Subspace:
    """A linear subspace of R^n held as an orthonormal basis (n x k).

    ``coord_idx`` is set when the subspace is spanned by canonical basis
    vectors; several operator-bound fast paths key off it.
    """

    def __init__(self, basis, coord_idx=None, _skip_checks=False):
        basis = check_finite(basis, "basis")
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-d array")
        if not _skip_checks and basis.shape[1] > 0:
            gram = basis.T @ basis
            if not np.allclose(gram, np.eye(basis.shape[1]), atol=1e-10):
                raise ValueError("basis columns are not orthonormal to 1e-10")
        if basis.shape[1] > basis.shape[0]:
            raise ValueError("subspace dimension exceeds ambient dimension")
        self.basis = basis
        self.coord_idx = None if coord_idx is None else tuple(sorted(coord_idx))

    @classmethod
    def from_span(cls, M):
        return cls(orthonormal_columns(M), _skip_checks=True)

    @classmethod
    def coordinate(cls, n, idx):
        idx = sorted(set(int(i) for i in idx))
        B = np.zeros((n, len(idx)))
        for j, i in enumerate(idx):
            B[i, j] = 1.0
        return cls(B, coord_idx=idx, _skip_checks=True)

    @classmethod
    def full(cls, n):
        return cls(np.eye(n), coord_idx=range(n), _skip_checks=True)

    @classmethod
    def zero(cls, n):
        return cls(np.zeros((n, 0)), coord_idx=(), _skip_checks=True)

    @classmethod
    def kernel_of(cls, M):
        return cls(null_space(M), _skip_checks=True)

    @classmethod
    def image_of(cls, M):
        return cls(orthonormal_columns(M), _skip_checks=True)

    @property
    def ambient_dim(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def project(self, v):
        return self.basis @ (self.basis.T @ v)

    def coords(self, v):
        return self.basis.T @ v

    def lift(self, c):
        return self.basis @ c

    def complement(self):
        if self.coord_idx is not None:
            idx = [i for i in range(self.ambient_dim) if i not in self.coord_idx]
            return Subspace.coordinate(self.ambient_dim, idx)
        return Subspace(null_space(self.basis.T), _skip_checks=True)

    def intersection(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError("ambient dimensions differ")
        n = self.ambient_dim
        stacked = np.vstack([np.eye(n) - self.basis @ self.basis.T,
                             np.eye(n) - other.basis @ other.basis.T])
        return Subspace.kernel_of(stacked)

    def contains(self, v, tol=None):
        v = np.asarray(v, dtype=float)
        if tol is None:
            tol = 1e-9 * (1.0 + np.linalg.norm(v))
        return np.linalg.norm(v - self.project(v)) <= tol

    def contains_rows(self, X):
        """``contains`` for every row of X at once, with the same per-row
        tolerance 1e-9 (1 + ||row||)."""
        X = np.asarray(X, dtype=float)
        off = X - (X @ self.basis) @ self.basis.T
        return (np.linalg.norm(off, axis=1)
                <= 1e-9 * (1.0 + np.linalg.norm(X, axis=1)))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient_dim}, dim={self.dim})"


def project(v, T):
    """Orthogonal projection of v onto the subspace T."""
    v = check_finite(v, "v")
    if v.shape[0] != T.ambient_dim:
        raise DimensionMismatchError(
            f"vector of length {v.shape[0]} vs ambient {T.ambient_dim}")
    return T.project(v)


def svd_pinv(A):
    """Moore-Penrose pseudo-inverse with the module-wide rank cutoff."""
    return pinv_and_rank(A)[0]


def pinv_and_rank(A):
    """``svd_pinv(A)`` and the numerical rank of A, from one thin SVD."""
    A = check_finite(A, "A")
    if A.size == 0:
        return A.T.copy(), 0
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    kept = s > rank_tolerance(s[0] if s.size else 0.0, A.shape)
    inv = np.where(kept, 1.0 / np.where(kept, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T, int(kept.sum())


def pseudo_inverse_apply(A, b):
    """Return A^+ b."""
    A = check_finite(A, "A")
    b = check_finite(b, "b")
    return svd_pinv(A) @ b


def restricted_injectivity(Phi, T):
    """True iff Ker(Phi) intersects T trivially.

    Decided by the smallest singular value of Phi restricted to T against the
    rank cutoff; a zero-dimensional T is vacuously injective.
    """
    Phi = check_finite(Phi, "Phi")
    if Phi.shape[1] != T.ambient_dim:
        raise DimensionMismatchError("Phi columns vs subspace ambient dim")
    if T.dim == 0:
        return True
    M = Phi @ T.basis
    return numerical_rank(np.linalg.svd(M, compute_uv=False), M.shape) == T.dim


class RankedSvd:
    """Full singular value decomposition of M with the module-wide rank
    cutoff.  One factorization gives the minimal-norm least-squares
    solutions of M x = b and M^T a = t, both kernels and the injectivity
    verdict of ``restricted_injectivity``."""

    def __init__(self, M):
        M = check_finite(M, "M")
        self.shape = M.shape
        self.U, self.s, self.Vt = np.linalg.svd(M, full_matrices=True)
        self.rank = numerical_rank(self.s, M.shape)

    @property
    def injective(self):
        return self.rank == self.shape[1]

    def solve(self, b):
        """Minimal-norm minimizer of ||M x - b||."""
        r = self.rank
        return self.Vt[:r].T @ ((self.U[:, :r].T @ b) / self.s[:r])

    def solve_adjoint(self, t):
        """Minimal-norm minimizer of ||M^T a - t||."""
        r = self.rank
        return self.U[:, :r] @ ((self.Vt[:r] @ t) / self.s[:r])

    def kernel(self):
        """Orthonormal basis of Ker(M)."""
        return self.Vt[self.rank:].T

    def adjoint_kernel(self):
        """Orthonormal basis of Ker(M^T)."""
        return self.U[:, self.rank:]


def gaussian_ensemble(Q, N, seed):
    """Q x N matrix with i.i.d. standard normal entries, reproducible per seed."""
    if Q < 1 or N < 1:
        raise ValueError("matrix dimensions must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((Q, N))


def power_operator_norm(A):
    """Spectral norm of A, its largest singular value, from the SVD.

    Exact to round-off, so a step size 1/L formed from it never exceeds
    the bound that the convergence proofs ask for, as a power-iteration
    estimate from below would."""
    A = check_finite(A, "A")
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


SIGN_ENUM_ROWS = 22   # L2 -> L1 enumerates 2^(m-1) sign vectors up to m rows
CIRCLE_GRID = 2048    # angles of the size-2 output-block search over [0, pi)
NONEXPANSIVE_TOL = 1e-12


class NoBoundRouteError(NotImplementedError):
    """No exact or certified-upper route covers this operator bound."""


class OperatorBound:
    """Value of sup {g_out(A x) : g_in(x) <= 1}, tagged with how it was obtained.

    ``exact-*`` values are the norm itself; a ``certified-upper`` value is
    proven to be at least the norm.
    """

    EXACT_VERTEX = "exact-vertex"
    EXACT_CLOSED_FORM = "exact-closed-form"
    CERTIFIED_UPPER = "certified-upper"

    def __init__(self, value, method):
        self.value = float(value)
        self.method = method

    @property
    def exact(self):
        return self.method in (self.EXACT_VERTEX, self.EXACT_CLOSED_FORM)

    def __repr__(self):
        return f"OperatorBound({self.value:.6g}, {self.method!r})"


def operator_bound(A, g_in, g_out, domain=None):
    """Gauge-to-gauge operator bound of A, restricted to ``domain`` if given.

    The bound is finite exactly when A maps the kernel of g_in into the
    kernel of g_out.  Routes, in order:

    1. the kernel test (+inf when a kernel direction of g_in leaves the
       kernel of g_out);
    2. the finite vertex list V of the input unit ball (exact): the max of
       ``g_out.values(V @ A.T)``, one batched evaluation of the output
       gauge on the images of all vertices;
    3. the largest row l1 norm when both gauges are max-abs and the domain
       is absent or a coordinate subspace (exact);
    4. closed forms for a Euclidean input: support atoms, block norms or a
       Euclidean output, and max_s ||M^T s||_2 over sign vectors s for an
       l1 output (exact up to ``SIGN_ENUM_ROWS`` rows, certified-upper
       beyond);
    5. a zero map (exact 0);
    6. a domain is dropped: the bound of A P_D over the whole ball, exact
       when P_D maps the ball into itself and certified-upper otherwise;
    7. a block-disc input (``linf2_blocks``): atom and size-1 block outputs
       exact, size-2 output blocks by a circle search and larger ones by
       the triangle sum (certified-upper);
    8. gauge algebra: a max output is the max of its parts' bounds, a max
       input the min of its parts' bounds (certified-upper), a precomposed
       output is folded into A, a precomposed input becomes A D*^+ on
       range(D*), and a lifted subdifferential-gauge output is bounded by
       its unlifted atoms (certified-upper).

    Raises NoBoundRouteError when none applies.
    """
    A = check_finite(A, "A")
    scale = np.linalg.norm(A) + 1.0

    kernel = g_in.kernel_directions(domain)
    if len(kernel):
        tol = 1e-9 * (scale * np.linalg.norm(kernel, axis=1) + 1.0)
        if np.any(g_out.values(kernel @ A.T) > tol):
            return OperatorBound(np.inf, OperatorBound.EXACT_CLOSED_FORM)

    verts = g_in.ball_vertices(domain)
    if verts is not None and len(verts) > 0:
        val = g_out.values(verts @ A.T).max()
        return OperatorBound(val, OperatorBound.EXACT_VERTEX)

    if (getattr(g_in, "is_max_abs", False)
            and getattr(g_out, "is_max_abs", False)
            and (domain is None or domain.coord_idx is not None)):
        cols = A if domain is None else A[:, list(domain.coord_idx)]
        val = float(np.max(np.abs(cols).sum(axis=1), initial=0.0))
        return OperatorBound(val, OperatorBound.EXACT_CLOSED_FORM)

    M = A if domain is None else A @ domain.basis
    if getattr(g_in, "is_euclidean", False):
        atoms = g_out.support_atoms()
        if atoms is not None:
            if len(atoms) == 0:
                return OperatorBound(0.0, OperatorBound.EXACT_CLOSED_FORM)
            val = float(np.max(np.linalg.norm(M.T @ atoms.T, axis=0)))
            return OperatorBound(val, OperatorBound.EXACT_CLOSED_FORM)
        blocks = getattr(g_out, "linf2_blocks", None)
        if blocks is not None:
            val = 0.0
            for b in blocks:
                sub = M[np.asarray(b, dtype=int), :]
                if sub.size:
                    val = max(val, float(np.linalg.svd(sub, compute_uv=False)[0]))
            return OperatorBound(val, OperatorBound.EXACT_CLOSED_FORM)
        if getattr(g_out, "is_euclidean", False):
            s = np.linalg.svd(M, compute_uv=False)
            val = float(s[0]) if s.size else 0.0
            return OperatorBound(val, OperatorBound.EXACT_CLOSED_FORM)
        if getattr(g_out, "is_abs_sum", False):
            return _l2_to_l1(M)

    if not np.any(M):
        return OperatorBound(0.0, OperatorBound.EXACT_CLOSED_FORM)

    if domain is not None:
        P = domain.basis @ domain.basis.T
        inner = operator_bound(A @ P, g_in, g_out)
        if inner.exact and _maps_ball_into_itself(P, g_in, domain):
            return inner
        return OperatorBound(inner.value, OperatorBound.CERTIFIED_UPPER)

    blocks = getattr(g_in, "linf2_blocks", None)
    if blocks is not None:
        bound = _block_input_bound(A, blocks, g_out)
        if bound is not None:
            return bound

    return _gauge_algebra_bound(A, g_in, g_out)


def _sign_rows(k):
    """All 2^k sign vectors of length k, one per row."""
    return ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1) * 2.0 - 1.0


def _l2_to_l1(M):
    """sup {||M x||_1 : ||x||_2 <= 1} = max over sign vectors s of ||M^T s||_2.

    Rows equal up to sign are merged first: ||t r + rest||_2 is convex in
    t, so over the signs of k copies of r its max sits at t = +-k, and the
    copies count as the one row k r.  The rest is exact meet-in-the-middle
    enumeration: s_0 = +1 (s and -s agree), the other rows split into
    halves with partial sums P_L and P_H, and ||P_L + P_H||^2 = |P_L|^2 +
    |P_H|^2 + 2 P_L . P_H over all pairs.  Beyond ``SIGN_ENUM_ROWS`` rows, min(sqrt(m) sigma_1, sum of row
    norms) is a certified upper bound.
    """
    R = M[np.any(M, axis=1)]
    if len(R) == 0:
        return OperatorBound(0.0, OperatorBound.EXACT_CLOSED_FORM)
    lead = R[np.arange(len(R)), np.argmax(R != 0, axis=1)]
    R, counts = np.unique(R * np.sign(lead)[:, None], axis=0,
                          return_counts=True)
    R = R * counts[:, None]
    m = len(R)
    if m > SIGN_ENUM_ROWS:
        sigma = float(np.linalg.svd(R, compute_uv=False)[0])
        val = min(np.sqrt(m) * sigma, float(np.linalg.norm(R, axis=1).sum()))
        return OperatorBound(val, OperatorBound.CERTIFIED_UPPER)
    half = 1 + (m - 1) // 2
    PL = R[0] + _sign_rows(half - 1) @ R[1:half]
    PH = _sign_rows(m - half) @ R[half:]
    # a contiguous right factor keeps the product off a slow threaded path
    sq = PL @ np.ascontiguousarray(PH.T)
    sq *= 2.0
    sq += np.einsum("ij,ij->i", PL, PL)[:, None]
    sq += np.einsum("ij,ij->i", PH, PH)[None, :]
    i, j = np.unravel_index(np.argmax(sq), sq.shape)
    val = float(np.linalg.norm(PL[i] + PH[j]))
    return OperatorBound(val, OperatorBound.EXACT_CLOSED_FORM)


def _maps_ball_into_itself(P, g_in, domain):
    """True when g_in(P v) <= 1 on the unit ball of g_in: then dropping the
    domain leaves the bound unchanged."""
    if getattr(g_in, "is_abs_sum", False):
        # the l1 -> l1 norm of P is its largest column l1 norm
        return float(np.abs(P).sum(axis=0).max()) <= 1.0 + NONEXPANSIVE_TOL
    if (domain.coord_idx is not None
            and getattr(g_in, "linf2_blocks", None) is not None):
        return True
    verts = g_in.ball_vertices()
    if verts is None or len(verts) == 0:
        return False
    return g_in.values(verts @ P.T).max() <= 1.0 + NONEXPANSIVE_TOL


def _block_input_bound(A, blocks, g_out):
    """Bound over a product of unit discs, one per input block (entries in
    no block are zero), or None when g_out has no block route.

    An atom a gives sup_x <a, A x> = sum_c ||(A^T a)_c||_2 (exact).  An
    output block b gives sup_x ||A_b x||_2 = max_{||w|| = 1} f(w) with
    f(w) = sum_c ||A_{b,c}^T w||_2: a size-1 block is an atom, a size-2
    block is searched on a circle, and a larger one is bounded by
    sum_c ||A_{b,c}||_2 (both certified-upper).
    """
    blocks = [np.asarray(c, dtype=int) for c in blocks]
    atoms = g_out.support_atoms()
    if atoms is not None:
        val = float(np.max(_block_row_sums(atoms @ A, blocks), initial=0.0))
        return OperatorBound(val, OperatorBound.EXACT_CLOSED_FORM)
    out = getattr(g_out, "linf2_blocks", None)
    if out is None and getattr(g_out, "is_euclidean", False):
        out = [np.arange(A.shape[0])]
    if out is None:
        return None
    exact_val, upper_val = 0.0, 0.0
    for b in out:
        Ab = A[np.asarray(b, dtype=int)]
        if not np.any(Ab):
            continue
        if len(Ab) == 1:
            exact_val = max(exact_val, float(_block_row_sums(Ab, blocks)[0]))
        elif len(Ab) == 2:
            upper_val = max(upper_val, _circle_sup(Ab, blocks))
        else:
            upper_val = max(upper_val, sum(
                float(np.linalg.svd(Ab[:, c], compute_uv=False)[0])
                for c in blocks if c.size))
    if exact_val >= upper_val:
        return OperatorBound(exact_val, OperatorBound.EXACT_CLOSED_FORM)
    return OperatorBound(upper_val, OperatorBound.CERTIFIED_UPPER)


def _block_row_sums(R, blocks):
    """sum_c ||R[j, c]||_2 for every row j of R."""
    out = np.zeros(len(R))
    for c in blocks:
        out += np.linalg.norm(R[:, c], axis=1)
    return out


def _circle_sup(Ab, blocks):
    """Certified upper end of max_{||w|| = 1} sum_c ||Ab[:, c]^T w||_2.

    f(w) = sum_c ||Ab[:, c]^T w|| is convex, even and positively
    homogeneous.  On the grid theta_j = j pi / K, the arc between two
    neighbours lies in 1/cos(pi / 2K) times their chord, so f there is at
    most the larger endpoint value over cos(pi / 2K): the returned value is
    at least the maximum and within 3e-7 relative of the best grid value.
    """
    theta = np.arange(CIRCLE_GRID) * (np.pi / CIRCLE_GRID)
    Z = Ab.T @ np.vstack([np.cos(theta), np.sin(theta)])
    Z2 = Z * Z
    f = np.zeros(CIRCLE_GRID)
    for c in blocks:
        f += np.sqrt(Z2[c].sum(axis=0))
    return float(np.max(f)) / np.cos(np.pi / (2 * CIRCLE_GRID))


def _gauge_algebra_bound(A, g_in, g_out):
    """Bounds through max, precomposed and lifted gauges (no domain)."""
    from .gauges import MaxGauge, Precomposed
    if isinstance(g_out, MaxGauge):
        parts = [operator_bound(A, g_in, g) for g in g_out.parts]
        val = max(b.value for b in parts)
        if all(b.exact for b in parts):
            return OperatorBound(val, OperatorBound.EXACT_CLOSED_FORM)
        return OperatorBound(val, OperatorBound.CERTIFIED_UPPER)
    if isinstance(g_out, Precomposed):
        return operator_bound(g_out.dstar @ A, g_in, g_out.base)
    lift = getattr(g_out, "lift", None)
    if lift is not None and lift.shape[1]:
        # the free directions at w = 0 can only raise the value
        inner = operator_bound(A, g_in, g_out.unlifted())
        return OperatorBound(inner.value, OperatorBound.CERTIFIED_UPPER)
    if isinstance(g_in, MaxGauge):
        # the ball of a max lies in each part's ball
        vals = []
        for g in g_in.parts:
            try:
                vals.append(operator_bound(A, g, g_out).value)
            except NoBoundRouteError:
                pass
        if vals:
            return OperatorBound(min(vals), OperatorBound.CERTIFIED_UPPER)
    if isinstance(g_in, Precomposed):
        # the kernel test passed, so A x = A D*^+ D* x in value; u = D* x
        # runs over the base ball on range(D*)
        D = g_in.dstar
        image = Subspace.image_of(D)
        dom = None if image.dim == D.shape[0] else image
        return operator_bound(A @ svd_pinv(D), g_in.base, g_out, domain=dom)
    raise NoBoundRouteError(
        f"no exact or certified-upper route for the bound "
        f"{type(g_in).__name__} -> {type(g_out).__name__}")
