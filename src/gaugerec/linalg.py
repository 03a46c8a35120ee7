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
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def rank_tolerance(sigma_max, shape):
    """Singular-value cutoff below which directions count as numerical kernel."""
    return sigma_max * max(shape) * EPS * RANK_TOL_FACTOR


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
    tol = rank_tolerance(s[0] if s.size else 0.0, M.shape)
    rank = int(np.sum(s > tol))
    return vt[rank:].T


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
    A = check_finite(A, "A")
    if A.size == 0:
        return A.T.copy()
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    tol = rank_tolerance(s[0] if s.size else 0.0, A.shape)
    inv = np.where(s > tol, 1.0 / np.where(s > tol, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T


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
    s = np.linalg.svd(M, compute_uv=False)
    if s.size < T.dim:
        return False
    tol = rank_tolerance(s[0] if s.size else 0.0, M.shape)
    return bool(s[-1] > tol)


def gaussian_ensemble(Q, N, seed):
    """Q x N matrix with i.i.d. standard normal entries, reproducible per seed."""
    if Q < 1 or N < 1:
        raise ValueError("matrix dimensions must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((Q, N))


def power_operator_norm(A, tol=1e-10, max_iter=10000, seed=0):
    """Largest singular value of A by power iteration on A^T A."""
    A = check_finite(A, "A")
    if A.size == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(max_iter):
        w = A.T @ (A @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - prev) <= tol * max(norm, 1.0):
            break
        prev = norm
    return float(np.sqrt(norm))


class OperatorBound:
    """Value of sup {g_out(A x) : g_in(x) <= 1}, tagged with how it was obtained."""

    EXACT_VERTEX = "exact-vertex"
    EXACT_CLOSED_FORM = "exact-closed-form"
    SAMPLED = "sampled-lower-bound"

    def __init__(self, value, method):
        self.value = float(value)
        self.method = method

    @property
    def exact(self):
        return self.method in (self.EXACT_VERTEX, self.EXACT_CLOSED_FORM)

    def __repr__(self):
        return f"OperatorBound({self.value:.6g}, {self.method!r})"


def operator_bound(A, g_in, g_out, domain=None, samples=10000, seed=0):
    """Gauge-to-gauge operator bound of A, restricted to ``domain`` if given.

    The bound is finite exactly when A maps the kernel of g_in into the
    kernel of g_out.  Resolution order: finite vertex list of the input unit
    ball (exact); the largest row l1 norm when both gauges are max-abs and
    the domain is absent or a coordinate subspace, where the vertex list
    (2^dim sign patterns) is too long to enumerate (exact); closed forms for
    a Euclidean input gauge (exact); then a sampled lower bound over
    ``samples`` unit directions.
    """
    A = check_finite(A, "A")
    scale = np.linalg.norm(A) + 1.0

    kernel = g_in.kernel_directions(domain)
    for k in kernel:
        img = A @ k
        if g_out.value(img) > 1e-9 * (scale * np.linalg.norm(k) + 1.0):
            return OperatorBound(np.inf, OperatorBound.EXACT_CLOSED_FORM)

    verts = g_in.ball_vertices(domain)
    if verts is not None and len(verts) > 0:
        val = max(g_out.value(A @ v) for v in verts)
        return OperatorBound(val, OperatorBound.EXACT_VERTEX)

    if (getattr(g_in, "is_max_abs", False)
            and getattr(g_out, "is_max_abs", False)
            and (domain is None or domain.coord_idx is not None)):
        cols = A if domain is None else A[:, list(domain.coord_idx)]
        val = float(np.max(np.abs(cols).sum(axis=1), initial=0.0))
        return OperatorBound(val, OperatorBound.EXACT_CLOSED_FORM)

    if getattr(g_in, "is_euclidean", False):
        M = A if domain is None else A @ domain.basis
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

    rng = np.random.default_rng(seed)
    n = A.shape[1] if domain is None else domain.dim
    best = 0.0
    for _ in range(samples):
        z = rng.standard_normal(n)
        x = z if domain is None else domain.lift(z)
        g = g_in.value(x)
        if not np.isfinite(g) or g <= 1e-12 * (1.0 + np.linalg.norm(x)):
            continue
        best = max(best, g_out.value(A @ (x / g)))
    return OperatorBound(best, OperatorBound.SAMPLED)
