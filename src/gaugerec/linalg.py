"""Dense linear-algebra substrate.

Subspaces are represented by matrices with orthonormal columns.  Rank
decisions everywhere use the same relative singular-value cutoff
(``sigma_max * max(shape) * eps * 64``) so that projections, pseudo-inverses
and injectivity tests stay mutually consistent.  ``RankedSvd`` gives the
least-squares solutions, kernels and ranges that the solvers and
certificates read, and the spans of ``Subspace.from_span``, from a
Householder QR where that QR certifies full rank against this cutoff, and
from the SVD otherwise.

scipy is not imported with this module: ``_scipy_linalg`` imports
``scipy.linalg`` on its first call.  Its callers are the Cholesky factors
of the path and Chambolle-Pock solves in ``solvers``; everything here is
numpy.
"""

import functools

import numpy as np

EPS = np.finfo(float).eps
RANK_TOL_FACTOR = 64.0


class DimensionMismatchError(ValueError):
    pass


def check_finite(a, name="array"):
    a = np.asarray(a, dtype=float)
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def rank_tolerance(sigma_max, shape):
    """Singular-value cutoff below which directions count as numerical kernel."""
    return sigma_max * max(shape) * EPS * RANK_TOL_FACTOR


def numerical_rank(s, shape, top=None):
    """Number of singular values s (sorted descending) of a matrix of the
    given shape above the rank cutoff of ``top``, the scale of a matrix that
    it restricts, or else of s[0]."""
    top = (s[0] if s.size else 0.0) if top is None else top
    return int(np.sum(s > rank_tolerance(top, shape)))


@functools.cache
def _scipy_linalg():
    """The ``scipy.linalg`` module, imported on the first call, so that a
    process whose solves and certificates run on numpy alone never loads
    it; a later call costs one cached lookup."""
    import scipy.linalg
    return scipy.linalg


def null_space(M, top=None):
    """Orthonormal basis of Ker(M); ``top`` as in ``numerical_rank``."""
    M = check_finite(M, "M")
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    u, s, vt = np.linalg.svd(M, full_matrices=True)
    return vt[numerical_rank(s, M.shape, top):].T


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
        """The span of the columns of M (a vector is one column), with the
        rank of ``RankedSvd``."""
        M = check_finite(M, "M")
        if M.ndim == 1:
            M = M[:, None]
        return cls(RankedSvd(M).range_basis(), _skip_checks=True)

    @classmethod
    def coordinate(cls, n, idx):
        idx = np.unique(np.asarray(idx, dtype=int))
        B = np.zeros((n, idx.size))
        B[idx, np.arange(idx.size)] = 1.0
        return cls(B, coord_idx=idx.tolist(), _skip_checks=True)

    @classmethod
    def full(cls, n):
        return cls(np.eye(n), coord_idx=range(n), _skip_checks=True)

    @classmethod
    def zero(cls, n):
        return cls(np.zeros((n, 0)), coord_idx=(), _skip_checks=True)

    @classmethod
    def kernel_of(cls, M):
        return cls(null_space(M), _skip_checks=True)

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

    def contains_rows(self, X):
        """Whether each row of X lies in the subspace, to the per-row
        tolerance 1e-9 (1 + ||row||)."""
        X = np.asarray(X, dtype=float)
        # .dot and .sum: the arithmetic of @ and np.linalg.norm, cheaper per call
        off = X - X.dot(self.basis).dot(self.basis.T)
        dist = np.sqrt((off * off).sum(axis=1))
        near = dist <= 1e-9    # within the tolerance whatever ||row|| is
        if np.count_nonzero(near) == len(X):
            return near
        return dist <= 1e-9 * (1.0 + np.sqrt((X * X).sum(axis=1)))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient_dim}, dim={self.dim})"


def check_problem(Phi, y, x=None, dim=None, lam=None):
    """(Phi, y, x) of a recovery problem as finite float arrays, checked
    before any work: Phi is 2-d, y has one entry per row of Phi, and x and
    the regularizer's dimension ``dim`` (when given) one per column.  A
    ``DimensionMismatchError`` names the argument that does not fit; a
    ``lam`` that is given must be finite and positive."""
    if lam is not None and not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam!r}")
    Phi = check_finite(Phi, "Phi")
    if Phi.ndim != 2:
        raise DimensionMismatchError(
            f"Phi must be a 2-d array, got shape {Phi.shape}")
    q, n = Phi.shape
    y = check_finite(y, "y")
    if y.shape != (q,):
        raise DimensionMismatchError(
            f"y must have one entry per row of Phi ({q}), got shape {y.shape}")
    if x is not None:
        x = check_finite(x, "x")
        if x.shape != (n,):
            raise DimensionMismatchError(
                f"x must have one entry per column of Phi ({n}), "
                f"got shape {x.shape}")
    if dim is not None and dim != n:
        raise DimensionMismatchError(
            f"the regularizer has dimension {dim}, Phi has {n} columns")
    return Phi, y, x


def project(v, T):
    """Orthogonal projection of v onto the subspace T."""
    v = check_finite(v, "v")
    if v.shape[0] != T.ambient_dim:
        raise DimensionMismatchError(
            f"vector of length {v.shape[0]} vs ambient {T.ambient_dim}")
    return T.project(v)


def svd_pinv(A, top=None):
    """Moore-Penrose pseudo-inverse; ``top`` as in ``numerical_rank``."""
    return pinv_and_rank(A, top)[0]


def pinv_and_rank(A, top=None):
    """``svd_pinv(A, top)`` and the numerical rank of A, from one SVD."""
    A = check_finite(A, "A")
    if A.size == 0:
        return A.T.copy(), 0
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    kept = np.arange(s.size) < numerical_rank(s, A.shape, top)
    inv = np.where(kept, 1.0 / np.where(kept, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T, int(kept.sum())


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


QR_MIN_DIM = 16     # below it, a QR and its inverse cost more than the SVD
QR_SAFETY = 1e3     # margin of the QR's full-rank certificate over the cutoff


def _certified_qr(P):
    """(Q, R^{-1}) of the complete Householder QR P = Q R of a matrix with
    at least as many rows as columns, or None unless it certifies that P
    has full column rank under the rank cutoff.

    s_min(P) >= 1 / ||R^{-1}||_F and s_max(P) <= ||R||_F, so the
    certificate 1 / ||R^{-1}||_F > QR_SAFETY * rank_tolerance(||R||_F) puts
    s_min above the SVD's cutoff by a factor QR_SAFETY, which the round-off
    of R, of R^{-1} and of the SVD cannot close: the SVD would call P full
    rank too.  R's diagonal alone does not reveal rank: Kahan's matrix has
    a diagonal far above the cutoff and a singular value below it."""
    Q, R = np.linalg.qr(P, mode="complete")
    R = R[:P.shape[1]]
    try:
        Rinv = np.linalg.inv(R)
    except np.linalg.LinAlgError:   # an exactly zero pivot
        return None
    with np.errstate(over="ignore"):
        lower, upper = 1.0 / np.linalg.norm(Rinv), np.linalg.norm(R)
    if lower > QR_SAFETY * rank_tolerance(upper, P.shape):
        return Q, Rinv
    return None


class RankedSvd:
    """The ranked singular value decomposition of M, with the module-wide
    rank cutoff: the minimal-norm least-squares solutions of M x = b and
    M^T a = t, both kernels, an orthonormal basis of range(M), (M^T M)^{-1}
    and the injectivity verdict of ``restricted_injectivity``.

    A full-rank M with min(M.shape) >= QR_MIN_DIM is held as a complete
    Householder QR of the taller of M and M^T, P = Q R, with R^{-1}, when
    ``_certified_qr`` certifies its rank (a third of the SVD's cost:
    Golub & Van Loan, Matrix Computations, 5.3).  A smaller M, or one whose
    QR is not certified, is held as its full SVD.  Both give the same rank,
    and the same answers up to round-off."""

    def __init__(self, M):
        M = check_finite(M, "M")
        self.shape = M.shape
        self._wide = M.shape[0] < M.shape[1]
        qr = None
        if min(M.shape) >= QR_MIN_DIM:
            qr = _certified_qr(M.T if self._wide else M)
        if qr is not None:
            self._Q, self._Rinv = qr
            self.rank = min(M.shape)
        else:
            self._Rinv = None
            self._U, self._s, self._Vt = np.linalg.svd(M, full_matrices=True)
            self.rank = numerical_rank(self._s, M.shape)

    @property
    def injective(self):
        return self.rank == self.shape[1]

    # With P = Q_1 R, Q_1 the first rank columns of Q, R^{-1} Q_1^T b is the
    # least-squares solution of P x = b and Q_1 R^{-T} b the minimal-norm
    # solution of P^T a = b; P is M, or M^T when M is wide.

    def solve(self, b):
        """Minimal-norm minimizer of ||M x - b||."""
        r = self.rank
        if self._Rinv is None:
            return self._Vt[:r].T @ ((self._U[:, :r].T @ b) / self._s[:r])
        if self._wide:
            return self._Q[:, :r] @ (self._Rinv.T @ b)
        return self._Rinv @ (self._Q[:, :r].T @ b)

    def solve_adjoint(self, t):
        """Minimal-norm minimizer of ||M^T a - t||."""
        r = self.rank
        if self._Rinv is None:
            return self._U[:, :r] @ ((self._Vt[:r] @ t) / self._s[:r])
        if self._wide:
            return self._Rinv @ (self._Q[:, :r].T @ t)
        return self._Q[:, :r] @ (self._Rinv.T @ t)

    def kernel(self):
        """Orthonormal basis of Ker(M)."""
        if self._Rinv is None:
            return self._Vt[self.rank:].T
        if self._wide:
            return self._Q[:, self.rank:]
        return np.zeros((self.shape[1], 0))

    def adjoint_kernel(self):
        """Orthonormal basis of Ker(M^T)."""
        if self._Rinv is None:
            return self._U[:, self.rank:]
        if self._wide:
            return np.zeros((self.shape[0], 0))
        return self._Q[:, self.rank:]

    def range_basis(self):
        """Orthonormal basis of range(M)."""
        if self._Rinv is None:
            return self._U[:, :self.rank]
        if self._wide:
            return np.eye(self.rank)
        return self._Q[:, :self.rank]

    def gram_inverse(self):
        """(M^T M)^{-1} of an injective M: V diag(s^-2) V^T from the SVD,
        R^{-1} R^{-T} from the QR."""
        if not self.injective:
            raise ValueError("M^T M is singular: M is not injective")
        if self._Rinv is None:
            return (self._Vt.T / self._s ** 2) @ self._Vt
        return self._Rinv @ self._Rinv.T


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
    kernel of g_out.  Routes, in order; the closed form of 2 comes before
    any vertex enumeration:

    1. the kernel test (+inf when a kernel direction of g_in leaves the
       kernel of g_out);
    2. a max-abs input with the domain D absent or a coordinate subspace
       into an output with support atoms w_j (on a coordinate S, for a
       subdifferential gauge, off which every row of A is exactly zero):
       max_j ||(A^T w_j)_D||_1, the largest row l1 norm of A on D for a
       max-abs output (exact; Golub & Van Loan, Matrix Computations, 2.3);
    3. the finite vertex list V of the input unit ball (exact): the max of
       ``g_out.values(V @ A.T)``, one batched evaluation of the output
       gauge on the images of all vertices.  Both are certified-upper when
       g_out is not ``exact``;
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
    # an inexact g_out (a numerical minimization), or a sum or max with an
    # inexact part, returns upper estimates, so the two routes that
    # evaluate it give certified-upper bounds
    upper = not _evaluates_exactly(g_out)

    kernel = g_in.kernel_directions(domain)
    if len(kernel):
        tol = 1e-9 * (scale * np.linalg.norm(kernel, axis=1) + 1.0)
        if np.any(g_out.values(kernel @ A.T) > tol):
            return OperatorBound(np.inf, OperatorBound.CERTIFIED_UPPER if upper
                                 else OperatorBound.EXACT_CLOSED_FORM)

    bound = _max_abs_input_bound(A, g_in, g_out, domain)
    if bound is not None:
        return bound

    verts = g_in.ball_vertices(domain)
    if verts is not None and len(verts) > 0:
        val = g_out.values(verts @ A.T).max()
        return OperatorBound(val, OperatorBound.CERTIFIED_UPPER if upper
                             else OperatorBound.EXACT_VERTEX)

    M = A if domain is None else A @ domain.basis
    if getattr(g_in, "is_euclidean", False):
        if getattr(g_out, "is_max_abs", False):
            # the images of the atoms +-e_i are the columns of M^T, laid
            # out as M^T @ atoms^T is, so the norms sum in the same order
            images = np.ascontiguousarray(M.T)
        else:
            atoms = g_out.support_atoms()
            images = None if atoms is None else M.T @ atoms.T
        if images is not None:
            val = float(np.max(np.linalg.norm(images, axis=0), initial=0.0))
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


def _max_abs_input_bound(A, g_in, g_out, domain):
    """Route 2 of ``operator_bound``: for a max-abs input on no domain or a
    coordinate one D, and an output with support atoms w_j (a max-abs
    output reads the rows of A itself), sup over the box of
    max(0, max_j <w_j, A x>) = max_j ||(A^T w_j)_D||_1.  None where the
    input is not such, g_out has no atoms, or g_out lives on a subspace S
    that is not coordinate or off which a row of A on D is not exactly
    zero (the vertex route then gives +inf where the images leave S)."""
    if not getattr(g_in, "is_max_abs", False) or (
            domain is not None and domain.coord_idx is None):
        return None
    B = A if domain is None else A[:, list(domain.coord_idx)]
    if getattr(g_out, "is_max_abs", False):
        WB = B
    else:
        atoms = g_out.support_atoms()
        S = getattr(g_out, "S", None)
        if atoms is None or (S is not None and S.coord_idx is None):
            return None
        if S is not None:
            off = np.ones(len(B), dtype=bool)
            off[list(S.coord_idx)] = False
            if np.any(B[off]):
                return None
        WB = atoms @ B
    val = np.max(np.abs(WB).sum(axis=1), initial=0.0)
    return OperatorBound(val, OperatorBound.EXACT_CLOSED_FORM)


def _evaluates_exactly(g):
    """False when g, or a part of it at any depth, is tagged inexact."""
    return getattr(g, "exact", True) and all(
        _evaluates_exactly(part) for part in getattr(g, "parts", ()))


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
        image = Subspace.from_span(D)
        dom = None if image.dim == D.shape[0] else image
        return operator_bound(A @ svd_pinv(D), g_in.base, g_out, domain=dom)
    raise NoBoundRouteError(
        f"no exact or certified-upper route for the bound "
        f"{type(g_in).__name__} -> {type(g_out).__name__}")
