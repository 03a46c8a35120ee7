"""Gauge functions: evaluation, polars, proximal maps.

Every gauge here is nonnegative, positively homogeneous and sublinear.
Kinds with closed-form polars (l1 <-> linf, group l1-l2 <-> blockwise
linf-l2, the positive-part max, a base without support atoms pre-composed
with an injective D) use them.  Every other polyhedral gauge, sums
included, takes one LP over its blocks of atoms (``_atom_blocks``, which
the solvers read too) at any size.  A polyhedral H-gauge
``PolyhedralH(H)`` is the positive-part max ``u -> max_i (u_i)_+``
pre-composed with H^T, so it is a ``Precomposed`` and shares its code; the
Euclidean norm ``L2(n)`` is a ``GroupL1L2`` of one block.  A base with
support atoms, a max of linear functionals (Linf and the positive-part
max), gives a ``Precomposed`` its kernel cone.  ``ball_vertices`` /
``kernel_directions`` / ``support_atoms`` feed the operator-bound
machinery in :mod:`gaugerec.linalg`.  Unit balls are enumerated from an
H-rep by ``_section_vertices``, which also derives the ball of a
support-form subdifferential gauge (its atoms are the normals) in
:mod:`gaugerec.model`.
The group kind evaluates, proxes and projects in one vectorised pass over
the flattened block index that ``BlockPartition`` builds once.
``values(X)`` evaluates a gauge on every row of X in one pass and is the
only evaluation routine of each kind; ``value(x)`` is its one-row case,
defined once on the base class.  So is ``prox``, which validates lam and
v once and calls the kind's unchecked ``_prox``.
"""

import functools

import numpy as np

from .linalg import check_finite, null_space, svd_pinv, _sign_rows
from .lp import LpNumericalError, lp_min_halfspaces, OPTIMAL, UNBOUNDED
from .polytopes import Polytope, PolytopeError, MAX_ENUM_DIM

SIGN_VERTEX_LIMIT = 16  # 2^k vertex enumerations are refused beyond this


class UnsupportedGaugeError(NotImplementedError):
    pass


class BlockPartition:
    """Disjoint index blocks covering {0, ..., n-1}.

    ``block_of`` is the flattened block index, built once: entry i is the
    block that holds coordinate i.  Per-block reductions (``norms``) are one
    ``bincount`` over it, and per-block factors reach the coordinates as
    ``factors[block_of]``; empty blocks get norm 0."""

    def __init__(self, blocks, n):
        blocks = [np.asarray(sorted(b), dtype=int) for b in blocks]
        seen = np.concatenate(blocks) if blocks else np.array([], dtype=int)
        if len(np.unique(seen)) != len(seen):
            raise ValueError("blocks are not disjoint")
        if len(seen) != n or (len(seen) and (seen.min() < 0 or seen.max() >= n)):
            raise ValueError("blocks do not cover the index range")
        self.blocks = blocks
        self.n = n
        self.block_of = np.empty(n, dtype=np.intp)
        for j, b in enumerate(blocks):
            self.block_of[b] = j

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def norms(self, x):
        """Euclidean norm of each block of x, in block order."""
        return np.sqrt(np.bincount(self.block_of, weights=x * x,
                                   minlength=len(self.blocks)))

    @functools.cached_property
    def _member(self):
        return block_membership(self.blocks, self.n)

    def row_norms(self, X):
        """``norms`` of every row of X, one row of block norms each."""
        return np.sqrt((X * X).dot(self._member))


def block_membership(blocks, n):
    """The n x len(blocks) 0/1 matrix of coordinate-in-block: the squared
    entries of rows X times it are the squared block norms of each row."""
    member = np.zeros((n, len(blocks)))
    for j, b in enumerate(blocks):
        member[np.asarray(b, dtype=int), j] = 1.0
    return member


def _sign_patterns(k):
    """All 2^k sign vectors of length k, the first entry varying slowest."""
    if k > SIGN_VERTEX_LIMIT:
        return None
    return _sign_rows(k)[:, ::-1]


def check_rows(X, dim):
    """X as a finite, C-ordered 2-d float array of rows of length dim.  In
    C order a row reduction adds in the order of a 1-d reduction."""
    X = check_finite(X, "X")
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"expected rows of length {dim}, got shape {X.shape}")
    return np.ascontiguousarray(X)


class Gauge:
    """Base class; subclasses implement ``values`` and whatever else they
    can.  ``value`` is the one-row case of ``values``.  ``prox`` is
    defined here once: it validates its input and calls the kind's
    unchecked ``_prox``, which a solver loop whose inputs are already
    checked calls directly."""

    def __init__(self, dim):
        self.dim = int(dim)

    # -- required ----------------------------------------------------------

    def values(self, X):
        """The gauge of every row of X (see ``check_rows``), as an array."""
        raise NotImplementedError

    def value(self, x):
        """The gauge at the vector x."""
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

    # -- optional capabilities ----------------------------------------------

    def polar(self, u):
        raise UnsupportedGaugeError(
            f"{type(self).__name__} has no supported polar evaluation")

    def prox(self, lam, v):
        """The proximal map of lam times the gauge at the vector v, for a
        finite lam >= 0."""
        if not (np.isfinite(lam) and lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
        return self._prox(lam, self._check(v))

    def _prox(self, lam, v):
        """``prox`` on a v that is already a finite vector of length dim."""
        raise UnsupportedGaugeError(
            f"{type(self).__name__} has no proximal map")

    def ball_vertices(self, domain=None):
        """Vertices of {x in domain: value(x) <= 1}, or None if unavailable."""
        hrep = self._ball_halfspaces()
        if hrep is None:
            return None
        return _section_vertices(hrep, self.dim, domain)

    def _ball_halfspaces(self):
        """(normals, offsets) of the unit ball, or None if not polytopal."""
        return None

    def support_atoms(self):
        """Rows w with value(v) = max(0, max_j <w_j, v>) on the domain, or
        None."""
        return None

    def kernel_directions(self, domain=None):
        """Generators of {value = 0} (possibly a cone), restricted to domain."""
        return _restrict_directions(np.zeros((0, self.dim)), domain)

    is_euclidean = False
    is_max_abs = False
    is_abs_sum = False

    def _check(self, x):
        x = check_finite(x, "x")
        if x.shape != (self.dim,):
            raise ValueError(f"expected length {self.dim}, got shape {x.shape}")
        return x


def _restrict_directions(dirs, domain):
    if domain is None or len(dirs) == 0:
        return dirs
    return dirs[domain.contains_rows(dirs)]


def _section_vertices(hrep, dim, domain):
    """Vertices of an H-rep ball intersected with a subspace."""
    normals, offsets = hrep
    if domain is None:
        if dim > MAX_ENUM_DIM:
            return None
        try:
            return Polytope.from_halfspaces(normals, offsets).vertices
        except PolytopeError:
            return None
    if domain.dim == 0:
        return np.zeros((1, dim))
    if domain.dim > MAX_ENUM_DIM:
        return None
    B = domain.basis
    try:
        sect = Polytope.from_halfspaces(normals @ B, offsets)
    except PolytopeError:
        return None
    return sect.vertices @ B.T


class L1(Gauge):
    """Sum of absolute values."""

    is_abs_sum = True

    def values(self, X):
        return np.abs(check_rows(X, self.dim)).sum(axis=1)

    def polar(self, u):
        return float(np.max(np.abs(self._check(u)), initial=0.0))

    # the traced benchmark (bench/spans.py) wraps prox in this class's own
    # namespace; it is the base class's prox, not another one
    prox = Gauge.prox

    def _prox(self, lam, v):
        return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)

    def ball_vertices(self, domain=None):
        if domain is None or domain.coord_idx is not None:
            idx = range(self.dim) if domain is None else domain.coord_idx
            out = []
            for i in idx:
                e = np.zeros(self.dim)
                e[i] = 1.0
                out.extend([e, -e])
            return np.asarray(out) if out else np.zeros((1, self.dim))
        return super().ball_vertices(domain)

    def _ball_halfspaces(self):
        S = _sign_patterns(self.dim)
        if S is None:
            return None
        return S, np.ones(len(S))


class Linf(Gauge):
    """Max absolute entry."""

    is_max_abs = True

    def values(self, X):
        return np.abs(check_rows(X, self.dim)).max(axis=1, initial=0.0)

    def polar(self, u):
        return float(np.sum(np.abs(self._check(u))))

    # the traced benchmark (bench/spans.py) wraps prox in this class's own
    # namespace; it is the base class's prox, not another one
    prox = Gauge.prox

    def _prox(self, lam, v):
        # by Moreau, v minus its projection onto the l1 ball of radius lam:
        # v clipped at the projection's threshold
        a = np.abs(v)
        if a.sum() <= lam:
            return np.zeros_like(v)
        theta = _descending_threshold(a, lam)
        return np.maximum(np.minimum(v, theta), -theta)

    def support_atoms(self):
        return np.vstack([np.eye(self.dim), -np.eye(self.dim)])

    def ball_vertices(self, domain=None):
        if domain is None or domain.coord_idx is not None:
            idx = list(range(self.dim)) if domain is None else list(domain.coord_idx)
            S = _sign_patterns(len(idx))
            if S is None:
                return None
            out = np.zeros((len(S), self.dim))
            out[:, idx] = S
            return out
        return super().ball_vertices(domain)

    def _ball_halfspaces(self):
        eye = np.eye(self.dim)
        return np.vstack([eye, -eye]), np.ones(2 * self.dim)


class GroupL1L2(Gauge):
    """Sum over blocks of block Euclidean norms."""

    def __init__(self, partition):
        super().__init__(partition.n)
        self.partition = partition

    def values(self, X):
        return self.partition.row_norms(check_rows(X, self.dim)).sum(axis=1)

    def polar(self, u):
        return float(self.partition.norms(self._check(u)).max(initial=0.0))

    # the traced benchmark (bench/spans.py) wraps prox in this class's own
    # namespace; it is the base class's prox, not another one
    prox = Gauge.prox

    def _prox(self, lam, v):
        """Block soft-thresholding at lam >= 0."""
        if lam == 0.0:
            return v.copy()
        # 1 - lam / max(nb, lam) is 0 exactly on the blocks with nb <= lam
        shrink = 1.0 - lam / np.maximum(self.partition.norms(v), lam)
        out = v * shrink[self.partition.block_of]
        out += 0.0   # the dropped blocks are +0, not -0 where v < 0
        return out


class L2(GroupL1L2):
    """Euclidean norm: the group l1-l2 norm of the one block {0, ..., n-1}."""

    is_euclidean = True

    def __init__(self, n):
        super().__init__(_one_block(n))


@functools.lru_cache(maxsize=None)
def _one_block(n):
    """The partition of {0, ..., n-1} into one block, built once per n."""
    return BlockPartition([range(n)], n)


class PositivePartMax(Gauge):
    """max_i (u_i)_+, the positive-part max; its unit ball {u : u <= 1}
    is unbounded, with the kernel cone {u <= 0}."""

    def values(self, U):
        return check_rows(U, self.dim).max(axis=1, initial=0.0)

    def polar(self, v):
        """sup of <v, u> over u <= 1: sum(v) for v >= 0, else +inf."""
        v = self._check(v)
        return float(v.sum()) if np.all(v >= 0.0) else np.inf

    def support_atoms(self):
        return np.eye(self.dim)

    def _ball_halfspaces(self):
        return np.eye(self.dim), np.ones(self.dim)

    def kernel_directions(self, domain=None):
        return _restrict_directions(-np.eye(self.dim), domain)


class Precomposed(Gauge):
    """base(dstar @ x): analysis-type gauge built from a base gauge."""

    def __init__(self, base, dstar):
        dstar = check_finite(dstar, "dstar")
        if dstar.shape[0] != base.dim:
            raise ValueError("dstar rows must match the base gauge dimension")
        super().__init__(dstar.shape[1])
        self.base = base
        self.dstar = dstar
        self._d = dstar.T             # maps analysis coefficients back

    @functools.cached_property
    def _d_pinv(self):
        return svd_pinv(self._d)

    @functools.cached_property
    def _d_null(self):
        return null_space(self._d)

    def values(self, X):
        return self.base.values(check_rows(X, self.dim) @ self._d)

    def polar(self, u):
        """Gauge of the image under D of the base polar ball: +inf off
        range(D), and base polar(D^+ u) on it when the base has no support
        atoms and D is injective (tv, a group base); otherwise the LP over
        the atom blocks (``_blocks_polar``)."""
        u = self._check(u)
        if self.base.support_atoms() is None:
            q = self._d_pinv @ u
            if np.linalg.norm(self._d @ q - u) > \
                    1e-9 * (1.0 + np.linalg.norm(u)):
                return np.inf
            if self._d_null.shape[1] == 0:
                return self.base.polar(q)
        return _blocks_polar(self, u)

    def _ball_halfspaces(self):
        hrep = self.base._ball_halfspaces()
        if hrep is None:
            return None
        normals, offsets = hrep
        return normals @ self.dstar, offsets

    def kernel_directions(self, domain=None):
        coercive = len(self.base.kernel_directions()) == 0
        atoms = self.base.support_atoms()
        if not coercive and atoms is None:
            raise UnsupportedGaugeError(
                "kernel of a precomposed gauge over a non-coercive base")
        lin = null_space(self.dstar)
        dirs = [lin.T, -lin.T]
        if not coercive and self.dim <= MAX_ENUM_DIM:
            # the kernel cone {x : A D* x <= 0}, A the base's atoms, is
            # generated by Ker D* and the vertices of its section by the
            # box [-1, 1]^n
            eye = np.eye(self.dim)
            try:
                box = Polytope.from_halfspaces(
                    np.vstack([atoms @ self.dstar, eye, -eye]),
                    np.concatenate([np.zeros(len(atoms)),
                                    np.ones(2 * self.dim)]))
                verts = box.vertices
                dirs.append(verts[np.linalg.norm(verts, axis=1) > 1e-7])
            except PolytopeError:
                pass
        return _restrict_directions(np.vstack(dirs), domain)


class PolyhedralH(Precomposed):
    """max_i (<x, h_i>)_+ for directions h_i given as columns of H: the
    positive-part max pre-composed with H^T."""

    def __init__(self, H):
        H = check_finite(H, "H")
        super().__init__(PositivePartMax(H.shape[1]), H.T)
        self.H = H


class SumGauge(Gauge):
    """Pointwise sum of gauges on a common space."""

    def __init__(self, parts):
        dims = {g.dim for g in parts}
        if len(dims) != 1:
            raise ValueError("summands live on different spaces")
        super().__init__(dims.pop())
        self.parts = list(parts)

    def values(self, X):
        return sum(g.values(X) for g in self.parts)

    def polar(self, u):
        """The LP over the parts' joined atom blocks (``_blocks_polar``)."""
        return _blocks_polar(self, self._check(u))

    def kernel_directions(self, domain=None):
        outs = [g.kernel_directions() for g in self.parts]
        if all(len(o) == 0 for o in outs):
            return _restrict_directions(np.zeros((0, self.dim)), domain)
        raise UnsupportedGaugeError("kernel of a sum with non-coercive parts")


class MaxGauge(Gauge):
    """Pointwise max of gauges; the comparison gauge of summed regularizers."""

    def __init__(self, parts):
        dims = {g.dim for g in parts}
        if len(dims) != 1:
            raise ValueError("parts live on different spaces")
        super().__init__(dims.pop())
        self.parts = list(parts)

    def values(self, X):
        return np.max([g.values(X) for g in self.parts], axis=0)

    def _ball_halfspaces(self):
        hreps = [g._ball_halfspaces() for g in self.parts]
        if any(h is None for h in hreps):
            return None
        normals = np.vstack([h[0] for h in hreps])
        offsets = np.concatenate([h[1] for h in hreps])
        return normals, offsets

    def kernel_directions(self, domain=None):
        outs = [g.kernel_directions() for g in self.parts]
        if all(len(o) == 0 for o in outs):
            return _restrict_directions(np.zeros((0, self.dim)), domain)
        raise UnsupportedGaugeError("kernel of a max with non-coercive parts")


def _atom_blocks(g):
    """(A, block) with J(x) = sum_k max(0, max_j <a_j, x>), a_j the rows of
    A and k = block[j] their blocks, 0 to m - 1: the blocks {e_i, -e_i} for
    L1, one block of the support atoms for a gauge that has them, the
    base's blocks times D* for a pre-composition, and the parts' blocks
    joined for a sum, each part's block ids offset by the blocks before it;
    None where a part has none of these."""
    if isinstance(g, L1):
        eye = np.eye(g.dim)
        return np.vstack([eye, -eye]), np.tile(np.arange(g.dim), 2)
    atoms = g.support_atoms()
    if atoms is not None:
        return atoms, np.zeros(len(atoms), int)
    if isinstance(g, Precomposed):
        blocks = _atom_blocks(g.base)
        return None if blocks is None else (blocks[0] @ g.dstar, blocks[1])
    if not isinstance(g, SumGauge):
        return None
    parts = [_atom_blocks(p) for p in g.parts]
    if any(p is None for p in parts):
        return None
    offsets = np.cumsum([0] + [block.max() + 1 for _, block in parts[:-1]])
    return (np.vstack([A for A, _ in parts]),
            np.concatenate([b + o for (_, b), o in zip(parts, offsets)]))


def _blocks_polar(g, u):
    """sup <u, x> over the unit ball of g, from its atom blocks (A, block):
    one LP in (x, t), A x <= t_block, sum(t) <= 1, t >= 0, and +inf where
    it is unbounded.  u is not scaled, so the simplex's absolute cost
    tolerance reads a u within round-off of range(D) as on it."""
    blocks = _atom_blocks(g)
    if blocks is None:
        raise UnsupportedGaugeError(
            f"polar of {type(g).__name__}: a part or base has no atom blocks")
    A, block = blocks
    m = int(block.max(initial=0)) + 1
    a_ub = np.vstack([np.hstack([A, -np.eye(m)[block]]),
                      np.append(np.zeros(g.dim), np.ones(m))])
    res = lp_min_halfspaces(np.append(-u, np.zeros(m)), a_ub,
                            np.append(np.zeros(len(A)), 1.0),
                            bounds=[(None, None)] * g.dim + [(0, None)] * m)
    if res.status == UNBOUNDED:
        return np.inf
    if res.status != OPTIMAL:
        # (x, t) = 0 is feasible: anything else is numerical trouble
        raise LpNumericalError(f"polar LP ended with status {res.status}")
    return -float(res.value)


def _descending_threshold(u, radius):
    """theta with sum(max(u - theta, 0)) = radius, for u >= 0 with
    sum(u) > radius >= 0 (theta = max(u) at radius 0): sort u descending
    and keep the largest k with k u_(k) > (sum of the k largest) - radius."""
    u = u.copy()
    u.sort()
    u = u[::-1]
    css = u.cumsum()
    css -= radius
    keep = u * np.arange(1, len(u) + 1) > css
    # k = 1 always qualifies; round-off hides it when radius is below the
    # last bit of u_(1)
    keep[0] = True
    rho = keep.nonzero()[0][-1] + 1
    return css[rho - 1] / rho


def project_l1_ball(v, radius):
    """Exact Euclidean projection onto {z : ||z||_1 <= radius} (sort-based)."""
    v = np.asarray(v, dtype=float)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    a -= _descending_threshold(a, radius)
    np.maximum(a, 0.0, out=a)
    return np.sign(v) * a


def project_simplex_interior(v, radius):
    """Euclidean projection onto {p : p >= 0, sum(p) <= radius}."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    p = np.maximum(np.asarray(v, dtype=float), 0.0)
    if p.sum() <= radius:
        return p
    if radius == 0.0:
        return np.zeros_like(p)
    # project onto the simplex {p >= 0, sum = radius}
    p -= _descending_threshold(p, radius)
    np.maximum(p, 0.0, out=p)
    return p
