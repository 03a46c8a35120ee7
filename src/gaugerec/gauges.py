"""Gauge functions: evaluation, polars, proximal maps.

Every gauge here is nonnegative, positively homogeneous and sublinear.
Kinds with closed-form polars (l1 <-> linf, l2 self-polar, group l1-l2 <->
blockwise linf-l2) use them; polyhedral and precomposed kinds fall back to
linear programs over their unit balls.  ``ball_vertices`` /
``kernel_directions`` / ``support_atoms`` feed the operator-bound machinery
in :mod:`gaugerec.linalg`.  Unit balls are enumerated from an H-rep by
``_section_vertices``, which also derives the ball of a support-form
subdifferential gauge (its atoms are the normals) in :mod:`gaugerec.model`.
The group kind evaluates, proxes and projects in one vectorised pass over
the flattened block index that ``BlockPartition`` builds once.
``values(X)`` evaluates a gauge on every row of X, with the checks of
``value``; the base class loops over ``value`` and the common kinds do it
in one pass.
"""

import numpy as np

from .linalg import check_finite, null_space, svd_pinv, _sign_rows
from .lp import (LpProblem, LpNumericalError, lp_solve, lp_min_max,
                 lp_minimize_linf, OPTIMAL)
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

    def row_norms(self, X):
        """``norms`` of every row of X, one row of block norms each."""
        member = np.zeros((self.n, len(self.blocks)))
        member[np.arange(self.n), self.block_of] = 1.0
        return np.sqrt((X * X) @ member)


def _sign_patterns(k):
    """All 2^k sign vectors of length k, the first entry varying slowest."""
    if k > SIGN_VERTEX_LIMIT:
        return None
    return _sign_rows(k)[:, ::-1]


def check_rows(X, dim):
    """X as a finite, C-ordered 2-d float array of rows of length dim.  In
    C order a row reduction adds in the order that ``value`` does."""
    X = check_finite(X, "X")
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"expected rows of length {dim}, got shape {X.shape}")
    return np.ascontiguousarray(X)


class Gauge:
    """Base class; subclasses implement ``value`` and whatever else they can."""

    def __init__(self, dim):
        self.dim = int(dim)

    # -- required ----------------------------------------------------------

    def value(self, x):
        raise NotImplementedError

    def values(self, X):
        """``value`` of every row of X, as an array."""
        X = check_rows(X, self.dim)
        return np.array([self.value(x) for x in X], dtype=float)

    # -- optional capabilities ----------------------------------------------

    def polar(self, u):
        raise UnsupportedGaugeError(
            f"{type(self).__name__} has no supported polar evaluation")

    def prox(self, lam, v):
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
        """Rows w with value(v) = max_j <w_j, v> on the domain, or None."""
        return None

    def kernel_directions(self, domain=None):
        """Generators of {value = 0} (possibly a cone), restricted to domain."""
        return _restrict_directions(np.zeros((0, self.dim)), domain)

    is_euclidean = False
    is_max_abs = False
    is_abs_sum = False

    def _check(self, x):
        x = check_finite(x, "x")
        if x.shape[0] != self.dim:
            raise ValueError(f"expected length {self.dim}, got {x.shape[0]}")
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

    def value(self, x):
        return float(np.sum(np.abs(self._check(x))))

    def values(self, X):
        return np.abs(check_rows(X, self.dim)).sum(axis=1)

    def polar(self, u):
        return float(np.max(np.abs(self._check(u)), initial=0.0))

    def prox(self, lam, v):
        v = self._check(v)
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


class L2(Gauge):
    """Euclidean norm."""

    is_euclidean = True

    def value(self, x):
        return float(np.linalg.norm(self._check(x)))

    def values(self, X):
        return np.linalg.norm(check_rows(X, self.dim), axis=1)

    def polar(self, u):
        return float(np.linalg.norm(self._check(u)))


class Linf(Gauge):
    """Max absolute entry."""

    is_max_abs = True

    def value(self, x):
        return float(np.max(np.abs(self._check(x)), initial=0.0))

    def values(self, X):
        return np.max(np.abs(check_rows(X, self.dim)), axis=1, initial=0.0)

    def polar(self, u):
        return float(np.sum(np.abs(self._check(u))))

    def prox(self, lam, v):
        v = self._check(v)
        return v - project_l1_ball(v, lam)

    def support_atoms(self):
        atoms = np.vstack([np.eye(self.dim), -np.eye(self.dim)])
        return atoms

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

    def value(self, x):
        return float(self.partition.norms(self._check(x)).sum())

    def values(self, X):
        return self.partition.row_norms(check_rows(X, self.dim)).sum(axis=1)

    def polar(self, u):
        return float(self.partition.norms(self._check(u)).max(initial=0.0))

    def prox(self, lam, v):
        """Block soft-thresholding at lam >= 0."""
        v = self._check(v)
        if lam == 0.0:
            return v.copy()
        # 1 - lam / max(nb, lam) is 0 exactly on the blocks with nb <= lam
        shrink = 1.0 - lam / np.maximum(self.partition.norms(v), lam)
        out = v * shrink[self.partition.block_of]
        out += 0.0   # the dropped blocks are +0, not -0 where v < 0
        return out


class PolyhedralH(Gauge):
    """max_i (<x, h_i>)_+ for directions h_i given as columns of H."""

    def __init__(self, H):
        H = check_finite(H, "H")
        super().__init__(H.shape[0])
        self.H = H
        self._ball_cache = None

    def value(self, x):
        x = self._check(x)
        return float(np.max(self.H.T @ x, initial=0.0))

    def polar(self, u):
        """Support function of the unit ball {x : H^T x <= 1} (an LP)."""
        u = self._check(u)
        ball = self._bounded_ball()
        if ball is not None:
            return ball.support(u)
        res = lp_solve(LpProblem(-u, a_ub=self.H.T, b_ub=np.ones(self.H.shape[1]),
                                 bounds=[(None, None)] * self.dim))
        if res.status != OPTIMAL:
            return np.inf
        return -float(res.value)

    def _bounded_ball(self):
        if self._ball_cache is None:
            if self.dim > MAX_ENUM_DIM:
                self._ball_cache = (None,)
            else:
                try:
                    self._ball_cache = (Polytope.from_halfspaces(
                        self.H.T, np.ones(self.H.shape[1])),)
                except PolytopeError:
                    self._ball_cache = (None,)
        return self._ball_cache[0]

    def _ball_halfspaces(self):
        return self.H.T, np.ones(self.H.shape[1])

    def ball_vertices(self, domain=None):
        if domain is None:
            ball = self._bounded_ball()
            return None if ball is None else ball.vertices
        return super().ball_vertices(domain)

    def kernel_directions(self, domain=None):
        # kernel cone {x : H^T x <= 0}; generators via a boxed section
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
        out = np.asarray(dirs) if dirs else np.zeros((0, self.dim))
        return _restrict_directions(out, domain)


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
        self._d_pinv = svd_pinv(self._d)
        self._d_null = null_space(self._d)

    def value(self, x):
        return self.base.value(self.dstar @ self._check(x))

    def values(self, X):
        return self.base.values(check_rows(X, self.dim) @ self._d)

    def polar(self, u):
        """gauge of the image of the base polar ball (LP over Ker)."""
        u = self._check(u)
        q = self._d_pinv @ u
        if np.linalg.norm(self._d @ q - u) > 1e-9 * (1.0 + np.linalg.norm(u)):
            return np.inf
        Z = self._d_null
        if Z.shape[1] == 0:
            return self.base.polar(q)
        if isinstance(self.base, L1):
            val, _ = lp_minimize_linf(Z, q)
            return val
        if isinstance(self.base, Linf):
            # min ||q + Z w||_1
            r, k = Z.shape
            c = np.concatenate([np.zeros(k), np.ones(r)])
            a_ub = np.vstack([np.hstack([Z, -np.eye(r)]),
                              np.hstack([-Z, -np.eye(r)])])
            b_ub = np.concatenate([-q, q])
            res = lp_solve(LpProblem(c, a_ub=a_ub, b_ub=b_ub,
                                     bounds=[(None, None)] * k + [(0, None)] * r))
            if res.status != OPTIMAL:
                raise LpNumericalError(
                    f"Precomposed polar LP ended with status {res.status}")
            return float(res.value)
        raise UnsupportedGaugeError(
            f"polar of Precomposed({type(self.base).__name__}) with a "
            "nontrivial kernel is not supported")

    def _ball_halfspaces(self):
        hrep = self.base._ball_halfspaces()
        if hrep is None:
            return None
        normals, offsets = hrep
        return normals @ self.dstar, offsets

    def kernel_directions(self, domain=None):
        base_kernel = self.base.kernel_directions()
        if len(base_kernel) == 0:
            lin = null_space(self.dstar)
            dirs = np.vstack([lin.T, -lin.T]) if lin.shape[1] else np.zeros((0, self.dim))
            return _restrict_directions(dirs, domain)
        raise UnsupportedGaugeError(
            "kernel of a precomposed gauge over a non-coercive base")


class SumGauge(Gauge):
    """Pointwise sum of gauges on a common space."""

    def __init__(self, parts):
        dims = {g.dim for g in parts}
        if len(dims) != 1:
            raise ValueError("summands live on different spaces")
        super().__init__(dims.pop())
        self.parts = list(parts)

    def value(self, x):
        x = self._check(x)
        return float(sum(g.value(x) for g in self.parts))

    def values(self, X):
        X = check_rows(X, self.dim)
        return sum(g.values(X) for g in self.parts)

    def polar(self, u):
        """inf over splits of max of part polars (LP for polytopal parts)."""
        u = self._check(u)
        hreps = [g._ball_halfspaces() for g in self.parts]
        if any(h is None for h in hreps):
            raise UnsupportedGaugeError("polar of a sum of non-polytopal gauges")
        # polar ball of the sum = Minkowski sum of the part polar balls, so
        # the polar is the min over splits u = z_1 + ... + z_k of the
        # largest part polar max_v <v, z_j> (v over the part's ball
        # vertices); z_1..z_{k-1} are free and z_k is the remainder
        k = len(self.parts)
        n = self.dim
        G, h = [], []
        for j, g in enumerate(self.parts):
            verts = g.ball_vertices()
            if verts is None:
                raise UnsupportedGaugeError("sum polar needs ball vertices")
            if j < k - 1:
                share = np.zeros((len(verts), (k - 1) * n))
                share[:, j * n:(j + 1) * n] = verts
                h.append(np.zeros(len(verts)))
            else:
                share = np.tile(-verts, (1, k - 1))
                h.append(verts @ u)
            G.append(share)
        res = lp_min_max(np.concatenate(h), np.vstack(G))
        if res.status != OPTIMAL:
            return np.inf
        return float(res.value)

    def _ball_halfspaces(self):
        # {x: sum of gauges <= 1}: pairwise-summed scaled normals, as in the
        # inverse-sum construction
        hreps = [g._ball_halfspaces() for g in self.parts]
        if any(h is None for h in hreps):
            return None
        scaled = []
        for normals, offsets in hreps:
            if np.min(offsets) <= 1e-12:
                return None
            scaled.append(normals / offsets[:, None])
        acc = scaled[0]
        for nxt in scaled[1:]:
            acc = (acc[:, None, :] + nxt[None, :, :]).reshape(-1, self.dim)
        return acc, np.ones(len(acc))

    def kernel_directions(self, domain=None):
        outs = [g.kernel_directions() for g in self.parts]
        if all(len(o) == 0 for o in outs):
            return _restrict_directions(np.zeros((0, self.dim)), domain)
        raise UnsupportedGaugeError("kernel of a sum with non-coercive parts")


class Restricted(Gauge):
    """base on a subspace S, +inf off S (membership up to a relative tol)."""

    def __init__(self, base, S):
        if S.ambient_dim != base.dim:
            raise ValueError("subspace ambient dim mismatch")
        super().__init__(base.dim)
        self.base = base
        self.S = S

    def value(self, x):
        x = self._check(x)
        if not self.S.contains(x, tol=1e-9 * (1.0 + np.linalg.norm(x))):
            return np.inf
        return self.base.value(x)

    def polar(self, u):
        """Support of (base ball ∩ S) at u."""
        u = self._check(u)
        if isinstance(self.base, L2):
            return float(np.linalg.norm(self.S.project(u)))
        verts = self.base.ball_vertices(self.S)
        if verts is None:
            raise UnsupportedGaugeError("polar of this restriction")
        return float(np.max(verts @ u, initial=0.0))

    def ball_vertices(self, domain=None):
        dom = self.S if domain is None else _subspace_meet(self.S, domain)
        return self.base.ball_vertices(dom)

    def kernel_directions(self, domain=None):
        dirs = self.base.kernel_directions(self.S)
        return _restrict_directions(dirs, domain)


class MaxGauge(Gauge):
    """Pointwise max of gauges; the comparison gauge of summed regularizers."""

    def __init__(self, parts):
        dims = {g.dim for g in parts}
        if len(dims) != 1:
            raise ValueError("parts live on different spaces")
        super().__init__(dims.pop())
        self.parts = list(parts)

    def value(self, x):
        x = self._check(x)
        return float(max(g.value(x) for g in self.parts))

    def values(self, X):
        X = check_rows(X, self.dim)
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


def _subspace_meet(S1, S2):
    if S2 is None:
        return S1
    return S1.intersection(S2)


def _descending_threshold(u, radius):
    """theta with sum(max(u - theta, 0)) = radius, for u >= 0 with
    sum(u) > radius > 0: sort u descending and keep the largest k with
    k u_(k) > (sum of the k largest) - radius."""
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
