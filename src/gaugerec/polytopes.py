"""Exact polytope calculus for compact convex sets containing the origin.

Both representations are kept: vertices (V-rep) and halfspaces (H-rep,
``<normal, x> <= offset``).  The polar is read off by duality: the rows
``a_i / b_i`` of the H-rep are its V-rep and the vertices, with offset 1,
its H-rep.  A convex hull is built only to enumerate from a V-rep
(``from_vertices``) or an H-rep (``from_halfspaces``, through the polar
correspondence: facets of conv{a_i/b_i} are the vertices).  All enumeration
is gated at dimension <= 8; the identities verified here are
dimension-free, so low-dimensional checks suffice.

Near-duplicate facets and vertices are merged by a greedy keep-first sweep
over the pairs within tolerance that a KD-tree reports.  The LPs here
(Chebyshev centres, Minkowski-sum gauges, linear-image gauges of maps with
a kernel) have few variables and many ``<=`` rows, so they are solved
through their duals by ``lp.lp_min_halfspaces``.
"""

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .linalg import RankedSvd
from .lp import lp_min_halfspaces, OPTIMAL

MAX_ENUM_DIM = 8
VERTEX_TOL = 1e-9
SUPPORT_BLOCK = 1 << 20    # vertex x facet products formed at once


class PolytopeError(ValueError):
    pass


class UnboundedPolarError(PolytopeError):
    """Polar of a set without 0 in its interior is unbounded."""


def _dedupe_rows(rows, tol):
    """Rows with no earlier kept row within ``tol`` (Euclidean), in order."""
    rows = np.asarray(rows)
    if len(rows) <= 1:
        return rows
    # exact pass on the bytes of the rounded rows (no integer cast to
    # overflow; + 0.0 folds -0.0 into 0.0), then pairs within tol (KD-tree)
    keys = np.round(rows / max(tol, 1e-300)) + 0.0
    _, idx = np.unique(keys.view(np.dtype((np.void, keys[0].nbytes))),
                       return_index=True)
    rows = rows[np.sort(idx)]
    if len(rows) <= 1:
        return rows
    pairs = cKDTree(rows).query_pairs(tol, output_type="ndarray")
    keep = np.ones(len(rows), dtype=bool)
    # in (i, j) order every pair (k, i), k < i, is settled before i is read
    for i, j in pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]:
        if keep[i]:
            keep[j] = False
    return rows[keep]


def _facet_support(verts, normals):
    """max_i <verts_i, normals_j> for each row j of normals (-inf with no
    verts), a block of normals at a time so that the products stay small."""
    cols = max(1, SUPPORT_BLOCK // max(1, len(verts)))
    out = np.full(len(normals), -np.inf)
    for j in range(0, len(normals), cols):
        out[j:j + cols] = np.max(verts @ normals[j:j + cols].T, axis=0,
                                 initial=-np.inf)
    return out


def _hull_equations(points):
    """Facets of conv(points) as (normals, offsets) with <n,x> <= b inside."""
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    if d == 1:
        lo, hi = points.min(), points.max()
        if hi - lo <= VERTEX_TOL:
            raise PolytopeError("degenerate 1-d point set")
        return (np.array([[1.0], [-1.0]]), np.array([hi, -lo]),
                np.array([[hi], [lo]]))
    joggled = False
    try:
        hull = ConvexHull(points)
    except QhullError:
        # near-degenerate merges: retry with joggled input.  The facets are
        # those of the joggled points, re-fit below to the support of the
        # original ones, so the H-rep is an outer approximation: on the
        # 920 points of a dimension-5 dupridge sum its gauge is low by
        # 3e-8 to 1.2e-6
        try:
            hull = ConvexHull(points, qhull_options="QJ")
        except QhullError as exc:
            raise PolytopeError(f"degenerate point set for hull: {exc}") \
                from exc
        joggled = True
    eqs = _dedupe_rows(hull.equations, 1e-9)
    normals = eqs[:, :-1]
    offsets = -eqs[:, -1]
    verts = points[hull.vertices]
    if joggled:
        # the facets belong to the joggled points: move each one to the
        # support of the original vertices so that none violates it
        offsets = _facet_support(verts, normals)
    return normals, offsets, verts


class Polytope:
    """Compact convex polytope with consistent V- and H-representations."""

    def __init__(self, vertices, normals, offsets, _skip_checks=False):
        self.vertices = np.asarray(vertices, dtype=float)
        self.normals = np.asarray(normals, dtype=float)
        self.offsets = np.asarray(offsets, dtype=float)
        if not _skip_checks:
            self._validate()

    def _validate(self):
        scale = 1.0 + np.abs(self.vertices).max(initial=0.0)
        if np.min(self.offsets, initial=0.0) < -1e-9 * scale:
            raise PolytopeError("origin violates an H-rep constraint")
        slack = _facet_support(self.vertices, self.normals) - self.offsets
        if slack.max(initial=0.0) > 1e-8 * scale:
            raise PolytopeError("a vertex violates a halfspace")

    @property
    def dim(self):
        return self.vertices.shape[1]

    @classmethod
    def from_vertices(cls, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise PolytopeError("points must be 2-d")
        if points.shape[1] > MAX_ENUM_DIM:
            raise PolytopeError(
                f"polytope calculus is limited to dimension {MAX_ENUM_DIM}")
        normals, offsets, verts = _hull_equations(points)
        return cls(verts, normals, offsets)

    @classmethod
    def from_halfspaces(cls, normals, offsets):
        normals = np.asarray(normals, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        d = normals.shape[1]
        if d > MAX_ENUM_DIM:
            raise PolytopeError(
                f"polytope calculus is limited to dimension {MAX_ENUM_DIM}")
        center = np.zeros(d)
        if np.min(offsets) <= VERTEX_TOL:
            center = _chebyshev_center(normals, offsets)
        shifted = offsets - normals @ center
        if np.min(shifted) <= VERTEX_TOL:
            raise PolytopeError("H-rep has empty or lower-dimensional interior")
        # vertices of {x: <a,x> <= b'} are facet normals of conv{a_i/b'_i}
        pts = normals / shifted[:, None]
        fn, fo, _ = _hull_equations(pts)
        if np.min(fo) <= VERTEX_TOL:
            raise PolytopeError("H-rep describes an unbounded set")
        verts = fn / fo[:, None] + center[None, :]
        verts = _dedupe_rows(verts, VERTEX_TOL * (1.0 + np.abs(verts).max()))
        # prune halfspaces never tight at a vertex
        slack = offsets[:, None] - normals @ verts.T
        tight = (slack <= 1e-7 * (1.0 + np.abs(offsets)[:, None])).any(axis=1)
        return cls(verts, normals[tight], offsets[tight])

    # -- basic queries ----------------------------------------------------

    def support(self, u):
        """sup_{x in P} <u, x> from the V-rep."""
        return float((self.vertices @ np.asarray(u, dtype=float)).max())

    def gauge(self, x):
        """inf {t > 0 : x in t P} from the H-rep (0 must be inside)."""
        x = np.asarray(x, dtype=float)
        vals = self.normals @ x
        flat = self.offsets <= VERTEX_TOL
        if np.any(vals[flat] > VERTEX_TOL * (1.0 + np.linalg.norm(x))):
            return np.inf
        return float(np.max(vals[~flat] / self.offsets[~flat], initial=0.0))

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        scale = 1.0 + np.linalg.norm(x)
        return bool(np.all(self.normals @ x <= self.offsets + tol * scale))

    def scale(self, rho):
        if rho <= 0:
            raise PolytopeError("scale factor must be positive")
        return Polytope(self.vertices * rho, self.normals, self.offsets * rho,
                        _skip_checks=True)

    # -- calculus ---------------------------------------------------------

    def polar(self):
        """Polar polytope; requires 0 in the interior.

        For P = conv(V) = {x : <a_i, x> <= b_i} the polar is
        conv(a_i / b_i) = {y : <v, y> <= 1 for v in V} (Rockafellar,
        *Convex Analysis*, §19), so the two representations swap roles and
        nothing is enumerated.  ``from_halfspaces`` keeps rows tight at a
        single vertex, which are not facets; their points a_i / b_i are not
        extreme.  Each such row is valid for P, so its point lies in the
        polar, and no support or gauge of the polar changes.
        """
        norms = np.linalg.norm(self.normals, axis=1)
        if np.min(self.offsets / np.maximum(norms, 1e-300)) <= VERTEX_TOL:
            raise UnboundedPolarError(
                "0 is not interior; the polar set is unbounded")
        return Polytope(self.normals / self.offsets[:, None], self.vertices,
                        np.ones(len(self.vertices)))

    def intersection(self, other):
        return Polytope.from_halfspaces(
            np.vstack([self.normals, other.normals]),
            np.concatenate([self.offsets, other.offsets]))

    def minkowski_sum(self, other):
        pts = (self.vertices[:, None, :] + other.vertices[None, :, :])
        return Polytope.from_vertices(pts.reshape(-1, self.dim))

    def linear_image(self, D):
        """Image polytope {D v : v in P}; target space must be filled."""
        D = np.asarray(D, dtype=float)
        return Polytope.from_vertices(self.vertices @ D.T)

    def to_json_dict(self):
        return {
            "vertices": self.vertices.tolist(),
            "halfspaces": [{"normal": n.tolist(), "offset": float(b)}
                           for n, b in zip(self.normals, self.offsets)],
        }

    @classmethod
    def from_json_dict(cls, data):
        verts = np.asarray(data["vertices"], dtype=float)
        if data.get("halfspaces"):
            normals = np.asarray([h["normal"] for h in data["halfspaces"]])
            offsets = np.asarray([h["offset"] for h in data["halfspaces"]])
            return cls(verts, normals, offsets)
        return cls.from_vertices(verts)

    def __repr__(self):
        return (f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, "
                f"halfspaces={len(self.normals)})")


def _chebyshev_center(normals, offsets):
    """Interior point maximizing distance to all facets (an LP)."""
    d = normals.shape[1]
    norms = np.linalg.norm(normals, axis=1)
    c = np.zeros(d + 1)
    c[-1] = -1.0
    a_ub = np.hstack([normals, norms[:, None]])
    res = lp_min_halfspaces(c, a_ub, offsets,
                            bounds=[(None, None)] * d + [(0, None)])
    if res.status != OPTIMAL or res.x[-1] <= VERTEX_TOL:
        raise PolytopeError("H-rep has empty interior")
    return res.x[:d]


def polytope_intersection_polar(P1, P2):
    """conv(P1_polar ∪ P2_polar); equals the polar of P1 ∩ P2."""
    Q1, Q2 = P1.polar(), P2.polar()
    return Polytope.from_vertices(np.vstack([Q1.vertices, Q2.vertices]))


def minkowski_sum_gauge(g1_ball, g2_ball, x):
    """Gauge of g1_ball + g2_ball at x via the min-max split (an LP).

    Solves min_z max(gauge1(z), gauge2(x - z)); equals the gauge of the
    Minkowski-sum polytope.
    """
    x = np.asarray(x, dtype=float)
    d = g1_ball.dim
    # variables (z, t): <a, z> <= t b for ball 1, <a, x - z> <= t b for ball 2
    rows = np.vstack([
        np.hstack([g1_ball.normals, -g1_ball.offsets[:, None]]),
        np.hstack([-g2_ball.normals, -g2_ball.offsets[:, None]])])
    rhs = np.concatenate([np.zeros(len(g1_ball.offsets)),
                          -(g2_ball.normals @ x)])
    c = np.zeros(d + 1)
    c[-1] = 1.0
    res = lp_min_halfspaces(c, rows, rhs,
                            bounds=[(None, None)] * d + [(0, None)])
    if res.status != OPTIMAL:
        return np.inf
    return float(res.value)


def linear_image_gauge(C, D, x):
    """Gauge of the image polytope D(C) at x.

    Evaluates inf {gauge_C(D^+ x + z) : z in Ker(D)}: by LP over the kernel,
    or in closed form as gauge_C(D^+ x) when Ker(D) = {0}.  Returns +inf
    when x is not in the image of D.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim == 1:
        D = D[None, :]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    svd = RankedSvd(D)
    q = svd.solve(x)
    if np.linalg.norm(D @ q - x) > 1e-9 * (1.0 + np.linalg.norm(x)):
        return np.inf
    Z = svd.kernel()
    k = Z.shape[1]
    if k == 0:
        return C.gauge(q)
    # variables (w, t): <a, q + Z w> <= t b
    rows = np.hstack([C.normals @ Z, -C.offsets[:, None]])
    rhs = -C.normals @ q
    c = np.zeros(k + 1)
    c[-1] = 1.0
    res = lp_min_halfspaces(c, rows, rhs,
                            bounds=[(None, None)] * k + [(0, None)])
    if res.status != OPTIMAL:
        return np.inf
    return float(res.value)


def inverse_sum_set(Q1, Q2):
    """Inverse sum of Q1 and Q2 as a polytope (both need 0 interior).

    Uses the identity gauge(Q1 inv-sum Q2) = gauge(Q1) + gauge(Q2) together
    with max_i f_i + max_j g_j = max_{ij} (f_i + g_j): the set is exactly
    {x : <a_i/b_i + c_j/d_j, x> <= 1 for all facet pairs}.
    """
    if np.min(Q1.offsets) <= VERTEX_TOL or np.min(Q2.offsets) <= VERTEX_TOL:
        raise UnboundedPolarError("inverse sum needs 0 interior to both sets")
    A = Q1.normals / Q1.offsets[:, None]
    C = Q2.normals / Q2.offsets[:, None]
    pairs = (A[:, None, :] + C[None, :, :]).reshape(-1, Q1.dim)
    return Polytope.from_halfspaces(pairs, np.ones(len(pairs)))


def inverse_sum_polar_check(P1, P2, directions=200, tol=1e-5, seed=0):
    """Check (P1 + P2)_polar equals the inverse sum of the polars.

    Support functions of both sides are compared on random directions; the
    right-hand side is the support of the vertices of ``inverse_sum_set`` of
    the two polars.  Returns (worst <= tol, worst), where worst is the
    largest relative gap |rhs - lhs| / (1 + |lhs|).
    """
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((directions, P1.dim))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    lhs = _facet_support(P1.minkowski_sum(P2).polar().vertices, U)
    rhs = _facet_support(inverse_sum_set(P1.polar(), P2.polar()).vertices, U)
    worst = float(np.max(np.abs(rhs - lhs) / (1.0 + np.abs(lhs)),
                         initial=0.0))
    return worst <= tol, worst


def random_polytope(dim, n_points=None, seed=0):
    """Random full-dimensional polytope with 0 strictly inside."""
    rng = np.random.default_rng(seed)
    if n_points is None:
        n_points = 3 * dim + 4
    pts = rng.standard_normal((n_points, dim))
    pts = np.vstack([pts, -0.7 * pts])
    return Polytope.from_vertices(pts)
