"""Exact polytope calculus for compact convex sets containing the origin.

A polytope P has two representations: a V-rep, a set of points whose
convex hull is P (it may include points that are not vertices), and an
H-rep, halfspaces ``<normal, x> <= offset`` whose intersection is P.  A
``Polytope`` holds one or both.  The one it lacks is enumerated by one
convex hull the first time it is read, and then kept; a representation it
holds never changes.

The public constructors ``from_vertices``, ``from_halfspaces`` and
``from_json_dict`` enumerate at once, so bad input is rejected there.  The
derived sets keep the representation they are built from: ``intersection``
and ``inverse_sum_set`` an H-rep, ``minkowski_sum``, ``linear_image`` and
``polytope_intersection_polar`` a V-rep.  The polar is read off by duality:
the rows ``a_i / b_i`` of the H-rep are its V-rep and the V-rep, with
offset 1, its H-rep, each pending while the one it comes from is.  A hull
enumerates an H-rep from a V-rep directly and a V-rep from an H-rep through
the polar correspondence (facets of conv{a_i/b_i} are the vertices).  All
enumeration is gated at dimension <= 8; the identities verified here are
dimension-free, so low-dimensional checks suffice.

Qhull runs once per point set: its facets and vertex indices are memoized
on the bytes of the points, for the last ``HULL_MEMO_SIZE`` sets.  Qhull is
deterministic (its joggle included), so a hit equals a fresh hull bit for
bit.  The memo's arrays are read-only and each result is a new array built
from them, so a caller that edits one cannot reach a later hit; a set qhull
rejects is never stored.  The dedupe, the joggle re-fit and every
validation run on each call.  So the Minkowski sum of a polar-calculus
pair, read by the gauge identity, by the polar of the sum and (as the H-rep
rows ``a_i/b_i + c_j/d_j``) by the inverse sum of the polars, is hulled
once.

Near-duplicate facets and vertices are merged by a greedy keep-first sweep
over the pairs within tolerance that a KD-tree reports.  The LPs here have
few variables and many ``<=`` rows, so they go through their duals: the
Chebyshev centre by ``lp.lp_min_halfspaces``, and the Minkowski-sum and
kernel linear-image gauges by ``lp.lp_min_max`` on the facet offsets.

scipy is not imported with this module.  The hull (``ConvexHull``,
``QhullError``) and the KD-tree (``cKDTree``) are bound here from
``scipy.spatial`` by the first hull or dedupe (``_bind_spatial``), or by
the first read of one of those names as an attribute of the module; a name
already bound, or patched by a caller, is kept.
"""

import functools
import numbers

import numpy as np

from .linalg import RankedSvd
from .lp import lp_min_halfspaces, lp_min_max, OPTIMAL

MAX_ENUM_DIM = 8
VERTEX_TOL = 1e-9
SUPPORT_BLOCK = 1 << 20    # vertex x facet products formed at once
HULL_MEMO_SIZE = 8         # point sets whose qhull output is kept
# a vertex of a loaded H-rep may lie this far (relative) outside the hull
# of the loaded points: far below the 1e-5 relative gap at which a polar
# identity fails
JSON_HULL_TOL = 1e-6


_SPATIAL_NAMES = ("ConvexHull", "QhullError", "cKDTree")


@functools.cache
def _bind_spatial():
    """Import ``scipy.spatial`` and bind each of ``_SPATIAL_NAMES`` that
    this module does not hold yet as one of its globals."""
    import scipy.spatial
    for name in _SPATIAL_NAMES:
        globals().setdefault(name, getattr(scipy.spatial, name))


def __getattr__(name):
    # only names not bound yet reach here (PEP 562)
    if name in _SPATIAL_NAMES:
        _bind_spatial()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    _bind_spatial()
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


def _finite(a, what):
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise PolytopeError(f"non-finite entries in {what}")
    return a


@functools.lru_cache(maxsize=HULL_MEMO_SIZE)
def _qhull(shape, data):
    """Read-only (equations, vertex indices, joggled) of the hull of the
    float64 points with the given shape and bytes."""
    points = np.frombuffer(data).reshape(shape)
    joggled = False
    _bind_spatial()
    try:
        hull = ConvexHull(points)
    except QhullError:
        # near-degenerate merges: retry with joggled input.  The facets are
        # those of the joggled points, re-fit by the caller to the support
        # of the original ones, so the H-rep is an outer approximation: on
        # the 920 points of a dimension-5 dupridge sum its gauge is low by
        # 3e-8 to 1.2e-6
        try:
            hull = ConvexHull(points, qhull_options="QJ")
        except QhullError as exc:
            raise PolytopeError(f"degenerate point set for hull: {exc}") \
                from exc
        joggled = True
    eqs, idx = hull.equations, hull.vertices
    eqs.flags.writeable = idx.flags.writeable = False
    return eqs, idx, joggled


def _hull_equations(points):
    """Facets of conv(points) as (normals, offsets) with <n,x> <= b inside,
    and the points that are vertices."""
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    if d > MAX_ENUM_DIM:
        raise PolytopeError(
            f"polytope calculus is limited to dimension {MAX_ENUM_DIM}")
    if d == 1:
        lo, hi = points.min(), points.max()
        if hi - lo <= VERTEX_TOL:
            raise PolytopeError("degenerate 1-d point set")
        return (np.array([[1.0], [-1.0]]), np.array([hi, -lo]),
                np.array([[hi], [lo]]))
    eqs, idx, joggled = _qhull(points.shape, points.tobytes())
    eqs = _dedupe_rows(eqs, 1e-9)
    normals = eqs[:, :-1]
    offsets = -eqs[:, -1]
    verts = points[idx]
    if joggled:
        # the facets belong to the joggled points: move each one to the
        # support of the original vertices so that none violates it
        offsets = _facet_support(verts, normals)
    return normals, offsets, verts


def _halfspace_vertices(normals, offsets):
    """Vertices of {x : <normal_i, x> <= offset_i}, by one hull."""
    center = np.zeros(normals.shape[1])
    if np.min(offsets) <= VERTEX_TOL:
        center = _chebyshev_center(normals, offsets)
    shifted = offsets - normals @ center
    if np.min(shifted) <= VERTEX_TOL:
        raise PolytopeError("H-rep has empty or lower-dimensional interior")
    # vertices of {x: <a,x> <= b'} are facet normals of conv{a_i/b'_i}
    fn, fo, _ = _hull_equations(normals / shifted[:, None])
    if np.min(fo) <= VERTEX_TOL:
        raise PolytopeError("H-rep describes an unbounded set")
    verts = fn / fo[:, None] + center[None, :]
    return _dedupe_rows(verts, VERTEX_TOL * (1.0 + np.abs(verts).max()))


def _same_dim(P1, P2, what):
    if P1.dim != P2.dim:
        raise PolytopeError(
            f"{what} needs polytopes of one dimension, got {P1.dim} and "
            f"{P2.dim}")


def _validate(vertices, normals, offsets):
    scale = 1.0 + np.abs(vertices).max(initial=0.0)
    if np.min(offsets, initial=0.0) < -1e-9 * scale:
        raise PolytopeError("origin violates an H-rep constraint")
    slack = _facet_support(vertices, normals) - offsets
    if slack.max(initial=0.0) > 1e-8 * scale:
        raise PolytopeError("a vertex violates a halfspace")


def _pending(rep):
    """A representation not enumerated yet: None (a hull of the other
    one) or a callable that returns it."""
    return rep is None or callable(rep)


def _now_or_later(make, source):
    """``make()`` now when ``source`` is held, else ``make`` itself, to be
    called on first read."""
    return make if _pending(source) else make()


class Polytope:
    """Compact convex polytope P from a V-rep, an H-rep or both.

    The V-rep is a set of points whose hull is P; it may include points
    that are not vertices.  The H-rep is a set of halfspaces
    ``<normal, x> <= offset`` whose intersection is P.  A representation
    the object lacks is enumerated by one hull when it is first read and
    then kept; whenever both exist they are checked against each other.
    ``Polytope(vertices, normals, offsets)`` takes both.
    """

    def __init__(self, vertices, normals, offsets):
        self._hold(vertices, (normals, offsets))

    @classmethod
    def _lazy(cls, vertices=None, hrep=None):
        """Polytope from ``vertices`` and the pair ``hrep`` (normals,
        offsets), at least one of them held; a pending one is None or a
        callable (see ``_pending``)."""
        P = cls.__new__(cls)
        P._hold(vertices, hrep)
        return P

    def _hold(self, vertices, hrep):
        self._vertices = (vertices if _pending(vertices)
                          else _finite(vertices, "vertices"))
        self._hrep = (hrep if _pending(hrep) else
                      (_finite(hrep[0], "normals"),
                       _finite(hrep[1], "offsets")))
        if not _pending(self._vertices) and not _pending(self._hrep):
            _validate(self._vertices, *self._hrep)

    @property
    def vertices(self):
        if _pending(self._vertices):
            normals, offsets = self._hrep
            verts = (_halfspace_vertices(normals, offsets)
                     if self._vertices is None else self._vertices())
            _validate(verts, normals, offsets)
            self._vertices = verts
        return self._vertices

    def _read_hrep(self):
        if _pending(self._hrep):
            hrep = (_hull_equations(self._vertices)[:2]
                    if self._hrep is None else self._hrep())
            _validate(self._vertices, *hrep)
            self._hrep = hrep
        return self._hrep

    @property
    def normals(self):
        return self._read_hrep()[0]

    @property
    def offsets(self):
        return self._read_hrep()[1]

    @property
    def dim(self):
        held = self._hrep[0] if _pending(self._vertices) else self._vertices
        return held.shape[1]

    @classmethod
    def from_vertices(cls, points):
        points = _finite(points, "points")
        if points.ndim != 2:
            raise PolytopeError("points must be 2-d")
        normals, offsets, verts = _hull_equations(points)
        return cls(verts, normals, offsets)

    @classmethod
    def from_halfspaces(cls, normals, offsets):
        normals = _finite(normals, "normals")
        offsets = _finite(offsets, "offsets")
        verts = _halfspace_vertices(normals, offsets)
        # prune halfspaces never tight at a vertex, from their support over
        # the vertices, a block of halfspaces at a time
        tight = (_facet_support(verts, normals)
                 >= offsets - 1e-7 * (1.0 + np.abs(offsets)))
        return cls(verts, normals[tight], offsets[tight])

    # -- basic queries ----------------------------------------------------

    def support(self, u):
        """sup_{x in P} <u, x> from the V-rep."""
        return float(self.vertices.dot(np.asarray(u, dtype=float)).max())

    def gauge(self, x):
        """inf {t > 0 : x in t P} from the H-rep (0 must be inside)."""
        x = np.asarray(x, dtype=float)
        normals, offsets = self._read_hrep()
        vals = normals @ x
        flat = offsets <= VERTEX_TOL
        if np.any(vals[flat] > VERTEX_TOL * (1.0 + np.linalg.norm(x))):
            return np.inf
        return float(np.max(vals[~flat] / offsets[~flat], initial=0.0))

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        normals, offsets = self._read_hrep()
        scale = 1.0 + np.linalg.norm(x)
        return bool(np.all(normals @ x <= offsets + tol * scale))

    def scale(self, rho):
        if not (np.isfinite(rho) and rho > 0):
            raise PolytopeError("scale factor must be finite and positive")
        return Polytope._lazy(
            _now_or_later(lambda: self.vertices * rho, self._vertices),
            _now_or_later(lambda: (self.normals, self.offsets * rho),
                          self._hrep))

    # -- calculus ---------------------------------------------------------

    def polar(self):
        """Polar polytope; requires 0 in the interior.

        For P = conv(V) = {x : <a_i, x> <= b_i} the polar is
        conv(a_i / b_i) = {y : <v, y> <= 1 for v in V} (Rockafellar,
        *Convex Analysis*, §19), so the two representations swap roles and
        nothing is enumerated: each side of the polar is pending while the
        side of P it comes from is.  The check that 0 is interior runs when
        the V-rep of the polar is made, at once if P holds its H-rep.  Rows
        of an H-rep that are tight at a single vertex are not facets, and
        points of a V-rep need not be extreme; either way every point
        a_i / b_i lies in the polar and every v in P, so no support or gauge
        of the polar changes.
        """
        def points():
            normals, offsets = self._read_hrep()
            norms = np.linalg.norm(normals, axis=1)
            if np.min(offsets / np.maximum(norms, 1e-300)) <= VERTEX_TOL:
                raise UnboundedPolarError(
                    "0 is not interior; the polar set is unbounded")
            return normals / offsets[:, None]

        def facets():
            verts = self.vertices
            return verts, np.ones(len(verts))

        return Polytope._lazy(_now_or_later(points, self._hrep),
                              _now_or_later(facets, self._vertices))

    def intersection(self, other):
        _same_dim(self, other, "intersection")
        return Polytope._lazy(hrep=(
            np.vstack([self.normals, other.normals]),
            np.concatenate([self.offsets, other.offsets])))

    def minkowski_sum(self, other):
        _same_dim(self, other, "minkowski_sum")
        pts = (self.vertices[:, None, :] + other.vertices[None, :, :])
        return Polytope._lazy(pts.reshape(-1, self.dim))

    def linear_image(self, D):
        """Image polytope {D v : v in P}.  D must map onto its target
        space; the hull that first reads the H-rep checks it."""
        return Polytope._lazy(self.vertices @ _finite(D, "map").T)

    def to_json_dict(self):
        return {
            "vertices": self.vertices.tolist(),
            "halfspaces": [{"normal": n.tolist(), "offset": float(b)}
                           for n, b in zip(self.normals, self.offsets)],
        }

    @classmethod
    def from_json_dict(cls, data):
        """Polytope from ``to_json_dict`` output.  Given halfspaces must
        describe the hull of the given points: each point satisfies them,
        and each vertex of the halfspaces lies in the facets of the hull."""
        if not data.get("halfspaces"):
            return cls.from_vertices(data["vertices"])
        P = cls(data["vertices"], [h["normal"] for h in data["halfspaces"]],
                [h["offset"] for h in data["halfspaces"]])
        # both hulls run here, on the cold path.  The vertices are tested on
        # the facets of the hull and not by their distance to the points:
        # a re-fit joggled H-rep of dimension 5 has vertices 0.26 from
        # every point that lie only 5e-8 outside the hull
        try:
            corners = _halfspace_vertices(*P._hrep)
        except PolytopeError as exc:
            raise PolytopeError(
                f"halfspaces are not the hull of the vertices: {exc}") \
                from exc
        normals, offsets, _ = _hull_equations(P.vertices)
        excess = np.max(_facet_support(corners, normals) - offsets)
        if excess > JSON_HULL_TOL * (1.0 + np.abs(P.vertices).max()):
            raise PolytopeError(
                "halfspaces are not the hull of the vertices: a vertex of "
                f"the halfspaces lies {excess:.3g} outside it")
        return P

    def __repr__(self):
        nv = "pending" if _pending(self._vertices) else len(self._vertices)
        nh = "pending" if _pending(self._hrep) else len(self._hrep[1])
        return f"Polytope(dim={self.dim}, vertices={nv}, halfspaces={nh})"


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
    _same_dim(P1, P2, "polytope_intersection_polar")
    Q1, Q2 = P1.polar(), P2.polar()
    return Polytope._lazy(np.vstack([Q1.vertices, Q2.vertices]))


def _split_rows(parts, x):
    """Rows (h, G, b) of ``lp_min_max`` for the gauge at x of the Minkowski
    sum of parts {z : <a, z> <= b}, each given as (normals, offsets): the
    min over splits x = z_1 + ... + z_k of max_j gauge_j(z_j), with
    z_1..z_{k-1} free and z_k = x - z_1 - ... - z_{k-1}.  It serves the
    polar of a sum of gauges too."""
    n, last = len(x), parts[-1][0]
    free = [normals for normals, _ in parts[:-1]]
    G = np.zeros((sum(map(len, free)) + len(last), len(free) * n))
    row = 0
    for j, normals in enumerate(free):
        G[row:row + len(normals), j * n:(j + 1) * n] = normals
        row += len(normals)
    G[row:] = np.tile(-last, (1, len(free)))
    return (np.concatenate([np.zeros(row), last @ x]), G,
            np.concatenate([offsets for _, offsets in parts]))


def minkowski_sum_gauge(g1_ball, g2_ball, x):
    """Gauge of g1_ball + g2_ball at x via the min-max split (an LP).

    Solves min_z max(gauge1(z), gauge2(x - z)); equals the gauge of the
    Minkowski-sum polytope, +inf where no split meets the zero-offset
    facets.
    """
    _same_dim(g1_ball, g2_ball, "minkowski_sum_gauge")
    parts = [(P.normals, P.offsets) for P in (g1_ball, g2_ball)]
    res = lp_min_max(*_split_rows(parts, np.asarray(x, dtype=float)))
    return float(res.value) if res.status == OPTIMAL else np.inf


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
    if Z.shape[1] == 0:
        return C.gauge(q)
    # <a, q + Z w> <= t b for each facet (a, b) of C
    res = lp_min_max(C.normals @ q, C.normals @ Z, C.offsets)
    return float(res.value) if res.status == OPTIMAL else np.inf


def inverse_sum_set(Q1, Q2):
    """Inverse sum of Q1 and Q2 as a polytope (both need 0 interior).

    Uses the identity gauge(Q1 inv-sum Q2) = gauge(Q1) + gauge(Q2) together
    with max_i f_i + max_j g_j = max_{ij} (f_i + g_j): the set is exactly
    {x : <a_i/b_i + c_j/d_j, x> <= 1 for all facet pairs}.
    """
    _same_dim(Q1, Q2, "inverse_sum_set")
    if np.min(Q1.offsets) <= VERTEX_TOL or np.min(Q2.offsets) <= VERTEX_TOL:
        raise UnboundedPolarError("inverse sum needs 0 interior to both sets")
    A = Q1.normals / Q1.offsets[:, None]
    C = Q2.normals / Q2.offsets[:, None]
    pairs = (A[:, None, :] + C[None, :, :]).reshape(-1, Q1.dim)
    return Polytope._lazy(hrep=(pairs, np.ones(len(pairs))))


def inverse_sum_polar_check(P1, P2, directions=200, tol=1e-5, seed=0):
    """Check (P1 + P2)_polar equals the inverse sum of the polars.

    Support functions of both sides are compared on random directions; the
    right-hand side is the support of the vertices of ``inverse_sum_set`` of
    the two polars.  Returns (worst <= tol, worst), where worst is the
    largest relative gap |rhs - lhs| / (1 + |lhs|).

    Both sides enumerate one point set: the H-rep rows a_i/b_i + c_j/d_j of
    the inverse sum are, in order, the points v_i + w_j of P1 + P2 whose
    hull gives the left side's polar.  So the check compares a hull with
    itself (its memoized qhull runs once) and passes whatever that hull is.
    """
    if (isinstance(directions, bool)
            or not isinstance(directions, numbers.Integral) or directions < 1):
        raise ValueError(f"directions must be an int >= 1, got {directions!r}")
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not (np.isfinite(tol) and tol >= 0)):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    _same_dim(P1, P2, "inverse_sum_polar_check")
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
