import itertools
import json

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, cKDTree

import gaugerec.polytopes as polytopes
from gaugerec.linalg import null_space, svd_pinv
from gaugerec.lp import lp_min_halfspaces, lp_min_max, OPTIMAL
from gaugerec.polytopes import (Polytope, random_polytope,
                                polytope_intersection_polar,
                                minkowski_sum_gauge, linear_image_gauge,
                                inverse_sum_polar_check, inverse_sum_set,
                                UnboundedPolarError, PolytopeError,
                                VERTEX_TOL, _dedupe_rows)


def vertex_sets_match(A, B, tol=1e-7):
    A, B = np.asarray(A), list(map(np.asarray, B))
    if len(A) != len(B):
        return False
    for a in A:
        dists = [np.linalg.norm(a - b) for b in B]
        j = int(np.argmin(dists))
        if dists[j] > tol:
            return False
        B.pop(j)
    return True


def support_gap(P1, P2, dirs):
    return max(abs(P1.support(u) - P2.support(u)) for u in dirs)


class TestPolarSet:
    def test_l1_ball_to_linf_ball(self):
        l1 = Polytope.from_vertices(np.vstack([np.eye(2), -np.eye(2)]))
        cube = l1.polar()
        expected = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        assert vertex_sets_match(cube.vertices, expected)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_bipolar(self, d):
        P = random_polytope(d, seed=d)
        PP = P.polar().polar()
        assert vertex_sets_match(P.vertices, PP.vertices)

    def test_scaling(self, rng):
        P = random_polytope(3, seed=9)
        lhs = P.scale(2.0).polar()
        rhs = P.polar().scale(0.5)
        dirs = rng.standard_normal((80, 3))
        assert support_gap(lhs, rhs, dirs) <= 1e-9

    def test_unbounded_polar_rejected(self):
        # 0 on the boundary: a triangle with a vertex at the origin
        P = Polytope.from_vertices(np.array([[0.0, 0], [1, 0], [0, 1]]))
        with pytest.raises(UnboundedPolarError):
            P.polar()


def _vrep_gauge(P, u):
    """Gauge of P at u from its V-rep alone, by HiGHS:
    min t  s.t.  u = V^T lam,  sum lam = t,  lam >= 0."""
    res = linprog(np.ones(len(P.vertices)), A_eq=P.vertices.T, b_eq=u,
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


class TestPolarByDuality:
    """Polars read off by duality, against LPs and hulls that never call
    ``polar()``."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_support_is_vrep_gauge(self, d, rng):
        P = random_polytope(d, seed=100 + d)
        Q = P.polar()
        for u in rng.standard_normal((40, d)):
            ref = _vrep_gauge(P, u)
            assert abs(Q.support(u) - ref) <= 1e-9 * (1.0 + ref)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_inverse_sum_of_polars_is_sum_gauge(self, d, rng):
        # (P1 + P2)_polar is the inverse sum of the polars, and its support
        # is the gauge of P1 + P2, an LP over the H-reps of P1 and P2
        P1 = random_polytope(d, seed=110 + d)
        P2 = random_polytope(d, seed=120 + d)
        K = inverse_sum_set(P1.polar(), P2.polar())
        for u in rng.standard_normal((40, d)):
            ref = minkowski_sum_gauge(P1, P2, u)
            assert abs(K.support(u) - ref) <= 1e-9 * (1.0 + ref)

    @pytest.fixture(scope="class")
    def cases(self):
        cube = Polytope.from_vertices(
            np.array(list(itertools.product([-1.0, 1.0], repeat=3))))
        cross = Polytope.from_vertices(np.vstack([np.eye(3), -np.eye(3)]))
        polytopes = {"vertices": random_polytope(4, seed=53),
                     # the facets of 3 * cross touch the cube at one vertex
                     # each, so the polar gets 8 points that are not extreme
                     "intersection": cube.intersection(cross.scale(3.0)),
                     "scale": random_polytope(3, seed=54).scale(2.5),
                     "joggled": _dupridge_sum()}
        return {kind: (P, P.polar(),
                       Polytope.from_vertices(P.normals / P.offsets[:, None]))
                for kind, P in polytopes.items()}

    @pytest.mark.parametrize("kind",
                             ["vertices", "intersection", "scale", "joggled"])
    def test_matches_hull_of_polar_points(self, cases, kind):
        P, Q, R = cases[kind]
        for u in np.random.default_rng(7).standard_normal((60, P.dim)):
            assert abs(Q.support(u) - R.support(u)) <= 1e-12 * (
                1.0 + abs(R.support(u)))
            # the joggled hull R is an outer approximation whose gauge is
            # low by up to ~1e-6; there the exact gauge of the polar is the
            # support of P
            ref = P.support(u) if kind == "joggled" else R.gauge(u)
            assert abs(Q.gauge(u) - ref) <= 1e-12 * (1.0 + abs(ref))
            assert R.gauge(u) <= Q.gauge(u) + 1e-12 * (1.0 + Q.gauge(u))


class TestIntersectionPolar:
    def test_same_polytope(self, rng):
        P = random_polytope(3, seed=3)
        lhs = polytope_intersection_polar(P, P)
        rhs = P.polar()
        dirs = rng.standard_normal((60, 3))
        assert support_gap(lhs, rhs, dirs) <= 1e-7

    def test_l1_linf_halved(self, rng):
        l1 = Polytope.from_vertices(np.vstack([np.eye(2), -np.eye(2)]))
        half_cube = Polytope.from_vertices(
            0.5 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float))
        lhs = polytope_intersection_polar(l1, half_cube)
        # conv(linf ball ∪ 2 * l1 ball)
        rhs = Polytope.from_vertices(np.vstack([
            np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float),
            2.0 * np.vstack([np.eye(2), -np.eye(2)])]))
        dirs = rng.standard_normal((60, 2))
        assert support_gap(lhs, rhs, dirs) <= 1e-7

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_pairs(self, d, rng):
        P1 = random_polytope(d, seed=10 + d)
        P2 = random_polytope(d, seed=20 + d)
        lhs = polytope_intersection_polar(P1, P2)
        rhs = P1.intersection(P2).polar()
        dirs = rng.standard_normal((60, d))
        assert support_gap(lhs, rhs, dirs) <= 1e-7


class TestMinkowskiGauge:
    def test_same_ball_halves(self):
        P = random_polytope(3, seed=5)
        x = np.array([0.4, -0.2, 0.9])
        assert abs(minkowski_sum_gauge(P, P, x) - P.gauge(x) / 2) <= 1e-9

    def test_zero(self):
        P = random_polytope(2, seed=6)
        assert minkowski_sum_gauge(P, P, np.zeros(2)) <= 1e-12

    def test_matches_sum_polytope(self, rng):
        P1 = random_polytope(3, seed=1)
        P2 = random_polytope(3, seed=2)
        S = P1.minkowski_sum(P2)
        for _ in range(25):
            x = rng.standard_normal(3)
            a = minkowski_sum_gauge(P1, P2, x)
            b = S.gauge(x)
            assert abs(a - b) <= 1e-7 * (1.0 + abs(b))

    @pytest.mark.parametrize("d", [2, 3])
    def test_origin_on_boundary_matches_hull(self, d, rng):
        # 0 is a vertex of both sets: their facets through it (offset 0)
        # are hard rows of the split LP, and outside the cone of the sum
        # the gauge is +inf
        A = Polytope.from_vertices(np.vstack([np.zeros(d), np.eye(d)]))
        B = Polytope.from_vertices(
            np.vstack([np.zeros(d), np.eye(d) + np.eye(d, k=1)]))
        assert max(np.min(A.offsets), np.min(B.offsets)) <= VERTEX_TOL
        S = A.minkowski_sum(B)
        X = np.vstack([rng.standard_normal((30, d)),
                       np.abs(rng.standard_normal((20, d))),
                       np.zeros((1, d)), np.eye(d)])
        vals = [minkowski_sum_gauge(A, B, x) for x in X]
        refs = [S.gauge(x) for x in X]
        assert np.isinf(vals).any() and np.isfinite(vals).any()
        for val, ref in zip(vals, refs):
            assert val == ref == np.inf or abs(val - ref) <= 1e-9 * (1 + ref)


class TestLinearImageGauge:
    def test_identity_map(self, rng):
        P = random_polytope(3, seed=11)
        x = rng.standard_normal(3)
        assert abs(linear_image_gauge(P, np.eye(3), x) - P.gauge(x)) <= 1e-9

    def test_sum_functional(self):
        cube = Polytope.from_vertices(
            np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float))
        val = linear_image_gauge(cube, np.array([[1.0, 1.0]]), np.array([3.0]))
        assert abs(val - 1.5) <= 1e-9

    def test_matches_image_polytope(self, rng):
        P = random_polytope(3, seed=13)
        D = rng.standard_normal((2, 3))
        img = P.linear_image(D)
        for _ in range(25):
            x = rng.standard_normal(2)
            a = linear_image_gauge(P, D, x)
            b = img.gauge(x)
            assert abs(a - b) <= 1e-7 * (1.0 + abs(b))

    def test_off_image_is_infinite(self):
        P = random_polytope(2, seed=14)
        D = np.array([[1.0], [0.0]])   # image is the first axis of R^2
        assert linear_image_gauge(P, D, np.array([0.0, 1.0])) == np.inf

    @staticmethod
    def _counting_lp(monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return lp_min_max(*args, **kwargs)

        monkeypatch.setattr(polytopes, "lp_min_max", counted)
        return calls

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_injective_map_is_closed_form(self, d, rng, monkeypatch):
        P = random_polytope(d, seed=300 + d)
        D = rng.standard_normal((d, d))
        img = P.linear_image(D)
        calls = self._counting_lp(monkeypatch)
        for x in rng.standard_normal((30, d)):
            val = linear_image_gauge(P, D, x)
            for ref in (_kernel_lp_gauge(P, D, x), img.gauge(x)):
                assert abs(val - ref) <= 1e-12 * (1.0 + abs(ref))
        assert not calls

    def test_rank_deficient_map_takes_the_lp(self, rng, monkeypatch):
        # D = B E has rank 2 in R^3; on its image B y the gauge of D(P) is
        # that of E(P) at y
        P = random_polytope(3, seed=15)
        B = rng.standard_normal((3, 2))
        E = rng.standard_normal((2, 3))
        img = P.linear_image(E)
        calls = self._counting_lp(monkeypatch)
        for y in rng.standard_normal((10, 2)):
            ref = img.gauge(y)
            val = linear_image_gauge(P, B @ E, B @ y)
            assert abs(val - ref) <= 1e-9 * (1.0 + ref)
        assert len(calls) == 10
        off = np.linalg.svd(B)[0][:, 2]    # orthogonal to the image of D
        assert linear_image_gauge(P, B @ E, off) == np.inf

    def test_origin_on_boundary_matches_lp(self, rng):
        # the corner triangle has offset 0 on two facets: outside their
        # cone the gauge is +inf
        corner = Polytope.from_vertices(np.array([[0.0, 0], [1, 0], [0, 1]]))
        assert np.min(corner.offsets) <= VERTEX_TOL
        D = rng.standard_normal((2, 2))
        Y = np.vstack([rng.standard_normal((40, 2)), np.zeros((1, 2)),
                       [[1.0, 0.0], [0.0, 2.0], [0.5, 0.5], [-1.0, 1.0]]])
        vals = [linear_image_gauge(corner, D, D @ y) for y in Y]
        refs = [_kernel_lp_gauge(corner, D, D @ y) for y in Y]
        assert np.isinf(vals).any() and np.isfinite(vals).any()
        for val, ref in zip(vals, refs):
            assert val == ref == np.inf or abs(val - ref) <= 1e-12 * (1 + ref)


def _kernel_lp_gauge(C, D, x):
    """The LP of linear_image_gauge for every D: min t over (w, t) with
    <a, D^+ x + Z w> <= t b for the facets (a, b) of C, Z a basis of
    Ker(D); with Ker(D) = {0} the only variable is t."""
    q = svd_pinv(D) @ x
    Z = null_space(D)
    k = Z.shape[1]
    c = np.zeros(k + 1)
    c[-1] = 1.0
    res = lp_min_halfspaces(c, np.hstack([C.normals @ Z, -C.offsets[:, None]]),
                            -C.normals @ q,
                            bounds=[(None, None)] * k + [(0, None)])
    return float(res.value) if res.status == OPTIMAL else np.inf


class TestInverseSum:
    def test_same_polytope(self):
        P = random_polytope(3, seed=21)
        ok, worst = inverse_sum_polar_check(P, P, directions=60)
        assert ok, worst

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_pairs(self, d):
        P1 = random_polytope(d, seed=31 + d)
        P2 = random_polytope(d, seed=41 + d)
        ok, worst = inverse_sum_polar_check(P1, P2, directions=100, seed=d)
        assert ok, worst

    def test_verdict_is_the_reported_relative_gap(self, monkeypatch):
        # (P + P)_polar has radius 100 here, so a set scaled by 1 + 2e-6
        # is off by ~2e-4 absolute but ~2e-6 relative to 1 + support
        P = random_polytope(3, seed=21)
        P = P.scale(np.linalg.norm(
            P.minkowski_sum(P).polar().vertices, axis=1).max() / 100)
        orig = polytopes.inverse_sum_set
        monkeypatch.setattr(polytopes, "inverse_sum_set",
                            lambda Q1, Q2: orig(Q1, Q2).scale(1 + 2e-6))
        ok, worst = inverse_sum_polar_check(P, P, tol=1e-5)
        assert ok and worst <= 1e-5
        assert 1e-6 <= worst
        ok, worst = inverse_sum_polar_check(P, P, tol=1e-6)
        assert not ok and worst > 1e-6

    def test_gauge_sum_identity(self, rng):
        # the inverse-sum set carries the summed gauge
        Q1 = random_polytope(2, seed=61)
        Q2 = random_polytope(2, seed=62)
        K = inverse_sum_set(Q1, Q2)
        for _ in range(40):
            x = rng.standard_normal(2)
            assert abs(K.gauge(x) - (Q1.gauge(x) + Q2.gauge(x))) <= 1e-8


class TestRepresentation:
    def test_json_round_trip(self):
        P = random_polytope(3, seed=71)
        data = json.loads(json.dumps(P.to_json_dict()))
        Q = Polytope.from_json_dict(data)
        assert vertex_sets_match(P.vertices, Q.vertices)

    def test_halfspace_vertex_consistency(self):
        for d in (2, 3, 4):
            P = random_polytope(d, seed=81 + d)
            # every vertex satisfies every halfspace
            prod = P.vertices @ P.normals.T - P.offsets[None, :]
            assert prod.max() <= 1e-9 * (1.0 + np.abs(P.vertices).max())
            # every halfspace is tight somewhere
            assert np.all(np.abs(prod).min(axis=0) <= 1e-7)

    def test_validate_checks_every_facet_block(self, monkeypatch):
        # the square's 4 facets, checked 2 at a time: only the last facet
        # is violated
        import gaugerec.polytopes as polytopes
        verts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0],
                          [-1.0, -1.0], [0.0, 0.0], [0.0, -1.0 - 1e-6]])
        monkeypatch.setattr(polytopes, "SUPPORT_BLOCK", 2 * len(verts))
        normals = np.vstack([np.eye(2), -np.eye(2)])
        Polytope(verts[:5], normals, np.ones(4))
        with pytest.raises(PolytopeError, match="a vertex violates"):
            Polytope(verts, normals, np.ones(4))

    def test_from_halfspaces_round_trip(self):
        P = random_polytope(3, seed=91)
        Q = Polytope.from_halfspaces(P.normals, P.offsets)
        assert vertex_sets_match(P.vertices, Q.vertices)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_from_halfspaces_prunes_in_facet_blocks(self, d, monkeypatch):
        # 5 extra halfspaces at relative slack 0, 1e-9 (kept: tight to
        # 1e-7) and 1e-6, 0.3, 2 (pruned); the pruning takes each
        # halfspace's support over the vertices, a few halfspaces at a time
        rng = np.random.default_rng(d)
        P = random_polytope(d, seed=d)
        R = rng.standard_normal((5, d))
        sup = np.array([P.support(r) for r in R])
        extra = sup + np.array([0.0, 1e-9, 1e-6, 0.3, 2.0]) * (1 + np.abs(sup))
        normals = np.vstack([R, P.normals])
        offsets = np.concatenate([extra, P.offsets])
        ref = Polytope.from_halfspaces(normals, offsets)
        rows = []
        support = polytopes._facet_support

        def spy(verts, normals):
            rows.append(len(normals))
            return support(verts, normals)

        monkeypatch.setattr(polytopes, "SUPPORT_BLOCK", 3)
        monkeypatch.setattr(polytopes, "_facet_support", spy)
        Q = Polytope.from_halfspaces(normals, offsets)
        # every given halfspace went through the blocked support
        assert len(offsets) in rows
        assert np.array_equal(Q.normals, ref.normals)
        assert np.array_equal(Q.offsets, ref.offsets)
        assert np.array_equal(Q.normals,
                              np.vstack([R[:2], P.normals]))

    def test_dimension_gate(self):
        with pytest.raises(PolytopeError):
            Polytope.from_vertices(np.random.default_rng(0)
                                   .standard_normal((40, 9)))


def _dedupe_reference(rows, tol):
    """Plain-loop spec of _dedupe_rows: keep the first row of each cell of
    the tol-grid, then keep a row only if no earlier kept row is within
    tol."""
    seen, first = set(), []
    for r in rows:
        key = tuple(np.round(r / tol).astype(np.int64))
        if key not in seen:
            seen.add(key)
            first.append(r)
    kept = np.empty((len(first), len(first[0])))
    n_kept = 0
    for r in first:
        if np.all(np.sum((kept[:n_kept] - r) ** 2, axis=1) > tol * tol):
            kept[n_kept] = r
            n_kept += 1
    return kept[:n_kept]


def _dupridge_sum():
    """Minkowski sum of a dimension-5 pair with facet normals on which
    qhull's default merge fails (QH6271), so the hull of the sum's points
    a_i / b_i is joggled."""
    rng = np.random.default_rng([24, 7, 69])
    d = 5

    def points():
        pts = rng.standard_normal((d + 4, d))
        return np.vstack([pts, -0.7 * pts])

    return Polytope.from_vertices(points()).minkowski_sum(
        Polytope.from_vertices(points()))


class TestJoggledHull:
    def test_polar_of_dupridge_sum(self):
        # the hull of the sum's points a_i / b_i goes through the joggled
        # hull; its facets must hold for the original points
        S = _dupridge_sum()
        R = Polytope.from_vertices(S.normals / S.offsets[:, None])
        # the support of the polar set is the gauge of the set
        for u in np.random.default_rng(0).standard_normal((20, S.dim)):
            assert abs(R.support(u) - S.gauge(u)) <= 1e-6 * (1 + S.gauge(u))

    def test_joggled_gauge_is_an_outer_approximation(self):
        # R = conv(a_i / b_i) has polar S, so its exact gauge is the
        # support of S.  The joggled facets, re-fit to the original points,
        # hold all of R: their gauge is never above the exact one
        S = _dupridge_sum()
        R = Polytope.from_vertices(S.normals / S.offsets[:, None])
        for u in np.random.default_rng(0).standard_normal((200, S.dim)):
            exact = S.support(u)
            assert exact - 2e-6 <= R.gauge(u) <= exact


def _dedupe_int64_axis0(rows, tol):
    """_dedupe_rows with its earlier exact pass, np.unique(axis=0) over
    int64 keys, for rows inside the int64 range."""
    _, idx = np.unique(np.round(rows / tol).astype(np.int64), axis=0,
                       return_index=True)
    rows = rows[np.sort(idx)]
    pairs = cKDTree(rows).query_pairs(tol, output_type="ndarray")
    keep = np.ones(len(rows), dtype=bool)
    for i, j in pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]:
        if keep[i]:
            keep[j] = False
    return rows[keep]


class TestDedupeRows:
    TOL = 1e-9

    def _chain(self):
        # a ~ b ~ c with |a - c| = 1.06 tol, each in its own tol-grid cell
        a = self.TOL * np.array([3.0, -5.0, 7.0])
        b = a + 0.75 * self.TOL * np.array([1.0, 0.0, 0.0])
        c = b + 0.75 * self.TOL * np.array([0.0, 1.0, 0.0])
        return a, b, c

    @pytest.mark.parametrize("order,expected", [
        ("abc", "ac"), ("cba", "ca"), ("bac", "b"), ("acb", "ac")])
    def test_chain_order_is_greedy(self, order, expected):
        rows = dict(zip("abc", self._chain()))
        out = _dedupe_rows(np.array([rows[k] for k in order]), self.TOL)
        assert np.array_equal(out, np.array([rows[k] for k in expected]))

    @pytest.mark.parametrize("n_base", [40, 2500])
    def test_matches_reference(self, n_base):
        # n_base = 2500 gives 5000 rows, above the size at which a pairwise
        # distance tensor stops being affordable
        rng = np.random.default_rng(n_base)
        base = rng.standard_normal((n_base, 3))
        steps = rng.standard_normal((n_base, 3))
        steps *= (rng.uniform(0.2, 1.8, n_base)
                  / np.linalg.norm(steps, axis=1))[:, None]
        rows = np.vstack([base, base + self.TOL * steps])
        rows = rows[rng.permutation(len(rows))]
        out = _dedupe_rows(rows, self.TOL)
        assert n_base < len(out) < 2 * n_base
        assert np.array_equal(out, _dedupe_reference(rows, self.TOL))

    def test_signed_zero_keys_match_int64_pass(self):
        # a and -a round to the same cell, a to (-0, 0, 0) and -a to
        # (0, -0, -0), but lie 1.7 tol apart: only the exact pass merges them
        a = self.TOL * np.array([-0.49, 0.49, 0.49])
        rows = np.array([a, -a, [-0.0, 0.0, 1.0], [0.0, -0.0, 1.0]])
        out = _dedupe_rows(rows, self.TOL)
        assert np.array_equal(out, _dedupe_int64_axis0(rows, self.TOL))
        assert np.array_equal(out, rows[[0, 2]])

    def test_triangulated_hull_facets_match_int64_pass(self):
        # qhull splits each facet of a dimension-5 Minkowski sum into
        # simplices whose equations are bit-equal
        P1, P2 = random_polytope(5, seed=1), random_polytope(5, seed=2)
        pts = (P1.vertices[:, None, :] + P2.vertices[None, :, :])
        eqs = ConvexHull(pts.reshape(-1, 5)).equations
        assert len(np.unique(eqs, axis=0)) < len(eqs)
        assert np.array_equal(_dedupe_rows(eqs, self.TOL),
                              _dedupe_int64_axis0(eqs, self.TOL))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e10, 1e14])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_large_offsets_do_not_overflow(self, scale, d, rng):
        # facet offsets of ~scale over the 1e-9 grid leave the int64 range
        P = random_polytope(d, seed=7)
        Q = Polytope.from_vertices(P.vertices * scale)
        assert len(Q.normals) == len(P.normals)
        for x in rng.standard_normal((50, d)):
            ref = P.gauge(x)
            assert abs(Q.gauge(scale * x) - ref) <= 1e-12 * ref


def _gauge_reference(P, x):
    vals = P.normals @ x
    out = 0.0
    for a, b in zip(vals, P.offsets):
        if b <= VERTEX_TOL:
            if a > VERTEX_TOL * (1.0 + np.linalg.norm(x)):
                return np.inf
        else:
            out = max(out, a / b)
    return out


class TestGauge:
    def test_matches_loop_reference(self, rng):
        # the corner triangle has the origin on two facets (offset 0)
        corner = Polytope.from_vertices(np.array([[0.0, 0], [1, 0], [0, 1]]))
        for P in (random_polytope(2, seed=3), random_polytope(4, seed=4),
                  corner):
            X = np.vstack([rng.standard_normal((30, P.dim)),
                           np.zeros((1, P.dim))])
            for x in X:
                assert P.gauge(x) == _gauge_reference(P, x)
        assert corner.gauge(np.array([-1.0, 0.5])) == np.inf
        assert corner.gauge(np.array([0.25, 0.25])) == 0.5


def _counting_hull(monkeypatch):
    """Count the hulls run from here on."""
    calls = []
    real = polytopes._hull_equations

    def counted(points):
        calls.append(len(points))
        return real(points)

    monkeypatch.setattr(polytopes, "_hull_equations", counted)
    return calls


def _rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * (1.0 + abs(b))


class TestLazyRepresentations:
    """A derived polytope keeps the representation it is built from and
    runs one hull when the other one is first read."""

    @pytest.fixture
    def pair(self):
        return random_polytope(3, seed=401), random_polytope(3, seed=402)

    def test_intersection_polars_run_no_hull(self, pair, monkeypatch, rng):
        P1, P2 = pair
        calls = _counting_hull(monkeypatch)
        lhs = polytope_intersection_polar(P1, P2)
        rhs = P1.intersection(P2).polar()
        for u in rng.standard_normal((20, 3)):
            assert lhs.support(u) == rhs.support(u)
        assert calls == []

    def test_pending_side_is_enumerated_once(self, pair, monkeypatch):
        P1, P2 = pair
        calls = _counting_hull(monkeypatch)
        X = P1.intersection(P2)
        first = X.vertices
        assert len(calls) == 1
        assert X.vertices is first
        assert len(calls) == 1
        S = P1.minkowski_sum(P2)
        normals = S.normals
        assert S.offsets is not None and S.normals is normals
        assert len(calls) == 2

    def test_polar_scale_and_repr_enumerate_nothing(self, pair, monkeypatch):
        P1, P2 = pair
        calls = _counting_hull(monkeypatch)
        for P in (P1.intersection(P2), P1.minkowski_sum(P2),
                  P1.linear_image(np.diag([1.0, 2.0, 3.0])),
                  inverse_sum_set(P1.polar(), P2.polar())):
            PP = P.polar().polar()
            assert "pending" in repr(P) and "pending" in repr(PP)
            assert "pending" in repr(P.scale(2.0).polar())
            assert P.dim == PP.dim == 3
        assert calls == []

    def test_held_side_never_changes(self, pair):
        # an intersection keeps every given halfspace, redundant or not,
        # and a sum every sum of vertices, extreme or not
        P1, P2 = pair
        X = P1.intersection(P2)
        normals = np.vstack([P1.normals, P2.normals])
        X.vertices
        assert np.array_equal(X.normals, normals)
        S = P1.minkowski_sum(P2)
        S.normals
        assert len(S.vertices) == len(P1.vertices) * len(P2.vertices)

    def test_identities_run_six_hulls(self, monkeypatch, capsys):
        # the two random balls, the Minkowski sum, the linear image and the
        # two sides of the inverse-sum check; bipolar, intersection,
        # scaling and cone-sum run none
        from gaugerec import cli
        calls = _counting_hull(monkeypatch)
        assert cli.main(["polar", "--dim", "3", "--seed", "1"]) == 0
        assert len(calls) == 6

    @pytest.mark.parametrize("make,side", [("intersection", "vertices"),
                                           ("minkowski_sum", "normals")])
    def test_read_validates_the_enumerated_side(self, pair, monkeypatch,
                                                make, side):
        # a hull whose offsets are halved puts the enumerated vertices of an
        # intersection outside its halfspaces, and the held points of a sum
        # outside its enumerated facets
        P1, P2 = pair
        real = polytopes._hull_equations

        def shrunk(points):
            normals, offsets, verts = real(points)
            return normals, 0.5 * offsets, verts

        monkeypatch.setattr(polytopes, "_hull_equations", shrunk)
        P = getattr(P1, make)(P2)
        for _ in range(2):   # a failed read leaves the side pending
            with pytest.raises(PolytopeError, match="a vertex violates"):
                getattr(P, side)
        assert "pending" in repr(P)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_lazy_matches_eager(self, d, rng):
        P1 = random_polytope(d, seed=410 + d)
        P2 = random_polytope(d, seed=420 + d)
        D = rng.standard_normal((d, d))
        Q1, Q2 = P1.polar(), P2.polar()
        A = Q1.normals / Q1.offsets[:, None]
        C = Q2.normals / Q2.offsets[:, None]
        pairs = (A[:, None, :] + C[None, :, :]).reshape(-1, d)
        cases = [
            (P1.intersection(P2), Polytope.from_halfspaces(
                np.vstack([P1.normals, P2.normals]),
                np.concatenate([P1.offsets, P2.offsets]))),
            (P1.minkowski_sum(P2), Polytope.from_vertices(
                (P1.vertices[:, None, :] + P2.vertices[None, :, :])
                .reshape(-1, d))),
            (P1.linear_image(D), Polytope.from_vertices(P1.vertices @ D.T)),
            (polytope_intersection_polar(P1, P2), Polytope.from_vertices(
                np.vstack([Q1.vertices, Q2.vertices]))),
            (inverse_sum_set(Q1, Q2),
             Polytope.from_halfspaces(pairs, np.ones(len(pairs)))),
        ]
        cases += [(lazy.polar(), eager.polar()) for lazy, eager in cases]
        for lazy, eager in cases:
            for u in rng.standard_normal((30, d)):
                assert _rel_close(lazy.support(u), eager.support(u))
                assert _rel_close(lazy.gauge(u), eager.gauge(u))

    def test_unbounded_polar_is_caught_on_read(self, monkeypatch):
        # the sum of two corner triangles has 0 on its boundary; its H-rep
        # is pending, so the check runs when the polar's V-rep is made
        corner = Polytope.from_vertices(np.array([[0.0, 0], [1, 0], [0, 1]]))
        Q = corner.minkowski_sum(corner).polar()
        with pytest.raises(UnboundedPolarError):
            Q.support(np.ones(2))


def _counting_qhull(monkeypatch):
    """Count the qhull runs from here on, starting from an empty memo."""
    polytopes._qhull.cache_clear()
    calls = []
    real = polytopes.ConvexHull

    def counted(points, *args, **kwargs):
        calls.append(len(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(polytopes, "ConvexHull", counted)
    return calls


def _hull_bytes(points):
    return [a.tobytes() for a in polytopes._hull_equations(points)]


class TestHullMemo:
    """Qhull runs once per point set; a hit is a fresh hull, bit for bit."""

    @pytest.mark.parametrize("joggled", [False, True])
    def test_hit_equals_fresh_hull(self, joggled, monkeypatch):
        if joggled:
            S = _dupridge_sum()
            points = S.normals / S.offsets[:, None]
        else:
            points = random_polytope(4, seed=3).minkowski_sum(
                random_polytope(4, seed=4)).vertices
        calls = _counting_qhull(monkeypatch)
        miss = _hull_bytes(points)
        hit = _hull_bytes(points)
        polytopes._qhull.cache_clear()
        fresh = _hull_bytes(points)
        assert miss == hit == fresh
        # the joggled set runs qhull twice (default options, then QJ)
        assert len(calls) == (4 if joggled else 2)

    def test_mutated_result_does_not_reach_next_hit(self, monkeypatch):
        points = random_polytope(3, seed=8).vertices
        calls = _counting_qhull(monkeypatch)
        expected = _hull_bytes(points)
        for a in polytopes._hull_equations(points):
            a[...] = 0.0
        P = Polytope.from_vertices(points)
        P.normals[...] = 0.0
        assert _hull_bytes(points) == expected
        assert len(calls) == 1

    def test_degenerate_set_raises_on_both_calls(self, monkeypatch):
        calls = _counting_qhull(monkeypatch)
        for _ in range(2):
            with pytest.raises(PolytopeError, match="degenerate"):
                polytopes._hull_equations(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert len(calls) == 4
        assert polytopes._qhull.cache_info().currsize == 0

    def test_memo_stays_bounded(self, monkeypatch, rng):
        sets = [rng.standard_normal((10, 3))
                for _ in range(polytopes.HULL_MEMO_SIZE + 3)]
        calls = _counting_qhull(monkeypatch)
        for points in sets:
            polytopes._hull_equations(points)
        assert (polytopes._qhull.cache_info().currsize
                == polytopes.HULL_MEMO_SIZE)
        polytopes._hull_equations(sets[-1])
        assert len(calls) == len(sets)
        polytopes._hull_equations(sets[0])
        assert len(calls) == len(sets) + 1

    def test_identities_run_four_qhulls(self, monkeypatch, capsys):
        # the two random balls, the Minkowski sum and the linear image: the
        # inverse-sum check finds the sum's points in the memo twice
        from gaugerec import cli
        calls = _counting_qhull(monkeypatch)
        assert cli.main(["polar", "--dim", "3", "--seed", "1"]) == 0
        assert calls == [26, 26, 108, 12]


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructors_reject(self, bad):
        pts = np.vstack([np.eye(2), -np.eye(2)])
        pts_bad = pts.copy()
        pts_bad[1, 0] = bad
        normals = np.vstack([np.eye(2), -np.eye(2)])
        offsets_bad = np.array([1.0, bad, 1.0, 1.0])
        P = Polytope.from_vertices(pts)
        for build in (
                lambda: Polytope.from_vertices(pts_bad),
                lambda: Polytope.from_halfspaces(normals, offsets_bad),
                lambda: Polytope(pts_bad, normals, np.ones(4)),
                lambda: Polytope.from_json_dict({"vertices": pts_bad}),
                lambda: P.linear_image(np.array([[1.0, 0.0], [bad, 1.0]]))):
            with pytest.raises(PolytopeError, match="non-finite"):
                build()

    @pytest.mark.parametrize("rho", [np.nan, np.inf, 0.0, -2.0])
    def test_scale_rejects(self, rho):
        with pytest.raises(PolytopeError, match="finite and positive"):
            random_polytope(2, seed=5).scale(rho)


@pytest.mark.parametrize("directions", [0, -3, 2.0, True, "5"])
def test_inverse_sum_check_needs_directions(directions):
    P = random_polytope(2, seed=6)
    with pytest.raises(ValueError, match="directions"):
        inverse_sum_polar_check(P, P, directions=directions)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-5, None, "1e-5"])
def test_inverse_sum_check_needs_tol(tol):
    P = random_polytope(2, seed=6)
    with pytest.raises(ValueError, match="tol"):
        inverse_sum_polar_check(P, P, tol=tol)


@pytest.mark.parametrize("call", [
    lambda P, Q: P.minkowski_sum(Q),
    lambda P, Q: P.intersection(Q),
    lambda P, Q: minkowski_sum_gauge(P, Q, np.ones(2)),
    lambda P, Q: inverse_sum_set(P.polar(), Q.polar()),
    lambda P, Q: inverse_sum_polar_check(P, Q),
    lambda P, Q: polytope_intersection_polar(P, Q)])
def test_mixed_dimensions_rejected(call):
    with pytest.raises(PolytopeError, match="got 2 and 3"):
        call(random_polytope(2, seed=6), random_polytope(3, seed=7))


DIAMOND = [[1, 0], [0, 1], [-1, 0], [0, -1]]


class TestJsonHull:
    def test_consistent_diamond_loads(self):
        data = {"vertices": DIAMOND, "halfspaces": [
            {"normal": n, "offset": 1} for n in
            ([1, 1], [-1, -1], [1, -1], [-1, 1])]}
        P = Polytope.from_json_dict(data)
        assert P.support([1, 0]) == P.gauge([1, 0]) == 1.0

    @pytest.mark.parametrize("halfspaces", [
        # the diamond scaled by 2: it holds the points, but its gauge at
        # (1, 0) is 0.5 where their support is 1
        [{"normal": n, "offset": 2} for n in
         ([1, 1], [-1, -1], [1, -1], [-1, 1])],
        # a single halfspace is not bounded
        [{"normal": [1, 1], "offset": 1}]])
    def test_halfspaces_larger_than_hull_rejected(self, halfspaces):
        with pytest.raises(PolytopeError, match="not the hull"):
            Polytope.from_json_dict({"vertices": DIAMOND,
                                     "halfspaces": halfspaces})

    def test_points_that_are_not_vertices_load(self):
        P = random_polytope(3, seed=77)
        data = P.to_json_dict()
        data["vertices"].append([0.0, 0.0, 0.0])
        Q = Polytope.from_json_dict(data)
        assert len(Q.vertices) == len(P.vertices) + 1
