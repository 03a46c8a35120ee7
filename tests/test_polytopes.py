import itertools
import json

import numpy as np
import pytest
from scipy.optimize import linprog

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
