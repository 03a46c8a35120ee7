import numpy as np
import pytest
import scipy.linalg

from gaugerec.gauges import (L1, Linf, GroupL1L2, PolyhedralH, Precomposed,
                             PositivePartMax, SumGauge, BlockPartition,
                             UnsupportedGaugeError)
from gaugerec.linalg import restricted_injectivity, svd_pinv
from gaugerec.lp import LpProblem, lp_solve
from gaugerec.model import decompose, decompose_l1, decompose_group, tv1d_gauge
from gaugerec.certificates import (check_noisy_optimality,
                                   check_noiseless_optimality,
                                   RestrictedInjectivityError)
from gaugerec import solvers
from gaugerec.solvers import (solve_penalized, solve_noiseless,
                              solve_restricted, SolveOptions)

from conftest import random_l1_instance


class TestPenalized:
    def test_identity_soft_threshold(self, rng):
        y = rng.standard_normal(6) * 2
        res = solve_penalized(np.eye(6), y, 0.8, L1(6))
        st = np.sign(y) * np.maximum(np.abs(y) - 0.8, 0.0)
        assert np.max(np.abs(res.x_hat - st)) <= 1e-12
        assert res.converged

    def test_large_lambda_gives_zero(self, rng):
        Phi = rng.standard_normal((5, 9))
        y = Phi @ rng.standard_normal(9)
        for g in (L1(9), Linf(9)):
            lam = g.polar(Phi.T @ y) * 1.01
            res = solve_penalized(Phi, y, lam, g)
            assert np.max(np.abs(res.x_hat)) <= 1e-12
            assert check_noisy_optimality(Phi, y, lam, res.x_hat, gauge=g) \
                != "not_optimal"

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_is_rejected_by_name(self, lam):
        y = np.array([2.0, 0.0, -1.0])
        with pytest.raises(ValueError, match="lam"):
            solve_penalized(np.eye(3), y, lam, L1(3))
        with pytest.raises(ValueError, match="lam"):
            check_noisy_optimality(np.eye(3), y, lam, y,
                                   md=decompose(L1(3), y))

    def test_linf_self_refinement(self, rng):
        Phi = rng.standard_normal((6, 10))
        y = Phi @ rng.standard_normal(10)
        res = solve_penalized(Phi, y, 0.5, Linf(10), SolveOptions(tol=1e-8))
        hi = solve_penalized(Phi, y, 0.5, Linf(10),
                             SolveOptions(tol=1e-12, max_iter=10 * res.iterations))

        def obj(x):
            r = y - Phi @ x
            return 0.5 * r @ r + 0.5 * Linf(10).value(x)

        assert obj(res.x_hat) <= obj(hi.x_hat) + 1e-8

    def test_objective_monotone_at_checkpoints(self, rng):
        Phi, x0 = random_l1_instance(77, 20, 12, 4)
        y = Phi @ x0 + 0.05 * rng.standard_normal(12)
        res = solve_penalized(Phi, y, 0.3, L1(20), SolveOptions(tol=1e-10))
        assert res.converged

        def obj(x):
            r = y - Phi @ x
            return 0.5 * r @ r + 0.3 * L1(20).value(x)

        # runs stopped every 10 iterations, up to the converged count
        for stop in range(10, res.iterations + 1, 10):
            early = solve_penalized(Phi, y, 0.3, L1(20),
                                    SolveOptions(tol=1e-10, max_iter=stop))
            assert obj(res.x_hat) <= obj(early.x_hat) + 1e-9

    def test_same_image_property(self, rng):
        # minimizers may differ, the measured image may not: FISTA on l1
        # against Chambolle-Pock on l1 pre-composed with the identity
        Phi, x0 = random_l1_instance(88, 18, 9, 4)
        y = Phi @ x0 + 0.1 * rng.standard_normal(9)
        r1 = solve_penalized(Phi, y, 0.25, L1(18), SolveOptions(tol=1e-10))
        r2 = solve_penalized(Phi, y, 0.25, Precomposed(L1(18), np.eye(18)),
                             SolveOptions(tol=1e-10))
        assert r1.converged and r2.converged
        assert (r1.method, r2.method) == ("fista", "pd")
        assert np.linalg.norm(Phi @ (r1.x_hat - r2.x_hat)) \
            <= 1e-6 * (1.0 + np.linalg.norm(y))

    def test_unsupported_route(self):
        with pytest.raises(UnsupportedGaugeError):
            solve_penalized(np.eye(3), np.ones(3), 1.0,
                            SumGauge([L1(3), Linf(3)]))

    def test_pd_route_on_a_prox_able_gauge(self):
        # Chambolle-Pock with K = I reaches FISTA's objective on l1
        Phi, x0 = random_l1_instance(3, 16, 10, 3)
        y = Phi @ x0 + 0.05 * np.random.default_rng(1).standard_normal(10)
        pd = solve_penalized(Phi, y, 0.3, Precomposed(L1(16), np.eye(16)),
                             SolveOptions(tol=1e-9))
        fista = solve_penalized(Phi, y, 0.3, L1(16), SolveOptions(tol=1e-12))
        assert pd.converged and pd.method == "pd"
        assert abs(solvers._objective(Phi, y, 0.3, L1(16), pd.x_hat)
                   - solvers._objective(Phi, y, 0.3, L1(16), fista.x_hat)) \
            <= 1e-8

    @pytest.mark.parametrize("analysis", [False, True])
    @pytest.mark.parametrize("lam", [0.1, 50.0])
    def test_pd_route_on_euclidean_norms(self, analysis, lam):
        # the Euclidean norm has a model decomposition (smooth off 0), so
        # Chambolle-Pock stops on the first-order conditions, not at
        # max_iter with infinite residuals
        from gaugerec.gauges import L2
        r = np.random.default_rng(3)
        Phi = r.standard_normal((5, 8))
        y = Phi @ r.standard_normal(8)
        g = Precomposed(L2(7), tv1d_gauge(8).dstar) if analysis else L2(8)
        res = solve_penalized(Phi, y, lam, g, SolveOptions(max_iter=20000))
        assert res.converged and res.iterations < 20000
        md = decompose(g, res.x_hat)
        assert check_noisy_optimality(Phi, y, lam, res.x_hat, md=md,
                                      eq_tol=1e-6) != "not_optimal"

    @pytest.mark.parametrize("kind", ["group", "tv", "poly"])
    def test_converged_passes_first_order_check(self, kind, rng):
        for seed in range(5):
            r = np.random.default_rng(900 + seed)
            if kind == "group":
                part = BlockPartition([[0, 1], [2, 3], [4, 5], [6, 7]], 8)
                g = GroupL1L2(part)
                n = 8
            elif kind == "tv":
                g = tv1d_gauge(8)
                n = 8
            else:
                g = PolyhedralH(r.standard_normal((8, 12)))
                n = 8
            Phi = r.standard_normal((6, n))
            y = Phi @ r.standard_normal(n)
            res = solve_penalized(Phi, y, 0.4, g, SolveOptions(tol=1e-8))
            assert res.converged
            md = decompose(g, res.x_hat)
            assert check_noisy_optimality(Phi, y, 0.4, res.x_hat, md=md,
                                          eq_tol=1e-6) != "not_optimal"


def _penalized_instance(kind, seed):
    """(Phi, y, lam, g) drawn like the criterion-9 mix: n = 20, Q = 12."""
    r = np.random.default_rng([seed, 5])
    Phi = r.standard_normal((12, 20))
    xs = r.standard_normal(20)
    if kind == "l1":
        g = L1(20)
        xs[r.choice(20, 10, replace=False)] = 0.0
    elif kind == "group":
        g = GroupL1L2(BlockPartition([[2 * b, 2 * b + 1] for b in range(10)],
                                     20))
        for b in r.choice(10, 5, replace=False):
            xs[2 * b:2 * b + 2] = 0.0
    elif kind == "linf":
        g = Linf(20)
    elif kind == "tv":
        g = tv1d_gauge(20)
        xs = np.repeat(r.standard_normal(4), 5)
    elif kind == "linf-analysis":
        g = Precomposed(Linf(24), r.standard_normal((24, 20)))
    else:
        g = PolyhedralH(r.standard_normal((20, 24)))
    y = Phi @ xs + 0.1 * r.standard_normal(12)
    return Phi, y, float(r.uniform(0.2, 1.2)), g


# solve_penalized on _penalized_instance(kind, 3): iterations and converged
# flags as the sort-and-loop kernels gave them (tv and poly with the exit on
# the dual iterate's face), and the l1 / linf x_hat bits
# (those of a build with OpenBLAS; another BLAS may move the last bits)
PINNED_ITERATIONS = {"l1": 100, "group": 200, "linf": 500, "tv": 200,
                     "poly": 500}
PINNED_X_HAT = {
    "l1": [
        '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '-0x1.a94c244d85b40p-4',
        '0x0.0p+0', '0x1.54d4d7e699640p-5',
        '0x1.b5f58555a3894p-1', '0x0.0p+0',
        '-0x1.ed891b02e6e3ep-1', '-0x1.25dbdca1e78e6p-1',
        '0x0.0p+0', '-0x1.2c9e87a9fd112p-1',
        '-0x1.5f463abe8ab20p-4', '0x1.3813f0a6f0680p-4',
        '0x1.1a2b2df13b4d0p-2', '0x0.0p+0',
        '-0x1.0c0c6a2da876ep+0', '0x1.00f99c148e5ddp-1',
        '0x1.4a56c310d0a10p-4', '0x0.0p+0',
    ],
    "linf": [
        '0x1.12b5688332f61p+0', '0x1.0cabf12890d5cp+0',
        '0x1.12b5688332f61p+0', '-0x1.12b5688332f61p+0',
        '0x1.4b2a219c767b4p-3', '-0x1.12b5688332f61p+0',
        '0x1.12b5688332f61p+0', '0x1.dbacf4343712dp-1',
        '-0x1.4551ece11a178p-1', '-0x1.740d4a0c05703p-1',
        '-0x1.939372d76f1dcp-1', '0x1.ac184a1b1c57bp-2',
        '0x1.12b5688332f61p+0', '-0x1.12b5688332f61p+0',
        '0x1.ce368792bb960p-3', '-0x1.12b5688332f61p+0',
        '-0x1.12b5688332f61p+0', '0x1.86588fc33eb4cp-1',
        '-0x1.879b2cb1c4048p-3', '-0x1.0abc04396d212p-2',
    ],
}


class TestInputChecks:
    """Inputs are checked before any work, naming the argument."""

    PHI = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])

    @pytest.mark.parametrize("y", [[5.0], 5.0, [5.0, 0.0, 1.0],
                                   [[5.0, 0.0]]])
    def test_y_must_have_one_entry_per_row(self, y):
        Phi, x, g = self.PHI, np.array([5.0, 0.0, 0.0]), L1(3)
        md = decompose(g, x)
        for call in (lambda: solve_penalized(Phi, y, 0.5, g),
                     lambda: solve_noiseless(Phi, y, g),
                     lambda: solve_restricted(Phi, y, 0.5, md),
                     lambda: check_noisy_optimality(Phi, y, 0.5, x, md=md),
                     lambda: check_noisy_optimality(Phi, y, 0.5, np.zeros(3),
                                                    gauge=g),
                     lambda: check_noiseless_optimality(Phi, y, x, md)):
            with pytest.raises(ValueError, match="^y must have one entry"):
                call()

    def test_x_and_gauge_must_have_one_entry_per_column(self):
        y = np.array([5.0, 0.0])
        md = decompose(L1(3), np.array([5.0, 0.0, 0.0]))
        for x in (np.array([5.0, 0.0]), np.ones((3, 1))):
            with pytest.raises(ValueError, match="^x must have one entry"):
                check_noisy_optimality(self.PHI, y, 0.5, x, md=md)
            with pytest.raises(ValueError, match="^x must have one entry"):
                check_noiseless_optimality(self.PHI, y, x, md)
        for call in (lambda: solve_penalized(self.PHI, y, 0.5, L1(4)),
                     lambda: solve_noiseless(self.PHI, y, Linf(2)),
                     lambda: solve_restricted(
                         self.PHI, y, 0.5, decompose(L1(4), np.ones(4))),
                     lambda: check_noisy_optimality(self.PHI, y, 0.5,
                                                    np.zeros(3),
                                                    gauge=L1(4))):
            with pytest.raises(ValueError, match="regularizer has dimension"):
                call()

    @pytest.mark.parametrize("lam", [np.nan, -1.0, 0.0])
    def test_restricted_lambda_is_rejected_by_name(self, lam):
        # a nan lam used to give an all-nan x_hat with converged=True
        md = decompose(L1(3), np.array([5.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="^lam must"):
            solve_restricted(self.PHI, np.array([5.0, 0.0]), lam, md)

    def test_phi_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="^Phi must be a 2-d array"):
            solve_penalized(np.ones(3), np.ones(3), 0.5, L1(3))

    def test_a_broadcastable_y_no_longer_solves_another_problem(self):
        # y = [5] used to be broadcast to [5, 5] and "converge"
        with pytest.raises(ValueError, match="^y must"):
            solve_penalized(self.PHI, np.array([5.0]), 0.5, L1(3))
        res = solve_penalized(self.PHI, np.array([5.0, 0.0]), 0.5, L1(3))
        assert res.converged and np.allclose(res.x_hat, [4.5, 0.0, 0.0])

    @pytest.mark.parametrize("kw", [
        {"tol": np.nan}, {"tol": np.inf}, {"tol": -1.0}, {"tol": "1e-8"},
        {"max_iter": 0}, {"max_iter": -5}, {"max_iter": 2.5},
        {"max_iter": True}, {"max_iter": None}])
    def test_options_are_rejected_by_name(self, kw):
        with pytest.raises(ValueError, match=f"^{next(iter(kw))} must"):
            SolveOptions(**kw)

    @pytest.mark.parametrize("kind", ["l1", "linf", "group", "tv", "poly"])
    def test_an_overflowing_phi_is_a_solver_error(self, kind):
        # ||Phi||^2 (FISTA) and I + tau Phi^T Phi (Chambolle-Pock) overflow:
        # an OverflowError and scipy's "array must not contain infs" before
        g = {"l1": L1(3), "linf": Linf(3),
             "group": GroupL1L2(BlockPartition([[0], [1, 2]], 3)),
             "tv": tv1d_gauge(3),
             "poly": PolyhedralH(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0],
                                           [0.0, 0.0, 1.0]]))}[kind]
        with pytest.raises(solvers.SolverError, match="scale of Phi"):
            solve_penalized(1e160 * self.PHI, np.array([5.0, 0.0]), 0.5, g)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("row, g, what", [
        ([1.0, 1.0, 1.0], L1(3), "the FISTA step"),
        ([1.0, 1.0, 1.0], tv1d_gauge(3), "the least-squares prox"),
        ([0.0, 1.0, 1.0], tv1d_gauge(3), "the Chambolle-Pock iterate")])
    def test_a_y_at_the_edge_of_the_range_is_a_solver_error(self, row, g,
                                                            what):
        # the last of these used to end in check_finite's "x contains NaN"
        Phi = np.array([[1.0, 0.0, 0.0], row])
        with pytest.raises(solvers.SolverError,
                           match=f"^{what}.*scale of Phi.*or of y"):
            solve_penalized(Phi, np.array([1.7e308, 1.7e308]), 0.5, g)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_non_finite_iterate_is_a_solver_error(self, monkeypatch):
        # the 5th prox returns +inf; the restart test of iteration 10 names
        # the iterate before the objective's own input check can reject it
        calls = []
        prox = L1._prox

        def blow_up(self, lam, v):
            calls.append(1)
            return np.full_like(v, np.inf) if len(calls) == 5 else \
                prox(self, lam, v)

        monkeypatch.setattr(L1, "_prox", blow_up)
        with pytest.raises(solvers.SolverError,
                           match="iterate at iteration 10 is not finite"):
            solve_penalized(self.PHI, np.array([5.0, 0.0]), 0.5, L1(3),
                            SolveOptions(tol=0.0))

    def test_options_accept_their_limits(self):
        opts = SolveOptions(tol=0, max_iter=np.int64(1))
        assert opts.tol == 0.0 and opts.max_iter == 1


class TestPinnedIterates:
    @pytest.mark.parametrize("kind", sorted(PINNED_ITERATIONS))
    def test_iterations_and_bits(self, kind):
        Phi, y, lam, g = _penalized_instance(kind, 3)
        tol = 1e-8 if kind in ("l1", "group", "linf") else 1e-7
        res = solve_penalized(Phi, y, lam, g, SolveOptions(tol=tol))
        assert res.converged
        assert res.iterations == PINNED_ITERATIONS[kind]
        assert res.method == ("pd" if kind in ("tv", "poly") else "fista")
        if kind in PINNED_X_HAT:
            assert [v.hex() for v in res.x_hat] == PINNED_X_HAT[kind]


class TestSplittingKernels:
    def test_forward_step_matches_two_matvecs(self, rng):
        for q, n in ((12, 20), (5, 5), (30, 8)):
            Phi = rng.standard_normal((q, n)) * rng.choice([0.01, 1.0, 100.0])
            y = rng.standard_normal(q)
            step = 1.0 / np.linalg.norm(Phi, 2) ** 2
            M, c = solvers._forward_step(Phi, y, step)
            for _ in range(5):
                z = rng.standard_normal(n) * 3
                ref = z - step * (Phi.T @ (Phi @ z - y))
                assert np.abs(M @ z + c - ref).max() <= \
                    1e-12 * (1 + np.abs(ref).max())

    def test_least_squares_prox_matches_cholesky_solve(self, rng):
        for q, n in ((12, 20), (5, 5), (30, 8)):
            Phi = rng.standard_normal((q, n))
            y = rng.standard_normal(q)
            for tau in (1e-3, 0.37, 25.0):
                prox = solvers._least_squares_prox(Phi, y, tau)
                chol = scipy.linalg.cho_factor(np.eye(n) + tau * (Phi.T @ Phi))
                for _ in range(5):
                    v = rng.standard_normal(n) * 3
                    ref = scipy.linalg.cho_solve(chol, v + tau * (Phi.T @ y))
                    assert np.abs(prox(v) - ref).max() <= \
                        1e-12 * (1 + np.abs(ref).max())

    def test_group_dual_projection_matches_block_loop(self, rng):
        # uneven, shuffled blocks, one of them empty
        part = BlockPartition([[5], [0, 6, 3], [], [1], [4, 2]], 7)
        _, proj, _ = solvers._splitting_pieces(GroupL1L2(part))
        for _ in range(200):
            p = rng.standard_normal(7) * rng.choice([0.1, 1.0, 10.0])
            p[rng.random(7) < 0.2] = 0.0
            lam = float(rng.uniform(0.05, 3.0))
            ref = p.copy()
            for b in part:
                nb = np.linalg.norm(p[b])
                if nb > lam:
                    ref[b] *= lam / nb
            out = proj(p, lam)
            assert np.abs(out - ref).max() <= 1e-15 * (1 + np.abs(p).max())
            inside = [np.linalg.norm(p[b]) <= lam for b in part]
            for b, keep in zip(part, inside):
                if keep:
                    assert np.array_equal(out[b], p[b])


class TestPolishedExit:
    @pytest.mark.parametrize("kind", ["l1", "group", "linf"])
    def test_polished_point_is_as_good_as_a_tight_run(self, kind,
                                                      monkeypatch):
        outcomes = []
        polish = solvers._polish

        def spy(*args):
            out = polish(*args)
            outcomes.append(out)
            return out

        monkeypatch.setattr(solvers, "_polish", spy)
        for seed in range(4):
            Phi, y, lam, g = _penalized_instance(kind, seed)

            def obj(x):
                r = y - Phi @ x
                return 0.5 * r @ r + lam * g.value(x)

            outcomes.clear()
            res = solve_penalized(Phi, y, lam, g, SolveOptions(tol=1e-8))
            assert res.converged and res.method == "fista"
            # the exit was the polished candidate, not the iterate
            assert outcomes and outcomes[-1] is not None
            assert res.x_hat is outcomes[-1][0]
            assert res.iterations % 100 == 0
            tight = solve_penalized(Phi, y, lam, g, SolveOptions(tol=1e-12))
            assert tight.converged
            assert obj(res.x_hat) <= obj(tight.x_hat) + 1e-10

    @pytest.mark.parametrize("kind", ["tv", "poly", "linf-analysis"])
    def test_face_candidate_is_as_good_as_a_tight_run(self, kind,
                                                      monkeypatch):
        candidates = []
        face_candidate = solvers._face_candidate
        splitting_pieces = solvers._splitting_pieces

        def spy(*args):
            candidates.append(face_candidate(*args))
            return candidates[-1]

        def without_face(g):
            K, proj, _ = splitting_pieces(g)
            return K, proj, None

        for seed in range(4):
            Phi, y, lam, g = _penalized_instance(kind, seed)
            candidates.clear()
            monkeypatch.setattr(solvers, "_face_candidate", spy)
            res = solve_penalized(Phi, y, lam, g, SolveOptions(tol=1e-7))
            assert res.converged and res.method == "pd"
            # the exit was the dual face's candidate, not the iterate
            assert candidates and res.x_hat is candidates[-1]
            assert res.iterations % 100 == 0
            eq, slack = solvers._first_order_residuals(Phi, y, lam, g,
                                                       res.x_hat)
            assert (eq, slack) == (res.primal_residual, res.dual_residual)
            # the iterate alone, held to a tighter test
            monkeypatch.setattr(solvers, "_splitting_pieces", without_face)
            tight = solve_penalized(Phi, y, lam, g,
                                    SolveOptions(tol=1e-9, max_iter=100000))
            monkeypatch.setattr(solvers, "_splitting_pieces",
                                splitting_pieces)
            assert tight.converged
            assert solvers._objective(Phi, y, lam, g, res.x_hat) <= \
                solvers._objective(Phi, y, lam, g, tight.x_hat) + 1e-10

    @pytest.mark.parametrize("kind", ["tv", "poly"])
    def test_a_wrong_face_is_never_returned(self, kind, monkeypatch):
        # tv: flip the sign of a clipped dual entry; poly: drop the last
        # active atom.  Each wrong candidate fails the first-order test, and
        # the solve goes on to a point that passes it
        built = []
        face_candidate = solvers._face_candidate

        def wrong(Phi, y, K, p, C):
            p = p.copy()
            if kind == "tv":
                clipped = np.flatnonzero(np.abs(p) == lam)
                if clipped.size:
                    p[clipped[0]] = -p[clipped[0]]
            elif C.shape[0]:
                p[np.flatnonzero(p)[-1]] = 0.0
                C = C[:-1]
            built.append(face_candidate(Phi, y, K, p, C))
            return built[-1]

        monkeypatch.setattr(solvers, "_face_candidate", wrong)
        for seed in range(4):
            Phi, y, lam, g = _penalized_instance(kind, seed)
            built.clear()
            res = solve_penalized(Phi, y, lam, g, SolveOptions(tol=1e-7))
            assert built
            assert all(res.x_hat is not cand for cand in built)
            assert res.converged
            eq, slack = solvers._first_order_residuals(Phi, y, lam, g,
                                                       res.x_hat)
            assert max(eq, slack) <= 1e-7

    def test_identified_l1_model_exits_at_the_first_check(self):
        # FISTA alone needs 1300 iterations here; its support and signs are
        # right after 100, so the first check returns the polished point
        Phi, x0 = random_l1_instance(2, 20, 12, 3)
        y = Phi @ x0 + 0.05 * np.random.default_rng(2).standard_normal(12)
        res = solve_penalized(Phi, y, 0.5, L1(20))
        assert res.converged
        assert res.iterations == 100
        assert max(res.primal_residual, res.dual_residual) <= 1e-8


class TestNoiseless:
    def test_identity(self):
        y = np.array([1.0, -2.0, 0.0])
        res = solve_noiseless(np.eye(3), y, L1(3))
        assert np.allclose(res.x_hat, y, atol=1e-9)

    def test_certified_l1_instance(self):
        Phi = np.array([[1.0, 0, 0], [0, 1, 1]])
        y = Phi @ np.array([5.0, 0, 0])
        res = solve_noiseless(Phi, y, L1(3))
        assert np.allclose(res.x_hat, [5, 0, 0], atol=1e-9)

    @pytest.mark.parametrize("phi_kind", ["wide", "square", "dup_row"])
    @pytest.mark.parametrize("kind", ["linf", "polyhedral", "precomposed_linf",
                                      "positive_part_max"])
    def test_linf_matches_direct_lp(self, rng, kind, phi_kind):
        n = 7
        if kind == "linf":
            g = Linf(n)
            A = np.vstack([np.eye(n), -np.eye(n)])
        elif kind == "positive_part_max":
            # its own base: the atoms are the coordinate functionals
            g = PositivePartMax(n)
            A = np.eye(n)
        elif kind == "polyhedral":
            # columns I and -1 positively span R^n, so the ball is bounded
            H = np.hstack([np.eye(n), -np.ones((n, 1)),
                           rng.standard_normal((n, 5))])
            g = PolyhedralH(H)
            A = H.T
        else:
            dstar = rng.standard_normal((9, n))
            g = Precomposed(Linf(9), dstar)
            A = np.vstack([dstar, -dstar])
        if phi_kind == "wide":
            Phi = rng.standard_normal((4, n))
        elif phi_kind == "square":          # Ker(Phi) = {0}
            Phi = rng.standard_normal((n, n))
        else:                               # rank 4 with a redundant row
            Phi = rng.standard_normal((4, n))
            Phi = np.vstack([Phi, Phi[:1]])
        Q = Phi.shape[0]
        y = Phi @ rng.standard_normal(n)
        res = solve_noiseless(Phi, y, g)
        assert res.method == "lp"
        assert np.linalg.norm(Phi @ res.x_hat - y) <= 1e-9 * (1 + np.linalg.norm(y))
        # independent LP in the epigraph form assembled by hand
        m = A.shape[0]
        c = np.zeros(n + 1)
        c[-1] = 1.0
        a_ub = np.hstack([A, -np.ones((m, 1))])
        a_eq = np.hstack([Phi, np.zeros((Q, 1))])
        ref = lp_solve(LpProblem(c, a_ub=a_ub, b_ub=np.zeros(m), a_eq=a_eq,
                                 b_eq=y, bounds=[(None, None)] * n + [(0, None)]))
        assert abs(g.value(res.x_hat) - ref.value) <= 1e-9

    def test_infeasible_y(self, rng):
        Phi = np.array([[1.0, 0.0], [1.0, 0.0]])   # rank 1
        with pytest.raises(ValueError):
            solve_noiseless(Phi, np.array([1.0, 2.0]), L1(2))

    # x_hat of the parent's lstsq / null_space route on this instance
    RANK_DEFICIENT_X_HAT = {
        "linf": [0.8654697554499362, -0.8654697554499362, 0.8654697554499362,
                 0.8654697554499363, 0.4687623279750147, -0.021687324333551666,
                 -0.8654697554499362, 0.7663505336709238, 0.22259648630879436],
        "l1": [0.9316327995815962, -1.8082215199051188, 0.0,
               0.9503622509235806, 0.0, 0.0, -0.5415445497089784,
               0.38167829240460804, 0.0],
    }

    @pytest.mark.parametrize("kind", ["linf", "l1"])
    def test_rank_deficient_phi(self, kind):
        rng = np.random.default_rng(2113)
        Phi = rng.standard_normal((5, 9))
        Phi = np.vstack([Phi, Phi[2]])             # rank 5 with 6 rows
        x0 = np.array([1.0, -1.0, 0.3, 1.0, -0.2, 0.1, -1.0, 0.4, 0.0])
        g = Linf(9) if kind == "linf" else L1(9)
        res = solve_noiseless(Phi, Phi @ x0, g)
        assert res.method == "lp"
        assert np.max(np.abs(res.x_hat - self.RANK_DEFICIENT_X_HAT[kind])) \
            <= 1e-10
        y_off = Phi @ x0
        y_off[-1] += 1e-3                          # breaks the repeated row
        with pytest.raises(ValueError, match="y is not in the range of Phi"):
            solve_noiseless(Phi, y_off, g)

    def test_group_primal_dual(self, rng):
        part = BlockPartition([[0, 1], [2, 3], [4, 5]], 6)
        g = GroupL1L2(part)
        Phi = rng.standard_normal((4, 6))
        x0 = np.zeros(6)
        x0[:2] = [1.0, -1.0]
        y = Phi @ x0
        res = solve_noiseless(Phi, y, g, SolveOptions(tol=1e-9))
        assert res.converged
        assert g.value(res.x_hat) <= g.value(x0) + 1e-6
        assert np.linalg.norm(Phi @ res.x_hat - y) <= 1e-7 * (1 + np.linalg.norm(y))

    def test_tv_lp(self, rng):
        g = tv1d_gauge(6)
        Phi = rng.standard_normal((4, 6))
        x0 = np.repeat([1.0, 3.0], 3)
        y = Phi @ x0
        res = solve_noiseless(Phi, y, g)
        assert res.method == "lp"
        assert g.value(res.x_hat) <= g.value(x0) + 1e-9


class TestRestricted:
    def test_small_lambda_limit(self, rng):
        Phi, x0 = random_l1_instance(7, 10, 8, 3)
        md, _ = decompose_l1(x0)
        res = solve_restricted(Phi, Phi @ x0, 1e-10, md)
        assert np.max(np.abs(res.x_hat - x0)) <= 1e-7

    def test_orthonormal_shrinkage(self, rng):
        x0 = np.zeros(6)
        x0[:2] = [3.0, -2.0]
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        md, _ = decompose_l1(x0)
        res = solve_restricted(Q, Q @ x0, 0.25, md)
        expect = x0 - 0.25 * np.sign(x0) * (np.abs(x0) > 0)
        assert np.max(np.abs(res.x_hat - expect)) <= 1e-9

    def test_group_fixed_point_residual(self, rng):
        part = BlockPartition([[0, 1], [2, 3]], 4)
        g = GroupL1L2(part)
        x0 = np.array([2.0, 1.0, 1.5, -0.5])
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        md = decompose(g, x0)
        res = solve_restricted(Q, Q @ x0 + 0.01 * rng.standard_normal(4),
                               0.05, md)
        assert res.converged
        # Newton's solution satisfies the stationarity equation on T
        assert res.primal_residual <= 1e-12

    def test_group_newton_with_dim_t_above_q(self, rng):
        # dim T = 6 > Q = 3: Phi_T has a kernel, yet the Hessian
        # M^T M + lam blockdiag((I - u u^T) / ||c_b||) is nonsingular.
        # c_star is made stationary by putting lam * u_star in the range of
        # M^T, so it is the unique minimizer on T
        part = BlockPartition([[0, 1], [2, 3], [4, 5], [6, 7]], 8)
        g = GroupL1L2(part)
        lam = 0.3
        c_star = np.array([1.0, -2.0, 0.5, 1.5, -1.0, 0.25])
        u_star = np.concatenate([c_star[b] / np.linalg.norm(c_star[b])
                                 for b in ([0, 1], [2, 3], [4, 5])])
        M = np.column_stack([u_star, rng.standard_normal((6, 2))]).T
        Phi = np.hstack([M, rng.standard_normal((3, 2))])
        y = M @ c_star + lam * np.array([1.0, 0.0, 0.0])
        x_star = np.concatenate([c_star, np.zeros(2)])
        md = decompose(g, x_star + 0.2 * rng.standard_normal(8)
                       * (np.arange(8) < 6))
        assert md.T.dim == 6 > Phi.shape[0]
        res = solve_restricted(Phi, y, lam, md)
        assert res.converged and res.method == "newton"
        assert res.primal_residual <= 1e-12
        assert np.max(np.abs(res.x_hat - x_star)) <= 1e-9

    def test_group_newton_failure_is_finite(self):
        # the minimizer on T wants the second block to vanish, so Newton
        # cannot converge on T; it stops with finite residuals
        part = BlockPartition([[0, 1], [2, 3]], 4)
        g = GroupL1L2(part)
        x = np.array([3.0, 1.0, 0.01, 0.01])
        md = decompose(g, x)
        res = solve_restricted(np.eye(4), x, 1.0, md)
        assert not res.converged
        assert np.isfinite(res.primal_residual)
        assert np.all(np.isfinite(res.x_hat))

    def test_group_newton_gives_up_on_a_wrong_model(self, monkeypatch):
        # the instance of test_group_newton_failure_is_finite: the first
        # Newton step must be damped below 1/2, so Newton stops after one
        # eigh where it used to take up to 50 damped steps
        calls = []
        eigh = np.linalg.eigh

        def spy(H):
            calls.append(H.shape)
            return eigh(H)

        monkeypatch.setattr(solvers.np.linalg, "eigh", spy)
        part = BlockPartition([[0, 1], [2, 3]], 4)
        x = np.array([3.0, 1.0, 0.01, 0.01])
        md = decompose(GroupL1L2(part), x)
        res = solve_restricted(np.eye(4), x, 1.0, md)
        assert not res.converged and res.method == "newton"
        assert 1 <= len(calls) <= 2
        assert res.iterations == len(calls) - 1
        assert np.isfinite(res.primal_residual)

    @pytest.mark.parametrize("seed", range(8))
    def test_group_newton_matches_block_loop(self, seed):
        # uneven, shuffled blocks, one of them empty: the bincount block
        # norms and the masked Hessian give the steps of a per-block loop
        part = BlockPartition([[5], [0, 6, 3], [], [1], [4, 2], [9, 7],
                               [8]], 10)
        r = np.random.default_rng(seed)
        x = 3.0 * r.standard_normal(10)
        for b in r.choice(7, 3, replace=False):
            x[part.blocks[b]] = 0.0
        md = decompose(GroupL1L2(part), x)
        Phi = r.standard_normal((8, 10))
        y = Phi @ x + 0.05 * r.standard_normal(8)
        lam = float(r.uniform(0.05, 0.5))
        res = solvers._group_newton(Phi, y, lam, md, 1e-12)
        ref = _group_newton_block_loop(Phi, y, lam, md, part)
        assert res.iterations == ref[1]
        assert np.abs(res.x_hat - ref[0]).max() <= \
            1e-12 * (1 + np.abs(ref[0]).max())

    @pytest.mark.parametrize("kind", ["l1", "linf", "tv", "linf-analysis",
                                      "poly"])
    def test_one_svd_keeps_the_two_svd_bits(self, kind):
        # the injectivity gate and the pseudo-inverse used to come from two
        # SVDs of Phi_T; x_hat from their shared SVD keeps the same bits
        Phi, y, lam, g = _penalized_instance(kind, 4)
        res = solve_penalized(Phi, y, lam, g, SolveOptions(tol=1e-8))
        md = decompose(g, res.x_hat)
        if not restricted_injectivity(Phi, md.T):
            with pytest.raises(RestrictedInjectivityError):
                solve_restricted(Phi, y, lam, md)
            return
        U = md.T.basis
        Mp = svd_pinv(Phi @ U)
        ref = U @ (Mp @ (y - lam * (Mp.T @ (U.T @ md.e))))
        assert np.array_equal(solve_restricted(Phi, y, lam, md).x_hat, ref)

    def test_non_injective_phi_t_raises(self, rng):
        Phi, x0 = random_l1_instance(9, 12, 5, 6)   # rank 5 < dim T = 6
        md, _ = decompose_l1(x0)
        assert not restricted_injectivity(Phi, md.T)
        with pytest.raises(RestrictedInjectivityError):
            solve_restricted(Phi, Phi @ x0, 0.1, md)

    def test_group_singular_hessian_raises(self):
        # blocks of size one add nothing to the Hessian, and Phi vanishes
        # on T, so the restricted problem is not strongly convex there
        part = BlockPartition([[0], [1]], 2)
        md = decompose(GroupL1L2(part), np.array([1.0, -1.0]))
        with pytest.raises(RestrictedInjectivityError):
            solve_restricted(np.zeros((3, 2)), np.ones(3), 0.5, md)


def _group_newton_block_loop(Phi, y, lam, md, part, max_iter=50):
    """(x, steps) of the damped Newton method of ``_group_newton``, with the
    gradient and Hessian assembled one block at a time."""
    U = md.T.basis
    M = Phi @ U
    G = M.T @ M
    Mty = M.T @ y
    blocks = [cols for cols in (np.flatnonzero(np.any(U[b] != 0.0, axis=0))
                                for b in part) if cols.size]

    def gradient(c):
        unit = np.zeros_like(c)
        for cols in blocks:
            nb = np.linalg.norm(c[cols])
            if nb == 0.0:
                return None
            unit[cols] = c[cols] / nb
        return G @ c - Mty + lam * unit

    def hessian(c):
        H = G.copy()
        for cols in blocks:
            nb = np.linalg.norm(c[cols])
            u = c[cols] / nb
            H[np.ix_(cols, cols)] += (lam / nb) * (np.eye(cols.size)
                                                   - np.outer(u, u))
        return H

    c = U.T @ md.x
    grad = gradient(c)
    floor = 64.0 * np.finfo(float).eps * (
        np.abs(G).sum(axis=1).max(initial=0.0) * np.abs(c).max(initial=0.0)
        + np.abs(Mty).max(initial=0.0) + lam)
    steps = 0
    while steps < max_iter:
        gn = np.abs(grad).max(initial=0.0)
        if gn <= floor:
            break
        w, V = np.linalg.eigh(hessian(c))
        step = -(V @ ((V.T @ grad) / w))
        for t in (1.0, 0.5):
            trial = gradient(c + t * step)
            if trial is not None and \
                    np.abs(trial).max(initial=0.0) <= (1.0 - 1e-4 * t) * gn:
                break
        else:
            break
        c = c + t * step
        grad = trial
        steps += 1
    return U @ c, steps
