import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from gaugerec.gauges import (L1, L2, Linf, GroupL1L2, PolyhedralH,
                             Precomposed, PositivePartMax, SumGauge,
                             BlockPartition, UnsupportedGaugeError)
from gaugerec.linalg import restricted_injectivity, svd_pinv
from gaugerec.lp import LpProblem, lp_solve
from gaugerec.model import decompose, decompose_l1, decompose_group, tv1d_gauge
from gaugerec.certificates import (check_noisy_optimality,
                                   check_noiseless_optimality,
                                   RestrictedInjectivityError)
from gaugerec import solvers
from gaugerec.solvers import (solve_penalized, solve_noiseless,
                              solve_restricted, SolveOptions)

from conftest import random_l1_instance, tie_heavy_instance, active_set_solve


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
        # FISTA itself: solve_penalized takes the max-abs path
        Phi = rng.standard_normal((6, 10))
        y = Phi @ rng.standard_normal(10)
        res = solvers._fista(Phi, y, 0.5, Linf(10), SolveOptions(tol=1e-8))
        hi = solvers._fista(Phi, y, 0.5, Linf(10),
                            SolveOptions(tol=1e-12,
                                         max_iter=10 * res.iterations))

        def obj(x):
            r = y - Phi @ x
            return 0.5 * r @ r + 0.5 * Linf(10).value(x)

        assert obj(res.x_hat) <= obj(hi.x_hat) + 1e-8

    def test_objective_monotone_at_checkpoints(self, rng):
        # FISTA itself: solve_penalized takes the l1 path, whose early
        # stops would compare exact solutions with each other
        Phi, x0 = random_l1_instance(77, 20, 12, 4)
        y = Phi @ x0 + 0.05 * rng.standard_normal(12)
        res = solvers._fista(Phi, y, 0.3, L1(20), SolveOptions(tol=1e-10))
        assert res.converged

        def obj(x):
            r = y - Phi @ x
            return 0.5 * r @ r + 0.3 * L1(20).value(x)

        # runs stopped every 10 iterations, up to the converged count
        for stop in range(10, res.iterations + 1, 10):
            early = solvers._fista(Phi, y, 0.3, L1(20),
                                   SolveOptions(tol=1e-10, max_iter=stop))
            assert obj(res.x_hat) <= obj(early.x_hat) + 1e-9

    def test_same_image_property(self, rng):
        # minimizers may differ, the measured image may not: the l1 path
        # against the active set on the blocks of l1 pre-composed with the
        # identity
        Phi, x0 = random_l1_instance(88, 18, 9, 4)
        y = Phi @ x0 + 0.1 * rng.standard_normal(9)
        r1 = solve_penalized(Phi, y, 0.25, L1(18), SolveOptions(tol=1e-10))
        r2 = active_set_solve(Phi, y, 0.25, Precomposed(L1(18), np.eye(18)),
                               SolveOptions(tol=1e-10))
        assert r1.converged and r2.converged
        assert (r1.method, r2.method) == ("path", "active-set")
        assert np.linalg.norm(Phi @ (r1.x_hat - r2.x_hat)) \
            <= 1e-6 * (1.0 + np.linalg.norm(y))

    def test_unsupported_route(self):
        with pytest.raises(UnsupportedGaugeError,
                           match=r"part 1 \(L2\) of the sum has no atom"):
            solve_penalized(np.eye(3), np.ones(3), 1.0,
                            SumGauge([L1(3), L2(3)]))

    def test_pd_route_on_a_prox_able_gauge(self):
        # Chambolle-Pock with K = I reaches FISTA's objective on group l1-l2
        Phi, x0 = random_l1_instance(3, 16, 10, 3)
        y = Phi @ x0 + 0.05 * np.random.default_rng(1).standard_normal(10)
        g = GroupL1L2(BlockPartition([[2 * b, 2 * b + 1] for b in range(8)],
                                     16))
        pd = solve_penalized(Phi, y, 0.3, Precomposed(g, np.eye(16)),
                             SolveOptions(tol=1e-9))
        fista = solve_penalized(Phi, y, 0.3, g, SolveOptions(tol=1e-12))
        assert pd.converged and pd.method == "pd"
        assert fista.converged and fista.method == "fista"
        assert abs(solvers._objective(Phi, y, 0.3, g, pd.x_hat)
                   - solvers._objective(Phi, y, 0.3, g, fista.x_hat)) \
            <= 1e-8

    @pytest.mark.parametrize("analysis", [False, True])
    @pytest.mark.parametrize("lam", [0.1, 50.0])
    def test_euclidean_norms_take_fista_or_pd(self, analysis, lam):
        # L2 is a one-block group, so FISTA solves it; pre-composed, it
        # takes Chambolle-Pock.  Both stop on the first-order conditions at
        # the iterate's model (smooth off 0), not at max_iter with
        # infinite residuals
        r = np.random.default_rng(3)
        Phi = r.standard_normal((5, 8))
        y = Phi @ r.standard_normal(8)
        g = Precomposed(L2(7), tv1d_gauge(8).dstar) if analysis else L2(8)
        res = solve_penalized(Phi, y, lam, g, SolveOptions(max_iter=20000))
        assert res.method == ("pd" if analysis else "fista")
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
# flags as the sort-and-loop kernels gave them; poly takes the active set,
# whose 55 iterations are its steps and multiplier tests; l1, linf and tv
# take their paths, with 16, 20 and 4 events (tv on its reduced lasso), and
# the x_hat bits are the l1 and linf paths' end points (those of a build
# with OpenBLAS; another BLAS may move the last bits)
PINNED_ITERATIONS = {"l1": 16, "group": 200, "linf": 20, "tv": 4,
                     "poly": 55}
PINNED_METHOD = {"l1": "path", "group": "fista", "linf": "path",
                 "tv": "path", "poly": "active-set"}
PINNED_X_HAT = {
    "l1": [
        '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '-0x1.a94c244d859e3p-4',
        '0x0.0p+0', '0x1.54d4d7e699588p-5',
        '0x1.b5f58555a38b2p-1', '0x0.0p+0',
        '-0x1.ed891b02e6e22p-1', '-0x1.25dbdca1e7898p-1',
        '0x0.0p+0', '-0x1.2c9e87a9fd15ep-1',
        '-0x1.5f463abe8a914p-4', '0x1.3813f0a6f0974p-4',
        '0x1.1a2b2df13b488p-2', '0x0.0p+0',
        '-0x1.0c0c6a2da8775p+0', '0x1.00f99c148e5d0p-1',
        '0x1.4a56c310d0c6ap-4', '0x0.0p+0',
    ],
    "linf": [
        '0x1.12b5688332f64p+0', '0x1.0cabf12890d75p+0',
        '0x1.12b5688332f64p+0', '-0x1.12b5688332f64p+0',
        '0x1.4b2a219c7678ep-3', '-0x1.12b5688332f64p+0',
        '0x1.12b5688332f64p+0', '0x1.dbacf43437138p-1',
        '-0x1.4551ece11a1bdp-1', '-0x1.740d4a0c05715p-1',
        '-0x1.939372d76f1cfp-1', '0x1.ac184a1b1c5ecp-2',
        '0x1.12b5688332f64p+0', '-0x1.12b5688332f64p+0',
        '0x1.ce368792bb8b6p-3', '-0x1.12b5688332f64p+0',
        '-0x1.12b5688332f64p+0', '0x1.86588fc33eb59p-1',
        '-0x1.879b2cb1c4081p-3', '-0x1.0abc04396d1abp-2',
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

    @pytest.mark.parametrize("kind", ["l1", "linf", "group", "tv", "poly",
                                      "l2-analysis"])
    def test_an_overflowing_phi_is_a_solver_error(self, kind):
        # ||Phi||^2 (FISTA, the active set) and I + tau Phi^T Phi
        # (Chambolle-Pock) overflow: an OverflowError and scipy's "array must
        # not contain infs" before
        poly = PolyhedralH(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0],
                                     [0.0, 0.0, 1.0]]))
        g, what = {
            "l1": (L1(3), r"\|\|Phi\|\|\^2 or Phi\^T y"),
            "linf": (Linf(3), r"\|\|Phi\|\|\^2 or Phi\^T y"),
            "group": (GroupL1L2(BlockPartition([[0], [1, 2]], 3)),
                      r"\|\|Phi\|\|\^2 is"),
            "tv": (tv1d_gauge(3), r"\|\|Phi\|\|\^2 or Phi\^T y"),
            "poly": (poly, r"\|\|Phi\|\|\^2 or Phi\^T y"),
            "l2-analysis": (Precomposed(L2(2), tv1d_gauge(3).dstar),
                            r"I \+ tau Phi\^T Phi")}[kind]
        with pytest.raises(solvers.SolverError,
                           match=f"^{what}.*scale of Phi"):
            solve_penalized(1e160 * self.PHI, np.array([5.0, 0.0]), 0.5, g)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("row, g, what", [
        ([1.0, 1.0, 1.0], GroupL1L2(BlockPartition([[0], [1, 2]], 3)),
         "the FISTA step"),
        ([1.0, 1.0, 1.0], Precomposed(L2(2), tv1d_gauge(3).dstar),
         "the least-squares prox"),
        ([0.0, 1.0, 1.0], Precomposed(L2(2), tv1d_gauge(3).dstar),
         "the Chambolle-Pock iterate"),
        ([1.0, 1.0, 1.0], Linf(3), r"\|\|Phi\|\|\^2 or Phi\^T y"),
        ([1.0, 1.0, 1.0], PolyhedralH(np.eye(3)),
         r"\|\|Phi\|\|\^2 or Phi\^T y"),
        # the active set ends at (1.7e308, 8.5e307, 8.5e307), whose third
        # atom value overflows
        ([0.0, 1.0, 1.0], PolyhedralH(np.array([[1.0, 0.0, -1.0],
                                                [0.0, 1.0, -1.0],
                                                [0.0, 0.0, 1.0]])),
         "A x at the active set's end point"),
        ([1.0, 1.0, 1.0], tv1d_gauge(3), r"\|\|Phi\|\|\^2 or Phi\^T y"),
        ([1.0, 1.0, 1.0], L1(3), r"\|\|Phi\|\|\^2 or Phi\^T y")])
    def test_a_y_at_the_edge_of_the_range_is_a_solver_error(self, row, g,
                                                            what):
        # the fifth of these used to end in check_finite's "x contains NaN",
        # the sixth in decompose's "u contains NaN or Inf entries"
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
            solvers._fista(self.PHI, np.array([5.0, 0.0]), 0.5, L1(3),
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
        assert res.method == PINNED_METHOD[kind]
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
        _, proj = solvers._splitting_pieces(GroupL1L2(part))
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


class TestLastCheck:
    @pytest.mark.parametrize("max_iter", [250, 300])
    def test_chambolle_pock_checks_max_iter_once(self, max_iter):
        # checks run every CHECK_EVERY iterations and at max_iter, each once
        its = []

        def check(x, it):
            its.append(it)
            return solvers.SolveResult(x, it, 1.0, 1.0, False, "pd")

        res = solvers._chambolle_pock(
            np.eye(3), lambda p, lam: np.clip(p, -lam, lam), 1.0,
            np.ones(3), lambda tau: (lambda v: v), check,
            SolveOptions(max_iter=max_iter))
        every = solvers.CHECK_EVERY
        assert its == sorted(set(range(every, max_iter + 1, every))
                             | {max_iter})
        assert res.iterations == max_iter and not res.converged

    def test_fista_tests_its_last_iterate_once(self, monkeypatch):
        # with max_iter a multiple of CHECK_EVERY, the check at max_iter has
        # the residuals of the returned x, and they are not computed again
        Phi, y, lam, g = _penalized_instance("group", 3)
        seen = []
        residuals = solvers._first_order_residuals

        def spy(Phi, y, lam, g, x, md=None):
            seen.append(x.copy())
            return residuals(Phi, y, lam, g, x, md)

        monkeypatch.setattr(solvers, "_first_order_residuals", spy)
        res = solvers._fista(Phi, y, lam, g, SolveOptions(
            tol=0.0, max_iter=2 * solvers.CHECK_EVERY))
        assert not res.converged and res.iterations == 2 * solvers.CHECK_EVERY
        assert sum(np.array_equal(x, res.x_hat) for x in seen) == 1


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
            res = solvers._fista(Phi, y, lam, g, SolveOptions(tol=1e-8))
            assert res.converged and res.method == "fista"
            # the exit was the polished candidate, not the iterate
            assert outcomes and outcomes[-1] is not None
            assert res.x_hat is outcomes[-1][0]
            assert res.iterations % 100 == 0
            tight = solvers._fista(Phi, y, lam, g, SolveOptions(tol=1e-12))
            assert tight.converged
            assert obj(res.x_hat) <= obj(tight.x_hat) + 1e-10

    def test_identified_l1_model_exits_at_the_first_check(self):
        # FISTA alone needs 1300 iterations here; its support and signs are
        # right after 100, so the first check returns the polished point
        Phi, x0 = random_l1_instance(2, 20, 12, 3)
        y = Phi @ x0 + 0.05 * np.random.default_rng(2).standard_normal(12)
        res = solvers._fista(Phi, y, 0.5, L1(20), SolveOptions())
        assert res.converged
        assert res.iterations == 100
        assert max(res.primal_residual, res.dual_residual) <= 1e-8


def _poly_mix_item(seed, item):
    """A poly item of the penalized_mix benchmark, drawn inline."""
    r = np.random.default_rng([seed, 9, item])
    Phi = r.standard_normal((12, 20))
    xs = r.standard_normal(20)
    g = PolyhedralH(r.standard_normal((20, 24)))
    y = Phi @ xs + 0.1 * r.standard_normal(12)
    return Phi, y, float(r.uniform(0.2, 1.2)), g


class TestPolyTail:
    # penalized_mix poly items that Chambolle-Pock left unconverged at
    # 120000 iterations: the first five until its check polished the
    # iterate's completed model, the last four even then, where it crawled
    # along a direction on which J vanishes.  The active set certifies each
    # in at most a few hundred iterations
    @pytest.mark.parametrize("seed, item", [
        (1, 67), (2, 186), (1310, 118), (5202, 84), (3207, 67),
        (6, 169), (106, 169), (3305, 169), (3308, 220)])
    def test_converges_and_passes_the_first_order_check(self, seed, item):
        Phi, y, lam, g = _poly_mix_item(seed, item)
        res = solve_penalized(Phi, y, lam, g,
                              SolveOptions(tol=1e-7, max_iter=120000))
        assert res.converged and res.method == "active-set"
        assert res.iterations <= 300
        assert check_noisy_optimality(Phi, y, lam, res.x_hat,
                                      md=decompose(g, res.x_hat),
                                      eq_tol=1e-6) != "not_optimal"


class TestActiveSet:
    @pytest.mark.parametrize("shape, seeds", [
        (None, range(40)), ((12, 8), range(20)), ((6, 15), range(20))])
    def test_matches_the_max_abs_path(self, shape, seeds):
        # two exact methods, one minimizer where Phi is injective on its T
        for seed in seeds:
            Phi, y, lam = _max_abs_instance(shape, seed)
            g = Linf(Phi.shape[1])
            res = active_set_solve(Phi, y, lam, g, SolveOptions())
            assert res.converged
            path = solvers._homotopy(Phi, y, lam, 10000, solvers._MaxAbsModel)
            assert np.abs(res.x_hat - path.x_at(lam)).max() <= 1e-10

    @pytest.mark.parametrize("kind", ["poly", "linf-analysis", "ppm"])
    def test_every_max_of_atoms_kind_takes_it(self, kind):
        for seed in range(5):
            Phi, y, lam, g = _penalized_instance(
                "poly" if kind == "ppm" else kind, seed)
            if kind == "ppm":
                g = PositivePartMax(20)
            res = solve_penalized(Phi, y, lam, g, SolveOptions(tol=1e-9))
            assert res.converged and res.method == "active-set"
            assert check_noisy_optimality(Phi, y, lam, res.x_hat,
                                          md=decompose(g, res.x_hat),
                                          eq_tol=1e-6) != "not_optimal"

    def test_linf_item_56_through_the_active_set(self):
        # penalized_mix item 56 of seed 2106 as Precomposed(Linf, I):
        # Chambolle-Pock stopped unconverged at 120000 iterations until its
        # check completed the iterate's model; the active set ends on the
        # max-abs path's end point
        r = np.random.default_rng([2106, 9, 56])
        Phi = r.standard_normal((12, 20))
        xs = r.standard_normal(20)
        y = Phi @ xs + 0.1 * r.standard_normal(12)
        lam = float(r.uniform(0.2, 1.2))
        res = solve_penalized(Phi, y, lam, Precomposed(Linf(20), np.eye(20)),
                              SolveOptions(tol=1e-8))
        assert res.converged and res.method == "active-set"
        path = solve_penalized(Phi, y, lam, Linf(20))
        assert path.method == "path"
        assert np.abs(res.x_hat - path.x_hat).max() <= 1e-10

    @pytest.mark.parametrize("Phi, H, x_ray", [
        ([[1.0, -2.0]], [[2.0, 0.0, 1.0], [-1.0, 2.0, -1.0]], (-1.0, -1.0)),
        ([[2.0, -1.0]], [[0.0, -1.0, 1.0], [-2.0, 1.0, -1.0]], (1.0, 1.0))])
    def test_a_rank_deficient_phi_takes_a_zero_curvature_step(self, Phi, H,
                                                              x_ray):
        # Phi has a kernel line in R^2, and the objective's minimum 0 is
        # reached only on a ray of Phi x = y = 1 on which H^T x <= 0, from
        # x_ray on: the Newton step on the data term alone ends off that
        # ray, and only a step along Ker(Phi), where the reduced Hessian has
        # no curvature and J falls, reaches it
        Phi, H = np.array(Phi), np.array(H)
        y = np.array([1.0])
        g = PolyhedralH(H)
        res = solve_penalized(Phi, y, 0.5, g)
        assert res.converged and res.method == "active-set"
        x = res.x_hat
        assert abs(Phi @ x - y).max() <= 1e-15
        assert g.value(x) <= 1e-15
        assert np.abs(x - x_ray).max() <= 1e-12

    def test_tie_heavy_max_abs_fallbacks_are_certified(self):
        # where the max-abs path falls back (singular Gram matrices, end
        # points that fail the test), the active set certifies the solve
        fell = 0
        for seed in range(1200):
            Phi, y, lam = tie_heavy_instance(seed)
            g = Linf(Phi.shape[1])
            if solvers._path_solve(Phi, y, lam, g, solvers._MaxAbsModel,
                                   SolveOptions()) is not None:
                continue
            fell += 1
            res = solve_penalized(Phi, y, lam, g)
            assert res.converged and res.method == "active-set", seed
            assert res.iterations <= 50
        assert fell >= 50


def _analysis_l1_instance(kind, seed):
    """(Phi, y, lam, g) with an l1 base pre-composed with D* of full row
    rank: tv as in the criterion-9 mix (n = 20, Q = 12), tv with Q > n
    ("tv-tall", 12 x 8), or a Gaussian 15 x 20 D* ("gaussian")."""
    if kind == "tv":
        return _penalized_instance("tv", seed)
    r = np.random.default_rng([seed, 37])
    q, n = (12, 8) if kind == "tv-tall" else (12, 20)
    Phi = r.standard_normal((q, n))
    if kind == "tv-tall":
        g = tv1d_gauge(n)
        xs = np.repeat(r.standard_normal(2), n // 2)
    else:
        g = Precomposed(L1(15), r.standard_normal((15, n)))
        xs = r.standard_normal(n)
    return Phi, Phi @ xs + 0.1 * r.standard_normal(q), \
        float(r.uniform(0.2, 1.2)), g


class TestReducedL1Path:
    # an l1 base pre-composed with D* of full row rank, Phi injective on
    # Ker D*, is a lasso in u = D* x: it takes the l1 path there, and the
    # block active set where it cannot

    @pytest.mark.parametrize("kind, seeds", [
        ("tv", range(30)), ("tv-tall", range(10)), ("gaussian", range(10))])
    def test_end_point_matches_the_block_active_set(self, kind, seeds):
        # two exact methods, one minimizer
        for seed in seeds:
            Phi, y, lam, g = _analysis_l1_instance(kind, seed)
            res = solve_penalized(Phi, y, lam, g, SolveOptions(tol=1e-8))
            assert res.converged and res.method == "path"
            ref = active_set_solve(Phi, y, lam, g, SolveOptions(tol=1e-8))
            assert ref.converged
            assert np.abs(res.x_hat - ref.x_hat).max() <= 1e-10

    def test_the_readme_input_takes_the_path(self):
        res = solve_penalized(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
                              np.array([5.0, 0.0]), 0.5, tv1d_gauge(3))
        assert (res.method, res.converged) == ("path", True)
        assert np.abs(res.x_hat - [4.5, 0.125, 0.125]).max() <= 1e-12

    def test_events_count_against_max_iter(self):
        Phi, y, lam, g = _analysis_l1_instance("tv", 3)
        events = solve_penalized(Phi, y, lam, g).iterations
        opts = SolveOptions(max_iter=events - 1)
        res = solve_penalized(Phi, y, lam, g, opts)
        ref = active_set_solve(Phi, y, lam, g, opts)
        assert (res.method, res.iterations) == ("active-set", ref.iterations)
        assert np.array_equal(res.x_hat, ref.x_hat)

    def test_fused_lasso_takes_the_active_set(self):
        # D* = [I; tv] has more rows than columns, so no reduction is a
        # lasso: the block active set solves it
        n = 10
        g = Precomposed(L1(2 * n - 1), np.vstack([np.eye(n),
                                                  tv1d_gauge(n).dstar]))
        for seed in range(5):
            r = np.random.default_rng([seed, 38])
            Phi = r.standard_normal((6, n))
            xs = np.repeat([0.0, 1.5, 0.0, -1.0, 0.0], 2)
            y = Phi @ xs + 0.05 * r.standard_normal(6)
            with pytest.raises(solvers.PathError, match="full row rank"):
                solvers._reduced_lasso(Phi, y, g)
            res = solve_penalized(Phi, y, 0.3, g)
            assert res.converged and res.method == "active-set"
            assert check_noisy_optimality(Phi, y, 0.3, res.x_hat,
                                          md=decompose(g, res.x_hat),
                                          eq_tol=1e-6) != "not_optimal"

    def test_a_phi_that_annihilates_the_constants_takes_the_active_set(self):
        # Phi N, N = (1, 1, 1) / sqrt(3), is round-off: on the scale of
        # ||Phi||_2 it has rank 0, so Phi is not injective on Ker D*
        Phi = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        y = np.array([5.0, 0.0])
        g = tv1d_gauge(3)
        with pytest.raises(solvers.PathError, match="not injective"):
            solvers._reduced_lasso(Phi, y, g)
        res = solve_penalized(Phi, y, 0.5, g)
        assert res.converged and res.method == "active-set"
        assert check_noisy_optimality(Phi, y, 0.5, res.x_hat,
                                      md=decompose(g, res.x_hat),
                                      eq_tol=1e-6) != "not_optimal"


def _path_instance(shape, seed):
    """(Phi, y, lam) for the l1 path tests: the criterion-9 mix (n = 20,
    Q = 12) when shape is None, else a Gaussian (Q, n) with half of x's
    entries zero."""
    if shape is None:
        Phi, y, lam, _ = _penalized_instance("l1", seed)
        return Phi, y, lam
    q, n = shape
    r = np.random.default_rng([seed, q, n])
    Phi = r.standard_normal((q, n))
    xs = r.standard_normal(n)
    xs[r.choice(n, n // 2, replace=False)] = 0.0
    return Phi, Phi @ xs + 0.1 * r.standard_normal(q), float(
        r.uniform(0.2, 1.2))


def _max_abs_instance(shape, seed):
    """(Phi, y, lam) for the max-abs path tests: the criterion-9 mix
    (n = 20, Q = 12) when shape is None, else a Gaussian (Q, n) with a
    dense x."""
    if shape is None:
        Phi, y, lam, _ = _penalized_instance("linf", seed)
        return Phi, y, lam
    q, n = shape
    r = np.random.default_rng([seed, q, n, 9])
    Phi = r.standard_normal((q, n))
    return Phi, Phi @ r.standard_normal(n) + 0.1 * r.standard_normal(q), \
        float(r.uniform(0.2, 1.2))


class _PathTwins:
    """The tests that the l1 and max-abs paths share, run by each path's
    class on its kind: the gauge ``GAUGE``, the path model ``MODEL``, the
    route ``backstop(Phi, y, lam, g, opts)`` that runs where the path
    falls back and its method ``BACKSTOP``, the test instances
    ``instance(shape, seed)``, the start ``lam_max(c)`` of the path,
    c = Phi^T y, and ``singular()``, an instance whose Gram matrix is
    singular."""

    def _path(self, Phi, y, lam, max_events=SolveOptions().max_iter):
        return solvers._homotopy(Phi, y, lam, max_events, self.MODEL)

    def _fista_x(self, Phi, y, lam):
        res = solvers._fista(Phi, y, lam, self.GAUGE(Phi.shape[1]),
                             SolveOptions(tol=1e-12))
        assert res.converged
        return res.x_hat

    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_lambda_at_or_above_lam_max_gives_zero(self, scale):
        Phi, y, _ = self.instance(None, 5)
        lam_max = self.lam_max(Phi.T @ y)
        lam = scale * lam_max
        path = self._path(Phi, y, lam)
        assert path.events == 0 and path.lambdas.tolist() == [lam_max]
        assert not np.any(path.x_at(lam))
        res = solve_penalized(Phi, y, lam, self.GAUGE(20))
        assert (res.method, res.iterations, res.converged) == ("path", 0,
                                                               True)
        assert not np.any(res.x_hat)

    def _assert_backstop(self, res, Phi, y, lam, opts):
        """res is the backstop's solve, bit for bit."""
        ref = self.backstop(Phi, y, lam, self.GAUGE(Phi.shape[1]), opts)
        assert (res.method, res.iterations) == (self.BACKSTOP,
                                                ref.iterations)
        assert res.converged == ref.converged
        assert np.array_equal(res.x_hat, ref.x_hat)

    def test_a_singular_gram_falls_back(self):
        Phi, y, lam = self.singular()
        with pytest.raises(solvers.PathError, match="Gram matrix is singular"):
            self._path(Phi, y, lam)
        res = solve_penalized(Phi, y, lam, self.GAUGE(Phi.shape[1]))
        assert res.converged
        self._assert_backstop(res, Phi, y, lam, SolveOptions())

    def test_events_count_against_max_iter(self):
        Phi, y, lam = self.instance(None, 3)
        g = self.GAUGE(20)
        events = self._path(Phi, y, lam).events
        with pytest.raises(solvers.PathError, match="more than"):
            self._path(Phi, y, lam, events - 1)
        assert solve_penalized(Phi, y, lam, g, SolveOptions(
            max_iter=events)).method == "path"
        opts = SolveOptions(max_iter=events - 1)
        self._assert_backstop(solve_penalized(Phi, y, lam, g, opts),
                              Phi, y, lam, opts)

    def test_an_end_point_that_fails_the_test_falls_back(self):
        # at tol 0 the path's round-off fails the test
        Phi, y, lam = self.instance(None, 3)
        opts = SolveOptions(tol=0.0, max_iter=300)
        self._assert_backstop(
            solve_penalized(Phi, y, lam, self.GAUGE(20), opts),
            Phi, y, lam, opts)


class TestLassoPath(_PathTwins):
    GAUGE, MODEL = L1, solvers._L1Model
    BACKSTOP, backstop = "active-set", staticmethod(active_set_solve)
    instance = staticmethod(_path_instance)

    @staticmethod
    def lam_max(c):
        return np.abs(c).max()

    @staticmethod
    def singular():
        # column 3 is the mean of columns 0 and 1 up to 1e-8, and enters
        # after them: the active Gram matrix is singular to working
        # precision
        r = np.random.default_rng(37)
        Phi = r.standard_normal((4, 6))
        Phi[:, 3] = 0.5 * (Phi[:, 0] + Phi[:, 1]) \
            + 1e-8 * r.standard_normal(4)
        return Phi, r.standard_normal(4), 0.05

    # a variable that enters and later leaves: x_1 enters at 6, x_2 at 8/3
    # with sign -1, x_1 reaches zero at 5/2 and leaves, x_0 enters at 5/7
    DROP_PHI = np.array([[1.0, 3.0, -2.0], [0.0, 1.0, -1.0]])
    DROP_Y = np.array([1.0, 3.0])

    @pytest.mark.parametrize("shape, seeds", [
        (None, range(120)), ((12, 8), range(40)), ((6, 15), range(40))])
    def test_matches_fista_at_and_between_breakpoints(self, shape, seeds):
        for seed in seeds:
            Phi, y, lam = _path_instance(shape, seed)
            path = solvers.lasso_path(Phi, y, lam)
            L = path.lambdas
            assert L[0] == np.abs(Phi.T @ y).max() and L[-1] == lam
            assert np.all(np.diff(L) <= 0.0) and path.events == L.size - 1
            for t in np.concatenate([L, 0.5 * (L[1:] + L[:-1])]):
                assert np.abs(path.x_at(t) - self._fista_x(Phi, y, t)).max() \
                    <= 1e-10

    def test_solve_penalized_takes_the_path(self):
        Phi, y, lam = _path_instance(None, 3)
        res = solve_penalized(Phi, y, lam, L1(20), SolveOptions(tol=1e-8))
        path = solvers.lasso_path(Phi, y, lam)
        assert (res.method, res.iterations) == ("path", path.events)
        assert res.converged and max(res.primal_residual,
                                     res.dual_residual) <= 1e-8
        assert np.array_equal(res.x_hat, path.x_at(lam))

    def test_a_variable_enters_and_later_leaves(self):
        Phi, y = self.DROP_PHI, self.DROP_Y
        path = solvers.lasso_path(Phi, y, 0.5)
        assert np.allclose(path.lambdas, [6.0, 8.0 / 3.0, 2.5, 5.0 / 7.0,
                                          0.5], rtol=0.0, atol=1e-13)
        assert [a.tolist() for a in path.active] == [[1], [1, 2], [2],
                                                     [2, 0]]
        assert [s.tolist() for s in path.signs] == [[1.0], [1.0, -1.0],
                                                    [-1.0], [-1.0, -1.0]]
        # x_1 falls to zero at the drop and stays there
        assert abs(path.x_at(2.5)[1]) <= 1e-14
        assert path.x_at(2.6)[1] > 0.0 and path.x_at(2.4)[1] == 0.0
        for t in (6.0, 4.0, 8.0 / 3.0, 2.6, 2.5, 2.0, 5.0 / 7.0, 0.6, 0.5):
            assert np.abs(path.x_at(t) - self._fista_x(Phi, y, t)).max() \
                <= 1e-10
        res = solve_penalized(Phi, y, 0.5, L1(3), SolveOptions(tol=1e-10))
        assert (res.method, res.iterations) == ("path", 4)

    def test_a_variable_leaves_and_enters_again_with_the_other_sign(self):
        # x_0 enters at 8, x_2 at 38/9, x_0 leaves at 4; its correlation is
        # then -4 + 2 lam (q_0 = 2 > 1) and reaches -lam at 4/3
        Phi = np.array([[4.0, 1.0, -2.0], [1.0, 0.0, 0.0]])
        y = np.array([3.0, -4.0])
        path = solvers.lasso_path(Phi, y, 0.5)
        assert np.allclose(path.lambdas, [8.0, 38.0 / 9.0, 4.0, 4.0 / 3.0,
                                          0.5], rtol=0.0, atol=1e-13)
        assert [a.tolist() for a in path.active] == [[0], [0, 2], [2],
                                                     [2, 0]]
        assert [s.tolist() for s in path.signs] == [[1.0], [1.0, -1.0],
                                                    [-1.0], [-1.0, -1.0]]
        for t in (8.0, 5.0, 4.0, 2.0, 4.0 / 3.0, 1.0, 0.5):
            assert np.abs(path.x_at(t) - self._fista_x(Phi, y, t)).max() \
                <= 1e-10
        res = solve_penalized(Phi, y, 0.5, L1(3), SolveOptions(tol=1e-10))
        assert (res.method, res.iterations) == ("path", 4)

    @pytest.mark.parametrize("Phi, y, lam, lambdas, active", [
        # three correlations tie at 1 exactly; x_2's stays at lam on the
        # segment (q_2 = 1), so it does not enter, and x_0 does not leave
        # at the zero-length segment where x_1 joins it
        ([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]], [1.0, 1.0], 0.5,
         [1.0, 1.0, 0.5], [[0], [0, 1]]),
        # Phi^T y = (7, 7, 1): x_1's root falls above 7 by round-off
        ([[-3.0, -1.0, 1.0], [2.0, 3.0, 1.0]], [-1.0, 2.0], 0.1,
         [7.0, 7.0, 0.1], [[0], [0, 1]]),
        # x_0 leaves and x_2 enters at one lam
        ([[3.0, 1.0, 1.0], [-3.0, 0.0, -3.0]], [-3.0, -1.0], 0.1,
         [6.0, 2.4, 1.5, 1.5, 0.1], [[0], [0, 1], [1], [1, 2]]),
        # columns 0 and 1 are equal: x_1's correlation keeps to lam (its
        # rate is round-off), so it does not enter
        ([[2.0, 2.0, 1.0], [-2.0, -2.0, 0.0]], [-1.0, -3.0], 0.5,
         [4.0, 1.6, 0.5], [[0], [0, 2]]),
        # column 2 is minus column 1: x_2's correlation keeps to -x_1's
        ([[-2.0, -3.0, 3.0], [1.0, -3.0, 3.0]], [2.0, 2.0], 0.5,
         [12.0, 0.5], [[1]]),
        # Phi^T y = (-4, 4, 4) in two dimensions: x_1 joins x_0, x_0
        # leaves and x_2 joins x_1, all at lam_max
        ([[3.0, -2.0, 1.0], [2.0, -2.0, -2.0]], [0.0, -2.0], 1.0,
         [4.0, 4.0, 4.0, 4.0, 1.0], [[0], [0, 1], [1], [1, 2]]),
    ])
    def test_tied_events_share_a_breakpoint(self, Phi, y, lam, lambdas,
                                            active):
        Phi, y = np.array(Phi), np.array(y)
        path = solvers.lasso_path(Phi, y, lam)
        assert np.allclose(path.lambdas, lambdas, rtol=0.0, atol=1e-13)
        assert [a.tolist() for a in path.active] == active
        # the lasso may have a segment of minimizers here: the end point
        # is one, as good as FISTA's
        g = L1(3)
        assert solvers._objective(Phi, y, lam, g, path.x_at(lam)) <= \
            solvers._objective(Phi, y, lam, g, self._fista_x(Phi, y, lam)) \
            + 1e-12
        res = solve_penalized(Phi, y, lam, g, SolveOptions(tol=1e-10))
        assert (res.method, res.iterations) == ("path", len(active))

    def test_duplicate_columns_end_on_the_path(self):
        # the lasso has a segment of minimizers; the path keeps column 1
        # out (its correlation stays tied with column 0's, q_1 = 1) and
        # ends at one of them
        Phi = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        y = np.array([2.0, 1.0])
        res = solve_penalized(Phi, y, 0.5, L1(3))
        assert (res.method, res.converged) == ("path", True)
        assert res.x_hat.tolist() == [1.5, 0.0, 0.5]
        assert check_noisy_optimality(
            Phi, y, 0.5, res.x_hat,
            md=decompose(L1(3), res.x_hat)) != "not_optimal"

    def test_x_at_rejects_a_lambda_below_the_end(self):
        path = solvers.lasso_path(self.DROP_PHI, self.DROP_Y, 0.5)
        with pytest.raises(ValueError, match="below the path's end"):
            path.x_at(0.4)


class TestMaxAbsPath(_PathTwins):
    GAUGE, MODEL = Linf, solvers._MaxAbsModel
    BACKSTOP, backstop = "active-set", staticmethod(active_set_solve)
    instance = staticmethod(_max_abs_instance)

    @staticmethod
    def lam_max(c):
        return np.abs(c).sum()

    @staticmethod
    def singular():
        # the README input: x_1 and x_2 start free, with equal columns, so
        # the first Gram matrix is singular
        return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), \
            np.array([5.0, 0.0]), 0.5

    def _x(self, Phi, y, lam):
        """The end point of the path down to lam."""
        return self._path(Phi, y, lam).x_at(lam)

    # x_0 frees at 65/7 and saturates again at 5 with the other sign; x_2
    # frees at 5/7
    REENTRY_PHI = np.array([[0.0, -2.0, -3.0], [-1.0, 2.0, 4.0]])
    REENTRY_Y = np.array([4.0, -3.0])

    @pytest.mark.parametrize("shape, seeds", [
        (None, range(120)), ((12, 8), range(40)), ((6, 15), range(40))])
    def test_end_point_matches_fista(self, shape, seeds):
        for seed in seeds:
            Phi, y, lam = _max_abs_instance(shape, seed)
            path = self._path(Phi, y, lam)
            x, L, signs = path.x_at(lam), path.lambdas, path.signs
            assert L[0] == np.abs(Phi.T @ y).sum() and L[-1] == lam
            assert np.all(np.diff(L) <= 0.0) and len(signs) == len(L) - 1
            assert np.abs(x - self._fista_x(Phi, y, lam)).max() <= 1e-10
            res = solve_penalized(Phi, y, lam, Linf(Phi.shape[1]))
            assert (res.method, res.iterations) == ("path", len(signs))
            assert res.converged and np.array_equal(res.x_hat, x)

    def test_a_saturated_entry_frees(self):
        # all three entries leave 0 saturated at 16; x_2's weight falls to
        # zero at 39/4, and at 1/2 x = (23/18, 23/18, -5/54)
        Phi = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 3.0]])
        y = np.array([4.0, 1.0])
        path = self._path(Phi, y, 0.5)
        x, L, signs = path.x_at(0.5), path.lambdas, path.signs
        assert np.allclose(L, [16.0, 39.0 / 4.0, 0.5], rtol=0.0, atol=1e-13)
        assert [s.tolist() for s in signs] == [[1.0, 1.0, 1.0],
                                               [1.0, 1.0, 0.0]]
        assert np.allclose(x, [23.0 / 18.0, 23.0 / 18.0, -5.0 / 54.0],
                           rtol=0.0, atol=1e-14)
        for t in (16.0, 12.0, 39.0 / 4.0, 5.0, 0.5):
            assert np.abs(self._x(Phi, y, t)
                          - self._fista_x(Phi, y, t)).max() <= 1e-10

    def test_an_entry_frees_and_saturates_again_with_the_other_sign(self):
        Phi, y = self.REENTRY_PHI, self.REENTRY_Y
        path = self._path(Phi, y, 0.1)
        L, signs = path.lambdas, path.signs
        assert np.allclose(L, [41.0, 65.0 / 7.0, 5.0, 5.0 / 7.0, 0.1],
                           rtol=0.0, atol=1e-13)
        assert [s.tolist() for s in signs] == [
            [1.0, -1.0, -1.0], [0.0, -1.0, -1.0], [-1.0, -1.0, -1.0],
            [-1.0, -1.0, 0.0]]
        # x_0 crosses from t to -t while free, through 0 at 15/2
        assert self._x(Phi, y, 8.0)[0] > 0.0 > self._x(Phi, y, 7.0)[0]
        for t in (41.0, 20.0, 65.0 / 7.0, 7.0, 5.0, 2.0, 5.0 / 7.0, 0.5,
                  0.1):
            assert np.abs(self._x(Phi, y, t)
                          - self._fista_x(Phi, y, t)).max() <= 1e-10
        res = solve_penalized(Phi, y, 0.1, Linf(3), SolveOptions(tol=1e-10))
        assert (res.method, res.iterations) == ("path", 4)

    @pytest.mark.parametrize("Phi, y, lambdas, signs", [
        # x_2's correlation is zero at lam_max, and it stays free at 0
        ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [1.0, -1.0], [2.0, 0.1],
         [[1, -1, 0]]),
        # x_0's correlation is zero at lam_max, but it moves outward faster
        # than t: it saturates at lam_max through a segment of length zero
        ([[2.0, 2.0, 4.0], [-2.0, -1.0, -3.0]], [-4.0, -4.0],
         [8.0, 8.0, 48.0 / 11.0, 0.1],
         [[0, -1, -1], [1, -1, -1], [1, -1, 0]]),
        # columns 0 and 1 are equal: their weights reach zero together at
        # 132/23; x_0 frees, and x_1's weight then keeps to 0, so it stays
        ([[-3.0, -3.0, 4.0], [4.0, 4.0, 2.0]], [-1.0, -1.0],
         [8.0, 132.0 / 23.0, 0.1], [[-1, -1, -1], [0, -1, -1]]),
        # equal columns again: x_0 frees at 105/34 and saturates with the
        # other sign at 5/6, where x_1 frees
        ([[-1.0, -1.0, 3.0], [2.0, 2.0, -3.0], [3.0, 3.0, 1.0]],
         [-2.0, -3.0, 1.0], [6.0, 105.0 / 34.0, 5.0 / 6.0, 5.0 / 6.0, 0.1],
         [[-1, -1, 1], [0, -1, 1], [1, -1, 1], [1, 0, 1]]),
        # column 1 is minus column 0: the same at 108/7 and 12
        ([[2.0, -2.0, 2.0, -2.0], [-2.0, 2.0, -4.0, -2.0]], [2.0, 4.0],
         [32.0, 108.0 / 7.0, 12.0, 12.0, 0.1],
         [[-1, 1, -1, -1], [0, 1, -1, -1], [1, 1, -1, -1],
          [1, 0, -1, -1]]),
        # x_0 and x_1 free at one lam
        ([[-2.0, -2.0, 0.0], [0.0, 0.0, -2.0], [2.0, -1.0, 1.0]],
         [0.0, 3.0, -3.0], [18.0, 3.0, 3.0, 0.1],
         [[-1, 1, -1], [0, 1, -1], [0, 0, -1]]),
        # the weights of x_1 and x_2 reach zero together at 3/2, but only
        # x_2's goes on falling, so x_1 stays saturated
        ([[-2.0, -2.0, 1.0], [2.0, 3.0, -2.0], [3.0, -1.0, 1.0]],
         [-1.0, 1.0, -3.0], [19.0, 1.5, 1.0], [[-1, 1, -1], [-1, 1, 0]]),
        # x_1's correlation is zero at lam_max, and x_1 keeps to -t (its
        # rate is round-off), so it stays free
        ([[3.0, 0.0, -3.0], [1.0, -2.0, 3.0]], [3.0, 0.0], [18.0, 0.5],
         [[1, 0, -1]]),
    ])
    def test_tied_events_share_a_breakpoint(self, Phi, y, lambdas, signs):
        Phi, y, lam = np.array(Phi), np.array(y), lambdas[-1]
        path = self._path(Phi, y, lam)
        x, L, got = path.x_at(lam), path.lambdas, path.signs
        assert np.allclose(L, lambdas, rtol=0.0, atol=1e-13)
        assert [s.tolist() for s in got] == signs
        # equal or opposite columns leave a set of minimizers: the end
        # point is one, as good as FISTA's
        g = Linf(Phi.shape[1])
        assert solvers._objective(Phi, y, lam, g, x) <= \
            solvers._objective(Phi, y, lam, g, self._fista_x(Phi, y, lam)) \
            + 1e-12
        res = solve_penalized(Phi, y, lam, g, SolveOptions(tol=1e-10))
        assert (res.method, res.iterations) == ("path", len(signs))

    def test_a_freed_entry_saturates_again_with_its_old_sign_at_a_tie(self):
        # at 28/11 x_2 frees, then x_4 frees and saturates again with its
        # old sign at the same breakpoint; x_1 frees at 30/17
        Phi = np.array([[0.0, 0.0, -1.0, -2.0, 3.0],
                        [-3.0, -3.0, 0.0, 2.0, 2.0],
                        [1.0, 2.0, -1.0, 0.0, 1.0]])
        y = np.array([2.0, -2.0, 1.0])
        path = self._path(Phi, y, 0.5)
        assert np.allclose(path.lambdas, [29.0, 28.0 / 11.0, 28.0 / 11.0,
                                          28.0 / 11.0, 30.0 / 17.0, 0.5],
                           rtol=0.0, atol=1e-13)
        assert [s.tolist() for s in path.signs] == [
            [1, 1, -1, -1, 1], [1, 1, 0, -1, 1], [1, 1, 0, -1, 0],
            [1, 1, 0, -1, 1], [1, 0, 0, -1, 1]]
        res = solve_penalized(Phi, y, 0.5, Linf(5))
        assert (res.method, res.iterations, res.converged) == ("path", 5,
                                                               True)
        assert np.abs(res.x_hat - self._fista_x(Phi, y, 0.5)).max() <= 1e-10


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


def _sum_instance(kind, seed):
    """(Phi, y, g, A, block) of a noiseless sum at n = 20, Q = 12: x0 on
    four plateaus with six zeros, and the rows A and blocks of the sum's
    epigraph LP written out by hand."""
    r = np.random.default_rng([41, seed])
    n = 20
    x0 = np.repeat(r.standard_normal(4), 5)
    x0[r.choice(n, 6, replace=False)] = 0.0
    Phi = r.standard_normal((12, n))
    eye = np.eye(n)
    l1 = (np.vstack([eye, -eye]), np.tile(np.arange(n), 2))
    if kind == "l1+linf":
        g = SumGauge([L1(n), Linf(n)])
        second = (np.vstack([eye, -eye]), np.full(2 * n, n))
    elif kind == "l1+tv":
        g = SumGauge([L1(n), tv1d_gauge(n)])
        D = np.diff(eye, axis=0)
        second = (np.vstack([D, -D]), n + np.tile(np.arange(n - 1), 2))
    else:
        # columns I and -1 positively span R^n, so the ball is bounded
        H = np.hstack([eye, -np.ones((n, 1)), r.standard_normal((n, 3))])
        g = SumGauge([L1(n), PolyhedralH(H)])
        second = (H.T, np.full(H.shape[1], n))
    A = np.vstack([l1[0], second[0]])
    return Phi, Phi @ x0, g, A, np.concatenate([l1[1], second[1]])


def _epigraph_lp_value(Phi, y, A, block):
    """min sum_k t_k subject to A x <= t_block, t >= 0 and Phi x = y, by
    ``lp_solve`` in (x, t)."""
    (Q, n), m = Phi.shape, int(block.max()) + 1
    a_ub = np.hstack([A, -np.eye(m)[block]])
    a_eq = np.hstack([Phi, np.zeros((Q, m))])
    ref = lp_solve(LpProblem(np.concatenate([np.zeros(n), np.ones(m)]),
                             a_ub=a_ub, b_ub=np.zeros(len(A)), a_eq=a_eq,
                             b_eq=y, bounds=[(None, None)] * n
                             + [(0, None)] * m))
    assert ref.status == "optimal"
    return ref.value


class TestPolyhedralSums:
    KINDS = ["l1+linf", "l1+tv", "l1+poly"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_noiseless_matches_the_epigraph_lp(self, kind):
        for seed in range(5):
            Phi, y, g, A, block = _sum_instance(kind, seed)
            res = solve_noiseless(Phi, y, g)
            assert res.method == "lp"
            assert np.linalg.norm(Phi @ res.x_hat - y) \
                <= 1e-9 * np.linalg.norm(y)
            ref = _epigraph_lp_value(Phi, y, A, block)
            assert abs(g.value(res.x_hat) - ref) <= 1e-9 * ref, seed

    def test_fused_lasso_matches_its_stacked_form(self):
        # L1 + tv is the l1 norm of (x, D* x)
        n = 20
        eye = np.eye(n)
        stacked = Precomposed(L1(2 * n - 1),
                              np.vstack([eye, np.diff(eye, axis=0)]))
        for seed in range(5):
            Phi, y, g, _, _ = _sum_instance("l1+tv", seed)
            ours = g.value(solve_noiseless(Phi, y, g).x_hat)
            ref = stacked.value(solve_noiseless(Phi, y, stacked).x_hat)
            assert abs(ours - ref) <= 1e-9 * ref, seed

    @pytest.mark.parametrize("kind", KINDS)
    def test_penalized_converges_on_the_active_set(self, kind):
        for seed in range(5):
            Phi, y, g, _, _ = _sum_instance(kind, seed)
            r = np.random.default_rng([42, seed])
            y = y + 0.05 * r.standard_normal(len(y))
            res = solve_penalized(Phi, y, float(r.uniform(0.05, 0.5)), g)
            assert res.converged and res.method == "active-set", seed

    @pytest.mark.parametrize("kind", ["l1+tv", "l1+poly"])
    def test_above_lam_max_the_sum_converges_at_zero(self, kind):
        # x = 0 passes the first-order test by the polar of the sum at
        # Phi^T y / lam, at n = 12, past vertex enumeration
        r = np.random.default_rng(47)
        n = 12
        Phi = r.standard_normal((8, n))
        y = r.standard_normal(8)
        second = (tv1d_gauge(n) if kind == "l1+tv"
                  else PolyhedralH(r.standard_normal((n, 14))))
        g = SumGauge([L1(n), second])
        lam = 1.5 * g.polar(Phi.T @ y)
        res = solve_penalized(Phi, y, lam, g)
        assert res.method == "active-set" and res.converged
        assert not np.any(res.x_hat)
        assert check_noisy_optimality(Phi, y, lam, np.zeros(n), gauge=g) \
            in ("unique_optimal", "optimal_maybe_nonunique")

    def test_a_sum_with_an_l2_part_is_unsupported(self):
        Phi = np.random.default_rng(43).standard_normal((2, 3))
        g = SumGauge([L1(3), L2(3)])
        with pytest.raises(UnsupportedGaugeError,
                           match=r"part 1 \(L2\) of the sum has no atom"):
            solve_noiseless(Phi, Phi @ np.ones(3), g)


def _scale_instance(kind):
    """(Phi, y, g): Gaussian Phi of 15 x 20 and x, and the gauge of kind."""
    r = np.random.default_rng(5)
    Phi = r.standard_normal((15, 20))
    y = Phi @ r.standard_normal(20)
    if kind == "poly":
        H = np.hstack([np.eye(20), -np.ones((20, 1)),
                       r.standard_normal((20, 5))])
        return Phi, y, PolyhedralH(H)
    return Phi, y, {"l1": L1, "linf": Linf, "tv": tv1d_gauge}[kind](20)


@pytest.mark.parametrize("kind", ["l1", "tv", "linf", "poly"])
def test_noiseless_minimum_does_not_depend_on_the_scale_of_y(kind):
    # J(x_s) / s is the minimum at s = 1, and Phi x_s = s y, for every s;
    # the simplex prices on an absolute scale, which the LP's data must
    # not reach
    Phi, y, g = _scale_instance(kind)
    ref = g.value(solve_noiseless(Phi, y, g).x_hat)
    for s in (1e-12, 1e-9, 1e9, 1e12):
        x = solve_noiseless(Phi, s * y, g).x_hat
        assert np.linalg.norm(Phi @ x - s * y) <= 1e-9 * np.linalg.norm(s * y)
        assert abs(g.value(x) / s - ref) <= 1e-9 * ref, s


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

    def test_l2_takes_newton_to_the_minimizer(self, rng):
        # e = x / ||x|| varies on T = R^5, so the minimizer is no affine
        # solve: it is x(mu) = (Phi^T Phi + mu I)^{-1} Phi^T y with
        # mu ||x(mu)|| = lam, mu found by bisection
        Phi = rng.standard_normal((8, 5))
        y = rng.standard_normal(8)
        lam = 1.0
        assert np.linalg.norm(Phi.T @ y) > lam

        def x_of(mu):
            return np.linalg.solve(Phi.T @ Phi + mu * np.eye(5), Phi.T @ y)

        mu = scipy.optimize.brentq(
            lambda mu: mu * np.linalg.norm(x_of(mu)) - lam, 1e-12, 1e6,
            xtol=1e-15, rtol=1e-15)
        md = decompose(L2(5), rng.standard_normal(5))
        res = solve_restricted(Phi, y, lam, md)
        assert res.converged and res.method == "newton"
        assert np.max(np.abs(res.x_hat - x_of(mu))) <= 1e-8
        assert check_noisy_optimality(
            Phi, y, lam, res.x_hat,
            md=decompose(L2(5), res.x_hat)) != "not_optimal"

    @pytest.mark.parametrize("make", [
        lambda r, part: Precomposed(L2(3), r.standard_normal((3, 4))),
        lambda r, part: Precomposed(GroupL1L2(part),
                                    r.standard_normal((4, 4))),
        lambda r, part: SumGauge([L1(4), GroupL1L2(part)]),
        lambda r, part: SumGauge([Linf(4), L2(4)]),
    ], ids=["precomposed-l2", "precomposed-group", "l1-plus-group",
            "linf-plus-l2"])
    def test_smooth_part_in_a_sum_or_precomposition_raises(self, make, rng):
        # e varies with the point on a Euclidean or group part, so the
        # affine solve with the e of md.x is no minimizer on T
        g = make(rng, BlockPartition([[0, 1], [2, 3]], 4))
        md = decompose(g, rng.standard_normal(4))
        with pytest.raises(UnsupportedGaugeError):
            solve_restricted(rng.standard_normal((6, 4)),
                             rng.standard_normal(6), 1.0, md)

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


def _integer_analysis_instance(seed):
    """Phi and y integer in -3..3, D* integer in -2..2, q in 1..3, n in
    q+1..5: the max-abs base pre-composed with D* (n+1 rows)."""
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 4))
    n = int(rng.integers(q + 1, 6))
    Phi = rng.integers(-3, 4, (q, n)).astype(float)
    y = rng.integers(-3, 4, q).astype(float)
    D = rng.integers(-2, 3, (n + 1, n)).astype(float)
    return Phi, y, Precomposed(Linf(n + 1), D)


class TestFirstOrderWhereJVanishes:
    # each minimizer lies in Ker D* up to round-off (|D* x| ~ 6e-16 at
    # seed 89, |x|_inf = 0.25; exactly 0 at seed 688, where decompose
    # raises), where J = 0 and dJ(x) = dJ(0): the test is the polar at
    # Phi^T r / lam, not the model of D* x, which is noise
    @pytest.mark.parametrize("seed, lam", [(89, 0.1), (89, 0.5), (89, 1.0),
                                           (249, 1.0), (688, 1.0)])
    def test_minimizer_in_the_kernel_passes(self, seed, lam):
        Phi, y, g = _integer_analysis_instance(seed)
        res = solve_penalized(Phi, y, lam, g)
        assert res.converged
        x = res.x_hat
        assert np.max(np.abs(x)) > 0.2
        assert np.max(np.abs(g.dstar @ x)) <= 1e-12 * np.max(np.abs(x))
        assert g.polar(Phi.T @ (y - Phi @ x) / lam) <= 1.0 + 1e-9

    def test_point_off_the_kernel_keeps_its_model(self):
        # a D* x above the threshold is not vanishing: the decomposition's
        # test at x stays, and rejects a point that is not the minimizer
        Phi, y, g = _integer_analysis_instance(89)
        x = solve_penalized(Phi, y, 0.5, g).x_hat
        off = x + 1e-3 * np.linalg.pinv(g.dstar) @ np.ones(len(g.dstar))
        assert not solvers._vanishes(g, off)
        eq, slack = solvers._first_order_residuals(Phi, y, 0.5, g, off)
        assert max(eq, slack) > 1e-6
