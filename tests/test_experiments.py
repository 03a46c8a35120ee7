import json
import math

import numpy as np
import pytest

from gaugerec.gauges import BlockPartition
from gaugerec.linalg import Subspace
from gaugerec.model import decompose_l1, decompose_group
from gaugerec.certificates import irrepresentability, stability_constants
from gaugerec import experiments
from gaugerec.experiments import (cs_linf_bound, f_exponent,
                                  run_linf_cs_trials, phase_transition_sweep,
                                  model_selection_sweep, subspace_equal,
                                  _linf_trial, CSV_HEADER,
                                  TrialNotConvergedError)
from gaugerec.solvers import SolveResult

from conftest import random_l1_instance


class TestBound:
    def test_f_exact_half(self):
        assert abs(f_exponent(2.0, 8) - 0.5) <= 1e-12

    def test_q_min(self):
        q, prob = cs_linf_bound(64, 8, 2.0)
        assert q == 101
        assert abs(prob) <= 1e-12    # vacuous floor at beta = 2

    def test_beta_four_floor(self):
        _, prob = cs_linf_bound(64, 8, 4.0)
        assert abs(prob - (1.0 - 2.0 * 4.0 ** (-f_exponent(4.0, 8)))) <= 1e-12
        assert prob > 0.8

    def test_monotone_in_beta(self):
        vals = [f_exponent(b, 8) for b in np.linspace(1.01, 30, 50)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_small_support_rejected(self):
        with pytest.raises(ValueError):
            cs_linf_bound(64, 2, 2.0)
        with pytest.raises(ValueError):
            cs_linf_bound(64, 8, 1.0)


class TestTrials:
    def test_determinism(self):
        a = run_linf_cs_trials(24, 30, 5, 30, seed=11)
        b = run_linf_cs_trials(24, 30, 5, 30, seed=11)
        assert a.cells[0].success == b.cells[0].success
        assert all(x.ic_value == y.ic_value
                   for x, y in zip(a.records, b.records))

    def test_precondition(self):
        with pytest.raises(ValueError):
            run_linf_cs_trials(24, 18, 5, 10, seed=0)

    def test_jobs_capped_at_cpu_count_and_records_kept(self, monkeypatch):
        # a stand-in executor records the worker count and maps in-process,
        # so no worker process is started whatever jobs asks for
        import gaugerec.experiments as exp
        seen = []

        class InProcess:
            def __init__(self, max_workers, mp_context):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(exp, "ProcessPoolExecutor", InProcess)
        monkeypatch.setattr(exp.os, "cpu_count", lambda: 3)
        serial = run_linf_cs_trials(16, 16, 4, 6, seed=4)
        wide = run_linf_cs_trials(16, 16, 4, 6, seed=4, jobs=1000)
        assert seen == [3]
        assert wide.cells[0].success == serial.cells[0].success
        assert [r.ic_value for r in wide.records] == \
            [r.ic_value for r in serial.records]

    def test_square_full_saturation_anchor(self):
        # Regression anchor, pinned from the first run (0.225 at this seed).
        # The criterion frequency here tracks the Gaussian tail product
        # P(all saturated coordinates stay above -1/|I| in the signed
        # precertificate correlation), about 0.21 at N=Q=|I|=8.
        res = run_linf_cs_trials(8, 8, 8, 200, seed=5)
        assert abs(res.cells[0].frequency - 0.225) <= 0.08

    def test_monotone_in_q(self):
        freqs = []
        for Q in (22, 28, 34, 40):
            r = run_linf_cs_trials(24, Q, 6, 60, seed=2)
            freqs.append(r.cells[0].frequency)
        # isotonic (pool-adjacent-violators) fit; residuals within noise
        fit = _pava(freqs)
        sigma = math.sqrt(0.25 / 60)
        assert max(abs(a - b) for a, b in zip(freqs, fit)) <= 3 * sigma

    def test_mode_consistency_shared_seeds(self):
        # identifiable trials must be recovered trials, seed by seed
        N, Q, I = 16, 14, 4
        for t in range(25):
            ic, ident, _ = _linf_trial(9, N, Q, I, t, "ic")
            _, recovered, _ = _linf_trial(9, N, Q, I, t, "noiseless_recovery")
            if ident:
                assert recovered


class TestPhaseTransition:
    def test_square_case_recovers(self):
        res = phase_transition_sweep(12, 6, [12], 20, seed=4,
                                     mode="noiseless_recovery")
        assert res.cells[0].frequency == 1.0

    def test_crossing_interpolation(self):
        res = phase_transition_sweep(16, 8, [10, 12, 14, 16], 40, seed=6,
                                     mode="noiseless_recovery")
        q_star = res.crossing()
        assert np.isnan(q_star) or 10 <= q_star <= 16

    def test_csv_round_trip(self, tmp_path):
        res = phase_transition_sweep(12, 6, [10, 12], 10, seed=1)
        path = tmp_path / "sweep.csv"
        res.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3

    def test_records_do_not_depend_on_jobs(self):
        serial, spawned = (phase_transition_sweep(
            12, 4, [9, 11], 3, seed=2, mode="noiseless_recovery", jobs=jobs)
            for jobs in (1, 2))
        assert len(serial.records) == 6
        assert _dump(serial) == _dump(spawned)


def _dump(sweep):
    """Cells and trial records of a sweep as JSON text (nan-safe)."""
    return json.dumps([[c.params, c.trials, c.success] for c in sweep.cells]
                      + [vars(r) for r in sweep.records])


class TestSubspaceEqual:
    def test_self(self, rng):
        T = Subspace.from_span(rng.standard_normal((5, 2)))
        assert subspace_equal(T, T)

    def test_different_axes(self):
        assert not subspace_equal(Subspace.coordinate(2, [0]),
                                  Subspace.coordinate(2, [1]))

    def test_tiny_rotation_tolerated(self):
        a = Subspace.from_span(np.array([[1.0], [1.0]]))
        b = Subspace.from_span(np.array([[1.0], [1.0 + 1e-9]]))
        assert subspace_equal(a, b)

    def test_dim_mismatch(self):
        assert not subspace_equal(Subspace.coordinate(3, [0]),
                                  Subspace.coordinate(3, [0, 1]))


def _pava(values):
    """Isotonic (nondecreasing) least-squares fit by pooling violators."""
    blocks = [[v, 1] for v in values]
    i = 0
    while i < len(blocks) - 1:
        if blocks[i][0] > blocks[i + 1][0] + 1e-15:
            s = blocks[i][0] * blocks[i][1] + blocks[i + 1][0] * blocks[i + 1][1]
            w = blocks[i][1] + blocks[i + 1][1]
            blocks[i:i + 2] = [[s / w, w]]
            i = max(i - 1, 0)
        else:
            i += 1
    out = []
    for v, w in blocks:
        out.extend([v] * w)
    return out


class TestModelSelectionSweep:
    def test_noiseless_in_certified_range(self):
        from gaugerec.model import decompose_l1
        from gaugerec.certificates import stability_constants
        from gaugerec.linalg import restricted_injectivity
        found = None
        for seed in range(60):
            Phi, x0 = random_l1_instance(seed, 24, 16, 4)
            md, p = decompose_l1(x0)
            if not restricted_injectivity(Phi, md.T):
                continue
            rep = irrepresentability(Phi, md)
            if rep.identifiable and rep.ic_value < 0.8:
                found = (Phi, x0, md, p)
                break
        assert found is not None
        Phi, x0, md, p = found
        const = stability_constants(Phi, md, p)
        lo, hi = const.lambda_range(0.0)
        lam = 0.5 * hi
        sweep = model_selection_sweep(Phi, x0, md, p, [0.0], [lam], 3, seed=0)
        assert sweep.cells[0].frequency == 1.0

    def _certified_instance(self):
        from gaugerec.certificates import stability_constants
        from gaugerec.linalg import restricted_injectivity
        for seed in range(120):
            Phi, x0 = random_l1_instance(seed, 30, 18, 4)
            md, p = decompose_l1(x0)
            if not restricted_injectivity(Phi, md.T):
                continue
            rep = irrepresentability(Phi, md)
            if not (rep.identifiable and rep.ic_value < 0.75):
                continue
            const = stability_constants(Phi, md, p)
            if const.exact and const.noise_budget > 0:
                return Phi, x0, md, p, const
        raise AssertionError("no certified instance found")

    def test_below_floor_adversarial_noise_fails(self):
        # far below the certified floor the model subspace is lost; the
        # floor is active (this does not show it is tight)
        import numpy as np
        from gaugerec.solvers import solve_penalized, SolveOptions
        from gaugerec.model import decompose
        from gaugerec.linalg import svd_pinv
        from gaugerec.gauges import L1
        Phi, x0, md, p, const = self._certified_instance()
        eps = 0.8 * const.noise_budget
        lo, hi = const.lambda_range(eps)
        lam = lo / 200.0
        # adversarial direction: push noise into the kernel-adjacent part
        # that the S-side constant c4 measures
        M = Phi @ md.T.basis
        Q_T = np.eye(Phi.shape[0]) - M @ svd_pinv(M)
        rng = np.random.default_rng(0)
        failures = 0
        for _ in range(5):
            w = Q_T @ rng.standard_normal(Phi.shape[0])
            w *= eps / np.linalg.norm(w)
            y = Phi @ x0 + w
            res = solve_penalized(Phi, y, lam, L1(30),
                                  SolveOptions(tol=1e-9))
            md_hat = decompose(L1(30), res.x_hat)
            failures += not subspace_equal(md_hat.T, md.T)
        assert failures >= 1

    @staticmethod
    def _group_instance():
        """An identifiable x0 with one active block of four, and a lambda
        inside its certified range."""
        part = BlockPartition([[0, 1], [2, 3], [4, 5], [6, 7]], 8)
        rng = np.random.default_rng([3, 0])
        x0 = np.zeros(8)
        x0[:2] = rng.standard_normal(2) + 2.0
        Phi = rng.standard_normal((8, 8))
        md, p = decompose_group(x0, part)
        assert irrepresentability(Phi, md).identifiable
        hi = stability_constants(Phi, md, p).lambda_range(0.0)[1]
        return Phi, x0, md, p, 0.5 * hi

    def test_records_name_the_regularizer(self):
        Phi, x0, md, p, lam = self._group_instance()
        sweep = model_selection_sweep(Phi, x0, md, p, [0.0], [lam], 2,
                                      seed=0)
        assert [r.regularizer for r in sweep.records] == ["groupl1l2"] * 2

    def test_a_trial_that_does_not_converge_is_an_error(self, monkeypatch):
        Phi, x0, md, p, lam = self._group_instance()
        calls = []

        def unconverged(Phi, y, lam, g, opts=None):
            calls.append(lam)
            return SolveResult(np.zeros(Phi.shape[1]), 7, 0.5, 0.0, False,
                               "fista")

        monkeypatch.setattr(experiments, "solve_penalized", unconverged)
        with pytest.raises(TrialNotConvergedError,
                           match=rf"^the solve of cell eps=0.1, "
                                 rf"lambda={float(lam)!r}, trial 0 did not "
                                 rf"converge \(7 iterations"):
            model_selection_sweep(Phi, x0, md, p, [0.1], [lam], 2, seed=0)
        assert calls == [lam]

    def test_records_do_not_depend_on_jobs(self, tmp_path):
        # a group gauge and its T must reach spawned workers intact
        Phi, x0, md, p, lam = self._group_instance()
        serial, spawned = (model_selection_sweep(
            Phi, x0, md, p, [0.0, 0.1], [lam, 2.0 * lam], 2, seed=0,
            jobs=jobs) for jobs in (1, 2))
        assert len(serial.records) == 8
        assert _dump(serial) == _dump(spawned)
        # an l1 model, whose decomposition carries the certificates' memo
        # of Phi_T, writes the same CSV and config JSON with two workers
        Phi, x0 = random_l1_instance(1, 20, 18, 2)
        md, p = decompose_l1(x0)
        irrepresentability(Phi, md)
        out = []
        for jobs in (1, 2):
            sweep = model_selection_sweep(Phi, x0, md, p, [0.0, 0.05],
                                          [0.01, 0.05], 2, seed=1, jobs=jobs)
            sweep.write_csv(tmp_path / f"ms{jobs}.csv")
            sweep.write_config_json(tmp_path / f"ms{jobs}.json")
            out.append([(tmp_path / f"ms{jobs}.{ext}").read_bytes()
                        for ext in ("csv", "json")])
        assert out[0] == out[1]

    def test_error_ratio_bounded_across_sweep(self):
        import numpy as np
        Phi, x0, md, p, const = self._certified_instance()
        budget = const.noise_budget
        ratios = []
        for frac in (0.1, 0.3, 0.5, 0.8):
            eps = frac * budget
            lo, hi = const.lambda_range(eps)
            lam = float(np.sqrt(lo * hi)) if lo > 0 else 0.5 * hi
            sweep = model_selection_sweep(Phi, x0, md, p, [eps], [lam], 2,
                                          seed=1)
            errs = [r.l2_error for r in sweep.records]
            ratios.append(max(errs) / max(eps, lam))
        # no growth trend: the largest ratio is within a constant of the rest
        assert max(ratios) <= 10.0
        assert max(ratios) <= 4.0 * min(ratios) + 1e-9
