import json
import os

import numpy as np
import pytest

from gaugerec.cli import main

from conftest import random_l1_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecompose:
    def test_l1_example(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--reg", "l1",
                               "--x", "[3,0,-2]")
        assert code == 0
        payload = json.loads(out)
        assert payload["e"] == [1.0, 0.0, -1.0]
        assert payload["dim_T"] == 2

    def test_linf_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--reg", "linf",
                               "--x", "[0,0]")
        assert code == 2
        assert "degenerate" in err

    def test_tv_staircase(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--reg", "tv1d",
                               "--x", "[1,1,2,2]")
        assert code == 0
        assert json.loads(out)["dim_T"] == 2

    def test_output_reparses_sorted(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--reg", "l1",
                               "--x", "[1,0]")
        payload = json.loads(out)
        assert list(payload) == sorted(payload)

    def test_polyhedral_analysis_domain(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--reg", "polyhedral",
                               "--analysis-domain", "--x", "[-1,-2,0,0]",
                               "--mu-choice", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["e"] == [0.0, 0.0, 0.0, 0.0]
        assert payload["f"] == [0.0, 0.0, 0.25, 0.25]

    def test_polyhedral_signal_domain(self, capsys):
        hmat = [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]  # rows = signal dim 3
        code, out, _ = run_cli(capsys, "decompose", "--reg", "polyhedral",
                               "--hmat", json.dumps(hmat), "--x", "[2,2,-1]")
        assert code == 0
        assert json.loads(out)["dim_T"] >= 1

    @pytest.mark.parametrize("args", [
        ["--reg", "l1", "--x", "[3,0,-2]"],
        ["--reg", "linf", "--x", "[2,-2,1]"],
        ["--reg", "group", "--x", "[3,4,0,0]", "--blocks", "[[0,1],[2,3]]"],
        ["--reg", "tv1d", "--x", "[1,1,2,2]"],
        ["--reg", "polyhedral", "--x", "[2,2,-1]",
         "--hmat", "[[1,0],[0,1],[-1,-1]]"],
        ["--reg", "polyhedral", "--analysis-domain", "--x", "[-1,-2,0,0]"],
    ])
    def test_every_reg_prints_the_stability_parameters(self, capsys, args):
        code, out, _ = run_cli(capsys, "decompose", *args)
        assert code == 0
        payload = json.loads(out)
        assert {"nu", "mu", "tau", "xi", "exact"} <= set(payload)
        assert payload["exact"] is True

    def test_no_bound_route_exits_inconclusive(self, capsys):
        # the Linf ball of R^17 has too many vertices to enumerate, and no
        # other route bounds D^T from Linf into L1: the decomposition is
        # printed without parameters
        rng = np.random.default_rng(0)
        hmat = rng.standard_normal((17, 20)).tolist()
        x = rng.standard_normal(17).tolist()
        code, out, err = run_cli(capsys, "decompose", "--reg", "polyhedral",
                                 "--hmat", json.dumps(hmat),
                                 "--x", json.dumps(x))
        assert code == 4
        payload = json.loads(out)
        assert "dim_T" in payload and "nu" not in payload
        assert "Linf -> L1" in err

    @pytest.mark.parametrize("delta", ["2", "nan"])
    def test_delta_outside_the_unit_interval_rejected(self, capsys, delta):
        code, out, err = run_cli(capsys, "decompose", "--reg", "l1",
                                 "--x", "[3,0,-2]", "--delta", delta)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "delta" in err


    @pytest.mark.parametrize("args, flag", [
        (["--reg", "l1", "--x", "[3,0,-2]", "--analysis-domain"],
         "--analysis-domain"),
        (["--reg", "l1", "--x", "[3,0,-2]", "--analysis-domain",
          "--mu-choice", "0.9"], "--analysis-domain"),
        (["--reg", "group", "--x", "[3,4,0,0]", "--blocks", "[[0,1],[2,3]]",
          "--analysis-domain"], "--analysis-domain"),
        (["--reg", "polyhedral", "--x", "[-1,0,0]",
          "--hmat", "[[1,0,0],[0,1,0],[0,0,1]]", "--mu-choice", "0.9"],
         "--mu-choice"),
        (["--reg", "l1", "--x", "[3,0,-2]", "--mu-choice", "0.5"],
         "--mu-choice"),
    ])
    def test_a_flag_that_does_not_apply_is_rejected(self, capsys, args,
                                                    flag):
        code, out, err = run_cli(capsys, "decompose", *args)
        assert code == 2 and out == ""
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("mu, f", [(None, 0.25), ("0.9", 0.45)])
    def test_mu_choice_sets_the_analysis_anchor(self, capsys, mu, f):
        args = ["--reg", "polyhedral", "--analysis-domain", "--x", "[-1,0,0]"]
        if mu is not None:
            args += ["--mu-choice", mu]
        code, out, _ = run_cli(capsys, "decompose", *args)
        assert code == 0
        assert json.loads(out)["f"] == [0.0, f, f]


@pytest.mark.parametrize("command, args", [
    ("decompose", ["--x", "[3,0,-2]"]),
    ("certify", ["--x", "[3,0,-2]", "--phi", "[[1,0,0],[0,1,1]]"]),
    ("solve", ["--mode", "penalized", "--phi", "[[1,0,0],[0,1,1]]",
               "--y", "[5,0]", "--lambda", "0.5"]),
    ("solve", ["--mode", "noiseless", "--phi", "[[1,0,0],[0,1,1]]",
               "--y", "[5,0]"])])
@pytest.mark.parametrize("reg, flag, value", [
    ("l1", "--blocks", "[[0,1],[2]]"), ("linf", "--blocks", "[[0,1],[2]]"),
    ("tv1d", "--blocks", "[[0,1],[2]]"),
    ("polyhedral", "--blocks", "[[0,1],[2]]"),
    ("l1", "--hmat", "[[1]]"), ("linf", "--hmat", "[[1]]"),
    ("tv1d", "--hmat", "[[1]]"), ("group", "--hmat", "[[1]]")])
def test_a_reg_flag_for_another_reg_is_rejected(capsys, command, args, reg,
                                                flag, value):
    # the flag each --reg needs is given, so only the other one is wrong
    own = {"group": ["--blocks", "[[0,1],[2]]"],
           "polyhedral": ["--hmat", "[[1,0],[0,1],[-1,-1]]"]}.get(reg, [])
    code, out, err = run_cli(capsys, command, "--reg", reg, *own,
                             flag, value, *args)
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err


class TestCertify:
    def test_identifiable_instance(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--reg", "l1",
                               "--x", "[5,0,0]",
                               "--phi", "[[1,0,0],[0,1,1]]")
        assert code == 0
        payload = json.loads(out)
        assert payload["ic"] <= 1e-12
        assert payload["identifiable"]

    def test_not_identifiable(self, capsys):
        # third column = 0.6 * (phi1 + phi2): Fuchs value 1.2 > 1
        phi = [[1.0, 0.0, 0.6], [0.0, 1.0, 0.6]]
        code, out, _ = run_cli(capsys, "certify", "--reg", "l1",
                               "--x", "[5,3,0]", "--phi", json.dumps(phi))
        assert code == 3
        assert json.loads(out)["ic"] > 1.0

    def test_injectivity_failure_inconclusive(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--reg", "l1",
                               "--x", "[5,3]", "--phi", "[[1,1]]")
        assert code == 4
        assert not json.loads(out)["restricted_injective"]

    def test_bad_input(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--reg", "l1",
                               "--x", "[5,0]", "--phi", "[[1,0,0]]")
        assert code == 2


class TestSolve:
    def test_noiseless_recovery(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--mode", "noiseless",
                               "--reg", "l1", "--phi", "[[1,0,0],[0,1,1]]",
                               "--y", "[5,0]")
        assert code == 0
        x = json.loads(out)["x_hat"]
        assert np.allclose(x, [5, 0, 0], atol=1e-8)

    def test_infeasible_y(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--mode", "noiseless",
                               "--reg", "linf",
                               "--phi", "[[1,0],[1,0]]", "--y", "[1,2]")
        assert code == 2

    def test_penalized(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--mode", "penalized",
                               "--reg", "l1",
                               "--phi", "[[1,0],[0,1]]", "--y", "[3,-0.5]",
                               "--lambda", "1.0")
        assert code == 0
        assert np.allclose(json.loads(out)["x_hat"], [2.0, 0.0])

    def test_penalized_polyhedral_takes_the_active_set(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--mode", "penalized",
                               "--reg", "polyhedral",
                               "--hmat", "[[1,0,-1],[0,1,-1],[0,0,1]]",
                               "--phi", "[[1,0,0],[0,1,1]]", "--y", "[5,0]",
                               "--lambda", "0.5")
        r = json.loads(out)
        assert code == 0 and (r["method"], r["converged"]) == ("active-set",
                                                                True)
        assert np.abs(np.array(r["x_hat"]) - [4.5, 0.0, 0.0]).max() <= 1e-12

    @pytest.mark.parametrize("phi, method", [
        ("[[1,0,0],[0,1,1]]", "path"),
        # Phi annihilates the constants, Ker D*: the active-set backstop
        ("[[1,-1,0],[0,1,-1]]", "active-set")])
    def test_penalized_tv1d_route(self, capsys, phi, method):
        code, out, _ = run_cli(capsys, "solve", "--mode", "penalized",
                               "--reg", "tv1d", "--phi", phi, "--y", "[5,0]",
                               "--lambda", "0.5")
        r = json.loads(out)
        assert code == 0 and (r["method"], r["converged"]) == (method, True)
        if method == "path":
            assert np.abs(np.array(r["x_hat"])
                          - [4.5, 0.125, 0.125]).max() <= 1e-12

    def test_penalized_polyhedral_with_equal_columns_of_h(self, capsys):
        # columns 1 and 3 of H are equal, so the model of the solution
        # meets a D_S0 of round-off, H (e_1 - e_3) / sqrt(2); its rank was
        # judged against its own scale and the decomposition raised
        # "anchor point does not lie in its model subspace"
        code, out, err = run_cli(
            capsys, "solve", "--mode", "penalized", "--reg", "polyhedral",
            "--phi", "[[-1,-3],[-2,0]]", "--y", "[1,1]", "--lambda", "0.5",
            "--hmat", "[[0,1,0,2,2,0,0],[-2,-1,-2,0,-1,-1,0]]")
        assert code == 0, err
        assert json.loads(out)["converged"]

    def test_numerical_lp_trouble_exits_4(self, capsys, monkeypatch):
        # y = 0 keeps the active set at x = 0, where the first-order test
        # evaluates the polar, one LP
        from gaugerec import gauges
        from gaugerec.lp import LpResult, INFEASIBLE
        monkeypatch.setattr(gauges, "lp_solve",
                            lambda prob: LpResult(INFEASIBLE))
        code, out, err = run_cli(capsys, "solve", "--mode", "penalized",
                                 "--reg", "polyhedral",
                                 "--hmat", "[[1,0,-1],[0,1,-1],[0,0,1]]",
                                 "--phi", "[[1,0,0],[0,1,1]]", "--y", "[0,0]",
                                 "--lambda", "0.5", "--max-iter", "100")
        assert code == 4 and out == ""
        assert err.startswith("error:") and "infeasible" in err

    @pytest.mark.parametrize("args, name", [
        (["--tol", "nan"], "tol"), (["--tol", "-1"], "tol"),
        (["--max-iter", "0"], "max_iter"), (["--max-iter", "-5"], "max_iter"),
        (["--y", "[5]"], "y"), (["--y", "[5,0,1]"], "y")])
    def test_bad_options_and_shapes_exit_2(self, capsys, args, name):
        flags = [] if "--y" in args else ["--y", "[5,0]"]
        for mode in ("penalized", "noiseless"):
            code, out, err = run_cli(capsys, "solve", "--mode", mode,
                                     "--reg", "l1",
                                     "--phi", "[[1,0,0],[0,1,1]]",
                                     "--lambda", "0.5", *flags, *args)
            assert code == 2 and out == ""
            assert err.startswith(f"error: {name} must")

    @pytest.mark.parametrize("reg", ["l1", "tv1d"])
    def test_an_overflowing_phi_exits_2(self, capsys, reg):
        # FISTA (l1) used to end in an OverflowError traceback, and
        # Chambolle-Pock (tv1d) in scipy's message about infs or NaNs
        code, out, err = run_cli(capsys, "solve", "--mode", "penalized",
                                 "--reg", reg,
                                 "--phi", "[[1e160,0,0],[0,1e160,1e160]]",
                                 "--y", "[5,0]", "--lambda", "0.5")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "scale of Phi" in err

    def test_penalized_needs_lambda(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--mode", "penalized",
                               "--reg", "l1",
                               "--phi", "[[1,0],[0,1]]", "--y", "[3,-0.5]")
        assert code == 2


class TestExperiment:
    def test_cs_linf_writes_files(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "experiment", "cs-linf", "--n", "16",
                               "--i-size", "4", "--q", "14", "--trials", "10",
                               "--seed", "3", "--out", str(tmp_path))
        assert code == 0
        files = json.loads(out)
        lines = open(files["csv"]).read().strip().splitlines()
        assert lines[0] == "N,Q,I_size,trials,success,frequency,beta,bound"
        row = lines[1].split(",")
        assert row[0] == "16" and row[3] == "10"
        sidecar = json.load(open(files["json"]))
        assert sidecar["config"]["seed"] == 3

    def test_from_config_round_trip(self, capsys, tmp_path):
        cfg = {"kind": "phase-transition", "n": 12, "i_size": 4,
               "trials": 5, "seed": 1, "q_grid": [10, 12], "mode": "ic"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "experiment", "from-config",
                               "--config", str(cfg_path),
                               "--out", str(tmp_path))
        assert code == 0

    def test_model_selection_config(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        x0 = [0.0] * 12
        x0[1], x0[5] = 2.0, -1.5
        Phi = rng.standard_normal((9, 12)).tolist()
        cfg = {"kind": "model-selection", "phi": Phi, "x": x0,
               "noise_levels": [0.0], "lambda_grid": [0.05], "trials": 2,
               "seed": 1}
        cfg_path = tmp_path / "ms.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "experiment", "from-config",
                                 "--config", str(cfg_path),
                                 "--out", str(tmp_path))
        if code == 0:
            assert (tmp_path / "model_selection.csv").exists()
        else:
            assert code == 2 and "certified" in err.lower()

    def test_unknown_config_keys_rejected(self, capsys, tmp_path):
        cfg = {"kind": "cs-linf", "n": 12, "i_size": 4, "trials": 5,
               "seed": 1, "bogus": True}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "experiment", "from-config",
                               "--config", str(cfg_path))
        assert code == 2
        assert "unknown keys" in err

    @pytest.mark.parametrize("key, value", [
        ("n", "12"), ("i_size", True), ("seed", "0"), ("seed", 1.5),
        ("q", 11.0), ("beta", "2"), ("q_grid", 9), ("q_grid", [10, 11.5]),
        ("noise_levels", 0.1), ("lambda_grid", [0.05, "x"])])
    def test_config_value_of_the_wrong_type_rejected(self, capsys, tmp_path,
                                                     key, value):
        kind = {"q_grid": "phase-transition", "noise_levels":
                "model-selection", "lambda_grid": "model-selection"}.get(
                    key, "cs-linf")
        cfg = {"cs-linf": {"n": 12, "i_size": 4, "trials": 2, "seed": 0},
               "phase-transition": {"n": 12, "i_size": 4, "trials": 2,
                                    "seed": 0, "q_grid": [10, 11]},
               "model-selection": {"phi": [[1.0, 0.0], [0.0, 1.0]],
                                   "x": [1.0, 0.0], "noise_levels": [0.0],
                                   "lambda_grid": [0.05], "trials": 2,
                                   "seed": 0}}[kind]
        cfg.update(kind=kind, **{key: value})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "experiment", "from-config",
                               "--config", str(cfg_path),
                               "--out", str(out_dir))
        assert code == 2 and err.startswith("error:") and repr(key) in err
        assert not out_dir.exists()

    @staticmethod
    def _cs_linf_by_jobs(capsys, tmp_path, args):
        """(exit code, CSV text or None) for --jobs 1 and --jobs 2."""
        outs = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / jobs
            code, _, _ = run_cli(capsys, "experiment", "cs-linf", *args,
                                 "--jobs", jobs, "--out", str(out_dir))
            csv = out_dir / "cs_linf.csv"
            outs.append((code, csv.read_text() if csv.exists() else None))
        return outs

    def test_jobs_flag_bit_identical(self, capsys, tmp_path):
        serial, parallel = self._cs_linf_by_jobs(
            capsys, tmp_path, ["--n", "12", "--i-size", "4", "--q", "11",
                               "--trials", "8", "--seed", "5"])
        assert serial[0] == 0
        assert serial == parallel

    @staticmethod
    def _outputs_by_jobs(capsys, tmp_path, args, stem):
        """(exit code, CSV text, JSON text) for --jobs 1 and --jobs 2."""
        outs = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / jobs
            code, _, _ = run_cli(capsys, "experiment", *args, "--jobs", jobs,
                                 "--out", str(out_dir))
            outs.append((code, (out_dir / (stem + ".csv")).read_text(),
                         (out_dir / (stem + ".json")).read_text()))
        return outs

    def test_phase_transition_jobs_bit_identical(self, capsys, tmp_path):
        serial, parallel = self._outputs_by_jobs(
            capsys, tmp_path, ["phase-transition", "--n", "12", "--i-size",
                               "4", "--q-min", "9", "--q-max", "11",
                               "--trials", "3", "--seed", "2", "--mode",
                               "noiseless_recovery"], "phase_transition")
        assert serial[0] == 0
        assert serial == parallel

    def test_model_selection_config_jobs_bit_identical(self, capsys,
                                                       tmp_path):
        Phi, x0 = random_l1_instance(1, 20, 18, 2)
        cfg = {"kind": "model-selection", "phi": Phi.tolist(),
               "x": x0.tolist(), "noise_levels": [0.0, 0.05],
               "lambda_grid": [0.01, 0.05], "trials": 2, "seed": 1}
        cfg_path = tmp_path / "ms.json"
        cfg_path.write_text(json.dumps(cfg))
        serial, parallel = self._outputs_by_jobs(
            capsys, tmp_path, ["from-config", "--config", str(cfg_path)],
            "model_selection")
        assert serial[0] == 0
        assert serial == parallel

    def test_model_selection_non_convergence_exits_5(self, capsys,
                                                     tmp_path, monkeypatch):
        from gaugerec import experiments
        from gaugerec.solvers import SolveResult
        monkeypatch.setattr(
            experiments, "solve_penalized",
            lambda Phi, y, lam, g, opts=None: SolveResult(
                np.zeros(Phi.shape[1]), 3, 1.0, 0.0, False, "fista"))
        Phi, x0 = random_l1_instance(1, 20, 18, 2)
        cfg = {"kind": "model-selection", "phi": Phi.tolist(),
               "x": x0.tolist(), "noise_levels": [0.05],
               "lambda_grid": [0.01], "trials": 2, "seed": 1}
        cfg_path = tmp_path / "ms.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "experiment", "from-config",
                                 "--config", str(cfg_path),
                                 "--out", str(tmp_path))
        assert code == 5 and out == ""
        assert "eps=0.05, lambda=0.01, trial 0 did not converge" in err
        assert not (tmp_path / "model_selection.csv").exists()

    @pytest.mark.parametrize("args, config", [
        (["cs-linf", "--n", "12", "--i-size", "4", "--q", "11",
          "--trials", "-3"], None),
        (["phase-transition", "--n", "12", "--i-size", "4", "--q-min", "11",
          "--q-max", "9", "--trials", "2"], None),
        (["from-config"], {"kind": "cs-linf", "n": 12, "i_size": 4, "q": 11,
                           "trials": 2.5, "seed": 0}),
    ], ids=["negative-trials", "empty-q-grid", "fractional-trials"])
    def test_sweep_without_trials_is_a_validation_failure(self, capsys,
                                                          tmp_path, args,
                                                          config):
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            args = args + ["--config", str(cfg_path)]
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "experiment", *args,
                               "--out", str(out_dir))
        assert code == 2 and err.startswith("error:")
        assert not out_dir.exists()

    @pytest.mark.parametrize("args, code", [
        # |I| = 2 has no probability bound: the serial run writes bound nan
        (["--n", "10", "--i-size", "2", "--q", "9"], 0),
        # Q below dim T: both runs must reject, none may write a row
        (["--n", "12", "--i-size", "4", "--q", "5"], 2),
    ], ids=["small-support", "q-below-dim-t"])
    def test_jobs_flag_same_exit_code_and_csv(self, capsys, tmp_path, args,
                                              code):
        serial, parallel = self._cs_linf_by_jobs(
            capsys, tmp_path, args + ["--trials", "6", "--seed", "3"])
        assert serial[0] == code
        assert serial == parallel


class TestPolar:
    def test_bipolar_pass(self, capsys):
        code, out, _ = run_cli(capsys, "polar", "--identity", "bipolar",
                               "--dim", "3", "--seed", "1")
        assert code == 0
        assert json.loads(out)["bipolar"]["pass"]

    def test_polytope_file_input(self, capsys, tmp_path):
        from gaugerec.polytopes import random_polytope
        P = random_polytope(2, seed=9)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(P.to_json_dict()))
        code, out, _ = run_cli(capsys, "polar", "--identity", "scaling",
                               "--polytope", str(path), "--seed", "2")
        assert code == 0

    @pytest.mark.parametrize("offset,code", [(1, 0), (2, 2)])
    def test_polytope_file_must_be_consistent(self, capsys, tmp_path, offset,
                                              code):
        # the diamond's points with its own facets (offset 1) or with the
        # facets of the diamond scaled by 2, which are not their hull
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({
            "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]],
            "halfspaces": [{"normal": n, "offset": offset} for n in
                           ([1, 1], [-1, -1], [1, -1], [-1, 1])]}))
        got, _, err = run_cli(capsys, "polar", "--identity", "all",
                              "--polytope", str(path))
        assert got == code, err
        if code:
            assert "not the hull" in err

    def test_all_identities(self, capsys):
        code, out, _ = run_cli(capsys, "polar", "--identity", "all",
                               "--dim", "2", "--seed", "4")
        payload = json.loads(out)
        assert code == 0, payload
        assert all(v["pass"] for v in payload.values())

    def test_cone_sum_with_positively_spanning_generators(self, capsys):
        # the four generators drawn at this seed positively span R^2, so the
        # cone's polar is {0} and both sides of the identity vanish
        code, out, _ = run_cli(capsys, "polar", "--dim", "2", "--seed", "1")
        payload = json.loads(out)
        assert code == 0, payload
        assert payload["cone-sum"]["worst_gap"] == 0.0

    @pytest.mark.parametrize("mutation,dim,seed", [
        ("scaled-polar", 3, 2), ("dropped-generator", 3, 2),
        ("dropped-generator", 2, 1)])
    def test_cone_sum_fails_on_mutation(self, capsys, monkeypatch, mutation,
                                        dim, seed):
        from gaugerec import cli, polytopes
        if mutation == "scaled-polar":
            polar = polytopes.Polytope.polar
            monkeypatch.setattr(polytopes.Polytope, "polar",
                                lambda P: polar(P).scale(0.5))
        else:
            # the gauge side loses a generator that is an extreme ray
            gauge = cli._cone_sum_gauge
            monkeypatch.setattr(cli, "_cone_sum_gauge",
                                lambda gens, D, u: gauge(gens[1:], D, u))
        code, out, _ = run_cli(capsys, "polar", "--identity", "cone-sum",
                               "--dim", str(dim), "--seed", str(seed))
        assert code == 6
        assert json.loads(out)["cone-sum"]["worst_gap"] > 0.1
