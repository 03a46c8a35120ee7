import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
from gaugerec import lp
from workloads import WORKLOADS, Workload

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _arrays(inst):
    """Every array in an instance, gauge parameters included."""
    out = {}
    for k, v in inst.items():
        if isinstance(v, np.ndarray):
            out[k] = v
        elif hasattr(v, "__dict__"):
            for a, w in vars(v).items():
                if isinstance(w, np.ndarray):
                    out[f"{k}.{a}"] = w
    return out


def _same(a, b):
    ka, kb = _arrays(a), _arrays(b)
    return ka.keys() == kb.keys() and all(
        np.array_equal(ka[k], kb[k]) for k in ka) and all(
        a[k] == b[k] for k in a if not isinstance(a[k], np.ndarray)
        and not hasattr(a[k], "__dict__"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    for i in range(len(wl.rotation) + 1):
        assert _same(wl.make_instance(3, i), wl.make_instance(3, i))
        assert not _same(wl.make_instance(3, i), wl.make_instance(4, i))
    assert wl.make_instance(3, 0)["kind"] == wl.rotation[0]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(spans.PER_LAYER)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "phase_transition",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_one_item_per_workload_passes_its_checks():
    for name, wl in sorted(WORKLOADS.items()):
        kind = wl.rotation[0]
        assert wl.run_item(wl.make_instance(1, 0)) is None, (name, kind)


def test_traced_run_pairs_every_item_and_restores_names():
    original = lp.lp_solve
    unpatched = []

    def make(rng, kind):
        return {"c": np.ones(1) + rng.uniform()}

    def run_item(inst):
        unpatched.append(lp.lp_solve is original)
        lp.lp_solve(lp.LpProblem(inst["c"], bounds=[(0, None)]))

    wl = Workload("fake", 0, ("a", "b"), make, run_item, trace_rounds=2)
    tracer = spans.Tracer()
    plain, spanned = run.run_traced(wl, 1, tracer)
    assert [it.index for it in plain] == [it.index for it in spanned] \
        == [2, 3, 4, 5]
    # each item untraced and traced, alternating which pass comes first
    assert unpatched == [True, False, False, True, True, False, False, True]
    names, nid, *_ = tracer.arrays()
    assert [names[i] for i in nid].count("lp.lp_solve") == 4
    assert lp.lp_solve is original


def test_untraced_run_has_a_fixed_item_set():
    def make(rng, kind):
        return {"u": float(rng.uniform())}

    def run_item(inst):
        if inst["u"] < 0.3:
            raise RuntimeError("no output")

    wl = Workload("fake", 0, ("a", "b"), make, run_item, trace_rounds=2,
                  round_s=0.5)
    assert run.rounds_for(wl, 30.0) == 60
    assert run.rounds_for(wl, 1.0) == run.MIN_ITEMS // 2
    first, _ = run.run_rounds(wl, 5, 3)
    again, _ = run.run_rounds(wl, 5, 3)
    assert [it.index for it in first] == [2, 3, 4, 5, 6, 7]
    assert [it.reason for it in first] == [it.reason for it in again]
    assert sum(it.reason is not None for it in first) == 3
