"""gaugerec benchmark: one workload per process, closed loop, one thread.

    python3 bench/run.py --workload phase_transition --seed 1 --seconds 15

``--trace 0`` times a fixed number of whole rounds of the workload's item
rotation, sized from ``--seconds`` (at least 100 items), and prints the
end-to-end metrics.  ``--trace 1`` runs a fixed number of rounds, each item
once untraced and once with every traced library function wrapped (see
spans.py), and prints the per-layer metrics.  ``--workload all`` runs each
workload in its own process.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a record with the environment and every failed item goes to
``bench/out/``.  NOTES.md explains the metrics and workloads.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, fixed before numpy loads so that every item is single
# threaded and runs do not compete with each other for the two cores.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("phase_transition", "penalized_mix", "certify_lambda",
                  "polar_calculus")
SETUP_REPEATS = 5
# An untraced run has at least this many items, so that at least ten lie
# beyond its 90th percentile.
MIN_ITEMS = 100
CHILD_TIMEOUT_S = 170

# One timed item; ``reason`` is None when it passed, ``wrong`` is True when
# a check rejected an output (as opposed to no output at all).
Item = collections.namedtuple("Item",
                              "index kind seconds reason wrong ref_s")

# The host's speed drifts by up to 1.7x within seconds, so a fixed piece of
# work that does not touch gaugerec is timed at most every REF_EVERY_S
# between items; each item's time is also reported in units of the latest
# reference time, which cancels the drift (see NOTES.md).  One reference
# time is the median of REF_REPEATS timings back to back, so that a single
# interrupted timing does not skew the many short items that share it.
REF_EVERY_S = 0.25
REF_REPEATS = 3

# Metrics of the result line; BENCHMARK.json bounds each of them.
END_TO_END = (
    ("item_rel_gmean", "ref"),
    ("setup_s", "s"),
)
# Printed and recorded too, but not bounded: their spread across seeds
# exceeds the largest allowed bound on some workload (see NOTES.md).
REPORTED = (
    ("item_s_gmean", "s"),
    ("ref_s", "s"),
    ("item_s_p50", "s"),
    ("items_per_s", "1/s"),
    ("item_s_p90", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_fraction", "fraction"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def load_workload(name):
    """Import gaugerec from this checkout's ``src`` and return the workload."""
    init = os.path.join(SRC, "gaugerec", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"run.py: no gaugerec sources at {init}")
    sys.path.insert(0, SRC)
    import gaugerec
    if os.path.abspath(gaugerec.__file__) != os.path.abspath(init):
        raise SystemExit(f"run.py: imported gaugerec from "
                         f"{gaugerec.__file__}, not from {init}")
    from workloads import WORKLOADS
    return WORKLOADS[name]


def warm_up(wl, seed):
    """Run item 0 untimed.  First-call costs are a few milliseconds (lazy
    scipy paths), so one item is enough; timed items start at the next
    round."""
    try:
        return wl.run_item(wl.make_instance(seed, 0))
    except Exception as exc:  # reported, never counted: item 0 is untimed
        return repr(exc)


def setup_in_child(args):
    """Set-up time of a fresh process, as that process measured it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# timed rounds
# ---------------------------------------------------------------------------

def reference_work():
    """~5 ms of the interpreter-and-small-array work the items do: a fixed
    soft-thresholding loop on a 12 x 20 problem, in numpy only."""
    import numpy as np
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 20))
    y = rng.standard_normal(12)
    x = np.zeros(20)
    step = 1.0 / np.linalg.norm(A, 2) ** 2
    for _ in range(400):
        z = x - step * (A.T @ (A @ x - y))
        x = np.sign(z) * np.maximum(np.abs(z) - 0.1 * step, 0.0)
        sorted(np.abs(z).tolist())
    return x


def reference_time():
    """Median wall time of ``REF_REPEATS`` runs of ``reference_work``."""
    times = []
    for _ in range(REF_REPEATS):
        t = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def rounds_for(wl, seconds):
    """Rounds of an untraced run: ``seconds`` of the workload's nominal
    round time, and at least ``MIN_ITEMS`` items.  The count depends on
    ``seconds`` only, never on how fast the run goes, so a seed always
    gives the same items and so the same failures."""
    return max(math.ceil(MIN_ITEMS / len(wl.rotation)),
               round(seconds / wl.round_s))


def run_rounds(wl, seed, rounds):
    """``rounds`` whole rounds of the rotation, from item ``len(rotation)``
    on.

    Returns (list of Item, region_seconds).
    """
    per_round = len(wl.rotation)
    items = []
    ref_s, ref_at = None, None
    t_region = time.perf_counter()
    for i in range(per_round, per_round * (rounds + 1)):
        t = time.perf_counter()
        if ref_at is None or t - ref_at >= REF_EVERY_S:
            ref_s = reference_time()
            ref_at = time.perf_counter()
        items.append(_run_one(wl, wl.make_instance(seed, i), i, None, ref_s))
    return items, time.perf_counter() - t_region


def run_traced(wl, seed, tracer):
    """``wl.trace_rounds`` rounds from item ``len(rotation)`` on, each item
    run once untraced and once traced, back to back and alternating which
    goes first, so that the host's drift falls on both passes alike.

    Returns (untraced Items, traced Items), in the same order.
    """
    from spans import traced
    plain, spanned = [], []
    per_round = len(wl.rotation)
    for i in range(per_round, per_round * (wl.trace_rounds + 1)):
        for with_spans in (i % 2 == 1, i % 2 == 0):
            inst = wl.make_instance(seed, i)
            if with_spans:
                with traced(tracer):
                    spanned.append(_run_one(wl, inst, i, tracer, None))
            else:
                plain.append(_run_one(wl, inst, i, None, None))
    return plain, spanned


def _run_one(wl, inst, index, tracer, ref_s):
    sid = None
    if tracer is not None:
        tracer.current_item = index
        sid = tracer.open("item")
    t = time.perf_counter()
    try:
        reason = wl.run_item(inst)
        wrong = reason is not None
    except Exception as exc:  # a failed item is counted, never fatal
        reason, wrong = repr(exc), False
    dt = time.perf_counter() - t
    if tracer is not None:
        dt = tracer.close(sid)
    return Item(index, str(inst["kind"]), dt, reason, wrong, ref_s)


def end_to_end(items, region_s, setups):
    """Every end-to-end and reported metric of an untraced run."""
    import numpy as np
    times = np.array([it.seconds for it in items])
    refs = np.array([it.ref_s for it in items])
    p50, p90 = np.percentile(times, [50, 90])
    return {
        "item_rel_gmean": float(np.exp(np.mean(np.log(times / refs)))),
        "setup_s": statistics.median(setups),
        "item_s_gmean": float(np.exp(np.mean(np.log(times)))),
        "ref_s": float(np.median(refs)),
        "item_s_p50": float(p50),
        "items_per_s": len(items) / region_s,
        "item_s_p90": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "failed_fraction": sum(it.reason is not None for it in items)
        / len(items),
    }


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def git_sha():
    """HEAD of the checkout, read from .git without running git (which
    would search parent directories); "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(args, n_items):
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": n_items,
    }


def _failures(items):
    return [{"item": it.index, "kind": it.kind, "reason": it.reason,
             "wrong_output": it.wrong}
            for it in items if it.reason is not None]


def emit(args, result, record, units):
    """Print every metric line, save the record, print the result line."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(record, result=result), fh, indent=1, sort_keys=True)
    for k, v in sorted(record["environment"].items()):
        print(f"# {k}: {v}")
    for f in record["failures"]:
        print(f"# failed item {f['item']} ({f['kind']}): {f['reason']}")
    for name, value in record["metrics"].items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"# {result['attempted']} items, {result['failed']} failed; "
          f"record in {os.path.relpath(path, ROOT)}")
    print(json.dumps(result, sort_keys=True), flush=True)


def run_one_workload(args):
    wl = load_workload(args.workload)
    warm_reason = warm_up(wl, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] + [setup_in_child(args)
                          for _ in range(SETUP_REPEATS - 1)]

    if args.trace:
        from spans import PER_LAYER, Tracer, layer_metrics
        tracer = Tracer()
        base, items = run_traced(wl, args.seed, tracer)
        values = layer_metrics(tracer, len(items),
                               sum(it.seconds for it in base))
        units = {name: unit for name, unit, _ in PER_LAYER}
        gated = list(units)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-spans.npz"))
    else:
        items, region_s = run_rounds(wl, args.seed,
                                     rounds_for(wl, args.seconds))
        values = end_to_end(items, region_s, setups)
        units = dict(END_TO_END + REPORTED)
        gated = [name for name, _ in END_TO_END]

    result = {
        "correct": not any(it.wrong for it in items),
        "attempted": len(items),
        "failed": sum(it.reason is not None for it in items),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in gated},
    }
    record = {
        "environment": environment(args, len(items)),
        "metrics": values,
        "failures": _failures(items),
        "setup_samples_s": setups,
        "warm_up_failure": warm_reason,
        "item_seconds": [it.seconds for it in items],
    }
    emit(args, result, record, units)
    return 0


def run_all(args):
    """Each workload in its own process; one combined result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"run.py: workload {name} failed")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged, sort_keys=True), flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
