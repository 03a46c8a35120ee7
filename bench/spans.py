"""Traced mode: span-recording wrappers around gaugerec's public functions.

``traced(tracer)`` replaces each function in ``FUNCTIONS`` with a wrapper
that opens a span on entry and closes it on exit, in its defining module and
in every ``gaugerec`` module that imported it by name; the methods in
``METHODS`` are wrapped on their class.  Leaving the ``with`` block restores
every replaced name, so untraced runs execute unpatched code.

Spans live in flat arrays (name, parent, item, start, end) and are written
out only when the run ends.  A span's self time is its duration minus the
part of its interval that its child spans cover.
"""

import array
import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np

ITEM = "item"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.item = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = defaultdict(int)
        self.current_item = -1
        self._stack = []

    def _name(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        sid = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(float("nan"))
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid, name=None):
        """Close span ``sid``; ``name`` renames it (a route known only now)."""
        self.end[sid] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError("spans closed out of order")
        if name is not None:
            self.name_id[sid] = self._name(name)
        return self.end[sid] - self.start[sid]

    @contextlib.contextmanager
    def span(self, name):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def arrays(self):
        """(names, name_id, parent, item, start, end) as numpy arrays."""
        return (list(self.names), np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.item, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def dump(self, path):
        names, nid, parent, item, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(names), name_id=nid,
                            parent=parent, item=item, start=start, end=end)


def self_times(start, end, parent):
    """Self time of every span: duration minus the union of its children's
    intervals clipped to it.  ``parent[i]`` is -1 for a root span."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children = defaultdict(list)
    for i, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        ivs = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered = 0.0
        cur_s, cur_e = None, None
        for s, e in ivs:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _lp_result(counters, res, seconds):
    counters["lp.lp_solve.pivots"] += res.iterations
    counters["lp.lp_solve.nonoptimal"] += res.status != "optimal"


def _solve_result(counters, res, seconds):
    counters[f"solvers.{res.method}.iterations"] += res.iterations
    counters[f"solvers.{res.method}.seconds"] += seconds
    counters["solvers.solves"] += 1
    counters["solvers.converged"] += res.converged


def _ic_report(counters, rep, seconds):
    counters["certificates.identifiable"] += rep.identifiable


def _stability(counters, const, seconds):
    counters["certificates.exact"] += const.exact


def _bound_route(res):
    return f"linalg.operator_bound.{res.method}"


# (module, attribute, span name, result hook, span name from the result)
FUNCTIONS = (
    ("lp", "lp_solve", "lp.lp_solve", _lp_result, None),
    ("solvers", "solve_penalized", "solvers.solve_penalized", _solve_result,
     None),
    ("solvers", "solve_noiseless", "solvers.solve_noiseless", _solve_result,
     None),
    ("model", "decompose", "model.decompose", None, None),
    ("model", "precompose", "model.precompose", None, None),
    ("model", "psfl_precompose", "model.psfl_precompose", None, None),
    ("model", "decompose_l1", "model.decompose_l1", None, None),
    ("model", "decompose_linf", "model.decompose_linf", None, None),
    ("model", "decompose_group", "model.decompose_group", None, None),
    ("gauges", "project_l1_ball", "gauges.project_l1_ball", None, None),
    ("gauges", "project_simplex_interior", "gauges.project_simplex_interior",
     None, None),
    ("polytopes", "minkowski_sum_gauge", "polytopes.minkowski_sum_gauge",
     None, None),
    ("polytopes", "linear_image_gauge", "polytopes.linear_image_gauge",
     None, None),
    ("polytopes", "inverse_sum_polar_check",
     "polytopes.inverse_sum_polar_check", None, None),
    ("linalg", "restricted_injectivity", "linalg.restricted_injectivity",
     None, None),
    ("linalg", "operator_bound", "linalg.operator_bound", None, _bound_route),
    ("linalg", "power_operator_norm", "linalg.power_operator_norm", None,
     None),
    ("certificates", "irrepresentability", "certificates.irrepresentability",
     _ic_report, None),
    ("certificates", "stability_constants",
     "certificates.stability_constants", _stability, None),
    ("certificates", "check_noisy_optimality",
     "certificates.check_noisy_optimality", None, None),
)

# (module, class, method, span name)
METHODS = (
    ("gauges", "L1", "prox", "gauges.prox"),
    ("gauges", "Linf", "prox", "gauges.prox"),
    ("gauges", "GroupL1L2", "prox", "gauges.prox"),
    ("polytopes", "Polytope", "from_vertices", "polytopes.from_vertices"),
    ("polytopes", "Polytope", "from_halfspaces", "polytopes.from_halfspaces"),
    ("polytopes", "Polytope", "polar", "polytopes.polar"),
)


def _wrap(tracer, fn, name, hook=None, name_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid)
            raise
        seconds = tracer.close(
            sid, name_of(result) if name_of is not None else None)
        if hook is not None:
            hook(tracer.counters, result, seconds)
        return result
    return wrapper


def _gaugerec_modules():
    return [m for k, m in sorted(sys.modules.items()) if m is not None
            and (k == "gaugerec" or k.startswith("gaugerec."))]


def install(tracer, patched):
    """Wrap every target, appending to ``patched`` the (owner, attribute,
    original) record that ``restore`` needs as each name is replaced."""
    mods = _gaugerec_modules()
    for mod_name, attr, name, hook, name_of in FUNCTIONS:
        original = getattr(sys.modules["gaugerec." + mod_name], attr)
        wrapper = _wrap(tracer, original, name, hook, name_of)
        for mod in mods:
            if vars(mod).get(attr) is original:
                patched.append((mod, attr, original))
                setattr(mod, attr, wrapper)
    for mod_name, cls_name, meth, name in METHODS:
        cls = getattr(sys.modules["gaugerec." + mod_name], cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            wrapper = classmethod(_wrap(tracer, raw.__func__, name))
        else:
            wrapper = _wrap(tracer, raw, name)
        patched.append((cls, meth, raw))
        setattr(cls, meth, wrapper)


def restore(patched):
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


@contextlib.contextmanager
def traced(tracer):
    patched = []
    try:
        install(tracer, patched)
        yield patched
    finally:
        restore(patched)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

ROUTES = ("exact-vertex", "exact-closed-form", "sampled-lower-bound")

# (metric name, unit, better); BENCHMARK.json lists the same names.
PER_LAYER = (
    [("lp.lp_solve." + k, u, "lower") for k, u in (
        ("calls", "count"), ("self_s", "s"), ("pivots", "count"),
        ("s_per_pivot", "s"), ("nonoptimal", "count"))]
    + [(f"solvers.{f}.{k}", u, "lower")
       for f in ("solve_penalized", "solve_noiseless")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"solvers.{r}.{k}", u, "lower") for r in ("fista", "pd")
       for k, u in (("iterations", "count"), ("s_per_iter", "s"))]
    + [("solvers.converged_fraction", "fraction", "higher")]
    + [(f"model.{f}.{k}", u, "lower") for f in ("decompose", "precompose")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"model.{f}.self_s", "s", "lower") for f in (
        "psfl_precompose", "decompose_l1", "decompose_linf",
        "decompose_group")]
    + [(f"gauges.{f}.{k}", u, "lower")
       for f in ("prox", "project_l1_ball", "project_simplex_interior")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"polytopes.{f}.{k}", u, "lower")
       for f in ("from_vertices", "from_halfspaces", "polar")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"polytopes.{f}.self_s", "s", "lower") for f in (
        "minkowski_sum_gauge", "linear_image_gauge",
        "inverse_sum_polar_check")]
    + [(f"linalg.restricted_injectivity.{k}", u, "lower")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"linalg.operator_bound.{r}.{k}", u, "lower") for r in ROUTES
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"linalg.power_operator_norm.{k}", u, "lower")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"certificates.{f}.{k}", u, "lower")
       for f in ("irrepresentability", "stability_constants",
                 "check_noisy_optimality")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("certificates.exact_fraction", "fraction", "higher"),
       ("certificates.identifiable_fraction", "fraction", "higher"),
       ("trace.item_s", "s", "lower"),
       ("unattributed_s", "s", "lower"),
       ("trace_overhead", "ratio", "higher")]
)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, items, untraced_item_s):
    """Per-layer metric values of a traced run over ``items`` items, whose
    untraced pass took ``untraced_item_s`` seconds of item time."""
    names, nid, parent, _, start, end = tracer.arrays()
    own = self_times(start, end, parent)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for i, s in zip(nid.tolist(), own.tolist()):
        calls[names[i]] += 1
        self_s[names[i]] += s
    c = tracer.counters
    item_s = float(np.sum((end - start)[nid == names.index(ITEM)])) \
        if ITEM in names else 0.0
    out = {}
    for metric, _, _ in PER_LAYER:
        head, _, tail = metric.rpartition(".")
        if tail == "calls":
            out[metric] = calls[head]
        elif tail == "self_s":
            out[metric] = self_s[head]
        else:
            out[metric] = None
    out["lp.lp_solve.pivots"] = c["lp.lp_solve.pivots"]
    out["lp.lp_solve.s_per_pivot"] = _ratio(self_s["lp.lp_solve"],
                                            c["lp.lp_solve.pivots"])
    out["lp.lp_solve.nonoptimal"] = c["lp.lp_solve.nonoptimal"]
    for r in ("fista", "pd"):
        out[f"solvers.{r}.iterations"] = c[f"solvers.{r}.iterations"]
        out[f"solvers.{r}.s_per_iter"] = _ratio(c[f"solvers.{r}.seconds"],
                                                c[f"solvers.{r}.iterations"])
    out["solvers.converged_fraction"] = _ratio(c["solvers.converged"],
                                               c["solvers.solves"])
    out["certificates.exact_fraction"] = _ratio(c["certificates.exact"], items)
    out["certificates.identifiable_fraction"] = _ratio(
        c["certificates.identifiable"],
        calls["certificates.irrepresentability"])
    out["trace.item_s"] = item_s
    out["unattributed_s"] = self_s[ITEM]
    # traced items_per_s over untraced items_per_s, on the same items
    out["trace_overhead"] = _ratio(untraced_item_s, item_s)
    missing = [k for k, v in out.items() if v is None]
    if missing:
        raise RuntimeError(f"per-layer metrics without a source: {missing}")
    return out
