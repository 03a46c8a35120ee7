import sys

import numpy as np
import pytest

import gaugerec
from gaugerec import lp, polytopes
import spans
from spans import Tracer, install, restore, self_times, traced


def _names_holding(obj):
    """(module name, attribute) of every gaugerec module binding ``obj``."""
    return sorted((m.__name__, k) for m in spans._gaugerec_modules()
                  for k, v in vars(m).items() if v is obj)


def test_self_time_of_nested_spans():
    #  root [0, 10]: a [1, 4], b [5, 9] with c [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips():
    # children [1, 5] and [3, 7] cover [1, 7]; [8, 12] is clipped to [8, 10]
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(2.0)


def test_tracer_records_parents_items_and_renames():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.current_item = 7
    root = tr.open("item")
    child = tr.open("x")
    assert tr.close(child, "x.route") == 1.0
    tr.close(root)
    names, nid, parent, item, start, end = tr.arrays()
    assert [names[i] for i in nid] == ["item", "x.route"]
    assert parent.tolist() == [-1, 0]
    assert item.tolist() == [7, 7]
    assert self_times(start, end, parent).tolist() == [2.0, 1.0]


def test_tracer_rejects_out_of_order_close():
    tr = Tracer()
    a = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)


def test_install_wraps_every_binding_and_restore_puts_back_originals():
    before = {}
    for mod_name, attr, *_ in spans.FUNCTIONS:
        original = getattr(sys.modules["gaugerec." + mod_name], attr)
        before[(mod_name, attr)] = (original, _names_holding(original))
    methods = {(m, c, meth): getattr(sys.modules["gaugerec." + m], c)
               .__dict__[meth] for m, c, meth, _ in spans.METHODS}

    # lp_solve is imported by name into five modules besides its own
    holders = {m for m, _ in before[("lp", "lp_solve")][1]}
    assert {"gaugerec.lp", "gaugerec.model", "gaugerec.certificates",
            "gaugerec.solvers", "gaugerec.polytopes",
            "gaugerec.gauges"} <= holders
    assert "gaugerec.solvers" in {
        m for m, _ in before[("linalg", "power_operator_norm")][1]}

    patched = []
    try:
        install(Tracer(), patched)
        for (mod_name, attr), (original, holders) in before.items():
            for m, k in holders:
                now = getattr(sys.modules[m], k)
                assert now is not original
                assert now.__wrapped__ is original
        for (m, c, meth), raw in methods.items():
            assert getattr(sys.modules["gaugerec." + m], c).__dict__[meth] \
                is not raw
    finally:
        restore(patched)

    for (mod_name, attr), (original, holders) in before.items():
        assert _names_holding(original) == holders
    for (m, c, meth), raw in methods.items():
        assert getattr(sys.modules["gaugerec." + m], c).__dict__[meth] is raw


def test_wrapped_calls_record_spans_counters_and_routes():
    tr = Tracer()
    cube = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    with traced(tr):
        with tr.span("item"):
            P = polytopes.Polytope.from_vertices(cube)
            polytopes.minkowski_sum_gauge(P, P, np.array([1.0, 0.0]))
            gaugerec.operator_bound(np.eye(2), gaugerec.L1(2),
                                    gaugerec.L1(2))
    names, nid, parent, *_ = tr.arrays()
    seen = {names[i] for i in nid}
    assert {"item", "polytopes.from_vertices", "polytopes.minkowski_sum_gauge",
            "lp.lp_solve", "linalg.operator_bound.exact-vertex"} <= seen
    assert tr.counters["lp.lp_solve.pivots"] > 0
    # the LP runs inside the gauge evaluation
    lp_span = [i for i, n in enumerate(nid) if names[n] == "lp.lp_solve"][0]
    assert names[nid[parent[lp_span]]] == "polytopes.minkowski_sum_gauge"
    # restored: no further spans
    n_before = len(nid)
    lp.lp_solve(lp.LpProblem(np.ones(1), bounds=[(0, None)]))
    assert len(tr.arrays()[1]) == n_before


def test_layer_self_times_account_for_item_time():
    tr = Tracer()
    with traced(tr):
        for k in range(3):
            tr.current_item = k
            with tr.span("item"):
                P = polytopes.Polytope.from_vertices(
                    np.random.default_rng(k).standard_normal((8, 3)))
                P.polar()
    out = spans.layer_metrics(tr, 3, untraced_item_s=1.0)
    self_total = sum(v for k, v in out.items() if k.endswith(".self_s"))
    assert self_total + out["unattributed_s"] == pytest.approx(
        out["trace.item_s"], rel=1e-9)
    assert out["polytopes.from_vertices.calls"] == 6   # 3 balls + 3 polars
    assert out["polytopes.polar.calls"] == 3
    assert set(out) == {name for name, _, _ in spans.PER_LAYER}
