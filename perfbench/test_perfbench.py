"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import time
import types
from pathlib import Path

import pytest

from perfbench import metrics, spans, stats
from perfbench.spans import Span, Tracer, covered_length, layer_split, self_times

ROOT = Path(__file__).resolve().parent.parent


# -- percentiles --------------------------------------------------------
@pytest.mark.parametrize(
    "n, q",
    [(1000, 99.0), (999, 98.0), (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    values = [float(i) for i in range(n)]
    got_q, value = stats.tail_percentile(values)
    assert got_q == q
    beyond = sum(1 for v in values if v > value)
    assert beyond >= stats.MIN_BEYOND
    higher = [p for p in stats.TAIL_LADDER if p > got_q]
    if higher:
        _, next_beyond = stats.nearest_rank(sorted(values), min(higher))
        assert next_beyond < stats.MIN_BEYOND


def test_tail_percentile_needs_enough_samples():
    assert stats.tail_percentile([1.0] * 19) is None
    summary = stats.latency_summary([0.001] * 5)
    assert summary == {"n": 5, "p50": 1.0, "tail_q": 0.0, "tail": 1.0}


def test_tail_percentile_ignores_input_order():
    values = [5.0, 1.0, 3.0] * 400
    assert stats.tail_percentile(values) == stats.tail_percentile(sorted(values))


def test_spread_is_iqr_over_median():
    assert stats.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert stats.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


def test_cycle_rate_weights_kinds_by_their_count_in_the_cycle():
    cycle = ["cold", "hit", "hit", "hit"]
    seconds = {"cold": [0.05, 0.01, 0.02], "hit": [0.001, 0.003, 0.002]}
    points = {"cold": 1, "hit": 1}
    # median cold 0.02 s + 3 hits at 0.002 s = 0.026 s for 4 points
    assert stats.cycle_rate(cycle, seconds, points) == pytest.approx(4 / 0.026)


def test_reference_loop_takes_milliseconds():
    assert 1e-4 < stats.reference_seconds(repeats=1) < 1.0


# -- span arithmetic ----------------------------------------------------
def test_covered_length_merges_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 20)], 0, 10) == pytest.approx(7.0)
    assert covered_length([], 0, 10) == 0.0


def test_self_time_from_nested_spans():
    spans_ = [
        Span(1, "run", 0.0, 10.0, 0),
        Span(2, "scheduling.a", 1.0, 4.0, 1),
        Span(3, "simulation.b", 4.0, 6.0, 1),
        Span(4, "simulation.c", 1.5, 2.5, 2),
    ]
    selfs = self_times(spans_)
    assert selfs == pytest.approx({1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0})
    layers, residual, wall = layer_split(spans_)
    assert layers == pytest.approx({"scheduling": 2.0, "simulation": 3.0})
    assert residual == pytest.approx(5.0)
    assert wall == 10.0


def test_layer_split_needs_one_root():
    with pytest.raises(ValueError):
        layer_split([Span(1, "scheduling.a", 0.0, 1.0, 0)])


def _work(seconds: float) -> float:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return seconds


class _Owner:
    def outer(self) -> float:
        _work(0.002)
        return module.inner() + self.helper(0.001)

    @staticmethod
    def helper(seconds: float) -> float:
        return _work(seconds)

    @classmethod
    def make(cls) -> "_Owner":
        return cls()


class _Child(_Owner):
    pass


module = types.SimpleNamespace(inner=lambda: _work(0.003))


def test_traced_residual_is_non_negative_and_accounts_for_wall():
    tracer = Tracer("test")
    tracer.wrap_span(_Owner, "outer", "scheduling.outer")
    tracer.wrap_span(_Owner, "helper", "simulation.helper")
    tracer.wrap_span(module, "inner", "simulation.inner")
    tracer.wrap_count(_Owner, "make", "scheduling.make_calls")
    try:
        with tracer.span("run"):
            for _ in range(3):
                _Owner.make().outer()
                _work(0.001)
    finally:
        tracer.restore()
    layers, residual, wall = layer_split(tracer.spans)
    assert residual >= 0.0
    assert residual >= 0.002  # the loop's own _work(0.001) calls
    assert sum(layers.values()) + residual == pytest.approx(wall, rel=1e-9)
    assert tracer.counts["scheduling.make_calls"] == 3
    assert layers["simulation"] >= 3 * 0.004
    names = sorted({s.name for s in tracer.spans})
    assert names == ["run", "scheduling.outer", "simulation.helper", "simulation.inner"]


def test_restore_puts_back_every_kind_of_attribute():
    before = (
        vars(_Owner)["outer"], vars(_Owner)["helper"], vars(_Owner)["make"],
        module.inner,
    )
    tracer = Tracer("test")
    tracer.wrap_span(_Owner, "outer", "a.outer")
    tracer.wrap_span(_Owner, "helper", "a.helper")
    tracer.wrap_span(_Owner, "make", "a.make")
    tracer.wrap_span(_Child, "outer", "a.child_outer")
    tracer.wrap_span(module, "inner", "a.inner")
    assert isinstance(_Owner.make(), _Owner)
    assert _Owner.helper(0.0) == 0.0
    tracer.restore()
    after = (
        vars(_Owner)["outer"], vars(_Owner)["helper"], vars(_Owner)["make"],
        module.inner,
    )
    assert after == before
    assert "outer" not in vars(_Child)


def test_spans_from_other_threads_are_not_recorded():
    import threading

    tracer = Tracer("test")
    tracer.wrap_span(module, "inner", "simulation.inner")
    try:
        thread = threading.Thread(target=module.inner)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        tracer.restore()
    assert tracer.spans == []


def test_count_drift_reports_changed_counts():
    from perfbench.run import count_drift

    a = types.SimpleNamespace(counts={"x": 3}, spans=[Span(1, "run", 0, 1, 0)])
    b = types.SimpleNamespace(counts={"x": 4}, spans=[Span(1, "run", 0, 1, 0)])
    assert count_drift(a, a) == []
    assert count_drift(a, b) == ["count x drifted: 3 then 4"]


# -- the manifest -------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_metric_tables():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.manifest()


def test_manifest_respects_the_schema_limits():
    doc = metrics.manifest()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert 1 <= doc["run_seconds"] <= 60


def test_every_per_layer_metric_names_its_workload_and_target():
    workloads = set(metrics.WORKLOADS) | {"all"}
    e2e = {m.name for m in metrics.END_TO_END}
    for m in metrics.PER_LAYER:
        assert set(m.workload.split(",")) <= workloads, m
        assert m.moves in e2e or m.moves.startswith("none"), m


def test_span_layers_have_self_time_metrics():
    layers = {
        m.name[len("self."):-len("_s")]
        for m in metrics.PER_LAYER if m.name.startswith("self.")
    }
    assert {"bench", "scheduling", "simulation", "service", "parallel"} <= layers
    assert spans.ROOT not in layers
