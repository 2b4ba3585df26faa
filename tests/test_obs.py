"""Tests for the ``repro.obs`` metrics + tracing layer (PR 8).

Pins the registry contract (thread-safe counters, span nesting,
JSON-pure snapshot round-trips, the disabled no-op fast path) and --
the load-bearing guarantee -- that instrumenting the circuit stack
changed no physics: packed, trace and coalesced runs remain
bit-identical with profiling enabled.
"""

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.circuits import CircuitEngine, CircuitExecutor, full_adder
from repro.obs import MetricsRegistry


# ----------------------------------------------------------------------
# Counters, gauges, histograms
# ----------------------------------------------------------------------
def test_counter_increments():
    registry = MetricsRegistry(enabled=True)
    registry.inc("a")
    registry.inc("a", 4)
    assert registry.counter("a") == 5
    assert registry.counter("never") == 0


def test_gauge_last_write_wins():
    registry = MetricsRegistry(enabled=True)
    registry.gauge("depth", 3)
    registry.gauge("depth", 7)
    assert registry.snapshot()["gauges"]["depth"] == 7


def test_histogram_buckets_and_stats():
    registry = MetricsRegistry(enabled=True)
    for value in (0.5, 1.5, 2.5, 10.0):
        registry.observe("latency", value, bounds=(1.0, 2.0, 4.0))
    h = registry.histogram("latency")
    assert h["count"] == 4
    assert h["counts"] == [1, 1, 1, 1]  # one per bucket + overflow
    assert h["min"] == 0.5
    assert h["max"] == 10.0
    assert h["mean"] == pytest.approx(3.625)


def test_histogram_rejects_unsorted_bounds():
    registry = MetricsRegistry(enabled=True)
    with pytest.raises(ValueError):
        registry.observe("bad", 1.0, bounds=(2.0, 1.0))


def test_counters_record_even_when_disabled():
    # Counters are serving statistics (executor stats, cache hits) --
    # the ``enabled`` switch gates only timing instrumentation.
    registry = MetricsRegistry(enabled=False)
    registry.inc("requests")
    registry.observe("occupancy", 0.5, bounds=(0.5, 1.0))
    assert registry.counter("requests") == 1
    assert registry.histogram("occupancy")["count"] == 1


def test_thread_safety_concurrent_increments():
    registry = MetricsRegistry(enabled=True)
    n_threads, n_increments = 8, 2_000

    def worker():
        for _ in range(n_increments):
            registry.inc("shared")
            registry.observe("value", 1.0)
            with registry.span("work"):
                pass

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    total = n_threads * n_increments
    assert registry.counter("shared") == total
    assert registry.histogram("value")["count"] == total
    snapshot = registry.snapshot()
    (work,) = snapshot["spans"]
    assert work["name"] == "work"
    assert work["count"] == total


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_nesting_builds_tree():
    registry = MetricsRegistry(enabled=True)
    with registry.span("outer"):
        with registry.span("inner"):
            pass
        with registry.span("inner"):
            pass
    (outer,) = registry.snapshot()["spans"]
    assert outer["name"] == "outer"
    assert outer["count"] == 1
    (inner,) = outer["children"]
    assert inner["name"] == "inner"
    assert inner["count"] == 2  # same-path spans aggregate
    assert outer["total"] >= inner["total"]


def test_span_exposes_elapsed():
    registry = MetricsRegistry(enabled=True)
    with registry.span("timed") as span:
        pass
    assert span.elapsed >= 0.0


def test_span_records_on_exception():
    registry = MetricsRegistry(enabled=True)
    with pytest.raises(RuntimeError):
        with registry.span("failing"):
            raise RuntimeError("boom")
    (node,) = registry.snapshot()["spans"]
    assert node["name"] == "failing"
    assert node["count"] == 1
    # The stack unwound: a later span is a root, not a child.
    with registry.span("after"):
        pass
    assert {n["name"] for n in registry.snapshot()["spans"]} == {
        "failing", "after",
    }


def test_record_inserts_leaf_span():
    registry = MetricsRegistry(enabled=True)
    with registry.span("parent"):
        registry.record("premeasured", 0.25)
    (parent,) = registry.snapshot()["spans"]
    (leaf,) = parent["children"]
    assert leaf["name"] == "premeasured"
    assert leaf["total"] == pytest.approx(0.25)


# ----------------------------------------------------------------------
# Disabled fast path
# ----------------------------------------------------------------------
def test_disabled_span_is_shared_noop():
    registry = MetricsRegistry(enabled=False)
    first = registry.span("a")
    second = registry.span("b")
    assert first is second  # one shared object: no per-call allocation
    with first as span:
        pass
    assert span.elapsed == 0.0
    assert registry.snapshot()["spans"] == []


def test_disabled_record_is_noop():
    registry = MetricsRegistry(enabled=False)
    registry.record("r", 1.0)
    snapshot = registry.snapshot()
    assert snapshot["histograms"] == {}
    assert snapshot["spans"] == []


def test_enable_disable_toggle():
    registry = MetricsRegistry(enabled=False)
    registry.enable()
    with registry.span("on"):
        pass
    registry.disable()
    with registry.span("off"):
        pass
    assert [n["name"] for n in registry.snapshot()["spans"]] == ["on"]


def test_global_enable_flips_default_inheritance():
    assert not obs.profiling()
    try:
        obs.enable()
        assert obs.profiling()
        assert MetricsRegistry().enabled  # enabled=None inherits
        assert obs.get_registry().enabled
    finally:
        obs.disable()
        obs.get_registry().reset()
    assert not MetricsRegistry().enabled


def test_use_registry_swaps_and_restores():
    private = MetricsRegistry(enabled=True)
    original = obs.get_registry()
    with obs.use_registry(private) as active:
        assert active is private
        assert obs.get_registry() is private
        obs.inc("routed")
    assert obs.get_registry() is original
    assert private.counter("routed") == 1
    assert original.counter("routed") == 0


# ----------------------------------------------------------------------
# Snapshot / export
# ----------------------------------------------------------------------
def test_snapshot_round_trips_through_json():
    registry = MetricsRegistry(enabled=True)
    registry.inc("count", 3)
    registry.gauge("level", 2.5)
    registry.observe("hist", 0.01)
    with registry.span("root"):
        with registry.span("child"):
            pass
    snapshot = registry.snapshot()
    assert json.loads(registry.to_json()) == snapshot


def test_snapshot_is_detached():
    registry = MetricsRegistry(enabled=True)
    registry.inc("n")
    snapshot = registry.snapshot()
    registry.inc("n")
    assert snapshot["counters"]["n"] == 1


def test_reset_clears_everything():
    registry = MetricsRegistry(enabled=True)
    registry.inc("c")
    registry.gauge("g", 1)
    registry.observe("h", 1.0)
    with registry.span("s"):
        pass
    registry.reset()
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {}
    assert snapshot["gauges"] == {}
    assert snapshot["histograms"] == {}
    assert snapshot["spans"] == []


def test_render_spans_and_metrics():
    registry = MetricsRegistry(enabled=True)
    registry.inc("requests", 2)
    registry.observe("latency", 0.001)
    with registry.span("flush"):
        pass
    spans = registry.render_spans()
    assert "flush" in spans
    metrics = registry.render_metrics()
    assert "requests" in metrics
    assert "latency" in metrics


def test_render_metrics_merges_snapshots():
    a = MetricsRegistry(enabled=True)
    b = MetricsRegistry(enabled=True)
    a.inc("shared", 2)
    b.inc("shared", 3)
    a.observe("lat", 1.0)
    b.observe("lat", 3.0)
    text = obs.render_metrics([a.snapshot(), b.snapshot()])
    assert "shared" in text
    assert "5" in text  # counters sum across registries
    assert "n=2" in text  # histogram counts merge


def test_report_includes_extra_registries():
    private = MetricsRegistry(enabled=True)
    private.inc("executor.requests", 7)
    text = obs.report(extra=[private])
    assert "executor.requests" in text
    assert "span tree" in text


# ----------------------------------------------------------------------
# Histogram edge cases (PR 10)
# ----------------------------------------------------------------------
def test_histogram_value_exactly_on_bound_lands_le():
    # Prometheus `le` semantics: a value equal to a bucket bound counts
    # in that bucket, not the next one.
    registry = MetricsRegistry(enabled=True)
    for value in (1.0, 2.0, 4.0):
        registry.observe("edge", value, bounds=(1.0, 2.0, 4.0))
    h = registry.histogram("edge")
    assert h["counts"] == [1, 1, 1, 0]


def test_histogram_overflow_bucket():
    registry = MetricsRegistry(enabled=True)
    registry.observe("over", 100.0, bounds=(1.0, 2.0))
    registry.observe("over", 1e9, bounds=(1.0, 2.0))
    h = registry.histogram("over")
    assert h["counts"] == [0, 0, 2]  # both beyond the last bound
    assert h["count"] == 2
    assert h["max"] == 1e9
    # The +Inf bucket still closes the Prometheus rendering at count.
    text = obs.render_prometheus([registry.snapshot()])
    assert 'over_bucket{le="+Inf"} 2' in text


def test_histogram_snapshot_races_concurrent_observe():
    # snapshot() must always return an internally consistent histogram
    # (count == sum of bucket counts, sum tracks count) even while
    # other threads are observing.
    registry = MetricsRegistry(enabled=True)
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            registry.observe("raced", 1.0, bounds=(0.5, 1.0, 2.0))

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(200):
            h = registry.histogram("raced")
            if h is None:
                continue
            assert h["count"] == sum(h["counts"])
            assert h["sum"] == pytest.approx(h["count"] * 1.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join()


# ----------------------------------------------------------------------
# Prometheus exposition (PR 10)
# ----------------------------------------------------------------------
def test_prometheus_name_sanitization():
    assert obs.prometheus_name("executor.queue_latency_s") == (
        "executor_queue_latency_s"
    )
    assert obs.prometheus_name("serve.errors.400") == "serve_errors_400"
    assert obs.prometheus_name("0weird-name!") == "_0weird_name_"


def test_render_prometheus_counters_and_gauges():
    registry = MetricsRegistry(enabled=True)
    registry.inc("serve.requests", 7)
    registry.gauge("pending", 3)
    registry.gauge("label", "text-valued")  # skipped: not a sample
    text = obs.render_prometheus([registry.snapshot()])
    assert "# TYPE serve_requests_total counter" in text
    assert "serve_requests_total 7" in text
    assert "# TYPE pending gauge" in text
    assert "pending 3" in text
    assert "label" not in text
    assert text.endswith("\n")


def test_render_prometheus_histogram_is_cumulative():
    registry = MetricsRegistry(enabled=True)
    for value in (0.5, 1.5, 2.5, 10.0):
        registry.observe("lat", value, bounds=(1.0, 2.0, 4.0))
    text = obs.render_prometheus([registry.snapshot()])
    assert 'lat_bucket{le="1"} 1' in text
    assert 'lat_bucket{le="2"} 2' in text
    assert 'lat_bucket{le="4"} 3' in text
    assert 'lat_bucket{le="+Inf"} 4' in text
    assert "lat_count 4" in text
    assert "lat_sum 14.5" in text


def test_render_prometheus_merges_snapshots():
    a = MetricsRegistry(enabled=True)
    b = MetricsRegistry(enabled=True)
    a.inc("shared", 2)
    b.inc("shared", 3)
    text = obs.render_prometheus([a.snapshot(), b.snapshot()])
    assert "shared_total 5" in text


def test_histogram_quantile_estimates():
    registry = MetricsRegistry(enabled=True)
    for value in (0.5, 0.5, 0.5, 3.0):
        registry.observe("q", value, bounds=(1.0, 2.0))
    h = registry.histogram("q")
    assert obs.histogram_quantile(h, 0.5) == 1.0  # upper bucket bound
    assert obs.histogram_quantile(h, 0.99) == 3.0  # overflow -> max
    assert obs.histogram_quantile(None, 0.5) is None
    assert obs.histogram_quantile({"count": 0}, 0.5) is None


# ----------------------------------------------------------------------
# Event log (PR 10)
# ----------------------------------------------------------------------
def test_event_log_ring_bound_and_dropped():
    log = obs.EventLog(capacity=3)
    for i in range(5):
        log.emit("access", path=f"/{i}")
    assert len(log) == 3
    assert log.dropped == 2
    assert [e["path"] for e in log.tail()] == ["/2", "/3", "/4"]


def test_event_log_rejects_bad_capacity():
    with pytest.raises(ValueError):
        obs.EventLog(capacity=0)


def test_event_log_stamps_and_filters():
    log = obs.EventLog(capacity=10)
    log.emit("access", status=200)
    log.emit("error", status=400)
    log.emit("access", status=200)
    events = log.tail()
    assert [e["seq"] for e in events] == [1, 2, 3]
    assert all("ts" in e for e in events)
    assert [e["kind"] for e in log.tail(kind="error")] == ["error"]
    assert len(log.tail(n=1)) == 1


def test_event_log_json_purifies_exotic_fields():
    log = obs.EventLog(capacity=4)
    event = log.emit(
        "block",
        words=np.int64(7),
        share=np.float64(0.5),
        ids=("a", "b"),
        nested={"x": np.int32(1)},
        exotic=object(),
    )
    json.dumps(event)  # must not raise
    assert event["words"] == 7
    assert event["ids"] == ["a", "b"]
    assert isinstance(event["exotic"], str)


def test_event_log_sink_writes_json_lines(tmp_path):
    path = tmp_path / "access.jsonl"
    log = obs.EventLog(capacity=4, sink=str(path))
    log.emit("access", path="/healthz", status=200)
    log.emit("error", status=400)
    log.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    decoded = [json.loads(line) for line in lines]
    assert decoded[0]["kind"] == "access"
    assert decoded[1]["status"] == 400


def test_event_log_concurrent_emit_keeps_sequence_unique():
    log = obs.EventLog(capacity=10_000)

    def worker():
        for _ in range(500):
            log.emit("access")

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    events = log.tail(n=None)
    assert len(events) == 2_000
    assert len({e["seq"] for e in events}) == 2_000


# ----------------------------------------------------------------------
# Instrumentation changes no physics
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def adder_case():
    netlist, _, _ = full_adder()
    batch = [
        {"a": 1, "b": 0, "cin": 1},
        {"a": 1, "b": 1, "cin": 1},
        {"a": 0, "b": 0, "cin": 0},
        {"a": 0, "b": 1, "cin": 0},
    ]
    return netlist, batch


def _margins(result):
    return np.array(
        [r.min_margin for r in result.levels if r.min_margin is not None]
    )


@pytest.mark.parametrize("mode", ["phasor", "trace"])
def test_profiled_run_is_bit_identical(adder_case, mode):
    netlist, batch = adder_case
    engine = CircuitEngine(netlist, n_bits=4)
    baseline = engine.run(batch, mode=mode)
    assert not obs.profiling()
    try:
        obs.enable()
        profiled = engine.run(batch, mode=mode)
    finally:
        obs.disable()
        obs.get_registry().reset()
    assert profiled.outputs == baseline.outputs
    assert profiled.failed == baseline.failed
    np.testing.assert_allclose(
        _margins(profiled), _margins(baseline), atol=1e-12
    )


def test_profiled_coalesced_run_is_bit_identical(adder_case):
    netlist, batch = adder_case

    def serve():
        executor = CircuitExecutor(n_bits=4)
        tickets = [executor.submit(netlist, [a]) for a in batch]
        return [t.result() for t in tickets]

    baseline = serve()
    try:
        obs.enable()
        profiled = serve()
    finally:
        obs.disable()
        obs.get_registry().reset()
    for base, prof in zip(baseline, profiled):
        assert prof.outputs == base.outputs
        np.testing.assert_allclose(
            _margins(prof), _margins(base), atol=1e-12
        )


def test_profiled_run_populates_span_tree(adder_case):
    netlist, batch = adder_case
    registry = MetricsRegistry(enabled=True)
    with obs.use_registry(registry):
        engine = CircuitEngine(netlist, n_bits=4)
        result = engine.run(batch)
    assert result.correct
    snapshot = registry.snapshot()
    names = {node["name"] for node in snapshot["spans"]}
    assert "compile_circuit" in names
    compile_node = next(
        n for n in snapshot["spans"] if n["name"] == "compile_circuit"
    )
    stages = {child["name"] for child in compile_node["children"]}
    assert stages == {"levelise", "allocate", "pack", "calibrate"}
    assert "circuit/level/phasor" in names
    assert snapshot["counters"]["circuit.packed_runs"] == 1
