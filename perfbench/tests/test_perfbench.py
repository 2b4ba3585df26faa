"""Checks of the benchmark itself: seeded inputs, declared metric names
and span self-time accounting.

    python -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import WORKLOADS, bench, load, streams, tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fingerprint(stream):
    return [
        (r.kind, r.netlist_key, r.mode, r.words, r.reference, r.strict,
         [f.cell for f in r.faults], r.noise, r.body)
        for r in stream
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_stream_other_seed_other_stream(workload):
    first = streams.make_stream(workload, 7)
    again = streams.make_stream(workload, 7)
    other = streams.make_stream(workload, 8)
    assert _fingerprint(first) == _fingerprint(again)
    assert _fingerprint(first) != _fingerprint(other)
    # Stratified: the class mix is the same whatever the seed.
    mix = sorted((r.kind, r.mode, r.n_words) for r in first)
    assert mix == sorted((r.kind, r.mode, r.n_words) for r in other)


def test_references_are_the_boolean_model():
    for request in streams.make_stream("serve-mixed", 3)[:40]:
        for i, word in enumerate(request.words):
            expected = request.netlist.evaluate(word)
            assert {k: v[i] for k, v in request.reference.items()} == expected


def test_check_result_is_bit_exact_for_nominal_requests():
    request = streams.make_stream("serve-rca4", 0)[0]
    outputs = {k: list(v) for k, v in request.reference.items()}
    failed = [False] * request.n_words
    assert streams.check_result(request, 200, outputs, failed, 32)
    name = next(iter(outputs))
    outputs[name][5] ^= 1
    assert not streams.check_result(request, 200, outputs, failed, 32)
    assert not streams.check_result(
        request, 422, request.reference, failed, 32
    )


def test_declared_workloads_match_the_runner():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert set(bench.WORKLOADS) == set(WORKLOADS)


def test_emitted_metric_names_equal_the_declared_ones():
    """A short traced run, on real daemon processes, through both metric
    builders."""
    # Sub-windows of one sampling step: the run lasts half a second.
    cfg = dict(bench.WORKLOADS["serve-rca4"], sub_steps=1)
    stream = streams.make_stream("serve-rca4", 0)[:4]
    halves, recorder, counters = bench._serve_traced(
        str(ROOT), bench.child_env(str(ROOT)), cfg, stream, 1.0, None
    )
    for window, _ in halves:
        assert window and all(r.ok for r in window)
    assert counters["executor.requests"] > 0
    layers = bench.per_layer(
        recorder, halves[1], halves[0], [{"import_s": 0.5, "warm_s": 0.1}],
        cfg,
    )
    e2e = bench.end_to_end(*halves[0], cfg, [1.0], 100.0)
    assert list(e2e) == [m["name"] for m in DECLARED["end_to_end"]]
    assert list(layers) == [m["name"] for m in DECLARED["per_layer"]]
    declared_units = {
        m["name"]: m["unit"]
        for m in DECLARED["end_to_end"] + DECLARED["per_layer"]
    }
    for name, (_, unit) in {**e2e, **layers}.items():
        assert declared_units[name] == unit, name
    assert 0.0 < layers["bench.span_coverage_share"][0] <= 1.0


def _span(recorder_spans, id, start, end, parent=None):
    span = tracing.Span(id, f"s{id}", start, parent)
    span.end = end
    recorder_spans.append(span)
    return span


def _tree(spans):
    _span(spans, 1, 0.0, 10.0)                 # root
    _span(spans, 2, 1.0, 4.0, parent=1)        # child
    _span(spans, 3, 2.0, 3.0, parent=2)        # grandchild
    _span(spans, 4, 5.0, 9.0, parent=1)        # child with
    _span(spans, 5, 5.0, 7.0, parent=4)        # two overlapping
    _span(spans, 6, 6.0, 8.0, parent=4)        # grandchildren
    return spans


def test_self_times_add_back_up_to_span_totals():
    spans = _tree([])
    selfs = tracing.self_times(spans)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)      # 4 - union [5, 8]
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 4.0)
    # A subtree's self times add back up to its root's duration once
    # overlapping siblings are disjoint.
    disjoint = [s for s in spans if s.id != 6]
    selfs = tracing.self_times(disjoint)
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert selfs[2] + selfs[3] == pytest.approx(3.0)
    assert selfs[4] + selfs[5] == pytest.approx(4.0)


def test_covered_share_drops_with_missing_spans():
    spans = [s for s in _tree([]) if s.id != 6]
    # The children cover 3 + 4 of the root's 10 seconds.
    assert tracing.covered_share(
        spans, tracing.self_times(spans), [1]
    ) == pytest.approx(0.7)
    # Without span 4 (and its subtree) only 3 seconds stay covered.
    fewer = [s for s in spans if s.id in (1, 2, 3)]
    assert tracing.covered_share(
        fewer, tracing.self_times(fewer), [1]
    ) == pytest.approx(0.3)


def test_recorder_links_spans_across_threads_by_request_id():
    import threading

    recorder = tracing.Recorder()
    with recorder.span("client.request", rid="r1", root=True) as root:
        def handler():
            with recorder.span("serve.http", rid="r1"):
                with recorder.span("inner"):
                    pass
        thread = threading.Thread(target=handler)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    http = recorder.by_name("serve.http")[0]
    inner = recorder.by_name("inner")[0]
    assert http.parent == root.id and http.rid == "r1"
    assert inner.parent == http.id and inner.rid == "r1"
