"""The serving daemon: HTTP round-trips pinned against in-process runs.

The conformance bar for ``repro.serve``: everything a client receives
over the wire -- output bits, expected bits, failure flags, per-level
margins, fault echoes, error classes -- must match what the same
request served through an in-process :class:`CircuitExecutor` yields,
to <= 1e-12 on margins and bit-identically on logic.  Also covers the
daemon's introspection endpoints, its error -> HTTP status mapping,
warm start over the executor, and concurrent clients exercising the
executor's submit/flush lock.
"""

import json
import math
import re
import threading

import pytest

from repro.circuits import (
    CellFault,
    CircuitExecutor,
    ripple_carry_adder,
)
from repro.circuits.netlist import Netlist
from repro.core.faults import TransducerFault
from repro.errors import NetlistError, ServeError, SimulationError
from repro.serve import CircuitServer, ServeClient
from repro.waveguide.noise import NoiseModel

N_BITS = 2

PIN = 1e-12


def xor_pair(title):
    netlist = Netlist(title)
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_input("c")
    netlist.add_cell("x", "XOR2", ("a", "b"))
    netlist.add_cell("y", "XOR2", ("x", "c"))
    netlist.mark_output("y")
    return netlist


BATCH = [
    {"a": 0, "b": 1, "c": 1},
    {"a": 1, "b": 1, "c": 0},
    {"a": 1, "b": 0, "c": 1},
]


@pytest.fixture()
def server():
    with CircuitServer(n_bits=N_BITS, max_latency=0.002) as daemon:
        yield daemon


@pytest.fixture()
def client(server):
    return ServeClient(server.url)


def reference_run(**kwargs):
    """The same request served by a fresh in-process executor."""
    executor = CircuitExecutor(n_bits=N_BITS)
    return executor.run(**kwargs)


def assert_pinned(remote, local):
    """Remote result == in-process result (bits exact, margins <= PIN)."""
    assert remote.outputs == local.outputs
    assert remote.expected == local.expected
    assert list(remote.failed) == list(local.failed)
    assert remote.n_entries == local.n_entries
    assert remote.mode == local.mode
    assert remote.correct == local.correct
    assert len(remote.levels) == len(local.levels)
    for mine, theirs in zip(remote.levels, local.levels):
        assert mine.level == theirs.level
        assert mine.n_cells == theirs.n_cells
        if theirs.min_margin is None or math.isnan(theirs.min_margin):
            assert mine.min_margin is None or math.isnan(mine.min_margin)
        else:
            assert abs(mine.min_margin - theirs.min_margin) <= PIN


class TestRunRoundTrips:
    def test_phasor_pinned_to_in_process(self, client):
        remote = client.run(xor_pair("wire"), BATCH)
        local = reference_run(
            netlist=xor_pair("wire"), assignments_batch=BATCH
        )
        assert_pinned(remote, local)

    def test_trace_pinned_to_in_process(self, client):
        remote = client.run(xor_pair("wire"), BATCH, mode="trace")
        local = reference_run(
            netlist=xor_pair("wire"), assignments_batch=BATCH,
            mode="trace",
        )
        assert_pinned(remote, local)

    def test_faults_and_noise_pinned(self, client):
        """Seeded noise + an injected fault realise identically on both
        sides of the wire (the executor derives per-(cell, group) noise
        from the seed, so transport cannot perturb it)."""
        faults = [
            CellFault("x", TransducerFault(
                "dead-source", channel=1, input_index=0, severity=0.6,
            ))
        ]
        noise = NoiseModel(amplitude_sigma=0.03, phase_sigma=0.02, seed=11)
        remote = client.run(
            xor_pair("noisy"), BATCH, faults=faults, noise=noise,
            strict=False,
        )
        local = reference_run(
            netlist=xor_pair("noisy"), assignments_batch=BATCH,
            faults=faults, noise=noise, strict=False,
        )
        assert_pinned(remote, local)
        assert [f.cell for f in remote.faults] == ["x"]

    def test_position_noise_rides_the_fallback_path(self, client, server):
        noise = NoiseModel(position_sigma=5e-9, seed=3)
        remote = client.run(
            xor_pair("placed"), BATCH, noise=noise, strict=False
        )
        local = reference_run(
            netlist=xor_pair("placed"), assignments_batch=BATCH,
            noise=noise, strict=False,
        )
        assert_pinned(remote, local)
        assert server.executor.stats["fallbacks"] == 1

    def test_adder_round_trip(self, client):
        netlist = ripple_carry_adder(3)
        batch = [{"a0": 1, "a1": 1, "a2": 0, "b0": 1, "b1": 0, "b2": 1}]
        remote = client.run(netlist, batch)
        local = reference_run(netlist=netlist, assignments_batch=batch)
        assert_pinned(remote, local)

    def test_cells_opt_in(self, client):
        lean = client.run(xor_pair("lean"), BATCH)
        assert lean.cells == {}
        full = client.run(xor_pair("full"), BATCH, cells=True)
        assert set(full.cells) == {"x", "y"}
        local = reference_run(
            netlist=xor_pair("full"), assignments_batch=BATCH
        )
        assert full.cells["y"].bits == local.cells["y"].bits


class TestErrorMapping:
    def test_missing_input_raises_netlist_error(self, client):
        with pytest.raises(NetlistError, match="no value supplied"):
            client.run(xor_pair("m"), [{"a": 0, "b": 1}])

    def test_unknown_mode_raises_netlist_error(self, client):
        with pytest.raises(NetlistError, match="unknown execution mode"):
            client.run(xor_pair("m"), BATCH, mode="spice")

    def test_validation_errors_are_http_400(self, client):
        from repro.serve import protocol

        payload = protocol.encode_run_request(
            xor_pair("status"), [{"a": 0, "b": 1}]  # missing input c
        )
        status, body = client._request("POST", "/v1/run", payload)
        assert status == 400
        assert json.loads(body)["error"]["type"] == "NetlistError"

    def test_strict_decode_failure_is_http_422(self, client, monkeypatch):
        from repro.circuits import compiled as compiled_mod

        monkeypatch.setattr(
            compiled_mod.CompiledCircuit,
            "_first_dead",
            lambda self, packed, start, end: SimulationError(
                "decode of cell 'y' is dead"
            ),
        )
        from repro.serve import protocol

        payload = protocol.encode_run_request(xor_pair("dead"), BATCH)
        status, body = client._request("POST", "/v1/run", payload)
        assert status == 422
        assert json.loads(body)["error"]["type"] == "SimulationError"
        # And the typed client re-raises the in-process class.
        with pytest.raises(SimulationError, match="dead"):
            client.run(xor_pair("dead"), BATCH)

    def test_invalid_bit_is_http_400_encoding_error(self, client):
        from repro.serve import protocol

        payload = protocol.encode_run_request(
            xor_pair("half"), [{"a": 0, "b": 0.5, "c": 1}]
        )
        status, body = client._request("POST", "/v1/run", payload)
        assert status == 400
        assert json.loads(body)["error"]["type"] == "EncodingError"

    @pytest.mark.parametrize("fanin", [[["a"], "b"], "ab", 5])
    def test_malformed_fanin_is_http_400(self, client, fanin):
        from repro.serve import protocol

        payload = protocol.encode_run_request(xor_pair("fanin"), BATCH)
        for entry in payload["netlist"]["nodes"]:
            if entry["name"] == "x":
                entry["fanin"] = fanin
        status, body = client._request("POST", "/v1/run", payload)
        assert status == 400
        assert json.loads(body)["error"]["type"] == "NetlistError"

    def test_invalid_json_body_is_http_400(self, client):
        import urllib.request

        request = urllib.request.Request(
            client.url + "/v1/run", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            urllib.request.urlopen(request, timeout=10)
            status = 200
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 400

    def test_unknown_route_is_http_404(self, client):
        status, _ = client._request("GET", "/nope")
        assert status == 404
        status, _ = client._request("POST", "/v2/run", {})
        assert status == 404


class TestKeepAlive:
    def test_sequential_requests_on_one_connection_do_not_stall(
        self, server
    ):
        """Regression: headers and body leave in two writes, and with
        Nagle on every keep-alive response waited ~40 ms for the
        client's delayed ACK.  Compared against fresh connections timed
        in the same test, so a loaded host slows both sides alike."""
        import http.client
        import statistics
        import time
        from urllib.parse import urlsplit

        from repro.serve import protocol

        body = json.dumps(protocol.encode_run_request(
            ripple_carry_adder(4),
            [{name: 1 for name in ripple_carry_adder(4).inputs}] * 8,
        ))
        url = urlsplit(server.url)

        def connect():
            return http.client.HTTPConnection(url.hostname, url.port,
                                              timeout=10)

        def timed_post(connection):
            started = time.perf_counter()
            connection.request(
                "POST", "/v1/run", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            return time.perf_counter() - started

        fresh = []
        for _ in range(5):
            connection = connect()
            try:
                fresh.append(timed_post(connection))
            finally:
                connection.close()
        connection = connect()
        try:
            # The first request opens the connection; the five after
            # it reuse it.
            timed_post(connection)
            kept = [timed_post(connection) for _ in range(5)]
        finally:
            connection.close()
        # The stall is >= 40 ms per response; allow well under that.
        assert statistics.median(kept) < statistics.median(fresh) + 0.025


class TestIntrospection:
    def test_healthz(self, client, server):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["protocol"] == 1
        assert health["n_bits"] == N_BITS
        assert health["uptime_s"] >= 0
        assert health["backend"] == server.executor.bindings.backend.tag

    def test_stats_expose_executor_counters(self, client):
        client.run(xor_pair("s"), BATCH)
        stats = client.stats()
        assert stats["stats"]["requests"] == 1
        assert stats["stats"]["words"] == len(BATCH)
        assert stats["compile_cache"]["misses"] == 1
        assert "packed blocks" in stats["describe"]

    def test_metrics_text_and_json(self, client):
        client.run(xor_pair("m"), BATCH)
        text = client.metrics()
        assert "executor.requests" in text
        assert "serve.requests" in text
        snapshot = client.metrics(format="json")
        assert snapshot["counters"]["serve.requests"] >= 1
        assert snapshot["counters"]["executor.requests"] == 1

    def test_server_error_counters(self, client, server):
        with pytest.raises(NetlistError):
            client.run(xor_pair("e"), [{"a": 0}])
        assert server.obs.counter("serve.errors.400") == 1


class TestRequestTracing:
    def test_run_response_carries_timing_breakdown(self, client, server):
        remote = client.run(xor_pair("traced"), BATCH)
        trace = remote.trace
        assert trace is not None
        assert trace.request_id.startswith("req-")
        assert trace.path == "packed"
        assert trace.mode == "phasor"
        assert trace.n_entries == len(BATCH)
        assert trace.compile_cache == "miss"
        assert trace.block_id == "blk-1"
        assert trace.block_requests == 1
        assert trace.block_words == len(BATCH)
        assert trace.coalesced_with == []
        # Generous bounds: the sweep thread flushes within max_latency
        # plus scheduling slack, never anywhere near half a second.
        assert 0.0 <= trace.queue_wait_s <= 0.5
        assert trace.compile_s > 0.0
        assert trace.execute_s > 0.0
        assert trace.decode_s > 0.0
        assert trace.total_s == pytest.approx(
            trace.queue_wait_s + trace.compile_s + trace.execute_s
            + trace.decode_s
        )

    def test_wire_trace_matches_in_process_ticket(self, server):
        """The trace a remote client decodes is field-for-field the one
        recorded on the in-process ticket the daemon waited on."""
        client = ServeClient(server.url)
        remote = client.run(xor_pair("pin"), BATCH, request_id="pin-1")
        ticket_ids = [
            event["request_ids"]
            for event in server.events.tail(kind="block")
        ]
        assert ["pin-1"] in ticket_ids
        # Same request served in-process: identical breakdown shape.
        executor = CircuitExecutor(n_bits=N_BITS, max_latency=0.002)
        ticket = executor.submit(
            xor_pair("pin"), BATCH, request_id="pin-1"
        )
        local = ticket.result()
        assert local.trace is ticket.trace
        assert set(remote.trace.as_dict()) == set(local.trace.as_dict())
        for field in ("request_id", "mode", "path", "n_entries",
                      "block_requests", "block_words", "coalesced_with"):
            assert getattr(remote.trace, field) == getattr(
                local.trace, field
            )

    def test_client_request_id_rides_header_and_echoes(self, client):
        import urllib.request

        from repro.serve import protocol

        remote = client.run(xor_pair("named"), BATCH, request_id="abc-9")
        assert remote.trace.request_id == "abc-9"
        payload = protocol.encode_run_request(xor_pair("named"), BATCH)
        request = urllib.request.Request(
            client.url + "/v1/run",
            data=json.dumps(payload).encode(),
            headers={"X-Request-Id": "hdr-7"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["X-Request-Id"] == "hdr-7"
            body = json.loads(response.read())
        assert body["trace"]["request_id"] == "hdr-7"

    def test_untraced_server_returns_no_trace(self):
        with CircuitServer(
            n_bits=N_BITS, max_latency=0.002, trace_requests=False
        ) as daemon:
            client = ServeClient(daemon.url)
            result = client.run(xor_pair("lean"), BATCH)
        assert result.trace is None
        assert result.correct

    def test_coalesced_requests_name_each_other(self, server):
        barrier = threading.Barrier(4)
        traces = {}

        def run(index):
            barrier.wait(timeout=10)
            traces[index] = ServeClient(server.url).run(
                xor_pair("share"), BATCH, request_id=f"peer-{index}"
            ).trace

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(traces) == 4
        # Every request that shared a block lists its block peers.
        for index, trace in traces.items():
            peers = {
                i for i, other in traces.items()
                if other.block_id == trace.block_id and i != index
            }
            assert set(trace.coalesced_with) == {
                f"peer-{i}" for i in peers
            }
            assert trace.block_requests == 1 + len(peers)


# Minimal Prometheus text-format parser: enough grammar to verify the
# exposition is well-formed without any third-party scraper.
_PROM_SAMPLE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'        # metric name
    r'(?:\{le="([^"]*)"\})?'              # optional le label
    r' (-?(?:\d+\.?\d*(?:e-?\d+)?|NaN|\+Inf|-Inf))$'  # value
)


def parse_prometheus(text):
    """``{name: {"type": ..., "samples": [(le, value), ...]}}``."""
    metrics = {}
    declared = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, kind = rest.split()
            declared[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment {line!r}"
        match = _PROM_SAMPLE.match(line)
        assert match, f"malformed sample line {line!r}"
        name, le, value = match.groups()
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        family = metrics.setdefault(
            base if base in declared else name,
            {"samples": []},
        )
        family["samples"].append((name, le, float(value)))
    for name, kind in declared.items():
        metrics[name]["type"] = kind
    return metrics


class TestPrometheusExposition:
    def test_endpoint_round_trips_through_parser(self, client):
        client.run(xor_pair("prom"), BATCH)
        text = client.metrics(format="prometheus")
        metrics = parse_prometheus(text)
        assert metrics["serve_requests_total"]["type"] == "counter"
        (sample,) = metrics["serve_requests_total"]["samples"]
        assert sample[2] >= 1.0

    def test_histograms_are_cumulative_and_consistent(self, client):
        client.run(xor_pair("prom2"), BATCH)
        metrics = parse_prometheus(client.metrics(format="prometheus"))
        histograms = {
            name: family for name, family in metrics.items()
            if family.get("type") == "histogram"
        }
        assert "serve_request_s" in histograms
        assert "executor_queue_latency_s" in histograms
        for name, family in histograms.items():
            buckets = [
                (le, value) for sample, le, value in family["samples"]
                if sample == f"{name}_bucket"
            ]
            counts = [value for _, value in buckets]
            # Monotone non-decreasing cumulative counts, +Inf last.
            assert counts == sorted(counts), name
            assert buckets[-1][0] == "+Inf", name
            total = next(
                value for sample, _, value in family["samples"]
                if sample == f"{name}_count"
            )
            assert buckets[-1][1] == total, name
            assert any(
                sample == f"{name}_sum" for sample, _, _ in family["samples"]
            ), name

    def test_content_type_is_versioned(self, client):
        import urllib.request

        for path in ("/metrics", "/metrics?format=prometheus"):
            with urllib.request.urlopen(
                client.url + path, timeout=10
            ) as response:
                assert response.headers["Content-Type"] == (
                    "text/plain; version=0.0.4; charset=utf-8"
                ), path


class TestEventLog:
    def test_access_events_cover_get_and_post(self, client):
        client.run(xor_pair("logged"), BATCH, request_id="evt-1")
        client.healthz()
        events = client.logs(kind="access")["events"]
        posts = [e for e in events if e["method"] == "POST"]
        gets = [e for e in events if e["method"] == "GET"]
        assert posts and gets
        run_event = posts[0]
        assert run_event["path"] == "/v1/run"
        assert run_event["status"] == 200
        assert run_event["request_id"] == "evt-1"
        assert run_event["words"] == len(BATCH)
        assert run_event["block_id"] == "blk-1"
        assert run_event["latency_ms"] >= 0.0

    def test_error_events_capture_class(self, client):
        with pytest.raises(NetlistError):
            client.run(xor_pair("bad"), [{"a": 0}], request_id="err-1")
        (event,) = client.logs(kind="error")["events"]
        assert event["type"] == "NetlistError"
        assert event["status"] == 400
        assert event["request_id"] == "err-1"

    def test_error_class_counter(self, client, server):
        with pytest.raises(NetlistError):
            client.run(xor_pair("bad"), [{"a": 0}])
        assert server.obs.counter("serve.errors.class.NetlistError") == 1

    def test_slow_request_capture_includes_trace(self):
        with CircuitServer(
            n_bits=N_BITS, max_latency=0.002, slow_request_s=0.0
        ) as daemon:
            client = ServeClient(daemon.url)
            client.run(xor_pair("slow"), BATCH, request_id="slow-1")
            (event,) = client.logs(kind="slow_request")["events"]
        assert event["request_id"] == "slow-1"
        assert event["trace"]["block_id"] == "blk-1"
        assert event["latency_ms"] >= 0.0

    def test_logs_endpoint_limits_and_filters(self, client):
        for _ in range(3):
            client.healthz()
        payload = client.logs(n=2, kind="access")
        assert len(payload["events"]) == 2
        assert payload["capacity"] == 512
        assert all(e["kind"] == "access" for e in payload["events"])

    def test_access_log_sink_mirrors_events(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with CircuitServer(
            n_bits=N_BITS, max_latency=0.002, access_log=str(path)
        ) as daemon:
            client = ServeClient(daemon.url)
            client.run(xor_pair("sunk"), BATCH)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        kinds = {line["kind"] for line in lines}
        assert "access" in kinds
        assert "block" in kinds

    def test_disabled_event_log(self):
        with CircuitServer(
            n_bits=N_BITS, max_latency=0.002, log_capacity=0
        ) as daemon:
            client = ServeClient(daemon.url)
            client.run(xor_pair("quiet"), BATCH)
            payload = client.logs()
        assert payload == {"events": [], "capacity": 0, "dropped": 0}


def _monitor_sample(t, counters, histograms=None):
    return {
        "t": t,
        "healthz": {
            "backend": "numpy64", "n_bits": 2, "uptime_s": t,
            "pending_words": 0,
        },
        "stats": {},
        "metrics": {
            "counters": counters, "histograms": histograms or {},
        },
    }


class TestMonitorRendering:
    """``swgate top``'s interval maths, pure-function tested."""

    def test_render_interval_rates_and_quantiles(self):
        from repro.serve import monitor

        queue = {
            "bounds": [0.001, 0.01], "counts": [0, 0, 0],
            "count": 0, "sum": 0.0, "max": None,
        }
        queue_later = {
            "bounds": [0.001, 0.01], "counts": [90, 8, 2],
            "count": 100, "sum": 0.2, "max": 0.05,
        }
        prev = _monitor_sample(
            10.0,
            {"executor.words": 100, "serve.requests": 50,
             "executor.blocks": 10, "executor.requests": 50,
             "compile_cache.hits": 9, "compile_cache.misses": 1},
            {"executor.queue_latency_s": queue},
        )
        cur = _monitor_sample(
            12.0,
            {"executor.words": 300, "serve.requests": 150,
             "executor.blocks": 60, "executor.requests": 150,
             "executor.coalesced_requests": 50,
             "compile_cache.hits": 29, "compile_cache.misses": 1},
            {"executor.queue_latency_s": queue_later},
        )
        text = monitor.render_interval(prev, cur)
        assert "100.0 words/s" in text
        assert "50.0 requests/s" in text
        assert "25.0 blocks/s" in text
        assert "4.0 words/block" in text
        assert "50.0% of requests shared a block" in text
        assert "100.0% cache hit rate (20 lookups)" in text
        # Interval delta histogram: p50 in the first bucket (1ms),
        # p99 spills into overflow -> the observed max (50ms).
        assert "queue p50 1.00ms p99 50.00ms" in text

    def test_histogram_delta_subtracts_cumulative_counts(self):
        from repro.serve import monitor

        prev = _monitor_sample(
            0.0, {},
            {"h": {"bounds": [1.0], "counts": [5, 1], "count": 6,
                   "sum": 3.0, "max": 2.0}},
        )
        cur = _monitor_sample(
            1.0, {},
            {"h": {"bounds": [1.0], "counts": [8, 3], "count": 11,
                   "sum": 9.0, "max": 4.0}},
        )
        delta = monitor._histogram_delta(prev, cur, "h")
        assert delta["counts"] == [3, 2]
        assert delta["count"] == 5
        assert delta["sum"] == pytest.approx(6.0)

    def test_render_interval_handles_idle_daemon(self):
        from repro.serve import monitor

        prev = _monitor_sample(0.0, {})
        cur = _monitor_sample(2.0, {})
        text = monitor.render_interval(prev, cur)
        assert "no blocks this interval" in text
        assert "no requests this interval" in text

    def test_top_polls_live_daemon(self, server):
        import io

        from repro.serve import monitor

        ServeClient(server.url).run(xor_pair("watched"), BATCH)
        out = io.StringIO()
        rendered = monitor.top(
            server.url, interval=0.1, iterations=2, clear=False, out=out,
        )
        assert rendered == 2
        assert out.getvalue().count("swgate top") == 2


class TestClientTransportErrors:
    def test_connection_refused_raises_serve_error(self):
        client = ServeClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServeError, match="cannot reach"):
            client.healthz()

    def test_run_raises_serve_error_on_dead_daemon(self):
        client = ServeClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServeError):
            client.run(xor_pair("gone"), BATCH)


class TestWarmStartOverHttp:
    def test_first_request_hits_warm_cache(self):
        with CircuitServer(
            n_bits=N_BITS, max_latency=0.002, warm=[xor_pair("disk")]
        ) as daemon:
            client = ServeClient(daemon.url)
            result = client.run(xor_pair("fresh-title"), BATCH)
            assert result.correct
            cache = client.stats()["compile_cache"]
        assert cache["warmed"] == 1
        assert cache["misses"] == 0
        assert cache["hits"] == 1


class TestConcurrentClients:
    def test_many_threads_submit_through_one_daemon(self, server):
        """Concurrent HTTP clients exercise the executor's lock: every
        request resolves correctly and the flush thread (not per-request
        forced flushes) coalesces them into shared blocks."""
        n_threads = 8
        netlist = xor_pair("flood")
        expected = netlist.evaluate_batch(BATCH)
        results = [None] * n_threads
        errors = []

        def worker(index):
            try:
                client = ServeClient(server.url)
                results[index] = client.run(xor_pair("flood"), BATCH)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        for result in results:
            assert result is not None
            assert result.outputs == expected
            assert result.correct
        stats = server.executor.stats
        assert stats["requests"] == n_threads
        assert stats["words"] == n_threads * len(BATCH)
        # One compile serves every coalesced block.
        assert server.executor.cache.misses == 1

    def test_mixed_modes_partition_into_their_own_blocks(self, server):
        client = ServeClient(server.url)
        barrier = threading.Barrier(2)
        outcomes = {}

        def run(mode):
            barrier.wait(timeout=10)
            outcomes[mode] = ServeClient(server.url).run(
                xor_pair("mix"), BATCH, mode=mode
            )

        threads = [
            threading.Thread(target=run, args=(mode,))
            for mode in ("phasor", "trace")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert outcomes["phasor"].mode == "phasor"
        assert outcomes["trace"].mode == "trace"
        expected = xor_pair("mix").evaluate_batch(BATCH)
        assert outcomes["phasor"].outputs == expected
        assert outcomes["trace"].outputs == expected
        assert server.executor.stats["blocks"] == 2
