"""Bench: serving throughput over HTTP vs the in-process executor.

The ``swgate serve`` daemon answers ``POST /v1/run`` by submitting to
the same coalescing :class:`~repro.circuits.executor.CircuitExecutor`
an in-process caller would use, so the daemon row prices exactly the
serving overhead -- JSON encode/decode, loopback HTTP, handler-thread
wait on the ticket -- on top of the in-process row:

* ``mode="daemon"`` -- a :class:`~repro.serve.client.ServeClient`
  evaluating the canonical rca4 word-group sweep through a loopback
  :class:`~repro.serve.daemon.CircuitServer` (warm compile cache),
  with per-request tracing and the event log **enabled** (the
  defaults);
* ``mode="daemon-untraced"`` -- the same daemon with
  ``trace_requests=False`` and ``log_capacity=0``: prices the
  observability tax (the PR 10 acceptance bound is <5% against the
  traced row);
* ``mode="in-process"`` -- the identical request stream served by
  ``CircuitExecutor.run`` directly, same bindings geometry.

Both rows record ``words_per_second`` in ``extra_info`` (snapshotted by
``--bench-json`` into ``BENCH_bench_serving.json``) so the serving tax
is tracked across PRs; diff snapshots against the committed baseline
with ``python benchmarks/compare_bench.py``.
"""

import pytest
from conftest import bench_seconds

from repro.circuits import CircuitExecutor, ripple_carry_adder
from repro.serve import CircuitServer, ServeClient

#: Data-parallel width of every physical cell (the paper's byte width).
N_BITS = 8
#: Word groups per sweep: the canonical batch-of-8 adder sweep.
N_GROUPS = 8


def _adder_batch(width, n_assignments, seed=0):
    """Deterministic random (a, b) assignments for a width-bit adder."""
    import numpy as np

    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(n_assignments):
        assignment = {}
        for i in range(width):
            assignment[f"a{i}"] = int(rng.integers(2))
            assignment[f"b{i}"] = int(rng.integers(2))
        batch.append(assignment)
    return batch


def _record(benchmark, netlist, batch, mode):
    benchmark.extra_info["circuit"] = netlist.name
    benchmark.extra_info["depth"] = netlist.depth()
    benchmark.extra_info["n_bits"] = N_BITS
    benchmark.extra_info["batch_size"] = len(batch)
    benchmark.extra_info["mode"] = mode
    mean = bench_seconds(benchmark)
    if mean is None:
        return
    benchmark.extra_info["words_per_second"] = len(batch) / mean
    # Min-time rate: robust to scheduler jitter on shared boxes, so the
    # traced-vs-untraced observability tax is read off this column.
    benchmark.extra_info["words_per_second_best"] = (
        len(batch) / bench_seconds(benchmark, "min")
    )


@pytest.fixture(scope="module")
def serving_setup():
    """One loopback daemon + client + the rca4 sweep, compile warmed."""
    netlist = ripple_carry_adder(4)
    batch = _adder_batch(4, N_GROUPS * N_BITS)
    with CircuitServer(n_bits=N_BITS, max_latency=0.002) as daemon:
        client = ServeClient(daemon.url)
        client.run(netlist, batch[:N_BITS])  # warm compile + calibration
        yield daemon, client, netlist, batch


def test_daemon_loopback_throughput(benchmark, serving_setup):
    """Steady-state serving over loopback HTTP: the daemon-tax row."""
    daemon, client, netlist, batch = serving_setup
    result = benchmark(client.run, netlist, batch)
    assert result.correct
    _record(benchmark, netlist, batch, "daemon")
    benchmark.extra_info["metrics"] = {
        "serve.requests": daemon.obs.counter("serve.requests"),
        "executor.blocks": daemon.obs.counter("executor.blocks"),
    }


def test_daemon_untraced_throughput(benchmark, serving_setup):
    """The daemon with tracing + event logging disabled: the delta
    against the traced row is the whole observability cost."""
    daemon, _, netlist, batch = serving_setup
    with CircuitServer(
        n_bits=N_BITS, bindings=daemon.executor.bindings,
        max_latency=0.002, trace_requests=False, log_capacity=0,
        slow_request_s=None,
    ) as untraced:
        client = ServeClient(untraced.url)
        client.run(netlist, batch[:N_BITS])  # warm this daemon's cache
        result = benchmark(client.run, netlist, batch)
        assert result.correct
        assert result.trace is None
        _record(benchmark, netlist, batch, "daemon-untraced")


def test_in_process_executor_throughput(benchmark, serving_setup):
    """The same request stream without the HTTP layer (the baseline the
    daemon row is compared against)."""
    daemon, client, netlist, batch = serving_setup
    executor = CircuitExecutor(bindings=daemon.executor.bindings)
    executor.run(netlist, batch[:N_BITS])  # warm the compile cache
    result = benchmark(executor.run, netlist, batch)
    assert result.correct
    _record(benchmark, netlist, batch, "in-process")
