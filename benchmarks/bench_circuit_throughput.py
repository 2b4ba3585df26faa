"""Bench: packed vs scalar circuit execution.

A synthesized ripple-carry adder is compiled by the physical circuit
engine and evaluated on a batch of word groups two ways:

* scalar cascade (``mode="scalar"``) -- :meth:`CircuitEngine.run_scalar`,
  the ``GateCascade``-style reference: one ``run_phasor`` call per
  (cell, word group);
* packed (``mode="packed"``) -- ``run()``, the compile-once fast path:
  the frozen :class:`~repro.circuits.compiled.CompiledCircuit` artifact
  decodes every nominal phasor cell as a gather from its operation's
  channel truth table (``GateSimulator.channel_table``), no GEMM;
* packed-noisy (``mode="packed-noisy"``) -- the same batch under
  ``phase_sigma`` source noise, whose rows keep the cross-op level
  GEMM against block-stacked weights.

``mode="compile+run"`` times the cold path (staged ``compile()`` plus
one packed run) so the compiled-reuse advantage -- the steady-state
packed row beating first-run compile+execute -- stays on the scoreboard.

The time-domain pair repeats the comparison for ``mode="trace"``
(waveform generation + lock-in decode) on the full adder: packed
levels run one GEMM against the fused trace demodulation matrices,
the scalar reference simulates one full ``run`` per (cell, group).
``mode="trace-packed"`` serves the rca4 batch-of-8 sweep in trace mode
through :meth:`CircuitExecutor.run`, the row to set against the
phasor ``packed`` row.

Each bench records circuit name, logic depth, batch geometry, ``mode``
and a ``words_per_second`` metric in its ``extra_info`` (snapshotted by
``--bench-json`` into ``BENCH_bench_circuit_throughput.json``), so
circuit-level throughput -- and the packed/scalar speedup, the PR
acceptance metric -- is tracked across PRs; diff snapshots against the
committed baseline with ``python benchmarks/compare_bench.py``.
"""

import pytest
from conftest import bench_seconds

from repro.circuits import (
    CircuitEngine,
    compile_circuit,
    full_adder,
    ripple_carry_adder,
)

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


@pytest.fixture(scope="module")
def adder_setup():
    """A warmed rca4 engine plus the batch-of-8 word-group sweep."""
    netlist = ripple_carry_adder(4)
    engine = CircuitEngine(netlist, n_bits=N_BITS)
    batch = _adder_batch(4, N_GROUPS * N_BITS)
    # Warm layouts, calibrations and propagation-weight caches so both
    # benches measure steady-state evaluation only.
    engine.run(batch[: N_BITS])
    return engine, netlist, batch


def _record(benchmark, engine, netlist, batch, mode):
    benchmark.extra_info["circuit"] = netlist.name
    benchmark.extra_info["depth"] = netlist.depth()
    benchmark.extra_info["n_cells"] = engine.n_physical_cells
    benchmark.extra_info["n_bits"] = engine.n_bits
    benchmark.extra_info["batch_size"] = len(batch)
    benchmark.extra_info["mode"] = mode
    seconds = bench_seconds(benchmark)
    if seconds is not None:
        benchmark.extra_info["words_per_second"] = len(batch) / seconds


def _with_hit_rates(metrics):
    """Derive ``<cache>.hit_rate`` entries from hits/misses counters."""
    for name in [n for n in metrics if n.endswith(".hits")]:
        base = name[: -len(".hits")]
        hits = metrics[name]
        misses = metrics.get(base + ".misses", 0)
        if hits + misses:
            metrics[base + ".hit_rate"] = hits / (hits + misses)
    return metrics


def _run_metrics(fn):
    """Efficiency counters (GEMM counts, cache hit rates) for one run.

    Routes the library's obs instrumentation into a fresh registry for
    one execution of ``fn``, so the ``metrics`` sub-dict in the bench
    JSON reflects exactly one steady-state run --
    ``benchmarks/compare_bench.py`` diffs it across PRs.
    """
    from repro import obs

    registry = obs.MetricsRegistry(enabled=False)
    with obs.use_registry(registry):
        fn()
    return _with_hit_rates(dict(registry.snapshot()["counters"]))


def test_engine_packed_throughput(benchmark, adder_setup):
    """Steady-state packed serving: the compiled-reuse acceptance row,
    every phasor cell a channel-table gather."""
    engine, netlist, batch = adder_setup
    result = benchmark(engine.run, batch)
    assert result.correct
    _record(benchmark, engine, netlist, batch, "packed")
    benchmark.extra_info["metrics"] = _run_metrics(
        lambda: engine.run(batch)
    )


def test_engine_packed_noisy_throughput(benchmark, adder_setup):
    """Packed rows with phase noise: the level-GEMM route."""
    from repro.waveguide import NoiseModel

    engine, netlist, batch = adder_setup
    noise = NoiseModel(phase_sigma=0.05, seed=1)
    result = benchmark(engine.run, batch, noise=noise)
    assert result.correct
    _record(benchmark, engine, netlist, batch, "packed-noisy")
    benchmark.extra_info["metrics"] = _run_metrics(
        lambda: engine.run(batch, noise=noise)
    )


def test_engine_compile_and_run_throughput(benchmark, adder_setup):
    """Cold path: staged compile() + one packed run, every round.

    The shared bindings keep gate weights memoised (as any serving
    process would), so this isolates the artifact staging cost that
    compiled reuse amortises away.
    """
    engine, netlist, batch = adder_setup

    def compile_and_run():
        artifact = compile_circuit(netlist, engine.bindings)
        return artifact.run(batch, strict=False)

    result = benchmark(compile_and_run)
    assert result.correct
    _record(benchmark, engine, netlist, batch, "compile+run")


def test_engine_scalar_cascade_throughput(benchmark, adder_setup):
    engine, netlist, batch = adder_setup
    result = benchmark(engine.run_scalar, batch)
    assert result.correct
    _record(benchmark, engine, netlist, batch, "scalar")


def test_executor_coalesced_throughput(benchmark, adder_setup):
    """Coalesced serving: the batch split into per-group requests.

    Every round submits ``N_GROUPS`` independent requests that the
    executor coalesces into one packed block, so this row carries the
    serving-efficiency metrics (compile-cache hit rate, coalescing
    counters, queue latency) that ``compare_bench.py`` watches for
    regressions.
    """
    from repro.circuits import CircuitExecutor

    engine, netlist, batch = adder_setup
    executor = CircuitExecutor(bindings=engine.bindings)
    requests = [
        batch[i * N_BITS : (i + 1) * N_BITS] for i in range(N_GROUPS)
    ]
    executor.submit(netlist, requests[0]).result()  # warm the compile

    def serve():
        tickets = [executor.submit(netlist, r) for r in requests]
        return [t.result() for t in tickets]

    results = benchmark(serve)
    assert all(r.correct for r in results)
    _record(benchmark, engine, netlist, batch, "coalesced")
    benchmark.extra_info["metrics"] = _with_hit_rates(
        dict(executor.obs.snapshot()["counters"])
    )


def test_obs_disabled_overhead(benchmark, adder_setup):
    """Disabled instrumentation must cost <2% of a packed rca4 run.

    The benchmarked callable is the disabled fast path itself (one
    ``enabled`` attribute check plus the shared no-op context manager);
    the assertion amortises its measured per-call cost over the number
    of gated instrumentation calls one packed run actually makes.
    """
    import time as _time

    from repro import obs

    engine, netlist, batch = adder_setup

    # Count the gated instrumentation calls in one packed run.
    probe = obs.MetricsRegistry(enabled=True)
    with obs.use_registry(probe):
        engine.run(batch)

    def span_count(nodes):
        return sum(n["count"] + span_count(n["children"]) for n in nodes)

    spans_per_run = span_count(probe.snapshot()["spans"])
    assert spans_per_run > 0  # the run is instrumented

    disabled = obs.MetricsRegistry(enabled=False)
    n_calls = 100_000

    def noop_spans():
        span = disabled.span
        for _ in range(n_calls):
            with span("x"):
                pass

    benchmark(noop_spans)
    seconds = bench_seconds(benchmark)
    if seconds is None:  # untimed smoke run: time one pass directly
        started = _time.perf_counter()
        noop_spans()
        seconds = _time.perf_counter() - started
    per_call = seconds / n_calls

    started = _time.perf_counter()
    engine.run(batch)
    run_elapsed = _time.perf_counter() - started
    overhead = spans_per_run * per_call / run_elapsed
    benchmark.extra_info["mode"] = "obs-overhead"
    benchmark.extra_info["spans_per_run"] = spans_per_run
    benchmark.extra_info["noop_span_ns"] = per_call * 1e9
    benchmark.extra_info["overhead_fraction"] = overhead
    assert overhead < 0.02


@pytest.fixture(scope="module")
def trace_setup():
    """A warmed full-adder engine plus one word group for trace mode.

    The scalar trace reference simulates every waveform, so the pair
    uses the depth-2 full adder at the byte width with a single word
    group, keeping the reference row from dominating the bench session.
    """
    netlist, _, _ = full_adder()
    engine = CircuitEngine(netlist, n_bits=N_BITS)
    batch = _adder_batch_named(netlist, N_BITS)
    # Warm layouts, calibrations and the trace demodulation matrices.
    engine.run_trace_batch(batch)
    return engine, netlist, batch


def _adder_batch_named(netlist, n_assignments, seed=0):
    """Deterministic random assignments over a netlist's own inputs."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return [
        {name: int(rng.integers(2)) for name in netlist.inputs}
        for _ in range(n_assignments)
    ]


def test_engine_trace_batched_throughput(benchmark, trace_setup):
    engine, netlist, batch = trace_setup
    result = benchmark(engine.run_trace_batch, batch)
    assert result.correct
    _record(benchmark, engine, netlist, batch, "trace")


def test_engine_trace_scalar_throughput(benchmark, trace_setup):
    engine, netlist, batch = trace_setup
    result = benchmark(engine.run_scalar, batch, mode="trace")
    assert result.correct
    _record(benchmark, engine, netlist, batch, "trace-scalar")


def test_executor_trace_throughput(benchmark, adder_setup):
    """64-word rca4 trace batches through ``CircuitExecutor.run``."""
    from repro.circuits import CircuitExecutor

    engine, netlist, batch = adder_setup
    executor = CircuitExecutor(bindings=engine.bindings)
    executor.run(netlist, batch, mode="trace")  # compile + trace matrices
    result = benchmark(executor.run, netlist, batch, mode="trace")
    assert result.correct
    _record(benchmark, engine, netlist, batch, "trace-packed")


def test_engine_fault_sweep_throughput(benchmark, adder_setup):
    """One full-adder fault-universe sweep (the circuit-faults inner loop)."""
    from repro.experiments.circuit_faults import run as run_faults

    results = benchmark(run_faults, width=1, n_bits=4)
    assert results["coverage"] > 0.5
    benchmark.extra_info["circuit"] = results["circuit"]
    benchmark.extra_info["depth"] = results["depth"]
    benchmark.extra_info["n_faults"] = results["n_faults"]
    benchmark.extra_info["mode"] = "fault-sweep"
