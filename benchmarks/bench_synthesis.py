"""Bench: logic-synthesis pipeline cost and mapped-circuit throughput.

Three measurements, snapshotted by ``--bench-json`` into
``BENCH_bench_synthesis.json``:

* ``test_optimize_suite`` -- the optimization pipeline (all passes to
  fixpoint) over every suite circuit, with the naive-vs-optimized
  depth/cell scorecard in ``extra_info`` so optimizer regressions (in
  speed *or* in quality) show up in the snapshot diff;
* ``test_synthesize_flow`` -- the full flow (optimize + both mappings +
  exhaustive Boolean verification) on the largest suite entry;
* ``test_mapped_*_throughput`` -- the physical engine executing the
  naive and the optimized comparator4 mapping on the same batch: the
  words-per-second delta is the end-to-end payoff of the optimizer.
"""

import pytest
from conftest import bench_seconds

from repro.circuits import CircuitEngine
from repro.synthesis import get_circuit, optimize, suite, synthesize, to_netlist

#: Data-parallel width / word groups of the throughput benches.
N_BITS = 4
N_GROUPS = 4


def _optimize_all():
    scorecard = {}
    for circuit in suite():
        mig = circuit.build()
        optimized, _ = optimize(mig)
        scorecard[circuit.name] = {
            "naive_gates": mig.n_gates,
            "optimized_gates": optimized.n_gates,
            "naive_depth": mig.depth(),
            "optimized_depth": optimized.depth(),
        }
    return scorecard


def test_optimize_suite(benchmark):
    scorecard = benchmark(_optimize_all)
    for name, record in scorecard.items():
        assert record["optimized_depth"] <= record["naive_depth"], name
        benchmark.extra_info[name] = record
    benchmark.extra_info["n_circuits"] = len(scorecard)


def test_synthesize_flow(benchmark):
    """Full verified flow on the widest suite entry (alu_slice)."""
    circuit = get_circuit("alu_slice")
    result = benchmark(
        lambda: synthesize(circuit.build(), reference=circuit.reference)
    )
    assert result.verified
    benchmark.extra_info["circuit"] = circuit.name
    benchmark.extra_info["naive_physical_cells"] = result.naive.n_physical
    benchmark.extra_info["optimized_physical_cells"] = (
        result.optimized.n_physical
    )
    benchmark.extra_info["naive_depth"] = result.naive.physical_depth
    benchmark.extra_info["optimized_depth"] = result.optimized.physical_depth


@pytest.fixture(scope="module")
def mapped_comparator():
    """Warmed engines for both comparator4 mappings plus a shared batch."""
    from repro.synthesis.verify import random_input_batch

    circuit = get_circuit("comparator4")
    result = synthesize(circuit.build(), reference=circuit.reference)
    batch = random_input_batch(
        result.naive.netlist.inputs, N_GROUPS * N_BITS, seed=0
    )
    engines = {}
    for label, report in (
        ("naive", result.naive), ("optimized", result.optimized)
    ):
        engine = CircuitEngine(report.netlist, n_bits=N_BITS)
        engine.run(batch[:N_BITS])  # warm layouts/calibrations/weights
        engines[label] = (engine, report)
    return engines, batch


def _throughput(benchmark, engines, batch, label):
    engine, report = engines[label]
    result = benchmark(engine.run, batch)
    assert result.correct
    benchmark.extra_info["mapping"] = label
    benchmark.extra_info["circuit"] = report.netlist.name
    benchmark.extra_info["physical_depth"] = report.physical_depth
    benchmark.extra_info["n_physical_cells"] = report.n_physical
    benchmark.extra_info["n_bits"] = N_BITS
    benchmark.extra_info["batch_size"] = len(batch)
    seconds = bench_seconds(benchmark)
    if seconds is not None:
        benchmark.extra_info["words_per_second"] = len(batch) / seconds


def test_mapped_naive_throughput(benchmark, mapped_comparator):
    engines, batch = mapped_comparator
    _throughput(benchmark, engines, batch, "naive")


def test_mapped_optimized_throughput(benchmark, mapped_comparator):
    engines, batch = mapped_comparator
    _throughput(benchmark, engines, batch, "optimized")
