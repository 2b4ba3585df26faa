"""Bench: batched versus per-word gate evaluation throughput.

The byte majority gate's exhaustive input-word set (2^3 uniform
patterns) is evaluated two ways in each mode (phasor and trace):

* per-word -- the historical loop, one ``run``/``run_phasor`` call per
  input word;
* batched -- one ``run_batch``/``run_phasor_batch`` call evaluating the
  whole word set as a single vectorised ``(n_words, n_samples)`` block.

Each bench records a ``words_per_second`` metric in its ``extra_info``
(visible in ``--benchmark-verbose`` output and in the ``--bench-json``
snapshots), so the batched/per-word ratio is tracked across PRs.
"""

import pytest
from conftest import bench_seconds

from repro.core.simulate import GateSimulator


@pytest.fixture(scope="module")
def byte_setup(byte_gate):
    """A calibrated simulator plus the exhaustive pattern set."""
    simulator = GateSimulator(byte_gate)
    simulator.calibration()  # warm the cache: measure evaluation only
    return simulator, byte_gate.exhaustive_patterns()


def _record_words_per_second(benchmark, n_words, mode, batched):
    """Tag the snapshot record so ``--bench-json`` diffs are self-describing.

    ``mode``/``batched`` key the phasor and trace stats in
    ``BENCH_bench_gate_throughput.json`` across PRs; the batched/per-word
    ``words_per_second`` ratio of each mode is the tracked speedup.
    """
    benchmark.extra_info["n_words"] = n_words
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["batched"] = batched
    seconds = bench_seconds(benchmark)
    if seconds is not None:
        benchmark.extra_info["words_per_second"] = n_words / seconds


def test_phasor_per_word_throughput(benchmark, byte_setup):
    simulator, patterns = byte_setup

    def per_word():
        return [simulator.run_phasor(words) for words in patterns]

    results = benchmark(per_word)
    assert all(result.correct for result in results)
    _record_words_per_second(benchmark, len(patterns), "phasor", False)


def test_phasor_batched_throughput(benchmark, byte_setup):
    simulator, patterns = byte_setup
    results = benchmark(simulator.run_phasor_batch, patterns)
    assert all(result.correct for result in results)
    _record_words_per_second(benchmark, len(patterns), "phasor", True)


def test_trace_per_word_throughput(benchmark, byte_setup):
    simulator, patterns = byte_setup

    def per_word():
        return [simulator.run(words) for words in patterns]

    results = benchmark(per_word)
    assert all(result.correct for result in results)
    _record_words_per_second(benchmark, len(patterns), "trace", False)


def test_trace_batched_throughput(benchmark, byte_setup):
    simulator, patterns = byte_setup
    results = benchmark(simulator.run_batch, patterns)
    assert all(result.correct for result in results)
    _record_words_per_second(benchmark, len(patterns), "trace", True)
