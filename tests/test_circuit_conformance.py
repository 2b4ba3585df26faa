"""Cross-backend conformance harness for circuit execution.

The engine exposes four execution semantics of one netlist; this module
pins them against each other on seeded randomized MAJ/XOR/INV/BUF DAGs
(:func:`repro.circuits.synth.random_netlist` -- fanout, constants and
virtual cells all occur) across nominal, noisy, faulty and
placement-noise configurations:

* **Boolean** -- :meth:`Netlist.evaluate_batch`, the exact logic
  reference (physics must match it bit-for-bit in nominal runs);
* **scalar cascade** -- :meth:`CircuitEngine.run_scalar`, one
  ``run_phasor`` / ``run`` call per (cell, word group), the pinned
  ground truth of the compiled path;
* **packed phasor** -- :meth:`CircuitEngine.run`, the compiled
  steady-state GEMM path (pinned to scalar at <= 1e-12);
* **packed trace** -- ``run(mode="trace")``, full time-domain waveform
  generation with lock-in decode (pinned to its scalar loop at
  <= 1e-12, and decode-agreeing with the phasor path).

The fast lane exercises a handful of seeds; the full randomized sweep
(>= 20 seeds x {nominal, noisy, faulty}) is marked ``slow``.
"""

import random

import numpy as np
import pytest

from repro.circuits import (
    CellFault,
    CircuitEngine,
    CircuitExecutor,
    random_netlist,
)
from repro.circuits.library import PHYSICAL_BINDINGS, physical_arity
from repro.circuits.netlist import Netlist
from repro.core.faults import TransducerFault
from repro.core.simulate import GateSimulator
from repro.circuits.library import physical_gate
from repro.errors import NetlistError, SimulationError
from repro.waveguide import NoiseModel

TOL = 1e-12
N_BITS = 2

#: The randomized-sweep seed set: >= 20 seeded netlists (acceptance
#: criterion of the harness); the first FAST_SEEDS stay in the quick lane.
ALL_SEEDS = tuple(range(20))
FAST_SEEDS = ALL_SEEDS[:3]


def random_batch(netlist, seed, n_entries=6):
    """Deterministic random primary-input assignments."""
    rng = random.Random(1000 + seed)
    return [
        {name: rng.randint(0, 1) for name in netlist.inputs}
        for _ in range(n_entries)
    ]


def first_physical_cell(engine):
    """Name of the first transducer-level cell in the schedule (or None)."""
    for cells in engine.schedule:
        for node in cells:
            if node.kind in PHYSICAL_BINDINGS:
                return node
    return None


def seeded_fault(engine, seed, kind="stuck-phase-1"):
    """A deterministic CellFault at the first physical cell (or None)."""
    node = first_physical_cell(engine)
    if node is None:
        return None
    return CellFault(
        node.name,
        TransducerFault(
            kind,
            channel=seed % engine.n_bits,
            input_index=seed % physical_arity(node.kind),
        ),
    )


def assert_pinned(result, reference):
    """A batched CircuitRunResult equals its scalar reference <= 1e-12."""
    assert result.outputs == reference.outputs
    assert result.failed == reference.failed
    assert set(result.cells) == set(reference.cells)
    for name, record in result.cells.items():
        ref = reference.cells[name]
        assert record.bits == ref.bits
        if record.margins is None:
            assert ref.margins is None
            continue
        np.testing.assert_allclose(
            record.margins, ref.margins, rtol=TOL, atol=TOL
        )
        np.testing.assert_allclose(
            record.amplitudes, ref.amplitudes, rtol=TOL, atol=TOL
        )


def assert_decode_agreement(trace, phasor):
    """Trace and phasor semantics decode every cell identically."""
    assert trace.outputs == phasor.outputs
    assert trace.failed == phasor.failed
    for name in trace.cells:
        assert trace.cells[name].bits == phasor.cells[name].bits


def cross_check(engine, batch, faults=(), noise=None):
    """All four backends on one configuration; returns (phasor, trace)."""
    phasor = engine.run(batch, faults=faults, noise=noise, strict=False)
    phasor_ref = engine.run_scalar(
        batch, faults=faults, noise=noise, strict=False
    )
    trace = engine.run(
        batch, faults=faults, noise=noise, strict=False, mode="trace"
    )
    trace_ref = engine.run_scalar(
        batch, faults=faults, noise=noise, strict=False, mode="trace"
    )
    assert phasor.mode == phasor_ref.mode == "phasor"
    assert trace.mode == trace_ref.mode == "trace"
    assert_pinned(phasor, phasor_ref)
    assert_pinned(trace, trace_ref)
    assert_decode_agreement(trace, phasor)
    if not faults and noise is None:
        expected = engine.netlist.evaluate_batch(batch)
        assert phasor.correct
        assert trace.correct
        assert phasor.outputs == expected
        assert trace.outputs == expected
    return phasor, trace


# ----------------------------------------------------------------------
# Fast lane: a handful of seeds through every configuration
# ----------------------------------------------------------------------
class TestConformanceFast:
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_nominal(self, seed):
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        cross_check(engine, random_batch(netlist, seed))

    @pytest.mark.parametrize("seed", FAST_SEEDS[:2])
    def test_noisy(self, seed):
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        noise = NoiseModel(
            amplitude_sigma=0.03, phase_sigma=0.05, seed=40 + seed
        )
        cross_check(engine, random_batch(netlist, seed), noise=noise)

    @pytest.mark.parametrize("kind", ["stuck-phase-1", "weak-source"])
    def test_faulty(self, kind):
        seed = FAST_SEEDS[0]
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        fault = seeded_fault(engine, seed, kind=kind)
        assert fault is not None
        cross_check(engine, random_batch(netlist, seed), faults=[fault])

    def test_placement_noise_fallback(self):
        """Per-entry placement noise exercises the per-source trace path.

        Position jitter breaks shared geometry, so the compiled trace
        path falls back from the carrier-basis GEMM to the general
        per-source loop -- and must still pin to the scalar reference.
        (Phasor mode runs the scalar reference itself.)
        """
        seed = FAST_SEEDS[1]
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        noise = NoiseModel(position_sigma=1e-9, seed=60 + seed)
        batch = random_batch(netlist, seed, n_entries=4)
        engine.run(batch, mode="trace")  # nominal: populates the basis cache
        cached = len(engine.model()._basis_cache)
        assert cached > 0
        cross_check(engine, batch, noise=noise)
        # Jittered geometries never repeat and must not be memoised.
        assert len(engine.model()._basis_cache) == cached

    def test_multi_fault_conformance(self):
        """Distinct-cell fault lists conform across all four backends."""
        seed = FAST_SEEDS[2]
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        physical = [
            node
            for cells in engine.schedule
            for node in cells
            if node.kind in PHYSICAL_BINDINGS
        ]
        assert len(physical) >= 2
        faults = [
            CellFault(
                physical[0].name,
                TransducerFault("stuck-phase-1", channel=0, input_index=0),
            ),
            CellFault(
                physical[1].name,
                TransducerFault("dead-source", channel=1, input_index=0),
            ),
        ]
        cross_check(engine, random_batch(netlist, seed), faults=faults)


# ----------------------------------------------------------------------
# Coalesced serving: many requests in one packed block pin to standalone
# ----------------------------------------------------------------------
class TestCoalescedConformance:
    """Coalesced executor blocks reproduce uncoalesced runs <= 1e-12.

    Three requests -- nominal, noisy and faulty -- are queued against
    structurally equal netlists (distinct objects, same content hash)
    and executed as ONE packed block; every ticket must pin to the
    uncoalesced scalar reference ``CircuitEngine.run_scalar``.
    """

    @pytest.mark.parametrize("mode", ["phasor", "trace"])
    def test_coalesced_block_matches_standalone(self, mode):
        seed = FAST_SEEDS[0]
        netlist = random_netlist(seed)
        twin = random_netlist(seed)  # same signature, different object
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        noise = NoiseModel(
            amplitude_sigma=0.03, phase_sigma=0.05, seed=70 + seed
        )
        fault = seeded_fault(engine, seed)
        assert fault is not None
        configs = [
            (random_batch(netlist, seed), (), None),
            (random_batch(netlist, seed + 1), (), noise),
            (random_batch(netlist, seed + 2), (fault,), None),
        ]
        tickets = [
            executor.submit(
                twin if index % 2 else netlist,
                batch,
                faults=faults,
                noise=noise_model,
                strict=False,
                mode=mode,
            )
            for index, (batch, faults, noise_model) in enumerate(configs)
        ]
        assert executor.pending_words == sum(
            len(batch) for batch, _, _ in configs
        )
        executor.flush()
        assert executor.stats["blocks"] == 1
        assert executor.stats["coalesced_requests"] == len(configs)
        assert executor.stats["fallbacks"] == 0
        for ticket, (batch, faults, noise_model) in zip(tickets, configs):
            assert ticket.done
            reference = engine.run_scalar(
                batch,
                faults=faults,
                noise=noise_model,
                strict=False,
                mode=mode,
            )
            assert_pinned(ticket.result(), reference)

    def test_auto_flush_at_max_block(self):
        seed = FAST_SEEDS[1]
        netlist = random_netlist(seed)
        batch = random_batch(netlist, seed, n_entries=4)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=8)
        first = executor.submit(netlist, batch, strict=False)
        assert not first.done and executor.pending_words == 4
        second = executor.submit(netlist, batch, strict=False)
        # The second submission reached the high-water mark: both ran.
        assert first.done and second.done
        assert executor.pending_words == 0
        assert executor.stats["blocks"] == 1
        assert_pinned(
            second.result(), CircuitEngine(netlist, n_bits=N_BITS).run_scalar(
                batch, strict=False
            )
        )

    def test_mixed_arity_noise_coalescing(self):
        """Colliding derived noise seeds across group counts stay arity-safe.

        Two noisy requests with different group counts derive *equal*
        per-(cell, group) NoiseModels for different physical cells, so
        the block's perturbation-draw cache sees one seed at two source
        arities (XOR2 vs MAJ3); each row must still receive a draw of
        its own width (regression: a reused XOR2-width array raised a
        broadcast ValueError that aborted the whole block).
        """
        netlist = Netlist("mixed")
        for name in ("a", "b", "c"):
            netlist.add_input(name)
        netlist.add_cell("x", "XOR2", ("a", "b"))
        netlist.add_cell("m", "MAJ3", ("a", "b", "c"))
        netlist.mark_output("x")
        netlist.mark_output("m")
        noise = NoiseModel(amplitude_sigma=0.03, phase_sigma=0.05, seed=7)
        rng = random.Random(7)
        batches = [
            [
                {name: rng.randint(0, 1) for name in netlist.inputs}
                for _ in range(n_entries)
            ]
            for n_entries in (4, 2)  # 2 groups vs 1 group at n_bits=2
        ]
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        tickets = [
            executor.submit(netlist, batch, noise=noise, strict=False)
            for batch in batches
        ]
        executor.flush()
        assert executor.stats["blocks"] == 1
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        for ticket, batch in zip(tickets, batches):
            reference = engine.run_scalar(batch, noise=noise, strict=False)
            assert_pinned(ticket.result(), reference)

    def test_block_failure_resolves_every_ticket(self, monkeypatch):
        """Non-ReproError block failures surface through every ticket.

        A failure inside the packed pass must resolve all coalesced
        tickets with the error -- ``result()`` re-raises it instead of
        silently returning None for stranded requests.
        """
        seed = FAST_SEEDS[0]
        netlist = random_netlist(seed)
        batch = random_batch(netlist, seed, n_entries=2)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        tickets = [
            executor.submit(netlist, batch, strict=False) for _ in range(2)
        ]
        artifact = executor.cache.get_or_compile(netlist, executor.bindings)

        def boom(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(artifact, "_execute_padded", boom)
        executor.flush()
        for ticket in tickets:
            assert ticket.done
            with pytest.raises(RuntimeError, match="kernel exploded"):
                ticket.result()

    def test_mutation_after_submit_fails_only_its_own_ticket(self):
        """A netlist mutated between submit and flush fails loudly.

        The mutated request's ticket raises a clear NetlistError; its
        unmutated coalesced neighbour still executes and pins to the
        standalone reference.
        """
        seed = FAST_SEEDS[1]
        netlist = random_netlist(seed)
        twin = random_netlist(seed)  # same submit-time signature
        batch = random_batch(netlist, seed, n_entries=2)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        healthy = executor.submit(twin, batch, strict=False)
        doomed = executor.submit(netlist, batch, strict=False)
        netlist.add_cell("late_inv", "INV", (netlist.inputs[0],))
        netlist.mark_output("late_inv")
        executor.flush()
        assert doomed.done
        with pytest.raises(NetlistError, match="mutated"):
            doomed.result()
        reference = CircuitEngine(twin, n_bits=N_BITS).run_scalar(
            batch, strict=False
        )
        assert_pinned(healthy.result(), reference)

    def test_position_noise_falls_back_per_request(self):
        seed = FAST_SEEDS[2]
        netlist = random_netlist(seed)
        batch = random_batch(netlist, seed, n_entries=4)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        noise = NoiseModel(position_sigma=1e-9, seed=90 + seed)
        ticket = executor.submit(netlist, batch, noise=noise, strict=False)
        # Placement jitter cannot ride the packed block: served eagerly.
        assert ticket.done
        assert executor.stats["fallbacks"] == 1
        assert executor.stats["blocks"] == 0
        reference = CircuitEngine(netlist, n_bits=N_BITS).run_scalar(
            batch, noise=noise, strict=False
        )
        assert_pinned(ticket.result(), reference)

    def test_position_noise_trace_runs_through_the_artifact(
        self, monkeypatch
    ):
        """A placement-noise trace request skips coalescing but runs a
        one-tenant artifact block (``run_batch`` takes one noise model
        per row), pinned to the scalar trace reference."""
        seed = FAST_SEEDS[1]
        netlist = random_netlist(seed)
        batch = random_batch(netlist, seed, n_entries=4)
        noise = NoiseModel(position_sigma=1e-9, seed=95 + seed)
        reference = CircuitEngine(netlist, n_bits=N_BITS).run_scalar(
            batch, noise=noise, strict=False, mode="trace"
        )

        def no_scalar(*args, **kwargs):
            raise AssertionError("served by the scalar reference")

        monkeypatch.setattr(CircuitEngine, "run_scalar", no_scalar)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        ticket = executor.submit(
            netlist, batch, noise=noise, strict=False, mode="trace"
        )
        assert ticket.done
        result = ticket.result()
        assert result.trace.path == "fallback"
        assert executor.stats["fallbacks"] == 1
        assert executor.stats["blocks"] == 0
        assert executor.cache.misses == 1
        assert result.mode == "trace"
        assert_pinned(result, reference)


# ----------------------------------------------------------------------
# Gate-level strictness of the trace batch (the engine relies on it)
# ----------------------------------------------------------------------
class TestTraceBatchStrictness:
    def test_undecodable_trace_entries_yield_none(self):
        """strict=False turns decode failures into None entries."""
        gate = physical_gate("MAJ3", 1)
        simulator = GateSimulator(gate, amplitudes=np.zeros((1, 3)))
        patterns = gate.exhaustive_patterns()
        with pytest.raises(SimulationError):
            simulator.run_batch(patterns)
        runs = simulator.run_batch(patterns, strict=False)
        assert runs == [None] * len(patterns)

    def test_strict_default_matches_scalar_run(self):
        gate = physical_gate("XOR2", 2)
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()
        batched = simulator.run_batch(patterns, strict=False)
        for run, words in zip(batched, patterns):
            reference = simulator.run(words)
            assert run.decoded == reference.decoded
            np.testing.assert_allclose(
                [d.margin for d in run.decodes],
                [d.margin for d in reference.decodes],
                rtol=TOL,
                atol=TOL,
            )


# ----------------------------------------------------------------------
# Full randomized sweep (slow lane): >= 20 seeds x 3 configurations
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestConformanceSweep:
    @pytest.mark.parametrize("seed", ALL_SEEDS)
    def test_seeded_netlist_conformance(self, seed):
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        batch = random_batch(netlist, seed)
        # Nominal.
        cross_check(engine, batch)
        # Noisy (amplitude + phase jitter, per-(cell, group) seeds).
        noise = NoiseModel(
            amplitude_sigma=0.03, phase_sigma=0.08, seed=500 + seed
        )
        cross_check(engine, batch, noise=noise)
        # Faulty (seed-dependent victim/channel/input).
        kind = ("stuck-phase-1", "stuck-phase-0", "weak-source")[seed % 3]
        fault = seeded_fault(engine, seed, kind=kind)
        if fault is not None:
            cross_check(engine, batch, faults=[fault])


class TestFloat32Conformance:
    """Circuit-level conformance of the single-precision backend.

    The default-backend classes pin packed/trace execution to the
    scalar reference at <= 1e-12; here the float32 variant must decode
    every randomized netlist identically (rounding at ~1e-5 relative
    never approaches the decode margins) with margins tracking the
    float64 ground truth at a slack 1e-4 tolerance.
    """

    TOL32 = 1e-4

    def _engines(self, seed):
        from repro.backends import NumpyBackend
        from repro.circuits.library import GateBindings

        netlist = random_netlist(seed=seed)
        reference = CircuitEngine(netlist, n_bits=N_BITS)
        bindings = GateBindings(
            n_bits=N_BITS, backend=NumpyBackend("single")
        )
        return netlist, reference, CircuitEngine(netlist, bindings=bindings)

    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_packed_phasor_tracks_float64(self, seed):
        netlist, engine64, engine32 = self._engines(seed)
        batch = random_batch(netlist, seed)
        result64 = engine64.run(batch)
        result32 = engine32.run(batch)
        assert result32.outputs == result64.outputs
        assert result32.outputs == netlist.evaluate_batch(batch)
        assert result32.failed == result64.failed
        for name, record in result32.cells.items():
            ref = result64.cells[name]
            assert record.bits == ref.bits
            if record.margins is None:
                continue
            np.testing.assert_allclose(
                record.margins, ref.margins, rtol=self.TOL32, atol=self.TOL32
            )

    @pytest.mark.parametrize("seed", FAST_SEEDS[:2])
    def test_trace_decode_agrees_with_float64(self, seed):
        netlist, engine64, engine32 = self._engines(seed)
        batch = random_batch(netlist, seed, n_entries=3)
        result64 = engine64.run(batch, mode="trace")
        result32 = engine32.run(batch, mode="trace")
        assert result32.outputs == result64.outputs
        assert result32.failed == result64.failed
        for name in result32.cells:
            assert result32.cells[name].bits == result64.cells[name].bits
