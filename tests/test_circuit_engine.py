"""Tests for repro.circuits.engine: netlists on batched spin-wave gates.

Three equivalence ladders pin the engine, mirroring the
``tests/test_phasor_equivalence`` pattern (the scalar path is always the
ground truth):

* Boolean -- engine outputs equal ``Netlist.evaluate`` /
  ``evaluate_batch`` exactly, over all ``2**n`` inputs for the
  synthesized adders and over randomized DAGs;
* cascade -- on linear pipelines the engine's per-cell phasor decodes
  equal :class:`~repro.core.cascade.GateCascade` stage results to
  <= 1e-12;
* scalar -- batched execution (faults and noise included) equals the
  per-cell ``run_phasor`` loop (:meth:`CircuitEngine.run_scalar`).
"""

import math
import random
from itertools import product

import numpy as np
import pytest

from repro.circuits import (
    CellFault,
    CircuitEngine,
    Netlist,
    full_adder,
    majority_tree,
    physical_gate,
    random_netlist,
    ripple_carry_adder,
)
from repro.core.cascade import GateCascade
from repro.core.faults import FaultySimulator, TransducerFault
from repro.core.simulate import GateSimulator
from repro.errors import NetlistError, SimulationError
from repro.waveguide import NoiseModel, Waveguide
from repro.waveguide.linear_model import LinearWaveguideModel

TOL = 1e-12


def exhaustive_batch(netlist):
    """All 2^n primary-input assignments of a netlist."""
    inputs = netlist.inputs
    return [
        dict(zip(inputs, bits))
        for bits in product((0, 1), repeat=len(inputs))
    ]


def assert_margins_equal(result, reference):
    """Batched CircuitRunResult pinned to the scalar reference."""
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


# ----------------------------------------------------------------------
# Boolean equivalence
# ----------------------------------------------------------------------
class TestBooleanEquivalence:
    def test_full_adder_exhaustive(self):
        netlist, total, carry = full_adder()
        # n_bits=3 does not divide the 8 patterns: the padding path runs.
        engine = CircuitEngine(netlist, n_bits=3)
        batch = exhaustive_batch(netlist)
        result = engine.run(batch)
        assert result.correct
        assert result.outputs == netlist.evaluate_batch(batch)
        for index, assignment in enumerate(batch):
            scalar = netlist.evaluate(assignment)
            for name in netlist.outputs:
                assert result.outputs[name][index] == scalar[name]

    def test_ripple_carry_adder_exhaustive(self):
        netlist = ripple_carry_adder(4)
        engine = CircuitEngine(netlist, n_bits=8)
        batch = exhaustive_batch(netlist)
        assert len(batch) == 256
        result = engine.run(batch)
        assert result.correct
        assert result.outputs == netlist.evaluate_batch(batch)
        # Decode the physics back to arithmetic on a few entries.
        for index in (0, 77, 200, 255):
            a = sum(batch[index][f"a{i}"] << i for i in range(4))
            b = sum(batch[index][f"b{i}"] << i for i in range(4))
            total = sum(
                result.outputs[f"rca_fa{i}_sum"][index] << i for i in range(4)
            )
            total |= result.outputs[netlist.outputs[-1]][index] << 4
            assert total == a + b

    def test_majority_tree(self):
        netlist = majority_tree(9)
        engine = CircuitEngine(netlist, n_bits=4)
        rng = random.Random(5)
        batch = [
            {f"x{i}": rng.randint(0, 1) for i in range(9)} for _ in range(20)
        ]
        result = engine.run(batch)
        assert result.correct
        assert result.outputs == netlist.evaluate_batch(batch)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_dags(self, seed):
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=4)
        rng = random.Random(100 + seed)
        batch = [
            {name: rng.randint(0, 1) for name in netlist.inputs}
            for _ in range(10)
        ]
        result = engine.run(batch)
        assert result.correct
        assert result.outputs == netlist.evaluate_batch(batch)

    def test_per_level_margins_reported(self):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        result = engine.run(exhaustive_batch(netlist))
        assert len(result.levels) == netlist.depth()
        for report in result.levels:
            assert report.n_physical > 0
            assert report.min_margin > 0
        assert result.min_margin == min(r.min_margin for r in result.levels)

    def test_netlist_grown_after_compilation_is_picked_up(self):
        netlist, total, carry = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        engine.run([{"a": 1, "b": 1, "cin": 0}])
        netlist.add_cell("ncarry", "INV", (carry,))
        netlist.mark_output("ncarry")
        result = engine.run([{"a": 1, "b": 1, "cin": 0}])
        assert result.correct
        assert result.outputs["ncarry"] == [0]

    def test_output_registered_after_compilation_without_recompile(self):
        """mark_output alone must not invalidate the cached schedule --
        the engine keeps its compiled state yet reports the new output."""
        netlist, total, carry = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        engine.run([{"a": 1, "b": 1, "cin": 0}])
        schedule = engine.schedule
        netlist.mark_output("fa_axb")  # an existing internal cell
        result = engine.run([{"a": 1, "b": 1, "cin": 0}])
        assert engine.schedule is schedule  # no recompilation happened
        assert result.correct
        assert result.outputs["fa_axb"] == [0]
        assert set(result.outputs) == {"fa_sum", "fa_carry", "fa_axb"}

    def test_missing_input_raises(self):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        with pytest.raises(NetlistError, match="cin"):
            engine.run([{"a": 0, "b": 1}])

    def test_empty_batch_raises(self):
        netlist, _, _ = full_adder()
        with pytest.raises(NetlistError, match="no assignments"):
            CircuitEngine(netlist, n_bits=2).run([])

    def test_virtual_only_circuit_needs_no_physics(self):
        netlist = Netlist("wires")
        netlist.add_input("a")
        netlist.add_cell("n1", "INV", ("a",))
        netlist.add_cell("n2", "BUF", ("n1",))
        netlist.mark_output("n2")
        engine = CircuitEngine(netlist, n_bits=4)
        result = engine.run([{"a": 0}, {"a": 1}, {"a": 1}])
        assert result.outputs["n2"] == [1, 0, 0]
        assert engine.n_physical_cells == 0
        assert result.min_margin is None
        assert engine._model is None  # no gate was ever laid out


# ----------------------------------------------------------------------
# Cascade equivalence (linear pipelines)
# ----------------------------------------------------------------------
class TestCascadeEquivalence:
    def _linear_pipeline(self, n_bits=2):
        netlist = Netlist("pipe")
        for j in range(5):
            netlist.add_input(f"w{j}")
        netlist.add_cell("s1", "MAJ3", ("w0", "w1", "w2"))
        netlist.add_cell("s2", "MAJ3", ("s1", "w3", "w4"))
        netlist.mark_output("s2")
        engine = CircuitEngine(netlist, n_bits=n_bits)
        gate = engine.gate_for("MAJ3")
        cascade = GateCascade(
            [gate, gate], [["stage:0", "primary:3", "primary:4"]]
        )
        return netlist, engine, cascade

    def test_phasor_equivalence_all_inputs(self):
        n_bits = 2
        netlist, engine, cascade = self._linear_pipeline(n_bits)
        for bits in product((0, 1), repeat=5):
            words = [[b, 1 - b] for b in bits]
            final, stages = cascade.run(words)
            batch = [
                {f"w{j}": words[j][channel] for j in range(5)}
                for channel in range(n_bits)
            ]
            result = engine.run(batch)
            assert result.outputs["s2"] == final
            for cell, stage in zip(("s1", "s2"), stages):
                record = result.cells[cell]
                assert record.bits == stage.decoded
                assert min(record.margins) == pytest.approx(
                    stage.min_margin, rel=TOL, abs=TOL
                )
                np.testing.assert_allclose(
                    record.amplitudes, stage.amplitudes, rtol=TOL, atol=TOL
                )


# ----------------------------------------------------------------------
# Batched-vs-scalar equivalence
# ----------------------------------------------------------------------
class TestScalarEquivalence:
    def test_nominal(self):
        netlist = ripple_carry_adder(2)
        engine = CircuitEngine(netlist, n_bits=4)
        batch = exhaustive_batch(netlist)
        assert_margins_equal(engine.run(batch), engine.run_scalar(batch))

    def test_with_noise(self):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=4)
        batch = exhaustive_batch(netlist)
        noise = NoiseModel(
            amplitude_sigma=0.05, phase_sigma=0.1, seed=23
        )
        batched = engine.run(batch, noise=noise, strict=False)
        scalar = engine.run_scalar(batch, noise=noise, strict=False)
        assert_margins_equal(batched, scalar)

    def test_with_placement_noise_falls_back(self):
        """Position noise breaks shared geometry; results still pin."""
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        batch = exhaustive_batch(netlist)[:4]
        noise = NoiseModel(position_sigma=1e-9, seed=3)
        batched = engine.run(batch, noise=noise, strict=False)
        scalar = engine.run_scalar(batch, noise=noise, strict=False)
        assert_margins_equal(batched, scalar)

    @pytest.mark.parametrize(
        "kind", ["dead-source", "stuck-phase-0", "stuck-phase-1", "weak-source"]
    )
    def test_with_fault(self, kind):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        batch = exhaustive_batch(netlist)
        fault = CellFault(
            "fa_carry", TransducerFault(kind, channel=1, input_index=2)
        )
        batched = engine.run(batch, faults=[fault], strict=False)
        scalar = engine.run_scalar(batch, faults=[fault], strict=False)
        assert_margins_equal(batched, scalar)


# ----------------------------------------------------------------------
# Time-domain (trace) circuit execution
# ----------------------------------------------------------------------
class TestTraceMode:
    def test_full_adder_trace_correct_with_margins(self):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        batch = exhaustive_batch(netlist)
        result = engine.run_trace_batch(batch)
        assert result.mode == "trace"
        assert result.correct
        assert result.outputs == netlist.evaluate_batch(batch)
        assert len(result.levels) == netlist.depth()
        for report in result.levels:
            assert report.min_margin > 0

    def test_trace_pinned_to_scalar_with_noise(self):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        batch = exhaustive_batch(netlist)
        noise = NoiseModel(amplitude_sigma=0.05, phase_sigma=0.1, seed=23)
        batched = engine.run_trace_batch(batch, noise=noise, strict=False)
        scalar = engine.run_scalar(
            batch, noise=noise, strict=False, mode="trace"
        )
        assert scalar.mode == "trace"
        assert_margins_equal(batched, scalar)

    def test_trace_noise_on_traces_stays_vectorised_and_pins(self):
        """``trace_sigma > 0`` rides the batched lock-in (ROADMAP PR 4
        follow-up (b)): per-level decode no longer drops to the scalar
        per-entry measurement, yet pins to it at <= 1e-12."""
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        batch = exhaustive_batch(netlist)[:4]
        noise = NoiseModel(trace_sigma=0.03, phase_sigma=0.05, seed=31)
        batched = engine.run_trace_batch(batch, noise=noise, strict=False)
        scalar = engine.run_scalar(
            batch, noise=noise, strict=False, mode="trace"
        )
        assert_margins_equal(batched, scalar)

    def test_trace_placement_noise_falls_back_and_pins(self):
        """Per-entry position jitter takes the per-source trace path."""
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        batch = exhaustive_batch(netlist)[:4]
        noise = NoiseModel(position_sigma=1e-9, seed=3)
        batched = engine.run_trace_batch(batch, noise=noise, strict=False)
        scalar = engine.run_scalar(
            batch, noise=noise, strict=False, mode="trace"
        )
        assert_margins_equal(batched, scalar)

    def test_trace_fault_pinned_to_scalar(self):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        batch = exhaustive_batch(netlist)
        # a stuck at 1 on channel 1: odd entries with a = 0 decode wrong.
        fault = CellFault(
            "fa_carry",
            TransducerFault("stuck-phase-1", channel=1, input_index=0),
        )
        batched = engine.run_trace_batch(batch, faults=[fault], strict=False)
        scalar = engine.run_scalar(
            batch, faults=[fault], strict=False, mode="trace"
        )
        assert_margins_equal(batched, scalar)
        assert batched.word_errors > 0

    def test_trace_agrees_with_phasor_decodes(self):
        netlist = ripple_carry_adder(2)
        engine = CircuitEngine(netlist, n_bits=4)
        batch = exhaustive_batch(netlist)[:8]
        trace = engine.run_trace_batch(batch)
        phasor = engine.run(batch)
        assert trace.outputs == phasor.outputs
        for name in trace.cells:
            assert trace.cells[name].bits == phasor.cells[name].bits

    def test_unknown_mode_rejected(self):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        with pytest.raises(NetlistError, match="unknown execution mode"):
            engine.run([{"a": 0, "b": 0, "cin": 0}], mode="waveform")
        with pytest.raises(NetlistError, match="unknown execution mode"):
            engine.run_scalar([{"a": 0, "b": 0, "cin": 0}], mode="waveform")

    def test_trace_basis_cache_reused_across_runs(self):
        """Repeated trace runs reuse the memoised carrier bases."""
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        batch = exhaustive_batch(netlist)[:2]
        engine.run_trace_batch(batch)
        model = engine.model()
        cached = len(model._basis_cache)
        assert cached > 0
        engine.run_trace_batch(batch)
        engine.run_trace_batch(
            batch, noise=NoiseModel(phase_sigma=0.1, seed=5)
        )  # amplitude/phase noise keeps the nominal geometry
        assert len(model._basis_cache) == cached
        for basis_sin, basis_cos in model._basis_cache.values():
            assert not basis_sin.flags.writeable
            assert not basis_cos.flags.writeable


# ----------------------------------------------------------------------
# Fault and noise behaviour
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_stuck_fault_propagates_through_carry_chain(self):
        netlist = ripple_carry_adder(2)
        engine = CircuitEngine(netlist, n_bits=4)
        batch = exhaustive_batch(netlist)
        # a0 stuck at logic 1 on channel 2; channel 2 carries entries
        # 2, 6, 10, 14, whose b0 = 1, so MAJ(a0, b0, 0) flips whenever
        # the true a0 is 0 -- and the wrong carry corrupts fa1's sum.
        fault = CellFault(
            "rca_fa0_carry",
            TransducerFault("stuck-phase-1", channel=2, input_index=0),
        )
        result = engine.run(batch, faults=[fault], strict=False)
        assert result.word_errors > 0
        for index in range(result.n_entries):
            mismatch = any(
                result.outputs[o][index] != result.expected[o][index]
                for o in result.outputs
            )
            # Only channel-2 instances may err, and the carry error must
            # reach downstream outputs for entries with a0 = 0.
            if mismatch:
                assert index % engine.n_bits == 2
        assert result.outputs["rca_fa1_sum"][2] != result.expected[
            "rca_fa1_sum"
        ][2]

    def test_weak_source_invisible_to_logic(self):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        batch = exhaustive_batch(netlist)
        fault = CellFault(
            "fa_carry",
            TransducerFault("weak-source", channel=0, input_index=1),
        )
        result = engine.run(batch, faults=[fault], strict=False)
        assert result.word_errors == 0

    def test_multi_fault_distinct_cells(self):
        """Fault lists across distinct cells compose and stay pinned."""
        netlist = ripple_carry_adder(2)
        engine = CircuitEngine(netlist, n_bits=4)
        batch = exhaustive_batch(netlist)
        faults = [
            CellFault(
                "rca_fa0_carry",
                TransducerFault("stuck-phase-1", channel=2, input_index=0),
            ),
            CellFault(
                "rca_fa1_axb",
                TransducerFault("stuck-phase-1", channel=1, input_index=0),
            ),
        ]
        batched = engine.run(batch, faults=faults, strict=False)
        scalar = engine.run_scalar(batch, faults=faults, strict=False)
        assert_margins_equal(batched, scalar)
        assert batched.faults == faults
        # The faults live on different data-parallel channels, so each
        # entry sees at most one of them: the combined error set is
        # exactly the union of the single-fault error sets.
        single_errors = set()
        for fault in faults:
            single = engine.run(batch, faults=[fault], strict=False)
            for i in range(single.n_entries):
                if any(
                    single.outputs[o][i] != single.expected[o][i]
                    for o in single.outputs
                ):
                    single_errors.add(i)
        double_errors = {
            i
            for i in range(batched.n_entries)
            if any(
                batched.outputs[o][i] != batched.expected[o][i]
                for o in batched.outputs
            )
        }
        assert double_errors == single_errors
        assert {i % engine.n_bits for i in double_errors} == {1, 2}

    def test_multi_fault_trace_mode_pinned(self):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        batch = exhaustive_batch(netlist)
        faults = [
            CellFault(
                "fa_carry",
                TransducerFault("stuck-phase-1", channel=0, input_index=0),
            ),
            CellFault(
                "fa_axb",
                TransducerFault("dead-source", channel=1, input_index=1),
            ),
        ]
        batched = engine.run_trace_batch(batch, faults=faults, strict=False)
        scalar = engine.run_scalar(
            batch, faults=faults, strict=False, mode="trace"
        )
        assert_margins_equal(batched, scalar)

    def test_unknown_cell_rejected(self):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        fault = CellFault(
            "ghost", TransducerFault("dead-source", channel=0, input_index=0)
        )
        with pytest.raises(NetlistError, match="ghost"):
            engine.run(exhaustive_batch(netlist)[:1], faults=[fault])

    def test_virtual_cell_rejected(self):
        netlist = Netlist("inv")
        netlist.add_input("a")
        netlist.add_cell("n", "INV", ("a",))
        netlist.mark_output("n")
        engine = CircuitEngine(netlist, n_bits=2)
        fault = CellFault(
            "n", TransducerFault("dead-source", channel=0, input_index=0)
        )
        with pytest.raises(NetlistError, match="detector-placement"):
            engine.run([{"a": 0}], faults=[fault])

    def test_duplicate_cell_fault_rejected(self):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        faults = [
            CellFault(
                "fa_carry",
                TransducerFault("dead-source", channel=0, input_index=0),
            ),
            CellFault(
                "fa_carry",
                TransducerFault("stuck-phase-1", channel=0, input_index=1),
            ),
        ]
        with pytest.raises(NetlistError, match="more than one"):
            engine.run([{"a": 0, "b": 0, "cin": 0}], faults=faults)

    def test_dead_decode_strict_vs_lenient(self, monkeypatch):
        """A decode failure raises under strict and marks entries else."""
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        batch = exhaustive_batch(netlist)[:2]

        from repro.circuits import compiled

        decode = compiled.decode_phasor_block

        def dying(*args, amplitude_readout=False):
            bits, phases, amplitudes, margins, dead = decode(
                *args, amplitude_readout=amplitude_readout
            )
            if amplitude_readout:
                dead = np.ones_like(dead)  # kill every XOR decode
            return bits, phases, amplitudes, margins, dead

        monkeypatch.setattr(compiled, "decode_phasor_block", dying)
        with pytest.raises(SimulationError, match="failed to decode"):
            engine.run(batch)
        result = engine.run(batch, strict=False)
        assert result.failed == [True, True]
        assert result.word_errors == 2
        assert all(v is None for v in result.outputs["fa_sum"])
        assert not result.correct

    def test_noise_errors_counted(self):
        netlist = ripple_carry_adder(2)
        engine = CircuitEngine(netlist, n_bits=4)
        rng = random.Random(1)
        batch = [
            {name: rng.randint(0, 1) for name in netlist.inputs}
            for _ in range(12)
        ]
        clean = engine.run(batch, strict=False)
        assert clean.word_errors == 0
        noisy = engine.run(
            batch, noise=NoiseModel(phase_sigma=1.2, seed=2), strict=False
        )
        assert noisy.word_errors > 0
        assert noisy.min_margin < clean.min_margin


# ----------------------------------------------------------------------
# Shared-model plumbing and the calibration GEMM (satellite)
# ----------------------------------------------------------------------
class TestSharedModelAndCalibration:
    @staticmethod
    def _scalar_calibration(simulator):
        """The historical per-channel scalar calibration, as reference."""
        import cmath

        noise, simulator.noise = simulator.noise, None
        try:
            sources = simulator.build_sources(
                [[0] * simulator.gate.n_bits]
                * simulator.gate.n_data_inputs
            )
        finally:
            simulator.noise = noise
        layout = simulator.layout
        reference = []
        for channel in range(simulator.gate.n_bits):
            z = simulator.model.steady_state_phasor(
                sources,
                layout.detector_positions[channel],
                layout.plan.frequencies[channel],
            )
            phase = cmath.phase(z)
            if layout.inverted_outputs[channel]:
                phase -= math.pi
            reference.append((phase, abs(z)))
        return reference

    def _assert_calibration_matches(self, simulator):
        for (phase, amplitude), (ref_phase, ref_amplitude) in zip(
            simulator.calibration(), self._scalar_calibration(simulator)
        ):
            difference = abs(phase - ref_phase) % (2.0 * math.pi)
            assert min(difference, 2.0 * math.pi - difference) <= TOL
            assert amplitude == pytest.approx(ref_amplitude, rel=TOL)

    def test_calibration_gemm_matches_scalar(self):
        gate = physical_gate("MAJ3", n_bits=2)
        self._assert_calibration_matches(GateSimulator(gate))

    def test_calibration_with_inverted_outputs(self):
        from repro.core.frequency_plan import FrequencyPlan
        from repro.core.gate import DataParallelGate
        from repro.core.layout import InlineGateLayout
        from repro.units import GHZ

        plan = FrequencyPlan.uniform(2, 10 * GHZ, 10 * GHZ)
        layout = InlineGateLayout(
            Waveguide(), plan, n_inputs=3, inverted_outputs=[True, False]
        )
        self._assert_calibration_matches(
            GateSimulator(DataParallelGate(layout))
        )

    def test_faulty_calibration_matches_scalar(self):
        """The fault lands in calibration on both paths identically."""
        gate = physical_gate("MAJ3", n_bits=2)
        fault = TransducerFault("weak-source", channel=1, input_index=0)
        self._assert_calibration_matches(FaultySimulator(gate, fault))

    def test_shared_model_requires_same_waveguide(self):
        gate = physical_gate("MAJ3", n_bits=1)
        foreign = LinearWaveguideModel(Waveguide())
        with pytest.raises(SimulationError, match="gate's waveguide"):
            GateSimulator(gate, model=foreign)

    def test_shared_model_front_smoothing_mismatch(self):
        gate = physical_gate("MAJ3", n_bits=1)
        model = LinearWaveguideModel(gate.layout.waveguide)
        with pytest.raises(SimulationError, match="front_smoothing"):
            GateSimulator(gate, model=model, front_smoothing=1e-12)

    def test_weights_cache_shared_across_simulators(self):
        """Nominal and faulty simulators reuse one weight matrix."""
        gate = physical_gate("MAJ3", n_bits=2)
        model = LinearWaveguideModel(gate.layout.waveguide)
        nominal = GateSimulator(gate, model=model)
        faulty = FaultySimulator(
            gate,
            TransducerFault("stuck-phase-1", channel=0, input_index=1),
            model=model,
        )
        patterns = gate.exhaustive_patterns()
        nominal.run_phasor_batch(patterns)
        faulty.run_phasor_batch(patterns)
        assert nominal._nominal_weights is faulty._nominal_weights
        assert len(model._weights_cache) == 1
        assert not nominal._nominal_weights.flags.writeable

    def test_perturbed_geometries_are_not_memoised(self):
        """Position-noise sweeps must not grow the weights cache."""
        gate = physical_gate("MAJ3", n_bits=2)
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()
        simulator.run_phasor_batch(patterns)  # nominal: one cached entry
        size = len(simulator.model._weights_cache)
        assert size == 1
        for trial in range(3):
            # One shared perturbed geometry per batch: shared-geometry
            # GEMM path with a never-repeating position array.
            simulator.noise = NoiseModel(position_sigma=1e-9, seed=trial)
            simulator.run_phasor_batch(patterns)
        assert len(simulator.model._weights_cache) == size

    def test_engine_shares_one_model(self):
        netlist, _, _ = full_adder()
        engine = CircuitEngine(netlist, n_bits=2)
        engine.run(exhaustive_batch(netlist)[:2])
        assert engine.simulator_for("MAJ3").model is engine.model()
        assert engine.simulator_for("XOR2").model is engine.model()
