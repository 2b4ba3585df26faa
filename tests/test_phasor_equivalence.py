"""Physics-equivalence harness pinning every phasor fast path.

Every array-native path the batched backend takes -- ``SourceBank``
construction, the cached propagation-weight GEMM, the vectorised noise
draws, the vectorised golden outputs and decode, the fault column
mutation, and both geometry branches of the trace batch -- must
reproduce the scalar ``WaveSource`` reference to <= 1e-12 (floating
point reassociation only), across gate kinds, word widths and detector
placements.  Mirrors the :mod:`tests.test_kernels` pattern: the
allocating per-word API is the ground truth; the fast path is pinned to
it, never the other way around.

Phases compare *circularly*: a resultant landing exactly on the +/-pi
wrap boundary may change sign between summation orders while remaining
the same physical phase.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from repro.core.faults import FaultySimulator, TransducerFault
from repro.core.frequency_plan import FrequencyPlan
from repro.core.gate import DataParallelGate, GateKind
from repro.core.layout import InlineGateLayout
from repro.core.simulate import GateSimulator
from repro.errors import SimulationError
from repro.units import GHZ
from repro.waveguide import NoiseModel, SourceBank, Waveguide
from repro.waveguide.linear_model import LinearWaveguideModel, WaveSource

TOL = 1e-12

#: (gate kind, parallel word width, per-channel detector inversions).
#: Covers phase readout (majority family), amplitude readout (XOR
#: family), constant-input expansion (AND/OR), single-channel and
#: byte-wide words, and direct plus complemented detector placements.
GATE_CASES = [
    (GateKind.MAJORITY, 1, (False,)),
    (GateKind.MAJORITY, 2, (False, True)),
    (GateKind.MAJORITY, 4, (True, False, True, False)),
    (GateKind.AND, 2, (False, False)),
    (GateKind.OR, 2, (False, True)),
    (GateKind.XOR, 2, (False, False)),
    (GateKind.XNOR, 3, (False, False, False)),
]


@lru_cache(maxsize=None)
def make_gate(kind, n_bits, inverted):
    """A small laid-out gate (layouts are expensive: cache by case)."""
    n_inputs = 2 if GateKind(kind).uses_amplitude_readout else 3
    plan = FrequencyPlan.uniform(n_bits, 10 * GHZ, 10 * GHZ)
    layout = InlineGateLayout(
        Waveguide(), plan, n_inputs=n_inputs, inverted_outputs=list(inverted)
    )
    return DataParallelGate(layout, kind=kind)


def phase_distance(a, b):
    """Distance between two phases on the circle [rad]."""
    difference = abs(a - b) % (2.0 * math.pi)
    return min(difference, 2.0 * math.pi - difference)


def assert_runs_equivalent(batched, reference):
    """Batched GateRunResults must pin to the scalar reference runs."""
    assert len(batched) == len(reference)
    for batch, serial in zip(batched, reference):
        assert batch.words == serial.words
        assert batch.decoded == serial.decoded
        assert batch.expected == serial.expected
        for fast, ref in zip(batch.decodes, serial.decodes):
            assert fast.bit == ref.bit
            assert phase_distance(fast.phase, ref.phase) <= TOL
            assert fast.amplitude == pytest.approx(
                ref.amplitude, rel=TOL, abs=TOL
            )
            assert fast.margin == pytest.approx(ref.margin, rel=TOL, abs=TOL)


def scalar_reference_runs(simulator, patterns, noises=None):
    """Per-word ``run_phasor`` results, with per-entry noise swaps."""
    if noises is None:
        noises = [simulator.noise] * len(patterns)
    saved = simulator.noise
    runs = []
    try:
        for words, noise in zip(patterns, noises):
            simulator.noise = noise
            runs.append(simulator.run_phasor(words))
    finally:
        simulator.noise = saved
    return runs


# ----------------------------------------------------------------------
# Source bank construction
# ----------------------------------------------------------------------
class TestSourceBankConstruction:
    @pytest.mark.parametrize("kind,n_bits,inverted", GATE_CASES)
    def test_bank_matches_wavesource_lists(self, kind, n_bits, inverted):
        """Array-native construction equals per-word WaveSource lists."""
        gate = make_gate(kind, n_bits, inverted)
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()
        bank = simulator.build_source_bank(patterns)
        assert bank.n_sets == len(patterns)
        assert bank.n_sources == gate.layout.n_sources
        assert bank.shared_geometry
        for entry, words in enumerate(patterns):
            reference = simulator.build_sources(words)
            materialised = bank.sources(entry)
            assert len(materialised) == len(reference)
            for fast, ref in zip(materialised, reference):
                assert fast.position == ref.position
                assert fast.frequency == ref.frequency
                assert fast.amplitude == ref.amplitude
                assert fast.phase == ref.phase
                assert fast.t_on == ref.t_on

    def test_noisy_bank_matches_wavesource_lists(self):
        """Vectorised RNG blocks reproduce the scalar draws exactly."""
        gate = make_gate(GateKind.MAJORITY, 2, (False, True))
        noise = NoiseModel(
            amplitude_sigma=0.05, phase_sigma=0.1, position_sigma=1e-9, seed=11
        )
        simulator = GateSimulator(gate, noise=noise)
        patterns = gate.exhaustive_patterns()
        bank = simulator.build_source_bank(patterns)
        for entry, words in enumerate(patterns):
            for fast, ref in zip(
                bank.sources(entry), simulator.build_sources(words)
            ):
                assert fast.amplitude == ref.amplitude
                assert fast.phase == ref.phase
                assert fast.position == ref.position

    def test_custom_amplitudes_flow_into_bank(self):
        gate = make_gate(GateKind.MAJORITY, 2, (False, False))
        amplitudes = np.linspace(0.5, 1.5, gate.layout.n_sources).reshape(
            gate.n_bits, gate.layout.n_inputs
        )
        simulator = GateSimulator(gate, amplitudes=amplitudes)
        bank = simulator.build_source_bank(gate.exhaustive_patterns()[:2])
        np.testing.assert_array_equal(
            bank.amplitude, np.tile(amplitudes.ravel(), (2, 1))
        )

    def test_empty_batch_rejected(self):
        gate = make_gate(GateKind.MAJORITY, 1, (False,))
        with pytest.raises(SimulationError, match="no source sets"):
            GateSimulator(gate).build_source_bank([])


# ----------------------------------------------------------------------
# Steady-state phasor paths
# ----------------------------------------------------------------------
class TestPhasorEquivalence:
    @pytest.mark.parametrize("kind,n_bits,inverted", GATE_CASES)
    def test_batch_matches_scalar_reference(self, kind, n_bits, inverted):
        gate = make_gate(kind, n_bits, inverted)
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()
        reference = scalar_reference_runs(simulator, patterns)
        batched = simulator.run_phasor_batch(patterns)
        assert_runs_equivalent(batched, reference)

    @pytest.mark.parametrize("kind,n_bits,inverted", GATE_CASES[:3])
    def test_phasor_block_matches_steady_state_phasor(
        self, kind, n_bits, inverted
    ):
        """Model-level: the weights GEMM equals per-source summation."""
        gate = make_gate(kind, n_bits, inverted)
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()
        bank = simulator.build_source_bank(patterns)
        layout = gate.layout
        block = simulator.model.steady_state_phasor_block(
            bank, layout.detector_positions, layout.plan.frequencies
        )
        assert block.shape == (len(patterns), gate.n_bits)
        for entry in range(len(patterns)):
            sources = bank.sources(entry)
            for channel in range(gate.n_bits):
                reference = simulator.model.steady_state_phasor(
                    sources,
                    layout.detector_positions[channel],
                    layout.plan.frequencies[channel],
                )
                assert abs(block[entry, channel] - reference) <= TOL * max(
                    1.0, abs(reference)
                )

    def test_byte_gate_batch_matches_scalar(self, byte_gate):
        """The paper's byte gate: all 8 exhaustive patterns."""
        simulator = GateSimulator(byte_gate)
        patterns = byte_gate.exhaustive_patterns()
        reference = scalar_reference_runs(simulator, patterns)
        assert_runs_equivalent(simulator.run_phasor_batch(patterns), reference)


# ----------------------------------------------------------------------
# Noise paths
# ----------------------------------------------------------------------
class TestNoiseEquivalence:
    @pytest.mark.parametrize(
        "noise_kwargs",
        [
            {"amplitude_sigma": 0.08},
            {"phase_sigma": 0.2},
            {"position_sigma": 2e-9},
            {"amplitude_sigma": 0.05, "phase_sigma": 0.1, "position_sigma": 1e-9},
        ],
        ids=("amplitude", "phase", "position", "combined"),
    )
    def test_per_entry_noise_matches_scalar(self, noise_kwargs):
        """One independent realisation per entry (Monte-Carlo style).

        Position noise breaks shared geometry across entries, so the
        ``position`` and ``combined`` cases also pin the general
        per-detector fallback of the phasor block.
        """
        gate = make_gate(GateKind.MAJORITY, 2, (False, True))
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()
        noises = [
            NoiseModel(seed=trial, **noise_kwargs)
            for trial in range(len(patterns))
        ]
        reference = scalar_reference_runs(simulator, patterns, noises)
        batched = simulator.run_phasor_batch(patterns, noises=noises)
        assert_runs_equivalent(batched, reference)

    def test_shared_noise_model_matches_scalar(self):
        """``noises=None`` + simulator noise: one draw shared batch-wide."""
        gate = make_gate(GateKind.XOR, 2, (False, False))
        noise = NoiseModel(amplitude_sigma=0.1, phase_sigma=0.05, seed=5)
        simulator = GateSimulator(gate, noise=noise)
        patterns = gate.exhaustive_patterns()
        reference = scalar_reference_runs(simulator, patterns)
        assert_runs_equivalent(simulator.run_phasor_batch(patterns), reference)

    def test_source_perturbations_match_perturb_sources(self):
        """Noise-layer pin: block draws equal interleaved scalar draws."""
        noise = NoiseModel(
            amplitude_sigma=0.07, phase_sigma=0.3, position_sigma=5e-10, seed=13
        )
        sources = [
            WaveSource(position=j * 50e-9, frequency=10e9, amplitude=1.0)
            for j in range(6)
        ]
        reference = noise.perturb_sources(sources)
        factor, phase_offset, position_offset = noise.source_perturbations(
            len(sources)
        )
        for j, (ref, source) in enumerate(zip(reference, sources)):
            assert source.amplitude * factor[j] == ref.amplitude
            assert source.phase + phase_offset[j] == ref.phase
            assert source.position + position_offset[j] == ref.position


# ----------------------------------------------------------------------
# Fault paths
# ----------------------------------------------------------------------
class TestFaultEquivalence:
    @pytest.mark.parametrize(
        "kind", ("dead-source", "stuck-phase-0", "stuck-phase-1", "weak-source")
    )
    def test_faulty_batch_matches_scalar(self, kind):
        gate = make_gate(GateKind.MAJORITY, 2, (False, True))
        fault = TransducerFault(kind=kind, channel=1, input_index=2)
        simulator = FaultySimulator(gate, fault)
        patterns = gate.exhaustive_patterns()
        reference = scalar_reference_runs(simulator, patterns)
        assert_runs_equivalent(simulator.run_phasor_batch(patterns), reference)

    def test_scalar_only_override_builds_batches_through_it(self):
        """The most-derived customisation decides the construction path.

        A subclass overriding only scalar ``build_sources`` -- even on
        top of a bank-aware class like ``FaultySimulator`` -- must see
        its customisation in batches, at per-word construction cost.
        """
        from dataclasses import replace as dc_replace

        gate = make_gate(GateKind.MAJORITY, 2, (False, False))
        fault = TransducerFault(kind="weak-source", channel=0, input_index=0)

        class ExtraWeak(FaultySimulator):
            def build_sources(self, words):
                sources = super().build_sources(words)
                sources[-1] = dc_replace(sources[-1], amplitude=0.3)
                return sources

        simulator = ExtraWeak(gate, fault)
        assert simulator._scalar_sources_customised()
        patterns = gate.exhaustive_patterns()
        bank = simulator.build_source_bank(patterns)
        assert (bank.amplitude[:, -1] == 0.3).all()
        reference = scalar_reference_runs(simulator, patterns)
        assert_runs_equivalent(simulator.run_phasor_batch(patterns), reference)

    def test_inherited_scalar_override_survives_derived_bank_hook(self):
        """A scalar-only override is honoured below a bank-hook subclass."""
        from dataclasses import replace as dc_replace

        gate = make_gate(GateKind.MAJORITY, 2, (False, False))

        class ScalarOnly(GateSimulator):
            def build_sources(self, words):
                sources = super().build_sources(words)
                sources[0] = dc_replace(sources[0], amplitude=0.5)
                return sources

        class DerivedBankHook(ScalarOnly):
            def mutate_source_bank(self, bank):  # orthogonal no-op hook
                return bank

        simulator = DerivedBankHook(gate)
        assert simulator._scalar_sources_customised()
        patterns = gate.exhaustive_patterns()
        bank = simulator.build_source_bank(patterns)
        assert (bank.amplitude[:, 0] == 0.5).all()
        reference = scalar_reference_runs(simulator, patterns)
        assert_runs_equivalent(simulator.run_phasor_batch(patterns), reference)

    def test_build_source_bank_override_reaches_run_phasor_batch(self):
        """Batched entry points route through the overridable builder."""
        gate = make_gate(GateKind.MAJORITY, 2, (False, False))

        class HalvedBank(GateSimulator):
            def build_source_bank(self, words_batch, noises=None):
                bank = super().build_source_bank(words_batch, noises)
                return bank.replace(amplitude=0.5 * bank.amplitude)

        simulator = HalvedBank(gate)
        plain = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()
        halved = simulator.run_phasor_batch(patterns)
        reference = plain.run_phasor_batch(patterns)
        for fast, ref in zip(halved, reference):
            for a, b in zip(fast.decodes, ref.decodes):
                assert a.amplitude == pytest.approx(0.5 * b.amplitude, rel=TOL)

    def test_dead_channel_strict_raises_like_scalar(self):
        """A single-input channel killed outright: strict raise vs None."""
        gate = make_gate(GateKind.MAJORITY, 1, (False,))
        plan = FrequencyPlan.uniform(1, 10 * GHZ, 10 * GHZ)
        layout = InlineGateLayout(Waveguide(), plan, n_inputs=1)
        gate = DataParallelGate(layout, kind=GateKind.MAJORITY)
        fault = TransducerFault(kind="dead-source", channel=0, input_index=0)
        simulator = FaultySimulator(gate, fault)
        patterns = gate.exhaustive_patterns()
        with pytest.raises(SimulationError, match="channel 0"):
            simulator.run_phasor_batch(patterns)
        lenient = simulator.run_phasor_batch(patterns, strict=False)
        assert lenient == [None] * len(patterns)


# ----------------------------------------------------------------------
# Trace paths and geometry branches
# ----------------------------------------------------------------------
class TestTraceGeometryBranches:
    @staticmethod
    def _model():
        return LinearWaveguideModel(Waveguide())

    @staticmethod
    def _sources(offset):
        return [
            WaveSource(position=offset, frequency=10e9, phase=0.0),
            WaveSource(position=offset + 120e-9, frequency=15e9, phase=math.pi),
        ]

    def test_shared_geometry_branch(self):
        """Same positions everywhere: the carrier-basis GEMM branch."""
        model = self._model()
        sets = [self._sources(0.0), self._sources(0.0)]
        t = np.linspace(0.0, 2e-9, 257)
        batch = model.stack_sources(sets)
        assert model._shared_geometry(batch)
        traces = model.trace_batch(sets, 400e-9, t)
        for row, sources in zip(traces, sets):
            np.testing.assert_allclose(
                row, model.trace(sources, 400e-9, t), rtol=0, atol=TOL
            )

    def test_mismatched_geometry_falls_back(self):
        """Different positions per set: detected, per-source path taken."""
        model = self._model()
        sets = [self._sources(0.0), self._sources(30e-9)]
        t = np.linspace(0.0, 2e-9, 257)
        batch = model.stack_sources(sets)
        assert not model._shared_geometry(batch)
        traces = model.trace_batch(sets, 400e-9, t)
        for row, sources in zip(traces, sets):
            np.testing.assert_allclose(
                row, model.trace(sources, 400e-9, t), rtol=0, atol=TOL
            )

    def test_cached_basis_is_exact_and_frozen(self):
        """cache_basis memoises per (geometry, detector, grid) without
        changing a single sample, and never fills from plain calls."""
        model = self._model()
        sets = [self._sources(0.0), self._sources(0.0)]
        t = np.linspace(0.0, 2e-9, 257)
        plain = model.trace_batch(sets, 400e-9, t)
        assert model._basis_cache == {}  # default: no memoisation
        cached_first = model.trace_batch(sets, 400e-9, t, cache_basis=True)
        assert len(model._basis_cache) == 1
        cached_again = model.trace_batch(sets, 400e-9, t, cache_basis=True)
        np.testing.assert_array_equal(plain, cached_first)
        np.testing.assert_array_equal(cached_first, cached_again)
        for basis_sin, basis_cos in model._basis_cache.values():
            assert not basis_sin.flags.writeable
            assert not basis_cos.flags.writeable
        # A different detector or grid is a different cache entry.
        model.trace_batch(sets, 300e-9, t, cache_basis=True)
        assert len(model._basis_cache) == 2

    def test_precomputed_weights_require_shared_geometry(self):
        model = self._model()
        sets = [self._sources(0.0), self._sources(30e-9)]
        weights = model.phasor_weights(
            [s.position for s in sets[0]],
            [s.frequency for s in sets[0]],
            [400e-9],
            [10e9],
        )
        with pytest.raises(SimulationError, match="shared geometry"):
            model.steady_state_phasor_block(
                sets, [400e-9], [10e9], weights=weights
            )

    def test_run_batch_consumes_bank(self):
        """Time-domain batch through a SourceBank equals scalar runs."""
        gate = make_gate(GateKind.MAJORITY, 2, (False, True))
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()[:4]
        sequential = [simulator.run(words) for words in patterns]
        batched = simulator.run_batch(patterns)
        for serial, batch in zip(sequential, batched):
            assert batch.decoded == serial.decoded
            assert batch.expected == serial.expected
            for channel, trace in serial.traces.items():
                np.testing.assert_allclose(
                    batch.traces[channel], trace, rtol=0, atol=1e-9
                )

    @pytest.mark.parametrize(
        "kind,n_bits,inverted",
        [
            (GateKind.MAJORITY, 2, (False, True)),
            (GateKind.XOR, 2, (False, False)),
        ],
    )
    def test_trace_noise_batch_matches_scalar(self, kind, n_bits, inverted):
        """trace_sigma > 0 stays on the vectorised lock-in (ROADMAP PR 4
        follow-up (b)): one draw per distinct model perturbs the channel
        blocks, reproducing the scalar per-trace decode at <= 1e-12."""
        gate = make_gate(kind, n_bits, inverted)
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()[:4]
        noises = [
            NoiseModel(trace_sigma=0.05, seed=3),
            None,
            NoiseModel(trace_sigma=0.02, phase_sigma=0.05, seed=9),
            NoiseModel(trace_sigma=0.05, seed=3),  # shares entry 0's draw
        ]
        batched = simulator.run_batch(patterns, noises=noises)
        saved = simulator.noise
        reference = []
        try:
            for words, noise in zip(patterns, noises):
                simulator.noise = noise
                reference.append(simulator.run(words))
        finally:
            simulator.noise = saved
        assert_runs_equivalent(batched, reference)
        for batch, serial in zip(batched, reference):
            for channel, trace in serial.traces.items():
                np.testing.assert_allclose(
                    batch.traces[channel], trace, rtol=0, atol=1e-9
                )

    def test_trace_perturbation_matches_perturb_trace(self):
        """The vectorised draw equals the per-trace realisation exactly."""
        noise = NoiseModel(trace_sigma=0.1, seed=21)
        trace = np.linspace(-1.0, 1.0, 257)
        np.testing.assert_array_equal(
            noise.perturb_trace(trace),
            trace + noise.trace_perturbation(trace.size),
        )
        silent = NoiseModel(seed=21)
        np.testing.assert_array_equal(
            silent.trace_perturbation(5), np.zeros(5)
        )

    def test_bank_accepted_by_batched_model_entry_points(self):
        """A SourceBank passes anywhere source set lists do."""
        model = self._model()
        sets = [self._sources(0.0), self._sources(0.0)]
        bank = SourceBank.from_sources(sets)
        t = np.linspace(0.0, 1e-9, 129)
        np.testing.assert_allclose(
            model.trace_batch(bank, 300e-9, t),
            model.trace_batch(sets, 300e-9, t),
            rtol=0,
            atol=0,
        )
        np.testing.assert_allclose(
            model.steady_state_phasor_batch(bank, 300e-9, 10e9),
            model.steady_state_phasor_batch(sets, 300e-9, 10e9),
            rtol=0,
            atol=0,
        )


# ----------------------------------------------------------------------
# Fused trace demodulation: trace generation + lock-in as one matrix
# ----------------------------------------------------------------------
class TestTraceDemodulation:
    """``trace_demodulation()`` reproduces ``run_batch``'s lock-in
    phasors without building a waveform."""

    @staticmethod
    def fused_decodes(simulator, patterns, noises=None):
        """Bits/amplitudes/margins from the matrix, plus the dead mask."""
        from repro.core.readout import MIN_AMPLITUDE_RATIO, decode_phasor_block

        bank = simulator.build_source_bank(patterns, noises=noises)
        excite = bank.amplitude * np.exp(1j * bank.phase)
        matrix = simulator.trace_demodulation()
        n_sources = excite.shape[1]
        phasors = excite.real @ matrix[:n_sources] + excite.imag @ matrix[
            n_sources:
        ]
        if noises is not None:
            n_samples, start, lock_in = simulator.trace_noise_demodulation()
            for row, noise in enumerate(noises):
                samples = noise.trace_perturbation(n_samples)
                phasors[row] += samples[start : start + len(lock_in)] @ lock_in
        bits, _, amplitudes, margins, dead = decode_phasor_block(
            phasors, *simulator.calibration_arrays(),
            amplitude_readout=simulator.gate.kind.uses_amplitude_readout,
            min_amplitude_ratio=MIN_AMPLITUDE_RATIO,
        )
        return bits, amplitudes, margins, dead.any(axis=1)

    @staticmethod
    def assert_matches_run_batch(fused, runs):
        bits, amplitudes, margins, dead = fused
        assert dead.tolist() == [run is None for run in runs]
        for row, run in enumerate(runs):
            if run is None:
                continue
            assert bits[row].tolist() == run.decoded
            np.testing.assert_allclose(
                amplitudes[row], [d.amplitude for d in run.decodes],
                rtol=TOL, atol=TOL,
            )
            np.testing.assert_allclose(
                margins[row], [d.margin for d in run.decodes],
                rtol=TOL, atol=TOL,
            )

    @pytest.mark.parametrize("kind", [GateKind.MAJORITY, GateKind.XOR])
    @pytest.mark.parametrize("n_rows", [4, 32])
    def test_matches_run_batch(self, kind, n_rows):
        gate = make_gate(kind, 4, (False, True, False, False))
        simulator = GateSimulator(gate)
        rng = np.random.default_rng(n_rows)
        patterns = rng.integers(
            0, 2, size=(n_rows, gate.n_data_inputs, gate.n_bits)
        )
        self.assert_matches_run_batch(
            self.fused_decodes(simulator, patterns),
            simulator.run_batch(patterns, strict=False),
        )

    def test_trace_noise_is_the_lock_in_of_its_row(self):
        gate = make_gate(GateKind.MAJORITY, 2, (False, True))
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()
        noises = [
            NoiseModel(trace_sigma=0.2, phase_sigma=0.1, seed=seed)
            for seed in range(len(patterns))
        ]
        self.assert_matches_run_batch(
            self.fused_decodes(simulator, patterns, noises),
            simulator.run_batch(patterns, noises=noises, strict=False),
        )

    def test_memoised_and_frozen(self):
        simulator = GateSimulator(make_gate(GateKind.XOR, 2, (False, False)))
        matrix = simulator.trace_demodulation()
        assert simulator.trace_demodulation() is matrix
        assert matrix.shape == (2 * simulator.layout.n_inputs * 2, 2)
        assert not matrix.flags.writeable
        _, _, lock_in = simulator.trace_noise_demodulation()
        assert not lock_in.flags.writeable
        # Built from the lock-in windows only: no full-grid basis cached.
        assert simulator.model._basis_cache == {}

    @pytest.mark.parametrize("operation", ["MAJ3", "XOR2"])
    def test_channel_crosstalk_stays_small(self, operation):
        """The paper's premise: channels at different frequencies share
        the waveguide without interfering -- every off-channel source
        leaks under 2% of the weakest on-channel one into a byte
        gate's lock-in phasors."""
        from repro.circuits.library import physical_gate

        simulator = GateSimulator(physical_gate(operation, 8))
        crosstalk = simulator.trace_crosstalk()
        assert crosstalk.shape == (8,)
        assert (crosstalk > 0).all()
        assert crosstalk.max() <= 0.02
