"""Binding gates to physical backends and running them.

:class:`GateSimulator` drives a :class:`~repro.core.gate.DataParallelGate`
on the fast linear waveguide model: it converts input words into
phase-encoded :class:`~repro.waveguide.WaveSource` transducers at the
layout positions, generates detector traces, and decodes them back to an
output word.  Reference phases/amplitudes are calibrated analytically
from the all-zeros steady state, so the decoder is agnostic to detector
placement (direct and complemented outputs both decode correctly).

Batched evaluation is array-native end to end: input-word batches
become a :class:`~repro.waveguide.SourceBank` (struct-of-arrays, no
per-word ``WaveSource`` objects) via :meth:`GateSimulator.build_source_bank`,
steady-state phasors of the whole batch reduce to one complex GEMM
against cached propagation weights, and golden outputs and decodes
evaluate as whole-array operations.  The scalar per-word API remains
the reference every batched path is pinned against
(``tests/test_phasor_equivalence.py``).

For cross-validation against the full micromagnetic solver,
:func:`build_micromagnetic_simulation` materialises the same gate as a
1-D LLG problem with localised sinusoidal excitation fields -- the
numerical twin of the paper's OOMMF setup (used on reduced geometries by
the ``llg-x`` experiment).
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.analysis.phase import lock_in_window
from repro.core.encoding import PhaseEncoding
from repro.core.readout import (
    ChannelDecode,
    decode_channel,
    decode_phasor_block,
    measure_phasor,
)
from repro.errors import ReproError, SimulationError
from repro.waveguide.linear_model import Detector, LinearWaveguideModel, WaveSource
from repro.waveguide.sources import SourceBank


@dataclass
class GateRunResult:
    """Everything produced by one gate evaluation.

    Attributes
    ----------
    words:
        The input data words (little-endian bit lists).
    decoded:
        The n-bit output word read from the physics.
    expected:
        The golden output word from Boolean semantics.
    decodes:
        Per-channel :class:`~repro.core.readout.ChannelDecode` detail.
    t:
        Time grid [s] (None for phasor-mode runs).
    traces:
        Mapping channel index -> Mx/Ms trace at that channel's detector
        (empty for phasor-mode runs).
    """

    words: list
    decoded: list
    expected: list
    decodes: list
    t: object = None
    traces: dict = field(default_factory=dict)

    @property
    def correct(self):
        """True when every decoded bit matches the golden output."""
        return self.decoded == self.expected

    @property
    def min_margin(self):
        """Smallest per-channel decision margin of this run."""
        return min(d.margin for d in self.decodes)


class ChannelTable(NamedTuple):
    """Steady-state decode of every (channel, input pattern) of a gate.

    Each field is a read-only ``(n_bits, 2 ** n_inputs)`` array; column
    ``p`` is the pattern whose input ``f`` carries bit ``(p >> f) & 1``.
    ``dead`` marks undecodable entries (their other fields are filler).
    """

    bits: np.ndarray
    margins: np.ndarray
    amplitudes: np.ndarray
    dead: np.ndarray


class GateSimulator:
    """Runs a gate on the linear travelling-wave backend."""

    def __init__(
        self,
        gate,
        encoding=None,
        amplitudes=None,
        noise=None,
        front_smoothing=0.0,
        settle_periods=4.0,
        model=None,
    ):
        """
        Parameters
        ----------
        gate:
            :class:`~repro.core.gate.DataParallelGate`.
        encoding:
            :class:`~repro.core.encoding.PhaseEncoding` (default standard).
        amplitudes:
            Optional per-(channel, input) source amplitude array of shape
            ``(n_bits, n_inputs)``; defaults to all ones.  The damping
            compensation of Section V plugs in here.
        noise:
            Optional :class:`~repro.waveguide.NoiseModel`.
        front_smoothing:
            Turn-on smoothing of the linear model [s].
        settle_periods:
            How many periods of the slowest channel to wait after the
            last wavefront arrival before the analysis window opens.
        model:
            Optional shared :class:`~repro.waveguide.LinearWaveguideModel`
            built on the gate's waveguide.  Simulators sharing one model
            share its dispersion and propagation-weight caches -- the
            circuit engine hands every simulator of one design the same
            model so identical cells (and their faulty variants) never
            recompute wave parameters or weight matrices.
        """
        self.gate = gate
        self.layout = gate.layout
        self.encoding = encoding if encoding is not None else PhaseEncoding()
        if model is None:
            model = LinearWaveguideModel(
                self.layout.waveguide, front_smoothing=front_smoothing
            )
        else:
            if model.waveguide is not self.layout.waveguide:
                raise SimulationError(
                    "a shared model must be built on the gate's waveguide"
                )
            if model.front_smoothing != float(front_smoothing):
                raise SimulationError(
                    f"shared model front_smoothing {model.front_smoothing!r} "
                    f"!= requested {front_smoothing!r}"
                )
        self.model = model
        n_bits = gate.n_bits
        n_inputs = self.layout.n_inputs
        if amplitudes is None:
            amplitudes = np.ones((n_bits, n_inputs))
        else:
            amplitudes = np.asarray(amplitudes, dtype=float)
            if amplitudes.shape != (n_bits, n_inputs):
                raise SimulationError(
                    f"amplitudes shape {amplitudes.shape} != "
                    f"{(n_bits, n_inputs)}"
                )
        self.amplitudes = amplitudes
        self.noise = noise
        self.settle_periods = float(settle_periods)
        self._calibration = None
        # Array-native source construction: phase code points and the
        # nominal (noise-free) source geometry, shared by every batch.
        self._phase_lut = np.array(
            [self.encoding.encode(0), self.encoding.encode(1)], dtype=float
        )
        self._nominal_geometry = None
        self._nominal_weights = None
        self._trace_demod = None
        self._channel_table = None

    # ------------------------------------------------------------------
    # Source construction
    # ------------------------------------------------------------------
    def build_sources(self, words):
        """Phase-encoded :class:`WaveSource` list for the input words."""
        per_channel = self.gate.physical_input_bits(words)
        sources = []
        for channel, bits in enumerate(per_channel):
            frequency = self.layout.plan.frequencies[channel]
            for input_index, bit in enumerate(bits):
                sources.append(
                    WaveSource(
                        position=self.layout.source_positions[channel][input_index],
                        frequency=frequency,
                        amplitude=float(self.amplitudes[channel, input_index]),
                        phase=self.encoding.encode(bit),
                    )
                )
        if self.noise is not None:
            sources = self.noise.perturb_sources(sources)
        return sources

    def _zero_words(self):
        return [[0] * self.gate.n_bits for _ in range(self.gate.n_data_inputs)]

    def calibration(self):
        """Per-channel (reference_phase, reference_amplitude) tuples.

        The reference is the phase the all-zeros steady state produces at
        each detector, *minus* pi on channels with an inverted (half-
        integer-multiple) detector placement -- subtracting the intended
        inversion makes those channels decode the complemented function,
        exactly as the paper's Section III placement rule promises.
        Computed without noise; cached.
        """
        if self._calibration is None:
            # Calibration is noiseless by construction (noises=[None]);
            # one single-entry bank through the cached propagation-weight
            # GEMM covers every channel at once instead of one scalar
            # steady_state_phasor per channel, so building many small
            # gates (circuit engine, channel-capacity sweeps) stays cheap.
            bank = self.build_source_bank([self._zero_words()], noises=[None])
            self.calibrate_from(self._phasor_block(bank)[0])
        return self._calibration

    def calibrate_from(self, zero_phasors):
        """Set :meth:`calibration` from ``zero_phasors``, the all-zeros
        steady-state phasor of each channel, when the caller already
        holds it (the packed circuit path's faulted table GEMM does)
        instead of building the one-row source bank.  Raises
        :class:`SimulationError` on a channel of exactly zero amplitude.
        """
        result = []
        for channel, z in enumerate(zero_phasors.tolist()):
            if abs(z) == 0:
                raise SimulationError(
                    f"calibration produced zero amplitude on channel "
                    f"{channel}; check the layout"
                )
            phase = cmath.phase(z)
            if self.layout.inverted_outputs[channel]:
                phase -= math.pi
            result.append((phase, abs(z)))
        self._calibration = result

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def settle_time(self):
        """Earliest safe start of the steady-state analysis window [s]."""
        latest = 0.0
        for channel in range(self.gate.n_bits):
            frequency = self.layout.plan.frequencies[channel]
            _, v_g, _ = self.model.wave_parameters(frequency)
            detector = self.layout.detector_positions[channel]
            for position in self.layout.source_positions[channel]:
                latest = max(latest, abs(detector - position) / v_g)
        slowest_period = 1.0 / min(self.layout.plan.frequencies)
        return latest + self.settle_periods * slowest_period

    def default_duration(self, analysis_periods=20.0):
        """Trace duration covering settling plus an analysis window [s]."""
        slowest_period = 1.0 / min(self.layout.plan.frequencies)
        return self.settle_time() + analysis_periods * slowest_period

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _decode_trace_run(
        self, words, t, trace_rows, t_start, method, noise, phasors=None,
        noise_row=None,
    ):
        """Decode one entry's per-channel traces into a :class:`GateRunResult`.

        ``phasors`` optionally carries this entry's premeasured
        per-channel phasors (from a batched lock-in); the decision logic
        in :func:`~repro.core.readout.decode_channel` is shared either way.
        ``noise_row`` optionally carries the entry's already-drawn trace
        perturbation (``NoiseModel.trace_perturbation`` realisations are
        per-model, so batched callers draw once and reuse it here
        instead of re-seeding a generator per channel).
        """
        calibration = self.calibration()
        decodes = []
        traces = {}
        for channel in range(self.gate.n_bits):
            trace = trace_rows[channel]
            if noise_row is not None:
                trace = trace + noise_row
            elif noise is not None:
                trace = noise.perturb_trace(trace)
            traces[channel] = trace
            reference_phase, reference_amplitude = calibration[channel]
            decodes.append(
                decode_channel(
                    t,
                    trace,
                    self.layout.plan.frequencies[channel],
                    reference_phase=reference_phase,
                    reference_amplitude=reference_amplitude,
                    t_start=t_start,
                    method=method,
                    amplitude_readout=self.gate.kind.uses_amplitude_readout,
                    phasor=None if phasors is None else phasors[channel],
                )
            )
        decoded = [d.bit for d in decodes]
        return GateRunResult(
            words=[list(w) for w in words],
            decoded=decoded,
            expected=self.gate.expected_output(words),
            decodes=decodes,
            t=t,
            traces=traces,
        )

    def _decode_steady_phasor(self, z, channel):
        """One channel's :class:`ChannelDecode` from its steady-state phasor.

        The scalar reference for
        :func:`~repro.core.readout.decode_phasor_block`, which vectorises
        this decision logic over whole batches.
        """
        reference_phase, reference_amplitude = self.calibration()[channel]
        amplitude = abs(z)
        if self.gate.kind.uses_amplitude_readout:
            ratio = amplitude / reference_amplitude
            bit = int(ratio < 0.5)
            margin = abs(ratio - 0.5)
            phase = (
                _wrap(cmath.phase(z) - reference_phase) if amplitude else 0.0
            )
        else:
            if amplitude == 0:
                raise SimulationError(
                    f"zero steady-state amplitude on channel {channel}"
                )
            phase = _wrap(cmath.phase(z) - reference_phase)
            bit = int(abs(phase) > 0.5 * math.pi)
            margin = abs(abs(phase) - 0.5 * math.pi)
        return ChannelDecode(
            bit=bit, phase=phase, amplitude=amplitude, margin=margin
        )

    def _resolve_noises(self, words_batch, noises):
        """Normalise a non-empty batch and its per-entry noise list.

        Idempotent: applying it to its own output is a no-op, so nested
        entry points may each normalise their inputs.  Accepts an
        ``(n_sets, n_words, width)`` integer ndarray in place of nested
        word lists -- the array-native form batched circuit execution
        feeds -- and passes it through without per-entry conversion.
        """
        if not isinstance(words_batch, np.ndarray):
            words_batch = list(words_batch)
        if len(words_batch) == 0:
            raise SimulationError("no source sets supplied")
        if noises is None:
            noises = [self.noise] * len(words_batch)
        else:
            noises = list(noises)
            if len(noises) != len(words_batch):
                raise SimulationError(
                    f"{len(noises)} noise models for {len(words_batch)} "
                    "word sets"
                )
        return words_batch, noises

    def _nominal_source_geometry(self):
        """Cached ``(position, frequency)`` rows of the layout's sources,
        flattened channel-major to match :meth:`build_sources` order."""
        if self._nominal_geometry is None:
            position = np.array(
                [p for row in self.layout.source_positions for p in row],
                dtype=float,
            )
            frequency = np.repeat(
                np.asarray(self.layout.plan.frequencies, dtype=float),
                self.layout.n_inputs,
            )
            position.setflags(write=False)
            frequency.setflags(write=False)
            self._nominal_geometry = (position, frequency)
        return self._nominal_geometry

    def mutate_source_bank(self, bank):
        """Hook for subclasses that corrupt batched sources (e.g. faults).

        Called on every bank the array-native builder constructs, after
        noise; the scalar counterpart is overriding
        :meth:`build_sources`.  Subclasses whose most-derived source
        customisation is scalar-only still work -- batches then build
        through :meth:`build_sources` -- but pay the per-word
        construction cost this hook avoids.
        """
        return bank

    def _scalar_sources_customised(self):
        """True when some subclass customises sources scalar-only.

        A subclass that overrides :meth:`build_sources` without defining
        a bank-aware counterpart (:meth:`mutate_source_bank` /
        :meth:`build_source_bank`) *in the same class* has physics the
        array-native builder cannot reproduce; batches must then
        construct through the scalar builder to stay faithful.  Checked
        per class over the whole MRO above :class:`GateSimulator`, so an
        inherited scalar-only override is honoured even when a more
        derived class adds an orthogonal bank hook.
        """
        for klass in type(self).__mro__:
            if klass is GateSimulator:
                break
            if "build_sources" in vars(klass) and not (
                "mutate_source_bank" in vars(klass)
                or "build_source_bank" in vars(klass)
            ):
                return True
        return False

    def _scalar_source_bank(self, words_batch, noises):
        """Bank built through the (possibly overridden) scalar builder."""
        source_sets = []
        saved = self.noise
        try:
            for words, noise in zip(words_batch, noises):
                self.noise = noise
                source_sets.append(self.build_sources(words))
        finally:
            self.noise = saved
        return SourceBank.from_sources(source_sets)

    def _bank_from_bits(self, bits, noises):
        """Array-native bank from a validated physical-input bit array."""
        n_sets = bits.shape[0]
        position_row, frequency_row = self._nominal_source_geometry()
        n_sources = position_row.size
        phase = self._phase_lut[bits.reshape(n_sets, n_sources)]
        amplitude = np.broadcast_to(
            np.asarray(self.amplitudes, dtype=float).ravel(),
            (n_sets, n_sources),
        )
        position = np.broadcast_to(position_row, (n_sets, n_sources))

        if any(
            noise is not None and noise.perturbs_sources for noise in noises
        ):
            amplitude = np.array(amplitude)
            position = np.array(position)
            draws = {}
            for i, noise in enumerate(noises):
                if noise is None or not noise.perturbs_sources:
                    continue
                if noise not in draws:
                    draws[noise] = noise.source_perturbations(n_sources)
                factor, phase_offset, position_offset = draws[noise]
                amplitude[i] *= factor
                phase[i] += phase_offset
                position[i] += position_offset

        bank = SourceBank.from_arrays(
            position=position,
            frequency=np.broadcast_to(frequency_row, (n_sets, n_sources)),
            amplitude=amplitude,
            phase=phase,
        )
        return self.mutate_source_bank(bank)

    def build_source_bank(self, words_batch, noises=None):
        """Array-native :class:`~repro.waveguide.SourceBank` for a batch.

        Row ``i`` describes exactly the sources :meth:`build_sources`
        would emit for ``words_batch[i]`` under ``noises[i]`` -- same
        channel-major order, same values, same RNG draws (one vectorised
        block per distinct noise model instead of one call per source) --
        without constructing a single ``WaveSource`` object.

        ``noises`` follows :meth:`run_phasor_batch`: ``None`` applies
        :attr:`noise` to every entry; a list carries one independent
        model per entry (entries sharing an equal model share one draw).
        """
        words_batch, noises = self._resolve_noises(words_batch, noises)
        if self._scalar_sources_customised():
            if isinstance(words_batch, np.ndarray):
                # Scalar-only source customisation runs per-word Python
                # code (validate_bit rejects numpy scalars): hand it
                # plain nested lists.
                words_batch = words_batch.tolist()
            return self._scalar_source_bank(words_batch, noises)
        return self._bank_from_bits(
            self.gate.physical_input_bit_array(words_batch), noises
        )

    def _batch_sources(self, words_batch, noises=None):
        """Words, noises and the :class:`SourceBank` of one batch.

        ``noises`` (when given) must match ``words_batch`` in length, so
        a batch can carry independent noise realisations (one
        Monte-Carlo trial per entry) through one vectorised evaluation.
        Routes through :meth:`build_source_bank` so subclass overrides of
        either construction path are honoured.
        """
        words_batch, noises = self._resolve_noises(words_batch, noises)
        return words_batch, noises, self.build_source_bank(words_batch, noises)

    def _trace_window(self, duration):
        if duration is None:
            duration = self.default_duration()
        t_start = self.settle_time()
        if t_start >= duration:
            raise SimulationError(
                f"duration {duration:.4g} s too short: settling alone needs "
                f"{t_start:.4g} s"
            )
        return duration, t_start

    def run(self, words, duration=None, sample_rate=None, method="lockin"):
        """Full time-domain evaluation: traces + decoded output word."""
        sources = self.build_sources(words)
        detectors = [
            Detector(position=p, label=str(i))
            for i, p in enumerate(self.layout.detector_positions)
        ]
        duration, t_start = self._trace_window(duration)
        result = self.model.run(sources, detectors, duration, sample_rate=sample_rate)
        trace_rows = [
            result["traces"][str(channel)]
            for channel in range(self.gate.n_bits)
        ]
        return self._decode_trace_run(
            words, result["t"], trace_rows, t_start, method, self.noise
        )

    def run_batch(
        self,
        words_batch,
        duration=None,
        sample_rate=None,
        method="lockin",
        noises=None,
        strict=True,
    ):
        """Time-domain evaluation of many input words in one batch.

        All entries share one time grid; the per-detector traces of the
        whole batch are generated as an ``(n_words, n_samples)`` block by
        :meth:`~repro.waveguide.linear_model.LinearWaveguideModel.trace_batch`
        (two matrix products when the batch shares its geometry; the
        nominal-geometry carrier basis is memoised on the model so
        repeated batches of the same gate pay it once), then each entry
        decodes exactly as :meth:`run` would.  The lock-in demodulation
        is likewise batched -- one vectorised measurement per channel
        covers every entry, including entries whose noise model adds
        trace noise (their rows are perturbed in-block with the same
        realisation the scalar path draws).  Returns a list of
        :class:`GateRunResult`, one per entry of ``words_batch``.  With
        ``strict=False``, an entry whose decode fails (e.g. a fault left
        a phase-readout carrier too weak to measure) yields ``None``
        instead of raising -- the same convention as
        :meth:`run_phasor_batch` -- so degraded-gate sweeps keep their
        batch shape.
        """
        words_batch, noises, bank = self._batch_sources(words_batch, noises)
        if isinstance(words_batch, np.ndarray):
            # The bank is already built from the array; the remaining
            # per-entry work (golden outputs, result records) runs
            # per-word Python code, so convert once in bulk here.
            words_batch = words_batch.tolist()
        detectors = [
            Detector(position=p, label=str(i))
            for i, p in enumerate(self.layout.detector_positions)
        ]
        duration, t_start = self._trace_window(duration)
        result = self.model.run_batch(
            bank,
            detectors,
            duration,
            sample_rate=sample_rate,
            cache_basis=self._bank_is_nominal(bank),
        )
        t = result["t"]
        # One vectorised lock-in per channel covers the whole batch.
        # Entries with trace noise perturb their rows of each channel
        # block first: perturb_trace re-seeds per call, so one draw per
        # distinct noise model (trace_perturbation) reproduces the
        # scalar per-trace realisations exactly.
        batch_phasors = None
        noise_rows = {}
        if method == "lockin":
            draws = {}
            for entry, noise in enumerate(noises):
                if noise is None or noise.trace_sigma == 0:
                    continue
                if noise not in draws:
                    draws[noise] = noise.trace_perturbation(t.size)
                noise_rows[entry] = draws[noise]
            batch_phasors = []
            for channel in range(self.gate.n_bits):
                block = result["traces"][str(channel)]
                if noise_rows:
                    block = np.array(block, dtype=float)
                    for entry, row in noise_rows.items():
                        block[entry] += row
                batch_phasors.append(
                    measure_phasor(
                        t,
                        block,
                        self.layout.plan.frequencies[channel],
                        t_start,
                        method=method,
                    )
                )
        results = []
        for entry, (words, noise) in enumerate(zip(words_batch, noises)):
            trace_rows = [
                result["traces"][str(channel)][entry]
                for channel in range(self.gate.n_bits)
            ]
            phasors = None
            noise_row = None
            if batch_phasors is not None:
                phasors = [column[entry] for column in batch_phasors]
                noise_row = noise_rows.get(entry)
            try:
                results.append(
                    self._decode_trace_run(
                        words, t, trace_rows, t_start, method, noise,
                        phasors, noise_row,
                    )
                )
            except ReproError:
                if strict:
                    raise
                results.append(None)
        return results

    def run_phasor(self, words):
        """Fast steady-state evaluation (no traces): phasor arithmetic only.

        Orders of magnitude faster than :meth:`run`; used by the
        scalability sweeps.  Noise (if any) applies to the sources.
        """
        sources = self.build_sources(words)
        decodes = []
        for channel in range(self.gate.n_bits):
            frequency = self.layout.plan.frequencies[channel]
            z = self.model.steady_state_phasor(
                sources, self.layout.detector_positions[channel], frequency
            )
            decodes.append(self._decode_steady_phasor(z, channel))
        decoded = [d.bit for d in decodes]
        return GateRunResult(
            words=[list(w) for w in words],
            decoded=decoded,
            expected=self.gate.expected_output(words),
            decodes=decodes,
        )

    def _bank_is_nominal(self, bank):
        """True when ``bank`` carries the layout's unperturbed geometry.

        Nominal banks -- every noiseless batch, and every batch whose
        noise only touches amplitudes and phases -- are the recurring
        geometries worth memoising model-side (propagation weights for
        phasor evaluation, the carrier basis for trace evaluation).
        """
        if not bank.shared_geometry:
            return False
        position, frequency = self._nominal_source_geometry()
        return bool(
            np.array_equal(bank.position[0], position)
            and np.array_equal(bank.frequency[0], frequency)
            and not bank.t_on[0].any()
        )

    def _phasor_block(self, bank):
        """``(n_sets, n_bits)`` steady-state phasors of a source bank.

        Banks carrying the layout's nominal geometry -- every noiseless
        batch, and every batch whose noise only touches amplitudes and
        phases -- hit a cached propagation-weight matrix, so the whole
        block is one complex GEMM; other shared-geometry banks compute
        their weights on the fly, and per-entry geometry (placement
        noise) takes the general per-detector path.
        """
        weights = None
        if self._bank_is_nominal(bank):
            weights = self.nominal_weights()
        return self.model.steady_state_phasor_block(
            bank,
            self.layout.detector_positions,
            self.layout.plan.frequencies,
            weights=weights,
        )

    def nominal_weights(self):
        """The ``(n_sources, n_bits)`` nominal propagation-weight matrix.

        Built on demand and memoised both here and on the shared model
        (the nominal layout geometry recurs across simulators sharing
        one model).  This is the per-operation block the compile-once
        circuit layer (:mod:`repro.circuits.compiled`) block-stacks into
        cross-operation level matrices.
        """
        if self._nominal_weights is None:
            position, frequency = self._nominal_source_geometry()
            self._nominal_weights = self.model.phasor_weights(
                position,
                frequency,
                self.layout.detector_positions,
                self.layout.plan.frequencies,
                cache=True,
            )
        return self._nominal_weights

    def channel_table(self):
        """The gate's steady-state truth table, one row per channel.

        Channels share the waveguide without interacting (every
        cross-frequency entry of :meth:`nominal_weights` is a structural
        zero), so in phasor mode the decode of channel ``c`` depends only
        on that channel's ``n_inputs`` input bits.  One source bank
        holding every input pattern on every channel -- built by the
        array-native source path, so a subclass's
        :meth:`mutate_source_bank` (a fault) applies -- runs through
        :meth:`_phasor_block` and :func:`~repro.core.readout.decode_phasor_block`
        against :meth:`calibration_arrays` (:func:`decode_channel_table`).
        Returns a :class:`ChannelTable`; built on first use and memoised.
        """
        if self._channel_table is None:
            patterns = input_patterns(self.gate.n_bits, self.layout.n_inputs)
            bank = self._bank_from_bits(patterns, [None] * len(patterns))
            try:
                reference = self.calibration_arrays()
            except SimulationError:
                reference = None
            self._channel_table = decode_channel_table(
                self._phasor_block(bank), reference,
                self.gate.kind.uses_amplitude_readout,
            )
        return self._channel_table

    def trace_demodulation(self):
        """The ``(2 * n_sources, n_bits)`` fused trace demodulation matrix.

        Trace generation (:meth:`~repro.waveguide.LinearWaveguideModel.trace_batch`:
        ``coeff_cos @ basis_sin + coeff_sin @ basis_cos``) and lock-in
        demodulation (``window @ exp(-2*pi*i*f*t)``) are both linear, so
        :meth:`run_batch`'s sine-referenced lock-in phasors of a
        nominal-geometry batch compose into one product: with ``x =
        amplitude * exp(i * phase)`` per source,

            phasors = x.real @ matrix[:S] + x.imag @ matrix[S:]

        Row ``j`` holds ``exp(-d_jc / L_j) * (basis_sin[j, window_c] @
        reference_c)`` for every channel ``c`` (the causal front included),
        row ``S + j`` the same with ``basis_cos`` -- on :meth:`run_batch`'s
        own time grid and each channel's integer-period lock-in window.
        Off-channel entries are the gate's channel crosstalk
        (:meth:`trace_crosstalk`).  Built from the windowed samples only,
        on first use, and memoised; frozen.
        """
        return self._trace_demodulation()[0]

    def trace_noise_demodulation(self):
        """``(n_samples, start, lock_in)`` for additive trace noise.

        ``lock_in`` is the ``(n_window, n_bits)`` complex matrix whose
        column ``c`` is channel ``c``'s sine-referenced lock-in reference
        (zero past its own window); a noise row ``r`` of the full
        ``n_samples`` grid adds ``r[start:start + n_window] @ lock_in`` to
        the phasors of :meth:`trace_demodulation`.  Memoised with it.
        """
        return self._trace_demodulation()[1]

    def _trace_demodulation(self):
        if self._trace_demod is None:
            self._trace_demod = self._build_trace_demodulation()
        return self._trace_demod

    def _build_trace_demodulation(self):
        position, frequency = self._nominal_source_geometry()
        duration, t_start = self._trace_window(None)
        # run_batch's grid: model.run_batch at its default sample rate.
        sample_rate = 16.0 * float(frequency.max())
        n_samples = int(round(duration * sample_rate))
        t = np.arange(n_samples) / sample_rate
        windows = [
            lock_in_window(t, f, t_start=t_start)
            for f in self.layout.plan.frequencies
        ]
        # Every window starts at the first settled sample; only the
        # integer-period truncation differs per channel.
        start = int(windows[0][0][0])
        n_window = max(index.size for index, _, _, _ in windows)
        lock_in = np.zeros((n_window, self.gate.n_bits), dtype=complex)
        sine_reference = cmath.exp(0.5j * math.pi)
        for channel, (index, reference, dt, span) in enumerate(windows):
            lock_in[index - start, channel] = (
                reference * dt * 2.0 / span * sine_reference
            )
        _, _, length = self.model._wave_parameter_arrays(frequency)
        t_on = np.zeros_like(position)
        matrix = np.empty((2 * position.size, self.gate.n_bits), dtype=complex)
        for channel, detector in enumerate(self.layout.detector_positions):
            index = windows[channel][0]
            basis = np.vstack(self.model.trace_basis(
                position, frequency, t_on, detector, t[index]
            ))
            # Real GEMM against the (re, im) pairs of the reference:
            # numpy's mixed float/complex matmul skips BLAS.
            column = np.ascontiguousarray(lock_in[index - start, channel])
            product = (basis @ column.view(float).reshape(-1, 2)).view(complex)
            envelope = np.exp(-np.abs(detector - position) / length)
            matrix[:, channel] = np.tile(envelope, 2) * product[:, 0]
        matrix.setflags(write=False)
        lock_in.setflags(write=False)
        return matrix, (n_samples, start, lock_in)

    def trace_crosstalk(self):
        """Per channel, the largest off-channel demodulation entry
        relative to the smallest on-channel one.

        Entry magnitudes are ``hypot`` of a source's sine and cosine rows
        of :meth:`trace_demodulation` in that channel's column: how much
        a unit source at another frequency leaks into this channel's
        lock-in phasor, against the weakest of the channel's own inputs.
        Zero would be the paper's ideal of non-interfering frequency
        channels; finite windows and causal fronts leave a residue.
        Returns an ``(n_bits,)`` float array.
        """
        matrix = self.trace_demodulation()
        n_sources = matrix.shape[0] // 2
        magnitude = np.hypot(
            np.abs(matrix[:n_sources]), np.abs(matrix[n_sources:])
        )
        owner = np.repeat(np.arange(self.gate.n_bits), self.layout.n_inputs)
        on_channel = owner[:, None] == np.arange(self.gate.n_bits)
        on = np.where(on_channel, magnitude, np.inf).min(axis=0)
        off = np.where(on_channel, 0.0, magnitude).max(axis=0)
        return off / on

    def calibration_arrays(self):
        """Calibration as ``(reference_phases, reference_amplitudes)``
        float arrays -- the vectorised view of :meth:`calibration` that
        :func:`~repro.core.readout.decode_phasor_block` and the packed
        circuit decoder consume directly."""
        calibration = self.calibration()
        phases = np.array([phase for phase, _ in calibration])
        amplitudes = np.array([amplitude for _, amplitude in calibration])
        return phases, amplitudes

    def run_phasor_batch(self, words_batch, noises=None, strict=True):
        """Steady-state evaluation of many input words in one batch.

        The whole batch runs array-native: source construction
        (:meth:`build_source_bank`), the per-channel phasors (one complex
        GEMM against cached propagation weights when the geometry is
        nominal), the golden outputs
        (:meth:`~repro.core.gate.DataParallelGate.expected_output_batch`)
        and the decode
        (:func:`~repro.core.readout.decode_phasor_block`) -- each entry
        nonetheless decodes exactly as :meth:`run_phasor` would (pinned
        by ``tests/test_phasor_equivalence``).  Returns a list of
        :class:`GateRunResult` aligned with ``words_batch``.  With
        ``strict=False``, an entry whose decode fails (e.g. a fault
        silenced a phase-readout channel) yields ``None`` instead of
        raising, so sweeps over degraded gates keep their batch shape.
        """
        words_batch, noises = self._resolve_noises(words_batch, noises)
        if (
            type(self).build_source_bank is GateSimulator.build_source_bank
            and not self._scalar_sources_customised()
        ):
            # One validated bit expansion feeds both the source bank and
            # the golden outputs.
            bits_array = self.gate.physical_input_bit_array(words_batch)
            bank = self._bank_from_bits(bits_array, noises)
            expected = self.gate.expected_output_from_physical_bits(bits_array)
        else:
            bank = self.build_source_bank(words_batch, noises)
            expected = self.gate.expected_output_batch(words_batch)
        phasors = self._phasor_block(bank)
        try:
            calibration = self.calibration()
        except SimulationError:
            # The scalar loop hits this per entry inside its decode
            # try/except; a calibration failure is batch-wide.
            if strict:
                raise
            return [None] * len(words_batch)
        bits, phases, amplitudes, margins, dead = decode_phasor_block(
            phasors,
            np.array([phase for phase, _ in calibration]),
            np.array([amplitude for _, amplitude in calibration]),
            amplitude_readout=self.gate.kind.uses_amplitude_readout,
        )
        dead_entries = dead.any(axis=1)
        if strict and dead_entries.any():
            entry = int(np.argmax(dead_entries))
            channel = int(np.argmax(dead[entry]))
            raise SimulationError(
                f"zero steady-state amplitude on channel {channel}"
            )
        bits = bits.tolist()
        phases = phases.tolist()
        amplitudes = amplitudes.tolist()
        margins = margins.tolist()
        n_bits = self.gate.n_bits
        if isinstance(words_batch, np.ndarray):
            # One bulk conversion for the result records (the physics
            # above consumed the array directly).
            words_batch = words_batch.tolist()
        results = []
        for entry, words in enumerate(words_batch):
            if dead_entries[entry]:
                results.append(None)
                continue
            decodes = [
                ChannelDecode(
                    bit=bits[entry][channel],
                    phase=phases[entry][channel],
                    amplitude=amplitudes[entry][channel],
                    margin=margins[entry][channel],
                )
                for channel in range(n_bits)
            ]
            results.append(
                GateRunResult(
                    words=[list(w) for w in words],
                    decoded=bits[entry],
                    expected=expected[entry],
                    decodes=decodes,
                )
            )
        return results


def input_patterns(n_bits, n_inputs):
    """Every input pattern on every channel: an ``(2**n_inputs, n_bits,
    n_inputs)`` bit array whose row ``p`` sets input ``f`` of each
    channel to ``(p >> f) & 1`` (the layout of
    :meth:`~repro.core.gate.DataParallelGate.physical_input_bit_array`)."""
    n_patterns = 2 ** n_inputs
    bits = (np.arange(n_patterns)[:, None] >> np.arange(n_inputs)) & 1
    return np.broadcast_to(bits[:, None, :], (n_patterns, n_bits, n_inputs))


def decode_channel_table(phasors, reference, amplitude_readout):
    """The :class:`ChannelTable` of :func:`input_patterns` phasors.

    ``phasors`` is the ``(2**n_inputs, n_bits)`` steady-state block of
    those patterns, ``reference`` the ``(phases, amplitudes)``
    calibration rows, or None for a gate that cannot calibrate: its
    table is dead everywhere.  Fields are frozen.
    """
    shape = phasors.shape[::-1]
    if reference is None:
        fields = (
            np.zeros(shape, dtype=np.int64),
            np.full(shape, math.nan),
            np.full(shape, math.nan),
            np.ones(shape, dtype=bool),
        )
    else:
        bits, _, amplitudes, margins, dead = decode_phasor_block(
            phasors, *reference, amplitude_readout=amplitude_readout,
        )
        fields = (bits.T, margins.T, amplitudes.T, dead.T)
    fields = [np.ascontiguousarray(array) for array in fields]
    for array in fields:
        array.setflags(write=False)
    return ChannelTable(*fields)


def _wrap(phase):
    return (phase + math.pi) % (2.0 * math.pi) - math.pi


def build_micromagnetic_simulation(
    gate,
    words,
    cell_size=4e-9,
    field_amplitude=5e3,
    margin=60e-9,
    absorber=40e-9,
    absorber_alpha=0.5,
    encoding=None,
    terms=None,
    ramp_periods=1.0,
    resolve_width=False,
    cell_size_y=None,
):
    """Materialise a gate evaluation as a micromagnetic problem.

    Builds a :class:`~repro.mm.Simulation` whose mesh spans the layout
    (plus ``margin`` at each end, the outer ``absorber`` of which ramps
    the damping up to ``absorber_alpha`` to suppress end reflections),
    with one sinusoidal :class:`~repro.mm.AppliedField` per source --
    phase-encoded exactly like the linear model -- and one region probe
    per detector.  Default field terms are exchange + PMA anisotropy +
    thin-film demag; their small-signal dynamics follow the *exchange*
    dispersion branch, so gates intended for LLG cross-validation should
    be laid out on a ``Waveguide(dispersion_model="exchange")``.

    ``resolve_width=True`` discretises the waveguide width with cells of
    ``cell_size_y`` (default ``cell_size``): transducer fields and
    detector probes then span the full width, and the transverse mode
    profile becomes part of the dynamics (2-D simulation).  The default
    1-D mode collapses the width into one cell -- the cheap
    configuration the cross-validation tests use.

    Returns ``(sim, probes)`` where ``probes[channel]`` records the
    detector of that channel.  Intended for *small* gates (1-2 channels,
    sub-micron lengths); the byte-wide gate belongs on the linear model.
    """
    from repro.mm import (
        ExchangeField,
        Mesh,
        Simulation,
        SineWaveform,
        State,
        ThinFilmDemagField,
        UniaxialAnisotropyField,
    )
    from repro.mm.fields.applied import AppliedField

    layout = gate.layout
    encoding = encoding if encoding is not None else PhaseEncoding()
    if absorber >= margin:
        raise SimulationError(
            f"absorber ({absorber!r}) must be smaller than margin ({margin!r})"
        )
    length = layout.total_length + 2.0 * margin
    nx = max(int(round(length / cell_size)), 8)
    if resolve_width:
        dy = cell_size_y if cell_size_y is not None else cell_size
        ny = max(int(round(layout.waveguide.width / dy)), 2)
    else:
        dy = layout.waveguide.width
        ny = 1
    mesh = Mesh(nx, ny, 1, cell_size, dy, layout.waveguide.thickness)
    material = layout.waveguide.material
    state = State.uniform(mesh, material, direction=(0.0, 0.0, 1.0))
    if terms is None:
        terms = [
            ExchangeField(),
            UniaxialAnisotropyField(),
            ThinFilmDemagField(),
        ]

    alpha_profile = None
    if absorber > 0:
        x = mesh.cell_centers(0)
        total = nx * cell_size
        ramp_left = np.clip((absorber - x) / absorber, 0.0, 1.0)
        ramp_right = np.clip((x - (total - absorber)) / absorber, 0.0, 1.0)
        ramp = np.maximum(ramp_left, ramp_right)
        profile = material.alpha + (absorber_alpha - material.alpha) * ramp**2
        alpha_profile = profile.reshape(nx, 1, 1) * np.ones(mesh.shape)
    sim = Simulation(state, terms=list(terms), alpha_profile=alpha_profile)

    offset = margin  # layout coordinate 0 maps to x = margin
    half = layout.transducer.length / 2.0
    per_channel = gate.physical_input_bits(words)
    for channel, bits in enumerate(per_channel):
        frequency = layout.plan.frequencies[channel]
        for input_index, bit in enumerate(bits):
            centre = offset + layout.source_positions[channel][input_index]
            mask = mesh.region_mask(x=(centre - half, centre + half))
            if not mask.any():
                raise SimulationError(
                    "source transducer narrower than one mesh cell; "
                    "reduce cell_size"
                )
            waveform = SineWaveform(
                field_amplitude,
                frequency,
                phase=encoding.encode(bit),
                ramp=ramp_periods / frequency,
            )
            sim.add_term(AppliedField(mask, (1.0, 0.0, 0.0), waveform))

    probes = []
    for channel in range(gate.n_bits):
        centre = offset + layout.detector_positions[channel]
        probes.append(
            sim.add_region_probe(
                label=f"ch{channel}", x=(centre - half, centre + half)
            )
        )
    # Pre-build the zero-allocation LLG workspace (kernels.LLGWorkspace)
    # now that the term list is final, so the first run() step pays no
    # buffer allocation.
    sim.ensure_workspace()
    return sim, probes
