"""The linear travelling-wave model of a multi-frequency waveguide.

Each :class:`WaveSource` excites a damped travelling wave

    s(x, t) = A * exp(-|x - x_s| / L(f)) *
              sin(2*pi*f*(t - |x - x_s|/v_g) - k*|x - x_s| + phi)

for t > t_on + |x - x_s|/v_g (sharp causal front, optionally smoothed).
A :class:`Detector` superposes the contributions of every source --
including different-frequency ones, which coexist without interacting
exactly as in the paper's Section II -- and the result is a synthetic
``Mx/Ms`` trace directly comparable to OOMMF probe output.

Wave parameters (k, v_g, L) are looked up once per distinct frequency
from the waveguide's dispersion relation, so generating a trace costs
O(n_sources * n_samples) regardless of physical length.

Batched evaluation: :meth:`LinearWaveguideModel.trace_batch` and
:meth:`LinearWaveguideModel.steady_state_phasor_batch` evaluate many
source sets (e.g. every input word of a gate) in one vectorised pass,
returning ``(n_sets, n_samples)`` / ``(n_sets,)`` arrays.  When the
geometry is shared across the batch -- the common case, only the
encoded phases and amplitudes differ per word -- the trace batch
reduces to two BLAS matrix products against a precomputed carrier
basis, so the per-word cost collapses to a pair of GEMV passes.
Steady-state evaluation at many detectors collapses further:
:meth:`LinearWaveguideModel.steady_state_phasor_block` turns a whole
batch x detector grid into a single complex GEMM against the cached
propagation weights of :meth:`LinearWaveguideModel.phasor_weights`.
Batches are cheapest to express as an array-native
:class:`~repro.waveguide.sources.SourceBank`, which every batched entry
point accepts in place of ``WaveSource`` lists.  Every operand is
float64/complex128: the exact frequency matching of the cached weights
(``tol=1e-12``) needs the full precision.
"""

import math
import operator
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.physics.damping import attenuation_length
from repro.physics.solve import wavenumber_for_frequency


@dataclass(frozen=True)
class WaveSource:
    """One excitation transducer on the waveguide axis.

    Parameters
    ----------
    position:
        Location along the waveguide [m].
    frequency:
        Carrier frequency [Hz].
    amplitude:
        Dimensionless Mx/Ms amplitude at the source.
    phase:
        Encoded phase [rad]: 0 for logic 0, pi for logic 1.
    t_on:
        Turn-on time [s].
    """

    position: float
    frequency: float
    amplitude: float = 1.0
    phase: float = 0.0
    t_on: float = 0.0

    def __post_init__(self):
        if self.frequency <= 0:
            raise SimulationError(
                f"source frequency must be positive, got {self.frequency!r}"
            )
        if self.amplitude < 0:
            raise SimulationError(
                f"source amplitude must be non-negative, got {self.amplitude!r}"
            )


@dataclass(frozen=True)
class Detector:
    """An output transducer at ``position`` [m] with a display ``label``."""

    position: float
    label: str = ""


#: Column-stacked ``(n_sets, n_sources)`` source parameters of one batch;
#: produced by :meth:`LinearWaveguideModel.stack_sources` and accepted by
#: every batched entry point in place of the raw source lists.
SourceBatch = namedtuple(
    "SourceBatch", ("position", "frequency", "amplitude", "phase", "t_on")
)


class LinearWaveguideModel:
    """Superposition model bound to one waveguide's dispersion."""

    def __init__(self, waveguide, front_smoothing=0.0):
        """``front_smoothing`` [s] smooths the causal turn-on edge."""
        self.waveguide = waveguide
        self.dispersion = waveguide.dispersion()
        if front_smoothing < 0:
            raise SimulationError(
                f"front_smoothing must be non-negative, got {front_smoothing!r}"
            )
        self.front_smoothing = float(front_smoothing)
        self._wave_cache = {}
        self._weights_cache = {}
        self._basis_cache = {}

    # ------------------------------------------------------------------
    def wave_parameters(self, frequency):
        """(k, v_g, L_att) for ``frequency``, cached per distinct value."""
        key = float(frequency)
        if key not in self._wave_cache:
            k = wavenumber_for_frequency(self.dispersion, key)
            v_g = abs(self.dispersion.group_velocity(k))
            length = attenuation_length(self.dispersion, k)
            self._wave_cache[key] = (k, v_g, length)
        return self._wave_cache[key]

    def _front(self, t, arrival):
        """Causal front factor in [0, 1] for sample times ``t``."""
        if self.front_smoothing == 0.0:
            return (t >= arrival).astype(float)
        x = (t - arrival) / self.front_smoothing
        return np.clip(x, 0.0, 1.0)

    def source_contribution(self, source, position, t):
        """Signal of one source at ``position`` over time array ``t``."""
        distance = abs(position - source.position)
        k, v_g, length = self.wave_parameters(source.frequency)
        arrival = source.t_on + distance / v_g
        envelope = source.amplitude * math.exp(-distance / length)
        carrier = np.sin(
            2.0 * math.pi * source.frequency * (t - source.t_on)
            - k * distance
            + source.phase
        )
        return envelope * carrier * self._front(t, arrival)

    def trace(self, sources, position, t):
        """Superposed Mx/Ms trace of all ``sources`` at ``position``."""
        total = np.zeros_like(np.asarray(t, dtype=float))
        for source in sources:
            total += self.source_contribution(source, position, t)
        return total

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def stack_sources(source_sets):
        """Stack equal-length source sets into a :class:`SourceBatch`.

        Every batched entry point also accepts the returned value in
        place of ``source_sets``, so callers evaluating the same batch at
        several detectors (e.g. every channel of a gate) stack once.
        """
        if isinstance(source_sets, SourceBatch):
            return source_sets
        as_batch = getattr(source_sets, "as_batch", None)
        if callable(as_batch):  # e.g. a repro.waveguide.sources.SourceBank
            return as_batch()
        source_sets = [list(s) for s in source_sets]
        if not source_sets:
            raise SimulationError("no source sets supplied")
        n_sources = len(source_sets[0])
        if n_sources == 0:
            raise SimulationError("no sources supplied")
        if any(len(s) != n_sources for s in source_sets):
            raise SimulationError(
                "all source sets in a batch must have the same length"
            )
        fields = operator.attrgetter(*SourceBatch._fields)
        data = np.array(
            [[fields(src) for src in s] for s in source_sets], dtype=float
        )
        return SourceBatch(*(data[..., i] for i in range(data.shape[-1])))

    def _wave_parameter_arrays(self, frequency):
        """Per-source ``(k, v_g, L_att)`` arrays for a frequency array."""
        k = np.empty_like(frequency)
        v_g = np.empty_like(frequency)
        length = np.empty_like(frequency)
        for value in np.unique(frequency):
            kf, vf, lf = self.wave_parameters(value)
            same = frequency == value
            k[same] = kf
            v_g[same] = vf
            length[same] = lf
        return k, v_g, length

    @staticmethod
    def _shared_geometry(batch):
        """True when every set of ``batch`` shares positions/frequencies/t_on.

        Shared geometry is the precondition for the fast matrix-product
        paths (:meth:`trace_batch`'s carrier basis and
        :meth:`steady_state_phasor_block`'s propagation weights); callers
        with mismatched geometry -- e.g. independent per-entry placement
        noise -- must take the general per-source path.
        """
        return bool(
            (np.ptp(batch.position, axis=0) == 0.0).all()
            and (np.ptp(batch.frequency, axis=0) == 0.0).all()
            and (np.ptp(batch.t_on, axis=0) == 0.0).all()
        )

    def trace_basis(self, position, frequency, t_on, detector_position, t,
                    cache=False):
        """Front-weighted carrier basis of one shared source geometry.

        ``position``/``frequency``/``t_on`` are the shared ``(n_sources,)``
        rows of a batch; the returned ``(basis_sin, basis_cos)`` pair holds
        ``sin(a) * front`` / ``cos(a) * front`` for the phase argument
        ``a = 2*pi*f*(t - t_on) - k*d`` of every source at
        ``detector_position``.  A whole batch's traces are then two matrix
        products against this basis (see :meth:`trace_batch`).

        With ``cache=True`` the basis is memoised per exact
        ``(geometry, detector, time grid)`` -- repeated
        :meth:`~repro.core.simulate.GateSimulator.run_batch` calls on one
        gate re-evaluate the same geometry on the same grid, so the
        basis (the expensive ``sin``/``cos`` over ``n_sources x
        n_samples``) is paid once per gate instead of once per call.
        Only nominal (recurring) geometries should cache: placement-noise
        draws never repeat and would grow the cache without bound.  The
        returned arrays are frozen; derive, don't mutate.
        """
        position = np.asarray(position, dtype=float)
        frequency = np.asarray(frequency, dtype=float)
        t_on = np.asarray(t_on, dtype=float)
        t = np.asarray(t, dtype=float)
        key = None
        if cache:
            key = (
                position.tobytes(),
                frequency.tobytes(),
                t_on.tobytes(),
                float(detector_position),
                t.tobytes(),
            )
            cached = self._basis_cache.get(key)
            if cached is not None:
                obs.inc("waveguide.basis_cache.hits")
                return cached
            obs.inc("waveguide.basis_cache.misses")
        k, v_g, length = self._wave_parameter_arrays(frequency)
        distance = np.abs(detector_position - position)
        arrival = t_on + distance / v_g
        # sin(a + phi) = sin(a) cos(phi) + cos(a) sin(phi): the phase
        # argument a and the causal front depend only on the source
        # column, so both batch dimensions meet in a GEMM.
        argument = (
            2.0 * np.pi * frequency[:, None] * (t[None, :] - t_on[:, None])
            - (k * distance)[:, None]
        )
        front = self._front(t[None, :], arrival[:, None])
        basis_sin = np.sin(argument)
        basis_sin *= front
        basis_cos = np.cos(argument)
        basis_cos *= front
        basis_sin.setflags(write=False)
        basis_cos.setflags(write=False)
        if key is not None:
            self._basis_cache[key] = (basis_sin, basis_cos)
        return basis_sin, basis_cos

    def trace_batch(self, source_sets, position, t, cache_basis=False):
        """Traces of many source sets at one detector: ``(n_sets, n_samples)``.

        Row ``i`` equals ``trace(source_sets[i], position, t)`` to floating
        point.  When every set shares the same geometry (positions,
        frequencies, turn-on times) -- only amplitudes/phases differ, as
        for the input words of one gate -- the carrier basis is computed
        once (memoised across calls with ``cache_basis=True``; see
        :meth:`trace_basis`) and the whole batch reduces to two matrix
        products.  Mismatched geometry is detected explicitly and falls
        back to the per-source path, which handles fully independent
        source arrays.
        """
        t = np.asarray(t, dtype=float)
        batch = self.stack_sources(source_sets)
        pos, freq, amp, phase, t_on = batch
        k, v_g, length = self._wave_parameter_arrays(freq)
        distance = np.abs(position - pos)
        arrival = t_on + distance / v_g
        envelope = amp * np.exp(-distance / length)

        if self._shared_geometry(batch):
            basis_sin, basis_cos = self.trace_basis(
                pos[0], freq[0], t_on[0], position, t, cache=cache_basis
            )
            coeff_cos = envelope * np.cos(phase)
            coeff_sin = envelope * np.sin(phase)
            return coeff_cos @ basis_sin + coeff_sin @ basis_cos

        total = np.zeros((pos.shape[0], t.shape[0]), dtype=float)
        for j in range(pos.shape[1]):
            carrier = np.sin(
                2.0 * np.pi * freq[:, j, None] * (t[None, :] - t_on[:, j, None])
                - (k[:, j] * distance[:, j])[:, None]
                + phase[:, j, None]
            )
            carrier *= self._front(t[None, :], arrival[:, j, None])
            carrier *= envelope[:, j, None]
            total += carrier
        return total

    def run_batch(self, source_sets, detectors, duration, sample_rate=None,
                  cache_basis=False):
        """Batched :meth:`run`: one trace per (source set, detector).

        Same validation and defaults as :meth:`run`; the sample rate
        defaults to 16x the highest frequency across the whole batch so
        every set shares one time grid.  ``cache_basis`` memoises the
        shared-geometry carrier basis per (geometry, detector, grid) --
        pass True only for recurring nominal geometries (see
        :meth:`trace_basis`).  Returns ``{"t": t, "traces":
        {label: (n_sets, n_samples) array}}``.
        """
        source_sets = self.stack_sources(source_sets)
        detectors = list(detectors)
        if not detectors:
            raise SimulationError("no detectors supplied")
        if duration <= 0:
            raise SimulationError(f"duration must be positive, got {duration!r}")
        if sample_rate is None:
            sample_rate = 16.0 * float(source_sets.frequency.max())
        n_samples = int(round(duration * sample_rate))
        if n_samples < 2:
            raise SimulationError(
                "duration * sample_rate too small "
                f"({duration!r} s at {sample_rate!r} Hz)"
            )
        t = np.arange(n_samples) / sample_rate
        traces = {}
        for index, detector in enumerate(detectors):
            label = detector.label or f"detector_{index}"
            traces[label] = self.trace_batch(
                source_sets, detector.position, t, cache_basis=cache_basis
            )
        return {"t": t, "traces": traces}

    def steady_state_phasor_batch(self, source_sets, position, frequency, tol=1e-12):
        """Batched :meth:`steady_state_phasor`: ``(n_sets,)`` complex array.

        Only same-frequency sources are evaluated (off-frequency ones are
        never touched, matching the sequential skip -- their dispersion
        is not even looked up), so one call costs O(matching sources)
        regardless of how many channels share the batch.
        """
        pos, freq, amp, phase, _ = self.stack_sources(source_sets)
        n_sets = pos.shape[0]
        selected = np.abs(freq - frequency) <= tol * max(frequency, 1.0)
        rows, cols = np.nonzero(selected)
        if rows.size == 0:
            return np.zeros(n_sets, dtype=complex)
        k, _, length = self._wave_parameter_arrays(freq[rows, cols])
        distance = np.abs(position - pos[rows, cols])
        contribution = (
            amp[rows, cols]
            * np.exp(-distance / length)
            * np.exp(1j * (phase[rows, cols] - k * distance))
        )
        return (
            np.bincount(rows, weights=contribution.real, minlength=n_sets)
            + 1j * np.bincount(rows, weights=contribution.imag, minlength=n_sets)
        )

    def phasor_weights(
        self, position, frequency, positions, frequencies, tol=1e-12,
        cache=False,
    ):
        """Complex propagation weights: sources x detectors, one column each.

        ``position``/``frequency`` are the shared ``(n_sources,)`` source
        geometry of a batch; ``positions``/``frequencies`` list the
        detectors.  Entry ``(j, d)`` is ``exp(-|x_d - x_j| / L_j) *
        exp(-i k_j |x_d - x_j|)`` when source ``j`` matches detector
        ``d``'s frequency, else 0 (off-frequency sources average out in
        steady state, exactly as :meth:`steady_state_phasor` skips them).
        The steady-state phasor block of a whole batch is then a single
        complex GEMM: ``(amplitude * exp(i * phase)) @ weights``.

        With ``cache=True`` the result is memoised per exact geometry,
        so every simulator sharing this model -- e.g. all cells of one
        operation in the circuit engine, including their faulty
        variants -- reuses one weight matrix.  Only callers with a
        *recurring* geometry (a layout's nominal placement) should
        cache: noise-perturbed geometries never repeat, and memoising
        them would grow the cache without bound over Monte-Carlo
        sweeps.  The returned array is frozen; derive, don't mutate.
        """
        position = np.asarray(position, dtype=float)
        frequency = np.asarray(frequency, dtype=float)
        key = None
        if cache:
            key = (
                position.tobytes(),
                frequency.tobytes(),
                np.asarray(positions, dtype=float).tobytes(),
                np.asarray(frequencies, dtype=float).tobytes(),
                float(tol),
            )
            cached = self._weights_cache.get(key)
            if cached is not None:
                obs.inc("waveguide.weights_cache.hits")
                return cached
            obs.inc("waveguide.weights_cache.misses")
        k, _, length = self._wave_parameter_arrays(frequency)
        weights = np.zeros((position.size, len(positions)), dtype=complex)
        for d, (x_d, f_d) in enumerate(zip(positions, frequencies)):
            selected = np.abs(frequency - f_d) <= tol * max(f_d, 1.0)
            if not selected.any():
                continue
            distance = np.abs(x_d - position[selected])
            weights[selected, d] = np.exp(-distance / length[selected]) * np.exp(
                -1j * k[selected] * distance
            )
        weights.setflags(write=False)
        if key is not None:
            self._weights_cache[key] = weights
        return weights

    @staticmethod
    def block_stack_weights(blocks):
        """Block-diagonal stack of per-operation propagation weights.

        ``blocks`` is a sequence of ``(n_sources_i, n_detectors_i)``
        complex matrices (one per operation sharing a level); the result
        is a ``(sum n_sources, sum n_detectors)`` complex matrix with
        each block on the diagonal and exact zeros elsewhere.  The zeros
        are *structural*: operations sharing one frequency plan would
        otherwise couple through frequency matching, so cross-operation
        packing must place foreign segments at exactly 0.0 -- which this
        layout guarantees -- to keep every packed phasor bit-identical
        to its per-operation evaluation.  The compile-once circuit layer
        (:mod:`repro.circuits.compiled`) builds one such matrix per
        level so all same-layout cells of the level -- MAJ3 and XOR2
        alike -- evaluate as a single complex GEMM.  The returned array
        is frozen; derive, don't mutate.
        """
        blocks = [np.asarray(b) for b in blocks]
        if not blocks:
            raise SimulationError("no weight blocks supplied")
        n_rows = sum(b.shape[0] for b in blocks)
        n_cols = sum(b.shape[1] for b in blocks)
        stacked = np.zeros((n_rows, n_cols), dtype=complex)
        row = col = 0
        for block in blocks:
            stacked[row : row + block.shape[0], col : col + block.shape[1]] = (
                block
            )
            row += block.shape[0]
            col += block.shape[1]
        stacked.setflags(write=False)
        return stacked

    def steady_state_phasor_block(
        self, source_sets, positions, frequencies, tol=1e-12, weights=None
    ):
        """Steady-state phasors of a batch at many detectors at once.

        Returns an ``(n_sets, n_detectors)`` complex array; column ``d``
        equals ``steady_state_phasor_batch(source_sets, positions[d],
        frequencies[d])``.  When the batch shares its geometry the whole
        block is one complex GEMM against :meth:`phasor_weights`
        (pass a precomputed ``weights`` matrix to skip even that setup);
        mismatched geometry -- per-entry placement noise -- falls back to
        the general per-detector batched path.
        """
        if len(positions) != len(frequencies):
            raise SimulationError(
                f"{len(positions)} detector positions for "
                f"{len(frequencies)} frequencies"
            )
        batch = self.stack_sources(source_sets)
        if weights is not None or self._shared_geometry(batch):
            if weights is None:
                weights = self.phasor_weights(
                    batch.position[0], batch.frequency[0],
                    positions, frequencies, tol=tol,
                )
            elif not self._shared_geometry(batch):
                raise SimulationError(
                    "precomputed phasor weights require shared geometry "
                    "across the batch"
                )
            excitation = batch.amplitude * np.exp(1j * batch.phase)
            return excitation @ weights
        block = np.empty((batch.position.shape[0], len(positions)), dtype=complex)
        for d, (x_d, f_d) in enumerate(zip(positions, frequencies)):
            block[:, d] = self.steady_state_phasor_batch(
                batch, x_d, f_d, tol=tol
            )
        return block

    def run(self, sources, detectors, duration, sample_rate=None):
        """Generate traces for every detector.

        Parameters
        ----------
        sources:
            Iterable of :class:`WaveSource`.
        detectors:
            Iterable of :class:`Detector`.
        duration:
            Trace length [s].
        sample_rate:
            Samples per second; defaults to 16x the highest source
            frequency (comfortably above Nyquist for FFT readout).

        Returns
        -------
        dict with keys ``"t"`` (1-D time array) and ``"traces"`` (mapping
        detector label -> 1-D Mx/Ms array).
        """
        sources = list(sources)
        detectors = list(detectors)
        if not sources:
            raise SimulationError("no sources supplied")
        if not detectors:
            raise SimulationError("no detectors supplied")
        if duration <= 0:
            raise SimulationError(f"duration must be positive, got {duration!r}")
        if sample_rate is None:
            sample_rate = 16.0 * max(s.frequency for s in sources)
        n_samples = int(round(duration * sample_rate))
        if n_samples < 2:
            raise SimulationError(
                "duration * sample_rate too small "
                f"({duration!r} s at {sample_rate!r} Hz)"
            )
        t = np.arange(n_samples) / sample_rate
        traces = {}
        for index, detector in enumerate(detectors):
            label = detector.label or f"detector_{index}"
            traces[label] = self.trace(sources, detector.position, t)
        return {"t": t, "traces": traces}

    def steady_state_phasor(self, sources, position, frequency, tol=1e-12):
        """Complex steady-state amplitude of ``frequency`` at ``position``.

        Sums only same-frequency sources (different frequencies average
        out exactly in steady state).  The phasor convention matches the
        trace: signal = Im[ phasor * exp(i*2*pi*f*t) ].
        """
        total = 0.0 + 0.0j
        for source in sources:
            if abs(source.frequency - frequency) > tol * max(frequency, 1.0):
                continue
            distance = abs(position - source.position)
            k, _, length = self.wave_parameters(source.frequency)
            amplitude = source.amplitude * math.exp(-distance / length)
            total += amplitude * np.exp(1j * (source.phase - k * distance))
        return total
