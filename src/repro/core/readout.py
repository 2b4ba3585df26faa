"""Decoding detector traces back to logic bits.

Phase readout (majority family): the channel's phase is extracted from
the steady-state portion of the trace by lock-in demodulation (or an
FFT-bin phasor) and compared against the channel's *reference phase* --
the phase an all-zeros input would produce at that detector, which folds
in the propagation phase ``k * distance``.  A measured phase near the
reference decodes to 0; near reference + pi decodes to 1.

Amplitude readout (XOR family): opposite-phase wave pairs cancel, so the
channel amplitude relative to the equal-inputs calibration level carries
the result.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ReadoutError
from repro.analysis.phase import fft_phasor, lock_in


#: Phase readout refuses a carrier below this fraction of its reference
#: amplitude (the trace decoder's dead-channel rule).
MIN_AMPLITUDE_RATIO = 0.05


def _wrap(phase):
    return (phase + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class ChannelDecode:
    """Result of decoding one frequency channel.

    Attributes
    ----------
    bit:
        The decoded logic value.
    phase:
        Measured phase relative to the channel reference [rad].
    amplitude:
        Measured carrier amplitude (same units as the trace).
    margin:
        Distance from the decision boundary: radians for phase readout,
        relative amplitude for amplitude readout.  Larger is safer.
    """

    bit: int
    phase: float
    amplitude: float
    margin: float


def measure_phasor(t, trace, frequency, t_start, method="lockin"):
    """Complex sine-referenced phasor of ``frequency`` in ``trace``.

    ``method`` selects the estimator: ``"lockin"`` (default, accurate
    off-grid), ``"fft"`` (raw FFT bin) or ``"goertzel"`` (single-bin
    recursion, the hardware-friendly detector) -- three independent
    implementations of the same measurement.
    """
    if method == "lockin":
        z = lock_in(t, trace, frequency, t_start=t_start)
        return z * cmath.exp(0.5j * math.pi)  # sine-referenced
    if method == "fft":
        mask = t >= t_start
        return fft_phasor(t[mask], trace[mask], frequency)
    if method == "goertzel":
        from repro.analysis.goertzel import goertzel_phasor

        mask = t >= t_start
        return goertzel_phasor(t[mask], trace[mask], frequency)
    raise ReadoutError(f"unknown phasor method {method!r}")


def decode_channel(
    t,
    trace,
    frequency,
    reference_phase=0.0,
    reference_amplitude=None,
    t_start=0.0,
    method="lockin",
    amplitude_readout=False,
    amplitude_threshold=0.5,
    min_amplitude_ratio=MIN_AMPLITUDE_RATIO,
    phasor=None,
):
    """Decode one channel from a detector trace.

    Parameters
    ----------
    t, trace:
        Time grid [s] and Mx/Ms samples.
    frequency:
        Channel carrier [Hz].
    reference_phase:
        Phase of the logic-0 steady state at this detector [rad].
    reference_amplitude:
        Calibration amplitude (all inputs equal); required for amplitude
        readout, optional for phase readout (enables a dead-channel check).
    t_start:
        Start of the steady-state analysis window [s].
    method:
        Phasor estimator, ``"lockin"`` or ``"fft"``.
    amplitude_readout:
        True for the XOR family.
    amplitude_threshold:
        Decision level as a fraction of ``reference_amplitude``.
    min_amplitude_ratio:
        Below this fraction of the reference, phase readout refuses to
        decode (the carrier is effectively absent).
    phasor:
        Optional precomputed complex phasor; skips the measurement.
        Batched decoders measure a whole ``(n_traces, n_samples)`` block
        with one vectorised lock-in and hand the per-trace phasors in
        here, so the decision logic stays in one place.

    Returns a :class:`ChannelDecode`.
    """
    if phasor is None:
        z = measure_phasor(t, trace, frequency, t_start, method=method)
    else:
        z = complex(phasor)
    amplitude = abs(z)

    if amplitude_readout:
        if reference_amplitude is None or reference_amplitude <= 0:
            raise ReadoutError(
                "amplitude readout requires a positive reference_amplitude"
            )
        ratio = amplitude / reference_amplitude
        bit = int(ratio < amplitude_threshold)
        margin = abs(ratio - amplitude_threshold)
        phase = _wrap(cmath.phase(z) - reference_phase) if amplitude > 0 else 0.0
        return ChannelDecode(bit=bit, phase=phase, amplitude=amplitude, margin=margin)

    if reference_amplitude is not None and reference_amplitude > 0:
        if amplitude < min_amplitude_ratio * reference_amplitude:
            raise ReadoutError(
                f"carrier at {frequency:.4g} Hz too weak to decode a phase "
                f"({amplitude:.3g} < {min_amplitude_ratio} * "
                f"{reference_amplitude:.3g})"
            )
    relative = _wrap(cmath.phase(z) - reference_phase)
    bit = int(abs(relative) > 0.5 * math.pi)
    margin = abs(abs(relative) - 0.5 * math.pi)
    return ChannelDecode(bit=bit, phase=relative, amplitude=amplitude, margin=margin)


def decode_phasor_block(
    phasors,
    reference_phases,
    reference_amplitudes,
    amplitude_readout=False,
    amplitude_threshold=0.5,
    min_amplitude_ratio=None,
):
    """Vectorised steady-state decode of an ``(n_sets, n_channels)`` block.

    The array-native counterpart of decoding each entry's per-channel
    phasor one at a time (the scalar decision logic of
    :meth:`~repro.core.simulate.GateSimulator.run_phasor`): the phase
    wrap, threshold comparison and margin evaluate as whole-array
    operations.  ``reference_phases`` / ``reference_amplitudes`` are the
    per-channel calibration rows.

    Returns ``(bits, phases, amplitudes, margins, dead)`` arrays of the
    block's shape.  ``dead`` marks phase-readout entries whose carrier
    amplitude is exactly zero (undecodable -- the scalar path raises
    there); their other outputs are filler and must not be used.  With
    ``min_amplitude_ratio``, phase-readout entries below that fraction
    of their reference amplitude are dead too -- :func:`decode_channel`'s
    rule for lock-in phasors.
    """
    phasors = np.asarray(phasors, dtype=complex)
    reference_phases = np.asarray(reference_phases, dtype=float)
    reference_amplitudes = np.asarray(reference_amplitudes, dtype=float)
    amplitudes = np.abs(phasors)
    relative = _wrap(np.angle(phasors) - reference_phases)

    if amplitude_readout:
        if not (reference_amplitudes > 0).all():
            raise ReadoutError(
                "amplitude readout requires positive reference amplitudes"
            )
        ratios = amplitudes / reference_amplitudes
        bits = (ratios < amplitude_threshold).astype(np.int64)
        margins = np.abs(ratios - amplitude_threshold)
        phases = np.where(amplitudes > 0, relative, 0.0)
        dead = np.zeros(phasors.shape, dtype=bool)
        return bits, phases, amplitudes, margins, dead

    if min_amplitude_ratio is None:
        dead = amplitudes == 0.0
    else:
        dead = amplitudes < min_amplitude_ratio * reference_amplitudes
    bits = (np.abs(relative) > 0.5 * math.pi).astype(np.int64)
    margins = np.abs(np.abs(relative) - 0.5 * math.pi)
    return bits, relative, amplitudes, margins, dead


def decode_all_channels(
    t,
    trace,
    frequencies,
    reference_phases=None,
    reference_amplitudes=None,
    t_start=0.0,
    method="lockin",
    amplitude_readout=False,
    amplitude_threshold=0.5,
):
    """Decode every channel of a shared multi-frequency trace.

    Returns a list of :class:`ChannelDecode`, one per entry of
    ``frequencies``.  Per-channel references default to 0 / None.
    """
    n = len(frequencies)
    if reference_phases is None:
        reference_phases = [0.0] * n
    if reference_amplitudes is None:
        reference_amplitudes = [None] * n
    if len(reference_phases) != n or len(reference_amplitudes) != n:
        raise ReadoutError("reference arrays must match the channel count")
    return [
        decode_channel(
            t,
            trace,
            frequency,
            reference_phase=reference_phases[i],
            reference_amplitude=reference_amplitudes[i],
            t_start=t_start,
            method=method,
            amplitude_readout=amplitude_readout,
            amplitude_threshold=amplitude_threshold,
        )
        for i, frequency in enumerate(frequencies)
    ]
