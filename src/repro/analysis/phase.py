"""Phase extraction: lock-in demodulation and FFT-bin phasors.

The logic value of each frequency channel is carried by the *phase* of
its spin wave (0 -> logic 0, pi -> logic 1).  Two independent estimators
are provided; the fig4 benchmark cross-checks that they agree.
"""

import cmath

import numpy as np

from repro.errors import ReadoutError


def lock_in(t, signal, frequency, t_start=0.0, t_stop=None):
    """Complex lock-in amplitude of ``signal`` at ``frequency``.

    Computes ``(2/T) * integral signal(t) * exp(-i*2*pi*f*t) dt`` over
    the analysis window, so a signal ``a*sin(2*pi*f*t + phi)`` returns
    approximately ``a * exp(i*(phi - pi/2))`` -- i.e. the *sine-referenced*
    phase is ``angle + pi/2``.  Use :func:`phase_at` for the
    convention-corrected phase.

    The window is automatically truncated to an integer number of carrier
    periods to suppress leakage from the window edges.

    ``signal`` may also be a 2-D ``(n_traces, n_samples)`` batch sharing
    the one time grid ``t``; the lock-in then returns an ``(n_traces,)``
    complex array (the reference waveform is built once and the
    integration is a single matrix-vector product).
    """
    t = np.asarray(t, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if t.ndim != 1 or signal.ndim not in (1, 2) or signal.shape[-1] != t.shape[0]:
        raise ReadoutError(
            "t must be 1-D and signal 1-D or (n_traces, n_samples) with "
            "a matching sample axis"
        )
    index, reference, dt, duration = lock_in_window(
        t, frequency, t_start=t_start, t_stop=t_stop
    )
    # One real product against the reference's (re, im) columns: a
    # float-by-complex product would cast the window to complex and run
    # a complex GEMV, ~15x slower under threaded OpenBLAS.
    pairs = reference.view(float).reshape(-1, 2)
    integral = (signal[..., index] @ pairs).view(complex)[..., 0] * dt
    return 2.0 * integral / duration


def lock_in_window(t, frequency, t_start=0.0, t_stop=None):
    """The analysis window and reference :func:`lock_in` integrates over.

    Returns ``(index, reference, dt, duration)``: the sample indices of
    the integer-period window, the ``exp(-i*2*pi*f*t)`` reference on
    them, the sample spacing and the window length, so that
    ``lock_in(t, s, f) == 2 * (s[..., index] @ reference * dt) /
    duration``.  Linear demodulators (the fused trace matrices of
    :meth:`~repro.core.simulate.GateSimulator.trace_demodulation`) fold
    this reference into precomputed products.
    """
    t = np.asarray(t, dtype=float)
    if frequency <= 0:
        raise ReadoutError(f"frequency must be positive, got {frequency!r}")
    if t_stop is None:
        t_stop = t[-1]
    index = np.flatnonzero((t >= t_start) & (t <= t_stop))
    if index.size < 8:
        raise ReadoutError(
            f"analysis window [{t_start:.4g}, {t_stop:.4g}] s holds fewer "
            "than 8 samples"
        )
    tw = t[index]
    # Truncate to an integer number of periods.
    period = 1.0 / frequency
    n_periods = int((tw[-1] - tw[0]) / period)
    if n_periods < 1:
        raise ReadoutError(
            "analysis window shorter than one carrier period "
            f"({period:.4g} s) at {frequency:.4g} Hz"
        )
    t_end = tw[0] + n_periods * period
    keep = tw <= t_end
    index = index[keep]
    tw = tw[keep]
    reference = np.exp(-2j * np.pi * frequency * tw)
    dt = tw[1] - tw[0]
    duration = tw[-1] - tw[0] + dt
    return index, reference, dt, duration


def phase_at(t, signal, frequency, t_start=0.0, t_stop=None):
    """Sine-referenced phase [rad] of the ``frequency`` component.

    For ``signal = a*sin(2*pi*f*t + phi)`` this returns ``phi`` (wrapped
    to (-pi, pi]).  Raises :class:`~repro.errors.ReadoutError` when the
    component amplitude is indistinguishable from zero.
    """
    z = lock_in(t, signal, frequency, t_start=t_start, t_stop=t_stop)
    if abs(z) == 0.0:
        raise ReadoutError(
            f"no signal at {frequency:.4g} Hz: cannot extract a phase"
        )
    # lock_in returns a*exp(i*(phi - pi/2)); undo the sine reference.
    phase = cmath.phase(z) + 0.5 * np.pi
    return float((phase + np.pi) % (2.0 * np.pi) - np.pi)


def fft_phasor(t, signal, frequency):
    """Complex FFT-bin phasor nearest ``frequency`` (sine-referenced).

    An independent estimator of the same quantity as :func:`lock_in`,
    using the raw FFT bin.  Bin quantisation makes it slightly less
    accurate off-grid; the readout tests check both agree to within the
    decision margin.
    """
    t = np.asarray(t, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if t.shape != signal.shape or t.ndim != 1:
        raise ReadoutError("t and signal must be equal-length 1-D arrays")
    n = len(t)
    if n < 8:
        raise ReadoutError("need at least 8 samples")
    dt = t[1] - t[0]
    spectrum = np.fft.rfft(signal)
    frequencies = np.fft.rfftfreq(n, dt)
    index = int(np.argmin(np.abs(frequencies - frequency)))
    if index == 0:
        raise ReadoutError(
            f"frequency {frequency:.4g} Hz maps to the DC bin"
        )
    # FFT of sin gives -i/2 * a * exp(i*phi) * n in the positive bin;
    # multiply by i (i.e. add pi/2) to recover the sine-referenced phasor,
    # and account for the time origin t[0].
    z = spectrum[index] * 2.0 / n
    z *= np.exp(-2j * np.pi * frequencies[index] * t[0])
    return complex(z * 1j)


def decode_phase_to_bit(phase, threshold=0.5 * np.pi):
    """Map a phase [rad] to a logic bit: |phase| > threshold -> 1.

    Phase 0 encodes logic 0, phase pi encodes logic 1 (Section II); the
    default threshold puts the decision boundary exactly between them.
    """
    wrapped = (phase + np.pi) % (2.0 * np.pi) - np.pi
    return int(abs(wrapped) > threshold)
