"""Tests for repro.analysis (spectra, phase, tables) and repro.core.readout."""

import math

import numpy as np
import pytest

from repro.errors import ReadoutError
from repro.analysis.phase import (
    decode_phase_to_bit,
    fft_phasor,
    lock_in,
    lock_in_window,
    phase_at,
)
from repro.analysis.spectra import (
    amplitude_at,
    amplitude_spectrum,
    spectrum_peaks,
    spurious_power_ratio,
)
from repro.analysis.tables import format_bits, render_comparison, render_table
from repro.core.readout import decode_all_channels, decode_channel


def _sine(frequency, amplitude=1.0, phase=0.0, duration=2e-9, rate=640e9):
    t = np.arange(0, duration, 1.0 / rate)
    return t, amplitude * np.sin(2 * np.pi * frequency * t + phase)


class TestAmplitudeSpectrum:
    def test_unit_sine_peak_is_one(self):
        t, s = _sine(10e9)
        freqs, amps = amplitude_spectrum(t, s)
        peak = amps.max()
        assert peak == pytest.approx(1.0, rel=0.02)
        assert freqs[amps.argmax()] == pytest.approx(10e9, rel=0.01)

    def test_amplitude_scales(self):
        t, s = _sine(10e9, amplitude=0.005)
        assert amplitude_at(t, s, 10e9) == pytest.approx(0.005, rel=0.02)

    def test_dc_not_doubled(self):
        t = np.arange(0, 1e-9, 1e-12)
        s = np.full_like(t, 3.0)
        _, amps = amplitude_spectrum(t, s)
        assert amps[0] == pytest.approx(3.0, rel=1e-6)

    def test_window_options(self):
        t, s = _sine(10e9)
        for window in ("hann", "hamming", None, "boxcar"):
            _, amps = amplitude_spectrum(t, s, window=window)
            assert amps.max() == pytest.approx(1.0, rel=0.05)
        with pytest.raises(ReadoutError):
            amplitude_spectrum(t, s, window="flattop")

    def test_nonuniform_grid_rejected(self):
        t = np.array([0.0, 1e-12, 3e-12, 4e-12, 5e-12, 6e-12])
        with pytest.raises(ReadoutError):
            amplitude_spectrum(t, np.zeros(6))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ReadoutError):
            amplitude_spectrum(np.arange(10.0), np.zeros(5))


class TestPeaks:
    def test_two_tone_peaks_found(self):
        t = np.arange(0, 2e-9, 1.0 / 640e9)
        s = np.sin(2 * np.pi * 10e9 * t) + 0.5 * np.sin(2 * np.pi * 30e9 * t)
        peaks = spectrum_peaks(t, s, threshold_ratio=0.2)
        found = sorted(f for f, _ in peaks[:2])
        assert found[0] == pytest.approx(10e9, rel=0.02)
        assert found[1] == pytest.approx(30e9, rel=0.02)
        # Strongest first.
        assert peaks[0][0] == pytest.approx(10e9, rel=0.02)

    def test_silence_has_no_peaks(self):
        t = np.arange(0, 1e-9, 1e-12)
        assert spectrum_peaks(t, np.zeros_like(t)) == []

    def test_spurious_ratio_clean_tone(self):
        t, s = _sine(10e9)
        assert spurious_power_ratio(t, s, [10e9]) < 1e-3

    def test_spurious_ratio_flags_intruder(self):
        t = np.arange(0, 2e-9, 1.0 / 640e9)
        s = np.sin(2 * np.pi * 10e9 * t) + np.sin(2 * np.pi * 33e9 * t)
        ratio = spurious_power_ratio(t, s, [10e9])
        assert ratio > 0.3


class TestLockIn:
    def test_recovers_amplitude_and_phase(self):
        for phase in (0.0, 0.4, math.pi / 2, math.pi, -2.0):
            t, s = _sine(10e9, amplitude=0.7, phase=phase)
            z = lock_in(t, s, 10e9)
            assert abs(z) == pytest.approx(0.7, rel=1e-3)
            assert phase_at(t, s, 10e9) == pytest.approx(
                (phase + math.pi) % (2 * math.pi) - math.pi, abs=1e-3
            )

    def test_rejects_other_frequency(self):
        t, s = _sine(20e9)
        z = lock_in(t, s, 10e9)
        assert abs(z) < 1e-6

    def test_window_selection(self):
        # Phase flips mid-trace: analysing the late window sees pi.
        t = np.arange(0, 4e-9, 1.0 / 640e9)
        s = np.where(
            t < 2e-9,
            np.sin(2 * np.pi * 10e9 * t),
            np.sin(2 * np.pi * 10e9 * t + np.pi),
        )
        late = phase_at(t, s, 10e9, t_start=2.2e-9)
        assert abs(late) == pytest.approx(math.pi, abs=0.05)

    def test_too_few_samples_raises(self):
        with pytest.raises(ReadoutError):
            lock_in(np.arange(4.0), np.zeros(4), 1.0)

    def test_window_shorter_than_period_raises(self):
        t = np.arange(0, 0.5e-10, 1e-12)  # half a 10 GHz period
        with pytest.raises(ReadoutError):
            lock_in(t, np.zeros_like(t), 10e9)

    def test_zero_signal_phase_raises(self):
        t = np.arange(0, 1e-9, 1e-12)
        with pytest.raises(ReadoutError):
            phase_at(t, np.zeros_like(t), 10e9)

    @staticmethod
    def _noisy_block():
        t = np.arange(3926) / 1.6e12
        signal = np.random.default_rng(5).normal(size=(64, t.size))
        return t, signal

    @pytest.mark.parametrize("batched", [False, True])
    def test_matches_complex_reference_product(self, batched):
        """The real (re, im) product equals the direct complex one."""
        t, signal = self._noisy_block()
        if not batched:
            signal = signal[0]
        index, reference, dt, duration = lock_in_window(
            t, 10e9, t_start=t[1000]
        )
        direct = 2.0 * (signal[..., index] @ reference * dt) / duration
        z = lock_in(t, signal, 10e9, t_start=t[1000])
        assert np.shape(z) == np.shape(direct)
        assert np.iscomplexobj(z)
        np.testing.assert_allclose(z, direct, rtol=1e-12, atol=0.0)


class TestFftPhasor:
    def test_agrees_with_lock_in(self):
        t, s = _sine(10e9, amplitude=0.3, phase=1.1)
        z = fft_phasor(t, s, 10e9)
        assert abs(z) == pytest.approx(0.3, rel=0.05)
        phase = math.atan2(z.imag, z.real)
        assert phase == pytest.approx(1.1, abs=0.05)

    def test_dc_bin_rejected(self):
        t = np.arange(0, 1e-9, 1e-12)
        with pytest.raises(ReadoutError):
            fft_phasor(t, np.zeros_like(t), 1.0)

    def test_decode_phase_to_bit(self):
        assert decode_phase_to_bit(0.0) == 0
        assert decode_phase_to_bit(math.pi) == 1
        assert decode_phase_to_bit(-math.pi + 0.01) == 1
        assert decode_phase_to_bit(5 * math.pi) == 1  # wraps


class TestDecodeChannel:
    def test_phase_decoding(self):
        for bit, phase in ((0, 0.0), (1, math.pi)):
            t, s = _sine(10e9, amplitude=0.01, phase=phase)
            decode = decode_channel(t, s, 10e9)
            assert decode.bit == bit
            assert decode.margin > 1.0

    def test_reference_phase_shift(self):
        # Signal at phase 1.0 with reference 1.0 decodes as 0.
        t, s = _sine(10e9, phase=1.0)
        decode = decode_channel(t, s, 10e9, reference_phase=1.0)
        assert decode.bit == 0
        assert decode.phase == pytest.approx(0.0, abs=1e-3)

    def test_amplitude_readout(self):
        t, strong = _sine(10e9, amplitude=1.0)
        decode = decode_channel(
            t,
            strong,
            10e9,
            reference_amplitude=1.0,
            amplitude_readout=True,
        )
        assert decode.bit == 0  # full amplitude = equal inputs = XOR 0
        t, weak = _sine(10e9, amplitude=0.05)
        decode = decode_channel(
            t, weak, 10e9, reference_amplitude=1.0, amplitude_readout=True
        )
        assert decode.bit == 1

    def test_amplitude_readout_needs_reference(self):
        t, s = _sine(10e9)
        with pytest.raises(ReadoutError):
            decode_channel(t, s, 10e9, amplitude_readout=True)

    def test_dead_carrier_refused(self):
        t, s = _sine(10e9, amplitude=1e-6)
        with pytest.raises(ReadoutError, match="weak"):
            decode_channel(t, s, 10e9, reference_amplitude=1.0)

    def test_fft_method(self):
        t, s = _sine(10e9, phase=math.pi)
        decode = decode_channel(t, s, 10e9, method="fft")
        assert decode.bit == 1

    def test_unknown_method(self):
        t, s = _sine(10e9)
        with pytest.raises(ReadoutError):
            decode_channel(t, s, 10e9, method="wavelet")

    def test_decode_all_channels(self):
        t = np.arange(0, 2e-9, 1.0 / 640e9)
        s = np.sin(2 * np.pi * 10e9 * t) + np.sin(
            2 * np.pi * 20e9 * t + np.pi
        )
        decodes = decode_all_channels(t, s, [10e9, 20e9])
        assert [d.bit for d in decodes] == [0, 1]

    def test_decode_all_channels_reference_length_check(self):
        t, s = _sine(10e9)
        with pytest.raises(ReadoutError):
            decode_all_channels(t, s, [10e9], reference_phases=[0.0, 0.0])


class TestTables:
    def test_render_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_render_with_title(self):
        text = render_table(["x"], [["1"]], title="T")
        assert text.splitlines()[0] == "T"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["1"]])

    def test_render_comparison_adds_note_column(self):
        text = render_comparison([("area", "1", "2")])
        assert "quantity" in text and "paper" in text

    def test_format_bits(self):
        assert format_bits([1, 0, 1]) == "101"
        assert format_bits([]) == ""
