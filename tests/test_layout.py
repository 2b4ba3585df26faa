"""Tests for repro.core.layout."""

import math

import pytest

from repro.errors import LayoutError
from repro.core.frequency_plan import FrequencyPlan
from repro.core.layout import (
    PAPER_BYTE_DISTANCES,
    PAPER_BYTE_MULTIPLIERS,
    InlineGateLayout,
    TransducerSpec,
)
from repro.units import GHZ
from repro.waveguide import Waveguide


class TestTransducerSpec:
    def test_paper_defaults(self):
        spec = TransducerSpec()
        assert spec.length == 10e-9
        assert spec.width == 50e-9
        assert spec.min_gap == 1e-9
        assert spec.pitch == pytest.approx(11e-9)
        assert spec.area == pytest.approx(500e-18)

    def test_validation(self):
        with pytest.raises(LayoutError):
            TransducerSpec(length=0.0)
        with pytest.raises(LayoutError):
            TransducerSpec(width=-1.0)
        with pytest.raises(LayoutError):
            TransducerSpec(min_gap=-1e-9)


class TestPaperByteLayout:
    def test_uses_paper_multipliers(self, paper_layout):
        assert paper_layout.multipliers == list(PAPER_BYTE_MULTIPLIERS)

    def test_validates(self, paper_layout):
        assert paper_layout.validate() is paper_layout

    def test_distances_match_paper_within_3_percent(self, paper_layout):
        for measured, paper in zip(paper_layout.distances, PAPER_BYTE_DISTANCES):
            assert measured == pytest.approx(paper, rel=0.03)

    def test_source_counts(self, paper_layout):
        assert paper_layout.n_sources == 24
        assert paper_layout.n_detectors == 8
        assert len(paper_layout.source_positions) == 8
        assert all(len(row) == 3 for row in paper_layout.source_positions)

    def test_same_channel_spacing_is_n_lambda(self, paper_layout):
        for channel, row in enumerate(paper_layout.source_positions):
            lam = paper_layout.wavelengths[channel]
            n = paper_layout.multipliers[channel]
            for a, b in zip(row, row[1:]):
                assert (b - a) == pytest.approx(n * lam, rel=1e-12)

    def test_detector_behind_all_sources(self, paper_layout):
        last_source = max(max(row) for row in paper_layout.source_positions)
        for position in paper_layout.detector_positions:
            assert position > last_source

    def test_detector_at_integer_wavelength(self, paper_layout):
        for channel in range(8):
            distance = paper_layout.detector_distance(channel)
            lam = paper_layout.wavelengths[channel]
            ratio = distance / lam
            assert abs(ratio - round(ratio)) < 1e-9

    def test_minimum_pitch_everywhere(self, paper_layout):
        centres = paper_layout.all_transducer_positions()
        pitch = paper_layout.transducer.pitch
        for a, b in zip(centres, centres[1:]):
            assert (b - a) >= pitch - 1e-12

    def test_area_in_paper_ballpark(self, paper_layout):
        # Paper: 0.0279 um^2.  Accept the same order with our layout.
        area_um2 = paper_layout.area * 1e12
        assert 0.02 < area_um2 < 0.045

    def test_describe_lists_channels(self, paper_layout):
        text = paper_layout.describe()
        assert "ch0" in text and "ch7" in text


class TestAutoLayout:
    def test_auto_multipliers_satisfy_constraints(self, paper_waveguide):
        plan = FrequencyPlan.paper_byte_plan()
        layout = InlineGateLayout(paper_waveguide, plan, n_inputs=3)
        layout.validate()
        assert all(m >= 1 for m in layout.multipliers)

    def test_single_channel_minimal(self, paper_waveguide):
        plan = FrequencyPlan([10 * GHZ])
        layout = InlineGateLayout(paper_waveguide, plan, n_inputs=3)
        # lambda = 81 nm > pitch, so the minimal multiplier is 1.
        assert layout.multipliers == [1]

    def test_small_wavelength_forces_larger_multiplier(self):
        # With a 60 nm transducer pitch and lambda(80 GHz) ~ 22 nm the
        # multiplier must be at least ceil(61/22.4) = 3.
        waveguide = Waveguide()
        plan = FrequencyPlan([80 * GHZ])
        spec = TransducerSpec(length=60e-9, min_gap=1e-9)
        layout = InlineGateLayout(
            waveguide, plan, n_inputs=3, transducer=spec
        )
        assert layout.multipliers[0] >= 3
        layout.validate()

    def test_dense_plan_places_past_a_full_search_window(
        self, paper_waveguide
    ):
        """Regression: three close low channels filled the start-offset
        window, so the sixth channel raised ``LayoutError``; it now goes
        past every placed transducer."""
        plan = FrequencyPlan([
            85657425097.23811, 43525942202.56221, 50027262300.0,
            8000000000.0, 8820000002.0, 8400000001.0,
        ])
        layout = InlineGateLayout(paper_waveguide, plan, n_inputs=5)
        layout.validate()
        last_source = max(max(row) for row in layout.source_positions)
        assert all(p > last_source for p in layout.detector_positions)

    def test_more_inputs_longer_gate(self, paper_waveguide):
        plan = FrequencyPlan([10 * GHZ])
        short = InlineGateLayout(paper_waveguide, plan, n_inputs=3)
        long = InlineGateLayout(paper_waveguide, plan, n_inputs=7)
        assert long.total_length > short.total_length


class TestLayoutOptions:
    def test_explicit_multiplier_length_mismatch(self, paper_waveguide):
        plan = FrequencyPlan.paper_byte_plan()
        with pytest.raises(LayoutError):
            InlineGateLayout(
                paper_waveguide, plan, n_inputs=3, multipliers=[2, 2]
            )

    def test_explicit_multiplier_below_one(self, paper_waveguide):
        plan = FrequencyPlan([10 * GHZ])
        with pytest.raises(LayoutError):
            InlineGateLayout(
                paper_waveguide, plan, n_inputs=3, multipliers=[0]
            )

    def test_invalid_n_inputs(self, paper_waveguide):
        plan = FrequencyPlan([10 * GHZ])
        with pytest.raises(LayoutError):
            InlineGateLayout(paper_waveguide, plan, n_inputs=0)

    def test_inverted_outputs_at_half_integer(self, paper_waveguide):
        plan = FrequencyPlan([10 * GHZ, 20 * GHZ])
        layout = InlineGateLayout(
            paper_waveguide,
            plan,
            n_inputs=3,
            inverted_outputs=[True, False],
        )
        distance = layout.detector_distance(0)
        lam = layout.wavelengths[0]
        ratio = distance / lam
        # Odd multiple of half a wavelength: ratio - 0.5 is an integer.
        assert abs((ratio - 0.5) - round(ratio - 0.5)) < 1e-9
        # Channel 1 stays integer.
        ratio1 = layout.detector_distance(1) / layout.wavelengths[1]
        assert abs(ratio1 - round(ratio1)) < 1e-9

    def test_inverted_outputs_wrong_length(self, paper_waveguide):
        plan = FrequencyPlan([10 * GHZ])
        with pytest.raises(LayoutError):
            InlineGateLayout(
                paper_waveguide, plan, inverted_outputs=[True, False]
            )

    def test_ordered_mode_preserves_channel_order(self, paper_waveguide):
        plan = FrequencyPlan.paper_byte_plan()
        layout = InlineGateLayout(
            paper_waveguide,
            plan,
            n_inputs=3,
            multipliers=list(PAPER_BYTE_MULTIPLIERS),
            ordered=True,
        )
        starts = [row[0] for row in layout.source_positions]
        assert all(a < b for a, b in zip(starts, starts[1:]))
        layout.validate()

    def test_ordered_no_longer_than_needed(self, paper_waveguide):
        # Dense (default) packing is never longer than ordered packing.
        plan = FrequencyPlan.paper_byte_plan()
        dense = InlineGateLayout(
            paper_waveguide, plan, multipliers=list(PAPER_BYTE_MULTIPLIERS)
        )
        ordered = InlineGateLayout(
            paper_waveguide,
            plan,
            multipliers=list(PAPER_BYTE_MULTIPLIERS),
            ordered=True,
        )
        assert dense.total_length <= ordered.total_length + 1e-12

    def test_validate_catches_corruption(self, paper_waveguide):
        plan = FrequencyPlan([10 * GHZ])
        layout = InlineGateLayout(paper_waveguide, plan, n_inputs=3)
        layout.source_positions[0][1] = layout.source_positions[0][0] + 1e-9
        with pytest.raises(LayoutError):
            layout.validate()
