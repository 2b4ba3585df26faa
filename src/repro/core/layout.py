"""The in-line multi-frequency gate layout of Fig. 2.

Placement rules (Section III):

* Sources of the *same* frequency channel i must sit at centre-to-centre
  distances ``d_i = n_i * lambda_i`` (integer multiple -> constructive
  reference) so equal phases interfere constructively;
* consecutive transducers -- of any channel -- must keep at least a
  minimum physical gap (1 nm in the paper) between their edges;
* each channel's output detector sits ``q_i * lambda_i`` after that
  channel's last source for the direct output, or an odd multiple of
  ``lambda_i / 2`` for the complemented output.

The layout engine supports both the paper's published multipliers
(``n = [2, 2, 3, 5, 6, 5, 7, 8]`` reproducing d = 166, 100, ..., 176 nm)
and an automatic greedy search for the smallest collision-free
multipliers.
"""

import math
from dataclasses import dataclass

from repro.errors import LayoutError

#: The paper's source-spacing multipliers for the 10..80 GHz byte plan,
#: recovered from its distance table d_i = n_i * lambda_i (Section IV.B).
PAPER_BYTE_MULTIPLIERS = (2, 2, 3, 5, 6, 5, 7, 8)

#: The paper's distance table itself [m], for comparison output.
PAPER_BYTE_DISTANCES = tuple(
    d * 1e-9 for d in (166.0, 100.0, 117.0, 165.0, 174.0, 130.0, 168.0, 176.0)
)


@dataclass(frozen=True)
class TransducerSpec:
    """Geometry of one excitation/detection cell.

    The paper assumes 10 nm x 50 nm ME cells with a 1 nm minimum gap
    between consecutive cells (Sections IV.B and V.B).
    """

    length: float = 10e-9
    width: float = 50e-9
    min_gap: float = 1e-9

    def __post_init__(self):
        if self.length <= 0:
            raise LayoutError(f"length must be positive, got {self.length!r}")
        if self.width <= 0:
            raise LayoutError(f"width must be positive, got {self.width!r}")
        if self.min_gap < 0:
            raise LayoutError(
                f"min_gap must be non-negative, got {self.min_gap!r}"
            )

    @property
    def pitch(self):
        """Minimum centre-to-centre distance of adjacent transducers."""
        return self.length + self.min_gap

    @property
    def area(self):
        """Footprint of one cell [m^2]."""
        return self.length * self.width


class InlineGateLayout:
    """Concrete transducer placement for an n-bit m-input in-line gate.

    Parameters
    ----------
    waveguide:
        :class:`~repro.waveguide.Waveguide`; supplies the dispersion that
        converts frequencies to wavelengths.
    plan:
        :class:`~repro.core.frequency_plan.FrequencyPlan`.
    n_inputs:
        Fan-in m of the logic function (3 for the paper's majority gate).
    transducer:
        :class:`TransducerSpec` geometry.
    multipliers:
        Per-channel integers ``n_i`` with ``d_i = n_i * lambda_i``; None
        selects the smallest collision-free values automatically.
    inverted_outputs:
        Per-channel booleans; True places that channel's detector at an
        odd multiple of ``lambda_i / 2`` so it reads the complemented
        function (Section III).
    """

    _MAX_MULTIPLIER = 64

    def __init__(
        self,
        waveguide,
        plan,
        n_inputs=3,
        transducer=None,
        multipliers=None,
        inverted_outputs=None,
        ordered=False,
    ):
        """``ordered=True`` forces the Fig. 2 cosmetic ordering (channel
        i's first source strictly after channel i-1's); the default dense
        packing lets the solver interleave first sources, which shortens
        the waveguide without changing the interference physics."""
        if n_inputs < 1:
            raise LayoutError(f"n_inputs must be >= 1, got {n_inputs!r}")
        self.ordered = bool(ordered)
        self.waveguide = waveguide
        self.plan = plan
        self.n_inputs = int(n_inputs)
        self.transducer = transducer if transducer is not None else TransducerSpec()

        dispersion = waveguide.dispersion()
        plan.validate_against(dispersion)
        self.wavelengths = plan.wavelengths(dispersion)

        n = plan.n_bits
        if inverted_outputs is None:
            inverted_outputs = [False] * n
        inverted_outputs = [bool(v) for v in inverted_outputs]
        if len(inverted_outputs) != n:
            raise LayoutError(
                f"inverted_outputs has {len(inverted_outputs)} entries, "
                f"expected {n}"
            )
        self.inverted_outputs = inverted_outputs

        if multipliers is not None:
            multipliers = [int(v) for v in multipliers]
            if len(multipliers) != n:
                raise LayoutError(
                    f"multipliers has {len(multipliers)} entries, expected {n}"
                )
            if any(v < 1 for v in multipliers):
                raise LayoutError(f"multipliers must be >= 1: {multipliers!r}")

        self._place_sources(multipliers)
        self._place_detectors()

    # ------------------------------------------------------------------
    @classmethod
    def paper_byte_layout(cls, waveguide=None, plan=None, **kwargs):
        """The paper's 8-bit 3-input configuration (Fig. 2, Section IV).

        Uses the published spacing multipliers.  ``waveguide`` defaults
        to the 50 nm x 1 nm Fe60Co20B20 strip.
        """
        from repro.core.frequency_plan import FrequencyPlan
        from repro.waveguide import Waveguide

        waveguide = waveguide if waveguide is not None else Waveguide()
        plan = plan if plan is not None else FrequencyPlan.paper_byte_plan()
        kwargs.setdefault("multipliers", list(PAPER_BYTE_MULTIPLIERS[: plan.n_bits]))
        return cls(waveguide, plan, n_inputs=3, **kwargs)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    #: Start-offset scan resolution [m] used when nudging a channel's
    #: first source to avoid collisions with already-placed channels.
    _OFFSET_STEP = 0.25e-9

    def _collides(self, position, occupied):
        limit = self.transducer.pitch - 1e-15
        return any(abs(position - other) < limit for other in occupied)

    def _positions_from(self, start, channel, multiplier):
        d = multiplier * self.wavelengths[channel]
        return [start + g * d for g in range(self.n_inputs)]

    def _find_start(self, channel, multiplier, occupied, start_min, window):
        """Smallest start >= start_min giving a collision-free channel.

        Keeps the paper's Fig. 2 ordering (channel i's first source comes
        after channel i-1's) while allowing sub-pitch nudges so that the
        later same-frequency repetitions thread between other channels'
        transducers.  Returns None when nothing fits inside ``window``.
        """
        steps = int(window / self._OFFSET_STEP) + 1
        for step in range(steps):
            start = start_min + step * self._OFFSET_STEP
            positions = self._positions_from(start, channel, multiplier)
            if not any(self._collides(p, occupied) for p in positions):
                return start
        return None

    def _place_sources(self, multipliers):
        n = self.plan.n_bits
        pitch = self.transducer.pitch
        half = self.transducer.length / 2.0

        chosen = []
        placed_rows = []
        occupied = []
        start_min = half
        search_window = 24.0 * pitch
        for channel in range(n):
            wavelength = self.wavelengths[channel]
            if multipliers is not None:
                candidates = [multipliers[channel]]
            else:
                min_multiplier = max(1, math.ceil(pitch / wavelength - 1e-12))
                candidates = range(min_multiplier, self._MAX_MULTIPLIER + 1)
            placed = None
            for multiplier in candidates:
                if multiplier * wavelength < pitch - 1e-15:
                    continue  # same-channel sources would overlap
                start = self._find_start(
                    channel, multiplier, occupied, start_min, search_window
                )
                if start is not None:
                    placed = (multiplier, start)
                    break
            if placed is None and occupied:
                # Dense plans can fill the whole search window; past every
                # placed transducer the channel cannot collide.
                fits = [m for m in candidates if m * wavelength >= pitch - 1e-15]
                if fits:
                    placed = (fits[0], max(start_min, max(occupied) + pitch))
            if placed is None:
                raise LayoutError(
                    f"cannot place channel {channel} "
                    f"(multiplier candidates {list(candidates)[:8]}...): "
                    "no collision-free start offset found"
                )
            multiplier, start = placed
            row = self._positions_from(start, channel, multiplier)
            chosen.append(multiplier)
            placed_rows.append(row)
            occupied.extend(row)
            if self.ordered:
                start_min = start + pitch
        self.multipliers = chosen
        self.source_positions = placed_rows

    def _place_detectors(self):
        n = self.plan.n_bits
        pitch = self.transducer.pitch
        region_start = max(max(row) for row in self.source_positions) + pitch
        occupied = []
        positions = []
        detector_multipliers = []
        for channel in range(n):
            wavelength = self.wavelengths[channel]
            last_source = self.source_positions[channel][-1]
            inverted = self.inverted_outputs[channel]
            placed = None
            for q in range(1, 4 * self._MAX_MULTIPLIER + 1):
                multiple = (q - 0.5) if inverted else float(q)
                candidate = last_source + multiple * wavelength
                if candidate < region_start:
                    continue
                if self._collides(candidate, occupied):
                    continue
                placed = (candidate, multiple)
                break
            if placed is None:
                raise LayoutError(
                    f"could not place a detector for channel {channel}"
                )
            occupied.append(placed[0])
            positions.append(placed[0])
            detector_multipliers.append(placed[1])
        self.detector_positions = positions
        self.detector_multipliers = detector_multipliers

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def distances(self):
        """Same-frequency source spacings d_i = n_i * lambda_i [m]."""
        return [
            m * lam for m, lam in zip(self.multipliers, self.wavelengths)
        ]

    def all_transducer_positions(self):
        """Centres of every source and detector, sorted."""
        centres = [p for row in self.source_positions for p in row]
        centres.extend(self.detector_positions)
        return sorted(centres)

    @property
    def total_length(self):
        """Waveguide length spanning every transducer edge-to-edge [m]."""
        centres = self.all_transducer_positions()
        half = self.transducer.length / 2.0
        return (centres[-1] + half) - (centres[0] - half)

    @property
    def area(self):
        """Footprint: total length times waveguide width [m^2]."""
        return self.total_length * self.waveguide.width

    @property
    def n_sources(self):
        """Number of excitation transducers (= m * n)."""
        return self.n_inputs * self.plan.n_bits

    @property
    def n_detectors(self):
        """Number of detection transducers (= n)."""
        return self.plan.n_bits

    def detector_distance(self, channel):
        """Distance from channel's last source to its detector [m]."""
        return (
            self.detector_positions[channel]
            - self.source_positions[channel][-1]
        )

    def validate(self):
        """Re-check every pairwise spacing; returns self or raises.

        This is the invariant the property-based tests exercise: all
        transducers keep the minimum gap, and every same-channel source
        pair is an exact multiple of that channel's wavelength.
        """
        centres = self.all_transducer_positions()
        limit = self.transducer.pitch - 1e-15
        for a, b in zip(centres, centres[1:]):
            if (b - a) < limit:
                raise LayoutError(
                    f"transducers at {a:.4g} and {b:.4g} m violate the "
                    f"minimum pitch {self.transducer.pitch:.4g} m"
                )
        for channel, row in enumerate(self.source_positions):
            wavelength = self.wavelengths[channel]
            for a, b in zip(row, row[1:]):
                ratio = (b - a) / wavelength
                if abs(ratio - round(ratio)) > 1e-9:
                    raise LayoutError(
                        f"channel {channel} source spacing {b - a:.6g} m is "
                        f"not an integer multiple of lambda = {wavelength:.6g} m"
                    )
        return self

    def describe(self):
        """Multi-line human-readable placement summary."""
        lines = [
            f"in-line gate: {self.plan.n_bits}-bit, {self.n_inputs}-input, "
            f"{self.waveguide.describe()}",
            f"total length {self.total_length * 1e9:.1f} nm, "
            f"area {self.area * 1e12:.4f} um^2",
        ]
        for c in range(self.plan.n_bits):
            freq_ghz = self.plan.frequencies[c] / 1e9
            lines.append(
                f"  ch{c} ({freq_ghz:g} GHz): lambda={self.wavelengths[c] * 1e9:.1f} nm, "
                f"n={self.multipliers[c]}, d={self.distances[c] * 1e9:.1f} nm, "
                f"detector at {self.detector_positions[c] * 1e9:.1f} nm"
            )
        return "\n".join(lines)
