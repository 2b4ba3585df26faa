"""repro -- n-bit data parallel spin wave logic gates.

A full-stack reproduction of Mahmoud et al., *n-bit Data Parallel Spin
Wave Logic Gate* (DATE 2020): analytic spin-wave physics, a
finite-difference LLG micromagnetic solver (the OOMMF substitute), a fast
linear waveguide model, the multi-frequency in-line gate itself, circuit
composition, OOMMF MIF/OVF interoperability, and the benchmark harness
that regenerates every figure and table of the paper's evaluation.

Quickstart::

    from repro import byte_majority_gate, GateSimulator

    gate = byte_majority_gate()
    sim = GateSimulator(gate)
    result = sim.run([a_bits, b_bits, c_bits])   # three 8-bit words
    print(result.decoded)                        # bitwise MAJ3(a, b, c)
"""

from repro import obs
from repro.obs import MetricsRegistry
from repro.materials import FECOB_PMA, YIG, PERMALLOY, Material, get_material
from repro.physics import (
    FvmswDispersion,
    ExchangeDispersion,
    BvmswDispersion,
    MsswDispersion,
    wavelength_for_frequency,
    wavenumber_for_frequency,
)
from repro.waveguide import (
    Waveguide,
    LinearWaveguideModel,
    WaveSource,
    Detector,
    NoiseModel,
)
from repro.core import (
    PhaseEncoding,
    FrequencyPlan,
    InlineGateLayout,
    TransducerSpec,
    DataParallelGate,
    GateKind,
    GateSimulator,
    GateRunResult,
    CostModel,
    comparison,
)

__version__ = "1.0.0"

__all__ = [
    "obs",
    "MetricsRegistry",
    "Material",
    "FECOB_PMA",
    "YIG",
    "PERMALLOY",
    "get_material",
    "FvmswDispersion",
    "ExchangeDispersion",
    "BvmswDispersion",
    "MsswDispersion",
    "wavelength_for_frequency",
    "wavenumber_for_frequency",
    "Waveguide",
    "LinearWaveguideModel",
    "WaveSource",
    "Detector",
    "NoiseModel",
    "PhaseEncoding",
    "FrequencyPlan",
    "InlineGateLayout",
    "TransducerSpec",
    "DataParallelGate",
    "GateKind",
    "GateSimulator",
    "GateRunResult",
    "CostModel",
    "comparison",
    "byte_majority_gate",
    "byte_xor_gate",
]


def byte_majority_gate(waveguide=None, use_paper_multipliers=True):
    """The paper's validated gate: 8-bit data parallel 3-input majority.

    Returns a ready-to-simulate :class:`~repro.core.DataParallelGate` on
    the default 50 nm x 1 nm Fe60Co20B20 waveguide with the 10-80 GHz
    frequency plan.  ``use_paper_multipliers=False`` lets the layout
    engine pick its own (smallest collision-free) source spacings.
    """
    if use_paper_multipliers:
        layout = InlineGateLayout.paper_byte_layout(waveguide=waveguide)
    else:
        layout = InlineGateLayout.paper_byte_layout(
            waveguide=waveguide, multipliers=None
        )
    return DataParallelGate(layout, kind=GateKind.MAJORITY)


def byte_xor_gate(waveguide=None):
    """An 8-bit data parallel 2-input XOR gate (amplitude readout)."""
    waveguide = waveguide if waveguide is not None else Waveguide()
    plan = FrequencyPlan.paper_byte_plan()
    layout = InlineGateLayout(waveguide, plan, n_inputs=2)
    return DataParallelGate(layout, kind=GateKind.XOR)
