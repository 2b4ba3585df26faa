"""Spin-wave cell library: physical gate bindings and per-cell costs.

Cell costs derive from the gate-level models in
:mod:`repro.core.metrics`: a MAJ3 cell is one in-line 3-input gate,
an XOR2 cell a 2-input amplitude-readout gate, an INV is free in the SW
domain (read the complemented output by detector placement, Section III)
apart from a detector-position constraint we charge nothing for.

:data:`PHYSICAL_BINDINGS` is the single source of truth mapping netlist
operations to physical gate templates; :func:`physical_gate` materialises
one binding as a laid-out
:class:`~repro.core.gate.DataParallelGate` -- the cell the circuit
engine (:mod:`repro.circuits.engine`) instantiates per operation, and
the cell :func:`default_library` prices.
"""

from dataclasses import astuple, dataclass

from repro.errors import NetlistError

#: Netlist operations realised by a transducer-level gate: operation ->
#: (GateKind value, physical fan-in).  INV and BUF are *not* physical:
#: inversion is a detector-placement choice and a buffer is a wire, so
#: the engine resolves both at the regeneration boundary for free.
PHYSICAL_BINDINGS = {
    "MAJ3": ("majority", 3),
    "XOR2": ("xor", 2),
}


def physical_arity(operation):
    """Transducer fan-in of a physical operation, without laying it out.

    Cheap metadata accessor for callers that only need the input count
    (e.g. fault-universe enumeration): reads
    :data:`PHYSICAL_BINDINGS` instead of materialising a gate and its
    dispersion-solved layout.  Raises
    :class:`~repro.errors.NetlistError` for virtual operations.
    """
    try:
        return PHYSICAL_BINDINGS[operation][1]
    except KeyError:
        raise NetlistError(
            f"operation {operation!r} has no physical gate "
            f"(physical: {sorted(PHYSICAL_BINDINGS)})"
        ) from None


def physical_gate(operation, n_bits=1, waveguide=None, plan=None, transducer=None):
    """Materialise one :data:`PHYSICAL_BINDINGS` entry as a laid-out gate.

    ``n_bits`` is the data-parallel width (the cell processes ``n_bits``
    circuit instances at once); ``plan`` defaults to ``n_bits`` channels
    at 10 GHz spacing from 10 GHz -- the paper's byte plan when
    ``n_bits == 8``.  Raises :class:`~repro.errors.NetlistError` for
    operations without a physical realisation (INV, BUF).
    """
    from repro.core.frequency_plan import FrequencyPlan
    from repro.core.gate import DataParallelGate, GateKind
    from repro.core.layout import InlineGateLayout
    from repro.units import GHZ
    from repro.waveguide import Waveguide

    try:
        kind, n_inputs = PHYSICAL_BINDINGS[operation]
    except KeyError:
        raise NetlistError(
            f"operation {operation!r} has no physical gate "
            f"(physical: {sorted(PHYSICAL_BINDINGS)})"
        ) from None
    waveguide = waveguide if waveguide is not None else Waveguide()
    if plan is None:
        plan = FrequencyPlan.uniform(n_bits, 10.0 * GHZ, 10.0 * GHZ)
    layout = InlineGateLayout(
        waveguide, plan, n_inputs=n_inputs, transducer=transducer
    )
    return DataParallelGate(layout, kind=GateKind(kind))


class GateBindings:
    """Shared physical bindings: one model, gate and simulator per op.

    The lazily-built state every circuit-execution front end needs --
    the engine-wide :class:`~repro.waveguide.LinearWaveguideModel`
    (whose weight cache makes repeated evaluation cheap), one
    laid-out :class:`~repro.core.gate.DataParallelGate` template per
    physical operation, and one nominal
    :class:`~repro.core.simulate.GateSimulator` per operation.  A
    :class:`~repro.circuits.engine.CircuitEngine` owns one by default;
    the :class:`~repro.circuits.executor.CircuitExecutor` shares a
    single instance across *many* circuits so memoised propagation
    weights and trace demodulation matrices amortise over every netlist
    it serves.
    """

    def __init__(self, n_bits=8, waveguide=None, transducer=None):
        from repro.waveguide import Waveguide

        if n_bits < 1:
            raise NetlistError(f"n_bits must be >= 1, got {n_bits!r}")
        self.n_bits = int(n_bits)
        self.waveguide = waveguide if waveguide is not None else Waveguide()
        self.transducer = transducer
        self._model = None
        self._gates = {}
        self._simulators = {}
        self._physics_key = None

    def physics_key(self):
        """``(n_bits, waveguide fields, transducer)`` by value: equal
        keys build identical gates (the compile-cache key).  Memoised,
        like the model and gates built from the waveguide."""
        if self._physics_key is None:
            from repro.core.layout import TransducerSpec

            transducer = self.transducer
            self._physics_key = (
                self.n_bits,
                astuple(self.waveguide),
                transducer if transducer is not None else TransducerSpec(),
            )
        return self._physics_key

    def model(self):
        """The shared linear waveguide model (lazy)."""
        if self._model is None:
            from repro.waveguide.linear_model import LinearWaveguideModel

            self._model = LinearWaveguideModel(self.waveguide)
        return self._model

    def gate(self, operation):
        """The shared laid-out gate template of one operation."""
        if operation not in self._gates:
            self._gates[operation] = physical_gate(
                operation,
                self.n_bits,
                waveguide=self.waveguide,
                transducer=self.transducer,
            )
        return self._gates[operation]

    def simulator(self, operation):
        """The nominal simulator shared by every cell of ``operation``."""
        if operation not in self._simulators:
            from repro.core.simulate import GateSimulator

            self._simulators[operation] = GateSimulator(
                self.gate(operation), model=self.model()
            )
        return self._simulators[operation]

    def faulty_simulator(self, operation, fault):
        """A fault-injected simulator sharing the model and its caches."""
        from repro.core.faults import FaultySimulator

        return FaultySimulator(self.gate(operation), fault, model=self.model())


@dataclass(frozen=True)
class CellSpec:
    """Area [m^2], delay [s] and energy [J] of one library cell."""

    name: str
    area: float
    delay: float
    energy: float

    def __post_init__(self):
        if self.area < 0 or self.delay < 0 or self.energy < 0:
            raise NetlistError(f"cell {self.name!r} has negative cost")


class CellLibrary:
    """Maps netlist operations to :class:`CellSpec` cost entries."""

    def __init__(self, cells):
        self._cells = {}
        for cell in cells:
            if cell.name in self._cells:
                raise NetlistError(f"duplicate cell {cell.name!r}")
            self._cells[cell.name] = cell

    def __contains__(self, name):
        return name in self._cells

    def get(self, name):
        """CellSpec for ``name``; raises NetlistError when missing."""
        try:
            return self._cells[name]
        except KeyError:
            raise NetlistError(
                f"cell {name!r} not in library "
                f"(available: {sorted(self._cells)})"
            ) from None

    def names(self):
        """Sorted cell names."""
        return sorted(self._cells)


def default_library(n_bits=1, waveguide=None, cost_model=None):
    """Build the library from the physical gate models.

    ``n_bits`` = 1 gives scalar cell costs; larger values give the
    per-gate cost of an n-bit data-parallel cell (one cell then processes
    n circuit instances at once -- divide system cost accordingly in
    :func:`repro.circuits.estimate.parallel_vs_scalar`).
    """
    from repro.core.metrics import CostModel, gate_cost
    from repro.waveguide import Waveguide

    waveguide = waveguide if waveguide is not None else Waveguide()
    cost_model = cost_model if cost_model is not None else CostModel()

    cells = []
    for operation in sorted(PHYSICAL_BINDINGS):
        layout = physical_gate(operation, n_bits, waveguide=waveguide).layout
        cost = gate_cost(layout, cost_model)
        cells.append(CellSpec(operation, cost.area, cost.delay, cost.energy))
    cells.extend(
        [
            # Inversion is a detector-placement choice: no extra transducer.
            CellSpec("INV", 0.0, 0.0, 0.0),
            CellSpec("BUF", 0.0, 0.0, 0.0),
        ]
    )
    return CellLibrary(cells)
