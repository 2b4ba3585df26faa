"""Circuit-level area/delay/energy estimation.

Sums per-cell library costs over a netlist and contrasts a scalar
implementation with an n-bit data-parallel one: in the parallel style a
single physical circuit processes n independent data words, so its area
is the (somewhat larger) n-bit cell area but its per-word figures divide
by n -- the circuit-level generalisation of the paper's 4.16x gate
result.
"""

from dataclasses import dataclass

from repro.errors import NetlistError


@dataclass(frozen=True)
class CircuitCost:
    """Aggregate cost of one netlist implementation."""

    area: float  # [m^2]
    delay: float  # [s] along the critical path
    energy: float  # [J] per evaluation
    n_cells: int

    def per_word(self, n_words):
        """Cost attributed to one data word when n are processed at once."""
        if n_words < 1:
            raise NetlistError(f"n_words must be >= 1, got {n_words!r}")
        return CircuitCost(
            area=self.area / n_words,
            delay=self.delay,
            energy=self.energy / n_words,
            n_cells=self.n_cells,
        )


def circuit_cost(netlist, library):
    """Total area/energy and critical-path delay of ``netlist``.

    Delay sums the cell delays along the deepest path (wire delay is
    part of each gate's propagation figure already).
    """
    area = 0.0
    energy = 0.0
    n_cells = 0
    for node in netlist.cells():
        spec = library.get(node.kind)
        area += spec.area
        energy += spec.energy
        n_cells += 1
    delay = 0.0
    for name in netlist.critical_path():
        node = netlist.node(name)
        if node.kind in ("input", "const0", "const1"):
            continue
        delay += library.get(node.kind).delay
    return CircuitCost(area=area, delay=delay, energy=energy, n_cells=n_cells)


@dataclass(frozen=True)
class ParallelVsScalar:
    """Comparison of implementing n copies of a circuit."""

    scalar_total: CircuitCost  # n scalar circuits
    parallel_total: CircuitCost  # one n-bit data-parallel circuit
    n_words: int

    @property
    def area_ratio(self):
        """Scalar total area / parallel total area."""
        return self.scalar_total.area / self.parallel_total.area

    @property
    def energy_ratio(self):
        """Scalar total energy / parallel total energy."""
        return self.scalar_total.energy / self.parallel_total.energy

    @property
    def delay_ratio(self):
        """Scalar delay / parallel delay (both single-pass)."""
        return self.scalar_total.delay / self.parallel_total.delay


def parallel_vs_scalar(netlist, n_words, waveguide=None, cost_model=None):
    """Compare n scalar circuit instances against one n-bit parallel one.

    Builds scalar (1-bit) and n-bit cell libraries from the physical gate
    models and scales the scalar circuit cost by ``n_words``.
    """
    from repro.circuits.library import default_library

    if n_words < 1:
        raise NetlistError(f"n_words must be >= 1, got {n_words!r}")
    scalar_lib = default_library(1, waveguide=waveguide, cost_model=cost_model)
    parallel_lib = default_library(
        n_words, waveguide=waveguide, cost_model=cost_model
    )
    scalar_one = circuit_cost(netlist, scalar_lib)
    scalar_total = CircuitCost(
        area=scalar_one.area * n_words,
        delay=scalar_one.delay,
        energy=scalar_one.energy * n_words,
        n_cells=scalar_one.n_cells * n_words,
    )
    parallel_total = circuit_cost(netlist, parallel_lib)
    return ParallelVsScalar(
        scalar_total=scalar_total,
        parallel_total=parallel_total,
        n_words=n_words,
    )
