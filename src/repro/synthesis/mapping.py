"""Technology mapping: MIG literals onto the physical spin-wave library.

The mapper lowers an optimized (or naive) MIG onto the
:class:`~repro.circuits.netlist.Netlist` operation set the circuit
engine executes: ``MAJ -> MAJ3`` cells, ``XOR -> XOR2`` cells, and every
complemented edge becomes an ``INV`` cell -- which
:data:`~repro.circuits.library.PHYSICAL_BINDINGS` prices at zero and
:class:`~repro.circuits.engine.CircuitEngine` resolves as a free
detector-placement / re-excitation polarity choice at the regeneration
boundary, exactly the Section III free-inverter rule.  One shared INV
cell serves every complemented use of a node, and each primary output
gets one polarity cell (BUF or INV) carrying the output's *name*, so
engine results key naturally by specification outputs.

:func:`mapping_report` prices the mapped netlist through
:func:`repro.circuits.estimate.circuit_cost` and reports both netlist
depth (INV/BUF levels included -- what the engine schedules) and
*physical* depth (transducer levels only -- what actually costs wave
propagation).
"""

from dataclasses import dataclass

from repro.circuits.estimate import circuit_cost
from repro.circuits.library import PHYSICAL_BINDINGS
from repro.circuits.netlist import Netlist
from repro.errors import SynthesisError
from repro.synthesis.mig import CONST0, CONST1, GATE_KINDS, node_of

#: MIG gate kind -> netlist operation.
_OPERATION = {"MAJ": "MAJ3", "XOR": "XOR2"}


def to_netlist(mig, name=None):
    """Map ``mig`` onto a physically executable :class:`Netlist`.

    Only nodes reachable from the outputs are mapped.  Raises when the
    MIG has no outputs (nothing to map).
    """
    outputs = mig.outputs
    if not outputs:
        raise SynthesisError("cannot map a MIG without outputs")
    netlist = Netlist(name if name is not None else mig.name)
    input_names = {
        node.name for node in mig.nodes() if node.kind == "input"
    }
    collisions = input_names & set(outputs)
    if collisions:  # MIG construction forbids this; guard regardless
        raise SynthesisError(
            f"input names {sorted(collisions)} collide with outputs"
        )
    # Inputs and outputs own their names outright; generated internal
    # names (cells, constants, shared inverters) dodge both.
    used = set(outputs) | input_names

    def fresh(base):
        candidate = base
        while candidate in used:
            candidate += "_"
        used.add(candidate)
        return candidate

    reachable = mig.reachable()
    node_names = {}  # node id -> netlist name of the plain value
    const_names = {}
    inverted_names = {}  # node id -> shared INV cell name

    def const_name(value):
        if value not in const_names:
            const_names[value] = netlist.add_const(fresh(f"c{value}"), value)
        return const_names[value]

    def literal_name(literal):
        node_id = node_of(literal)
        if node_id == 0:  # the constant node
            return const_name(1 if literal & 1 else 0)
        base = node_names[node_id]
        if not literal & 1:
            return base
        if node_id not in inverted_names:
            inverted_names[node_id] = netlist.add_cell(
                fresh(f"{base}_n"), "INV", (base,)
            )
        return inverted_names[node_id]

    for node_id, node in enumerate(mig.nodes()):
        if node.kind == "input":
            node_names[node_id] = netlist.add_input(node.name)
        elif node.kind in GATE_KINDS and node_id in reachable:
            fanin = tuple(literal_name(f) for f in node.fanin)
            node_names[node_id] = netlist.add_cell(
                fresh(f"n{node_id}"), _OPERATION[node.kind], fanin
            )

    for output, literal in outputs.items():
        operation = "INV" if literal & 1 else "BUF"
        cell = netlist.add_cell(
            output, operation, (literal_name(literal & ~1),)
        )
        netlist.mark_output(cell)
    return netlist


def physical_cell_count(netlist):
    """Transducer-level (MAJ3/XOR2) cells in ``netlist``."""
    return sum(
        count
        for operation, count in netlist.cell_counts().items()
        if operation in PHYSICAL_BINDINGS
    )


def physical_depth(netlist):
    """Deepest output counted in *physical* cells only.

    INV/BUF cells are free polarity choices resolved at regeneration
    boundaries, so they cost no wave propagation; this is the depth
    figure :func:`to_netlist` optimizes for, while
    :meth:`~repro.circuits.netlist.Netlist.depth` counts every
    scheduled level.
    """
    depth = {}
    for name in netlist.topological_order():
        node = netlist.node(name)
        if node.kind in ("input", "const0", "const1"):
            depth[name] = 0
            continue
        below = max(depth[driver] for driver in node.fanin)
        depth[name] = below + (1 if node.kind in PHYSICAL_BINDINGS else 0)
    if not netlist.outputs:
        return max(depth.values(), default=0)
    return max(depth[name] for name in netlist.outputs)


@dataclass(frozen=True)
class MappingReport:
    """Mapped-netlist metrics: the naive-vs-optimized scorecard."""

    netlist: Netlist
    depth: int  # scheduled levels (INV/BUF included)
    physical_depth: int  # transducer levels only
    n_cells: int  # all cells
    n_physical: int  # MAJ3 + XOR2
    cell_counts: dict
    cost: object = None  # CircuitCost when a library was supplied

    def describe(self):
        """One-line summary for reports."""
        counts = ", ".join(
            f"{count} {operation}"
            for operation, count in sorted(self.cell_counts.items())
        )
        return (
            f"{self.netlist.name}: physical depth {self.physical_depth} "
            f"(scheduled {self.depth}), {self.n_physical} physical cells "
            f"({counts})"
        )


def mapping_report(netlist, library=None):
    """Measure a mapped netlist (optionally priced through ``library``).

    ``library`` is a :class:`~repro.circuits.library.CellLibrary`; when
    given, ``cost`` carries the
    :class:`~repro.circuits.estimate.CircuitCost` aggregate
    (area/delay/energy along the critical path).
    """
    counts = netlist.cell_counts()
    return MappingReport(
        netlist=netlist,
        depth=netlist.depth(),
        physical_depth=physical_depth(netlist),
        n_cells=sum(counts.values()),
        n_physical=physical_cell_count(netlist),
        cell_counts=counts,
        cost=circuit_cost(netlist, library) if library is not None else None,
    )
