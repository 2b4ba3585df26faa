"""Circuit-level composition of spin-wave gates.

Majority-inverter logic is the natural target of SW majority gates; this
package provides a small netlist layer (a plain dict DAG), a cell library
with cost models and physical gate bindings, MAJ-based synthesis of
adders, circuit-level area/delay/energy estimation contrasting
data-parallel against scalar implementations -- the system-level
extrapolation of the paper's Section V.B gate-level comparison -- and a
physical circuit-simulation engine
(:class:`~repro.circuits.engine.CircuitEngine`) executing whole netlists
on the batched phasor backend with transduced regeneration, fault
injection and noise.  Arbitrary Boolean specifications compile onto
this layer through the logic-synthesis front end
(:mod:`repro.synthesis`): MIG ingestion, optimization passes, and
technology mapping onto :data:`~repro.circuits.library.PHYSICAL_BINDINGS`.

Execution is compile-once: the engine lowers its netlist into a frozen
:class:`~repro.circuits.compiled.CompiledCircuit` artifact (channel
truth-table gathers, cross-op level GEMMs for noisy and trace rows,
preallocated buffers, baked calibration) keyed by a
content hash (:func:`~repro.circuits.compiled.netlist_signature`), and
the serving layer (:class:`~repro.circuits.executor.CircuitExecutor`)
coalesces word batches from many logical requests into maximal packed
blocks over one shared :class:`~repro.circuits.library.GateBindings`.
"""

from repro.circuits.netlist import Netlist, Node
from repro.circuits.library import (
    CellLibrary,
    CellSpec,
    GateBindings,
    default_library,
    physical_gate,
)
from repro.circuits.synth import (
    full_adder,
    majority_tree,
    random_netlist,
    ripple_carry_adder,
)
from repro.circuits.estimate import circuit_cost, parallel_vs_scalar
from repro.circuits.engine import (
    CellFault,
    CircuitEngine,
    CircuitRunResult,
    LevelReport,
)
from repro.circuits.compiled import (
    CompiledCircuit,
    CompiledCircuitCache,
    compile_circuit,
    netlist_signature,
)
from repro.circuits.executor import CircuitExecutor, ExecutionTicket

__all__ = [
    "Netlist",
    "Node",
    "CellLibrary",
    "CellSpec",
    "GateBindings",
    "default_library",
    "physical_gate",
    "full_adder",
    "ripple_carry_adder",
    "majority_tree",
    "random_netlist",
    "circuit_cost",
    "parallel_vs_scalar",
    "CellFault",
    "CircuitEngine",
    "CircuitRunResult",
    "LevelReport",
    "CompiledCircuit",
    "CompiledCircuitCache",
    "compile_circuit",
    "netlist_signature",
    "CircuitExecutor",
    "ExecutionTicket",
]
