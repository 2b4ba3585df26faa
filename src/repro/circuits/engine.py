"""Physical circuit simulation: netlists compiled onto batched SW gates.

This module closes the gap between the Boolean netlist layer
(:class:`~repro.circuits.netlist.Netlist`) and the phasor-level physics
backend: a :class:`CircuitEngine` maps every physical cell operation of
an arbitrary MAJ/XOR/INV DAG to one shared data-parallel gate
(:func:`~repro.circuits.library.physical_gate`) and executes whole
input-assignment batches level by level -- the
:class:`~repro.core.cascade.GateCascade` regeneration semantics
generalised to arbitrary wiring with fanout, constants and
detector-placement inversion.

Execution model
---------------
Each physical cell is an ``n_bits``-wide gate: channel ``c`` carries
circuit instance ``c`` of a group, so a batch of ``B`` assignments packs
into ``ceil(B / n_bits)`` word groups.  Between levels the decoded word
is re-excited at full amplitude -- transduced regeneration, the robust
cascade option of Section III -- so INV and BUF cells cost nothing:
inversion is a detector-placement / re-excitation phase choice at the
regeneration boundary, exactly the free-inverter rule the cell library
prices.

A netlist runs one of two ways:

* :meth:`CircuitEngine.run` -- the fast path: the compile-once
  :class:`~repro.circuits.compiled.CompiledCircuit` artifact evaluates
  every physical cell of a level as one cross-op packed GEMM;
* :meth:`CircuitEngine.run_scalar` -- the reference: one
  ``run_phasor`` (or, in trace mode, one full ``run``) call per
  (cell, group).  ``run`` also routes here for the configurations the
  artifact cannot reproduce: placement noise in phasor mode and a cell
  that fails calibration.

Two execution *modes* share this schedule.  The default ``"phasor"``
mode evaluates steady-state phasors only; ``"trace"`` mode
(:meth:`CircuitEngine.run_trace_batch`, or ``run(mode="trace")``) runs
the full waveform physics instead: every (cell, group) pair generates
time-domain detector traces
(:meth:`~repro.core.simulate.GateSimulator.run_batch` on the fast path)
and decodes them by lock-in demodulation over the settled analysis
window -- so propagation delay, causal wavefronts and finite-window
phase estimation are all part of circuit execution, not just of
single-gate studies.  Both modes share the fault plumbing, the
per-(cell, group) noise seeding and the per-level decode-margin
reports; ``tests/test_circuit_conformance.py`` pins all four semantics
(Boolean, scalar cascade, packed phasor, packed trace) against each
other on randomized netlists.

Faults (:class:`CellFault`, reusing
:class:`~repro.core.faults.FaultySimulator` column mutation) and
transducer noise (:class:`~repro.waveguide.NoiseModel`, one independent
derived seed per cell and group) inject at any physical cell; decode
errors then *propagate* through later levels instead of raising, which
is what circuit-level fault coverage and noise-robustness experiments
measure.

A purely virtual circuit needs no physics at all:

>>> from repro.circuits.netlist import Netlist
>>> netlist = Netlist("demo")
>>> _ = netlist.add_input("a")
>>> _ = netlist.add_cell("na", "INV", ("a",))
>>> _ = netlist.mark_output("na")
>>> engine = CircuitEngine(netlist, n_bits=2)
>>> result = engine.run([{"a": 0}, {"a": 1}])
>>> result.outputs["na"]
[1, 0]
>>> result.correct
True
>>> trace_result = engine.run_trace_batch([{"a": 0}, {"a": 1}])
>>> (trace_result.mode, trace_result.outputs == result.outputs)
('trace', True)
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.circuits.library import PHYSICAL_BINDINGS, GateBindings
from repro.core.faults import TransducerFault
from repro.errors import NetlistError, ReproError, SimulationError


@dataclass(frozen=True)
class CellFault:
    """One transducer fault bound to a named physical cell.

    ``fault.channel`` selects the data-parallel channel (and therefore
    which circuit instances of each word group see the defect);
    ``fault.input_index`` selects the cell's input transducer.
    """

    cell: str
    fault: TransducerFault

    def describe(self):
        """Short label for reports."""
        return f"{self.cell}:{self.fault.describe()}"


def check_mode(mode):
    """Raise :class:`~repro.errors.NetlistError` for an unknown mode."""
    if mode not in ("phasor", "trace"):
        raise NetlistError(
            f"unknown execution mode {mode!r}; supported: 'phasor', 'trace'"
        )


def normalise_faults(netlist, faults):
    """{cell name: TransducerFault}, validated for every execution path."""
    fault_map = {}
    for item in faults:
        if not isinstance(item, CellFault):
            raise NetlistError(
                f"faults must be CellFault instances, got {item!r}"
            )
        node = netlist.node(item.cell)
        if node.kind not in PHYSICAL_BINDINGS:
            raise NetlistError(
                f"cell {item.cell!r} ({node.kind}) has no transducers "
                "to fault (INV/BUF are detector-placement choices)"
            )
        if item.cell in fault_map:
            raise NetlistError(
                f"cell {item.cell!r} carries more than one fault"
            )
        fault_map[item.cell] = item.fault
    return fault_map


@dataclass
class CellRecord:
    """Per-instance decode detail of one cell across the batch.

    ``margins``/``amplitudes`` are ``None`` for virtual cells (INV/BUF,
    constants resolved at the regeneration boundary -- no detector).
    """

    name: str
    operation: str
    level: int
    bits: list
    margins: list = None
    amplitudes: list = None


class LazyCellRecords(Mapping):
    """Read-only ``{cell name: CellRecord}``: ``build()`` runs on first
    access and must not close over reused scratch buffers.  Copies and
    serialises as a plain dict."""

    __slots__ = ("_build", "_records")

    def __init__(self, build):
        self._build = build
        self._records = None

    def _materialise(self):
        if self._records is None:
            self._records = self._build()
            self._build = None
        return self._records

    def __getitem__(self, name):
        return self._materialise()[name]

    def __iter__(self):
        return iter(self._materialise())

    def __len__(self):
        return len(self._materialise())

    def __reduce__(self):
        return dict, (dict(self._materialise()),)


@dataclass
class LevelReport:
    """Decode-margin summary of one schedule level.

    ``min_margin`` is ``None`` for levels without physical cells.
    """

    level: int
    n_cells: int
    n_physical: int
    min_margin: float = None


@dataclass
class CircuitRunResult:
    """Everything produced by one engine evaluation of a batch.

    ``outputs[name][i]`` is ``None`` when entry ``i`` failed outright (a
    fault silenced a decode); ``failed`` marks those entries.  ``levels``
    carries the per-level decode-margin report; ``cells`` the per-cell
    decode detail as a read-only ``{name: CellRecord}`` mapping (on the
    compiled path a :class:`LazyCellRecords`, built on first access, so
    callers that never read it never pay for it).  ``mode`` records
    which execution semantics produced the result (``"phasor"`` steady
    state or ``"trace"`` waveform).
    ``trace`` is the per-request timing breakdown
    (:class:`~repro.circuits.executor.RequestTrace`) when the run was
    served by a tracing :class:`~repro.circuits.executor.CircuitExecutor`
    -- ``None`` for direct engine runs.
    """

    outputs: dict
    expected: dict
    failed: list
    levels: list
    cells: dict
    n_entries: int
    faults: list = field(default_factory=list)
    mode: str = "phasor"
    trace: object = None

    @property
    def correct(self):
        """True when every entry decoded and matches the Boolean model."""
        return self.word_errors == 0

    @property
    def word_errors(self):
        """Entries that failed or disagree with the Boolean reference."""
        wrong = list(self.failed[: self.n_entries])
        for name, bits in self.outputs.items():
            wrong = [
                bad or bit != want
                for bad, bit, want in zip(wrong, bits, self.expected[name])
            ]
        return sum(wrong)

    @property
    def min_margin(self):
        """Smallest decode margin across all physical levels (or None)."""
        margins = [
            r.min_margin for r in self.levels if r.min_margin is not None
        ]
        return min(margins) if margins else None


class CircuitEngine:
    """Executes a netlist on batched data-parallel spin-wave gates.

    Parameters
    ----------
    netlist:
        :class:`~repro.circuits.netlist.Netlist` (combinational DAG).
    n_bits:
        Data-parallel width of every physical cell: one cell carries
        ``n_bits`` circuit instances on its frequency channels.
    waveguide:
        Shared :class:`~repro.waveguide.Waveguide` (default 50 nm
        Fe60Co20B20 strip); every cell's gate is laid out on it and all
        simulators share one :class:`~repro.waveguide.LinearWaveguideModel`
        so identical cells reuse cached propagation weights.
    transducer:
        Optional :class:`~repro.core.layout.TransducerSpec`.
    """

    def __init__(self, netlist, n_bits=8, waveguide=None, transducer=None,
                 bindings=None):
        self.netlist = netlist
        if bindings is None:
            bindings = GateBindings(
                n_bits=n_bits, waveguide=waveguide, transducer=transducer
            )
        self.bindings = bindings
        self.n_bits = bindings.n_bits
        self.waveguide = bindings.waveguide
        self.transducer = bindings.transducer
        self._compiled = None
        self._compile_schedule()

    def _compile_schedule(self):
        """(Re)read the netlist's cached schedule and index its cells.

        Called at construction and again whenever the netlist's topology
        revision moves past the one we compiled against, so a netlist
        grown after the engine was built is picked up transparently
        (the per-operation gates and weight caches stay valid -- only
        the schedule, the noise-seed indices and the compiled artifact
        refresh).
        """
        self._schedule_revision = self.netlist.topology_revision
        self.schedule = self.netlist.level_schedule()
        self._compiled = None
        # Deterministic per-cell index (schedule order) seeding the
        # independent noise stream of each (cell, group) evaluation.
        self._physical_index = {}
        for cells in self.schedule:
            for node in cells:
                if node.kind in PHYSICAL_BINDINGS:
                    self._physical_index[node.name] = len(self._physical_index)

    def _refresh_schedule(self):
        """Recompile iff the netlist topology changed since compilation."""
        if self.netlist.topology_revision != self._schedule_revision:
            self._compile_schedule()

    # ------------------------------------------------------------------
    # Compilation: shared model, gates and simulators
    # ------------------------------------------------------------------
    @property
    def n_physical_cells(self):
        """Number of transducer-level cells in the schedule."""
        return len(self._physical_index)

    @property
    def _model(self):
        """The bindings' lazily-built model (None until physics is hit)."""
        return self.bindings._model

    def model(self):
        """The engine-wide shared linear waveguide model (lazy)."""
        return self.bindings.model()

    def gate_for(self, operation):
        """The shared :class:`DataParallelGate` template of one operation."""
        return self.bindings.gate(operation)

    def simulator_for(self, operation):
        """The nominal simulator shared by every cell of ``operation``."""
        return self.bindings.simulator(operation)

    def _faulty_simulator(self, operation, fault):
        """A fault-injected simulator sharing the engine's model/caches."""
        return self.bindings.faulty_simulator(operation, fault)

    def compiled(self):
        """The packed :class:`~repro.circuits.compiled.CompiledCircuit`.

        Compiled lazily on first use and cached until the netlist's
        topology revision moves; the artifact owns the cross-op packed
        weight matrices and preallocated buffers :meth:`run` executes
        against.
        """
        from repro.circuits.compiled import compile_circuit

        self._refresh_schedule()
        if self._compiled is None:
            self._compiled = compile_circuit(self.netlist, self.bindings)
        return self._compiled

    # ------------------------------------------------------------------
    # Batch plumbing
    # ------------------------------------------------------------------
    def _cell_noise(self, noise, cell_name, group, n_groups):
        """An independent, deterministic noise model per (cell, group)."""
        if noise is None:
            return None
        offset = self._physical_index[cell_name] * n_groups + group
        return replace(noise, seed=noise.seed + offset + 1)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, assignments_batch, faults=(), noise=None, strict=True,
            mode="phasor"):
        """Evaluate a batch of assignments through the physics.

        Parameters
        ----------
        assignments_batch:
            Sequence of ``{input name: bit}`` mappings (one circuit
            instance each).
        faults:
            Iterable of :class:`CellFault` (at most one per cell, any
            number of distinct cells); each faulted cell evaluates
            through a :class:`~repro.core.faults.FaultySimulator`
            sharing the engine's weight caches, so multi-fault studies
            (e.g. a defect cluster along one carry chain) compose
            naturally.
        noise:
            Optional :class:`~repro.waveguide.NoiseModel` template; every
            (cell, group) evaluation draws an independent realisation
            from a deterministically derived seed.
        strict:
            When True, a dead decode (a fault silencing a phase-readout
            channel) raises; when False the affected entries are marked
            ``failed`` and a regenerated 0 propagates onward.
        mode:
            ``"phasor"`` (default) evaluates steady-state phasors;
            ``"trace"`` runs the full time-domain waveform physics --
            every (cell, group) generates detector traces and decodes
            them by lock-in over the settled window
            (:meth:`~repro.core.simulate.GateSimulator.run_batch`).

        The batch executes through the compile-once artifact
        (:meth:`compiled`): one cross-op GEMM per level in phasor mode,
        preallocated buffers, zero per-run Python-list churn.  Placement
        noise in phasor mode and an artifact whose cells fail
        calibration run through :meth:`run_scalar` instead.

        Returns a :class:`CircuitRunResult`.  Decoded (possibly wrong)
        bits always propagate to later levels -- regeneration restores
        amplitude, not truth -- so fault and noise effects compound
        through the DAG exactly as in hardware.
        """
        artifact = self.compiled()
        placed = noise is not None and noise.position_sigma > 0
        if not artifact.packable or (placed and mode == "phasor"):
            return self.run_scalar(
                assignments_batch, faults=faults, noise=noise,
                strict=strict, mode=mode,
            )
        return artifact.run(
            assignments_batch, faults=faults, noise=noise, strict=strict,
            mode=mode,
        )

    def run_trace_batch(self, assignments_batch, faults=(), noise=None,
                        strict=True):
        """Waveform-accurate circuit execution: :meth:`run` in trace mode.

        Convenience alias for ``run(..., mode="trace")`` -- the
        circuit-level counterpart of
        :meth:`~repro.core.simulate.GateSimulator.run_batch`.
        """
        return self.run(
            assignments_batch, faults=faults, noise=noise, strict=strict,
            mode="trace",
        )

    def run_scalar(self, assignments_batch, faults=(), noise=None, strict=True,
                   mode="phasor"):
        """Per-cell scalar reference: one ``run_phasor`` (or, in trace
        mode, one full ``run``) call per (cell, group) -- the
        :class:`~repro.core.cascade.GateCascade`-style loop generalised
        to DAGs.

        Bit-identical semantics to :meth:`run` (same noise seeds, same
        fault plumbing, same ``mode`` options); the compiled path is
        pinned against this reference to <= 1e-12 in
        ``tests/test_circuit_engine.py`` and
        ``tests/test_circuit_conformance.py``, and the throughput
        benchmark uses it as the baseline.
        """
        check_mode(mode)
        self._refresh_schedule()  # picks up netlist growth (revision key)
        block = self.netlist.input_block(assignments_batch)
        fault_map = normalise_faults(self.netlist, faults)
        n_entries = block.shape[1]
        n_groups = -(-n_entries // self.n_bits)
        padded = n_groups * self.n_bits
        rows = np.zeros((len(block), padded), dtype=np.int64)
        rows[:, :n_entries] = block
        values = dict(zip(self.netlist.inputs, rows))
        for name in self.netlist.topological_order():
            kind = self.netlist.node(name).kind
            if kind in ("const0", "const1"):
                values[name] = np.full(padded, int(kind[-1]), dtype=np.int64)
        failed = np.zeros(padded, dtype=bool)
        records = {}
        level_reports = []

        for level, cells in enumerate(self.schedule, start=1):
            physical = {}
            level_margins = []
            for node in cells:
                if node.kind in PHYSICAL_BINDINGS:
                    physical.setdefault(node.kind, []).append(node)
                    continue
                source = values[node.fanin[0]]
                values[node.name] = (
                    1 - source if node.kind == "INV" else source.copy()
                )
                records[node.name] = CellRecord(
                    name=node.name,
                    operation=node.kind,
                    level=level,
                    bits=values[node.name][:n_entries].tolist(),
                )
            n_physical = sum(len(nodes) for nodes in physical.values())
            context = (values, failed, records, level_margins, noise,
                       n_entries, n_groups, level, strict, mode)
            with obs.span(f"circuit/level/{mode}"):
                for operation in sorted(physical):
                    nominal = []
                    faulted = []
                    for node in physical[operation]:
                        (faulted if node.name in fault_map
                         else nominal).append(node)
                    if nominal:
                        self._evaluate_cells(
                            self.simulator_for(operation), nominal, *context
                        )
                    for node in faulted:
                        self._evaluate_cells(
                            self._faulty_simulator(
                                operation, fault_map[node.name]
                            ),
                            [node],
                            *context,
                        )
            level_reports.append(
                LevelReport(
                    level=level,
                    n_cells=len(cells),
                    n_physical=n_physical,
                    min_margin=min(level_margins) if level_margins else None,
                )
            )

        expected = {
            name: bits.tolist()
            for name, bits in self.netlist.evaluate_block(block).items()
        }
        outputs = {}
        for name in self.netlist.outputs:
            column = values[name][:n_entries]
            outputs[name] = [
                None if failed[i] else int(column[i])
                for i in range(n_entries)
            ]
        return CircuitRunResult(
            outputs=outputs,
            expected=expected,
            failed=failed[:n_entries].tolist(),
            levels=level_reports,
            cells=records,
            n_entries=n_entries,
            faults=list(faults),
            mode=mode,
        )

    def _evaluate_cells(self, simulator, nodes, values, failed, records,
                        level_margins, noise, n_entries, n_groups, level,
                        strict, mode):
        """Evaluate ``nodes`` (one operation) for every word group: one
        ``run_phasor`` (trace mode: ``run``) call per (cell, group),
        under that pair's derived noise model."""
        n_bits = self.n_bits
        runner = simulator.run if mode == "trace" else simulator.run_phasor
        saved = simulator.noise
        try:
            for node in nodes:
                fanin_values = [values[driver] for driver in node.fanin]
                decoded = values[node.name] = np.zeros(
                    len(failed), dtype=np.int64
                )
                record = records[node.name] = CellRecord(
                    name=node.name, operation=node.kind, level=level,
                    bits=[], margins=[], amplitudes=[],
                )
                for group in range(n_groups):
                    window = slice(group * n_bits, (group + 1) * n_bits)
                    n_valid = min(n_entries - group * n_bits, n_bits)
                    if noise is not None:
                        simulator.noise = self._cell_noise(
                            noise, node.name, group, n_groups
                        )
                    words = [v[window].tolist() for v in fanin_values]
                    try:
                        run = runner(words)
                    except ReproError:
                        if strict:
                            raise SimulationError(
                                f"cell {node.name!r} (level {level}) failed "
                                "to decode: a channel produced no decodable "
                                "carrier"
                            ) from None
                        failed[window.start : window.start + n_valid] = True
                        record.bits.extend([None] * n_valid)
                        record.margins.extend([math.nan] * n_valid)
                        record.amplitudes.extend([math.nan] * n_valid)
                        continue
                    decoded[window] = run.decoded
                    decodes = run.decodes[:n_valid]
                    margins = [d.margin for d in decodes]
                    record.bits.extend(run.decoded[:n_valid])
                    record.margins.extend(margins)
                    record.amplitudes.extend(d.amplitude for d in decodes)
                    level_margins.extend(margins)
        finally:
            simulator.noise = saved
