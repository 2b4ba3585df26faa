"""Compile-once circuit execution: frozen packed artifacts.

This module compiles a netlist **once** into a :class:`CompiledCircuit`
artifact -- the fast path behind :meth:`CircuitEngine.run
<repro.circuits.engine.CircuitEngine.run>` and the coalescing
:class:`~repro.circuits.executor.CircuitExecutor` -- and executes word
blocks against it:

* an immutable level schedule with integer *slot* tables (every node is
  a row of one preallocated ``(n_slots, padded)`` value buffer -- no
  per-run dict churn, no per-cell ``np.zeros``);
* per-level **cross-operation packing**: the nominal propagation weights
  of every operation sharing a level are block-stacked
  (:meth:`~repro.waveguide.LinearWaveguideModel.block_stack_weights`)
  so all same-layout physical cells of the level -- MAJ3 and XOR2 alike
  -- evaluate as **one** complex GEMM per level in phasor mode;
* precomputed INV/BUF masks: all free cells of a level resolve as one
  vectorised ``np.where`` over buffer rows;
* baked-in nominal calibration rows, phase LUTs and amplitude rows per
  operation, plus a lazily-grown per-``(operation, fault)`` calibration
  cache for faulted cells (faulted calibration *includes* the fault,
  exactly like :class:`~repro.core.faults.FaultySimulator`'s inherited
  calibration path).

Every execution is one padded block of one or more *tenants* (a
request's input block, noise template and fault map) assembled by
:meth:`CompiledCircuit.execute_block`: :meth:`CompiledCircuit.run` is a
one-tenant block, an executor flush a many-tenant one.  Semantics are
pinned to the scalar reference :meth:`CircuitEngine.run_scalar
<repro.circuits.engine.CircuitEngine.run_scalar>`: identical noise seeds
(one derived model per (cell, group)), identical fault mutation order
(noise first, then the victim column), identical dead-decode marking
and strict-mode error messages.  Phasor bits are exact and margins
agree to ~1e-15 (the only difference is BLAS reassociation over the
packed k-dimension); trace mode feeds
:meth:`~repro.core.simulate.GateSimulator.run_batch` from ndarray
gathers with per-row noise models, so it shares the time-domain physics
verbatim -- placement noise included.  Phasor-mode placement noise is
the one configuration the artifact refuses: its GEMM bakes nominal
weights in.  ``tests/test_circuit_conformance.py`` pins both modes
against the scalar reference to <= 1e-12.

Artifacts live in process memory only and key on
:func:`netlist_signature` (a content hash of the DAG plus outputs) --
:class:`CompiledCircuitCache` is the LRU compile cache the coalescing
executor serves many circuits from; a daemon warm-starts it by
compiling :class:`~repro.circuits.netlist.Netlist` objects up front
(:meth:`CompiledCircuitCache.warm`).
"""

import math
import time
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from repro import obs
from repro.circuits.engine import (
    CellRecord,
    CircuitRunResult,
    LazyCellRecords,
    LevelReport,
    check_mode,
    normalise_faults,
)
from repro.circuits.library import PHYSICAL_BINDINGS, physical_arity
from repro.circuits.netlist import Netlist
from repro.core.readout import decode_phasor_block
from repro.errors import NetlistError, SimulationError
from repro.waveguide.linear_model import LinearWaveguideModel


def netlist_signature(netlist):
    """Canonical content hash of a netlist's DAG and output list.

    Two netlists with equal signatures have identical node names, kinds,
    fanin wiring, input order and output registrations -- a compiled
    artifact of one executes the other bit-identically, with the same
    :meth:`~repro.circuits.netlist.Netlist.input_block` row layout.  This is the compile-cache key
    (:class:`CompiledCircuitCache`) and the coalescing key of the
    :class:`~repro.circuits.executor.CircuitExecutor`.  Output edits
    (:meth:`~repro.circuits.netlist.Netlist.mark_output`) change the
    signature even though they do not bump the topology revision --
    caches keyed here never serve stale output lists.

    Memoised on the netlist until an ``add_*`` or output edit.
    """
    return netlist.signature()


class _OpPlan:
    """Packed tables of one operation's cells within one level."""

    __slots__ = (
        "operation", "names", "n_cells", "n_inputs", "fanin_slots",
        "out_slots", "physical_indices", "weights", "cal_phases",
        "cal_amps", "phase_lut", "amp_row", "amplitude_readout",
        "src_offset", "det_offset",
    )


class _LevelPlan:
    """One schedule level: vectorised virtual cells + packed operations."""

    __slots__ = (
        "level", "n_cells", "n_physical", "v_names", "v_src", "v_out",
        "v_invert", "ops", "weights", "n_sources",
    )

    def __init__(self, level, n_cells):
        self.level = level
        self.n_cells = n_cells
        self.n_physical = 0
        self.v_names = []
        self.v_src = None
        self.v_out = None
        self.v_invert = None
        self.ops = []
        self.weights = None
        self.n_sources = 0


class _PackedRun:
    """State of one padded execution.  ``buf`` and ``failed`` are
    reused scratch (results copy what they need); the ``level_data``
    arrays are fresh per execution, so results may keep them."""

    __slots__ = ("n_groups", "n_valid", "buf", "failed", "level_data",
                 "dead_meta", "_minima")

    def __init__(self, n_groups, n_valid, buf, failed, level_data, dead_meta):
        self.n_groups = n_groups
        self.n_valid = n_valid
        self.buf = buf
        self.failed = failed
        self.level_data = level_data
        self.dead_meta = dead_meta
        self._minima = None

    def level_minima(self):
        """Per level, each group's smallest margin over live (not dead,
        not padding) bits, ``inf`` if none; computed once per block."""
        if self._minima is None:
            n_bits = self.buf.shape[1] // self.n_groups
            valid = np.arange(n_bits) < np.asarray(self.n_valid)[:, None]
            minima = np.full((len(self.level_data), self.n_groups), np.inf)
            for row, op_data in zip(minima, self.level_data):
                for _, margins, _, dead_rows in op_data:
                    live = valid & ~dead_rows[:, :, None]
                    np.minimum(
                        row, np.where(live, margins, np.inf).min(axis=(0, 2)),
                        out=row,
                    )
            self._minima = minima.tolist()
        return self._minima


class CompiledCircuit:
    """A frozen, executable compilation of one netlist onto shared gates.

    Built by :func:`compile_circuit` through four staged passes --
    levelise, allocate slots, pack levels, calibrate -- and then
    executed any number of times via :meth:`run` (or, coalesced across
    requests, via :meth:`execute_block`, which the
    :class:`~repro.circuits.executor.CircuitExecutor` drives).  The
    schedule, slot tables and packed weight matrices never change after
    compilation; per-run scratch (value/excitation buffers, the failed
    mask) is preallocated per batch shape and reused.

    ``packable`` is False when some operation's calibration fails (the
    physics cannot produce a reference) -- callers then run the scalar
    reference, which raises the same error lazily.
    """

    def __init__(self, netlist, bindings, registry=None):
        self.netlist = netlist
        self.bindings = bindings
        self.n_bits = bindings.n_bits
        self.signature = netlist_signature(netlist)
        self.topology_revision = netlist.topology_revision
        self.packable = True
        self.unpackable_reason = None
        # Compile spans/counters go to the caller's registry when given
        # (the executor's compile cache passes its private one, so
        # handler-thread compiles never touch the process-global span
        # stack).
        registry = obs.get_registry() if registry is None else registry
        started = time.perf_counter()
        with registry.span("compile_circuit"):
            with registry.span("levelise"):
                self._stage_levelise()
            with registry.span("allocate"):
                self._stage_allocate_slots()
            with registry.span("pack"):
                self._stage_pack_levels()
            with registry.span("calibrate"):
                self._stage_calibrate()
        # Compile cost travels with the artifact: request traces report
        # it so a cache-miss request explains its latency.
        self.compile_seconds = time.perf_counter() - started
        registry.inc("circuit.compiles")
        # Per-shape run scratch, grown lazily and reused across runs.
        self._value_buffers = {}
        self._failed_buffers = {}
        self._excite_buffers = {}
        # (operation, fault) -> FaultySimulator / calibration arrays
        # (None when the faulted calibration cannot decode at all).
        self._faulty_sims = {}
        self._faulty_cal = {}

    @property
    def n_physical_cells(self):
        """Number of transducer-level cells in the frozen schedule."""
        return len(self._physical_index)

    # ------------------------------------------------------------------
    # Compilation stages
    # ------------------------------------------------------------------
    def _stage_levelise(self):
        """Freeze the level schedule and the per-cell noise-seed index."""
        self.schedule = self.netlist.level_schedule()
        self._physical_index = {}
        for cells in self.schedule:
            for node in cells:
                if node.kind in PHYSICAL_BINDINGS:
                    self._physical_index[node.name] = len(self._physical_index)

    def _stage_allocate_slots(self):
        """One value-buffer row per node, in topological order."""
        order = self.netlist.topological_order()
        self._slots = {name: i for i, name in enumerate(order)}
        self.n_slots = len(order)
        # Rows of Netlist.input_block, in its row order.
        self._input_slots = np.array(
            [self._slots[name] for name in self.netlist.inputs],
            dtype=np.intp,
        )
        self._const_rows = []
        for name in order:
            node = self.netlist.node(name)
            if node.kind == "const0":
                self._const_rows.append((self._slots[name], 0))
            elif node.kind == "const1":
                self._const_rows.append((self._slots[name], 1))

    def _stage_pack_levels(self):
        """Integer gather/scatter tables per level and operation."""
        self.levels = []
        for level_number, cells in enumerate(self.schedule, start=1):
            plan = _LevelPlan(level_number, len(cells))
            virtual = []
            physical = {}
            for node in cells:
                if node.kind in PHYSICAL_BINDINGS:
                    physical.setdefault(node.kind, []).append(node)
                else:
                    virtual.append(node)
            if virtual:
                plan.v_names = [
                    (n.name, self._slots[n.name], n.kind) for n in virtual
                ]
                plan.v_src = np.array(
                    [self._slots[n.fanin[0]] for n in virtual]
                )
                plan.v_out = np.array([self._slots[n.name] for n in virtual])
                plan.v_invert = np.array(
                    [n.kind == "INV" for n in virtual]
                )
            plan.n_physical = sum(len(v) for v in physical.values())
            for operation in sorted(physical):
                nodes = physical[operation]
                op = _OpPlan()
                op.operation = operation
                op.names = tuple(n.name for n in nodes)
                op.n_cells = len(nodes)
                op.n_inputs = physical_arity(operation)
                op.fanin_slots = np.array(
                    [[self._slots[d] for d in n.fanin] for n in nodes]
                )
                op.out_slots = np.array([self._slots[n.name] for n in nodes])
                op.physical_indices = [
                    self._physical_index[n.name] for n in nodes
                ]
                plan.ops.append(op)
            self.levels.append(plan)
        self.has_physical = any(plan.ops for plan in self.levels)

    def _stage_calibrate(self):
        """Bake weights, calibration and excitation tables per operation.

        Skipped entirely for purely virtual netlists, so compiling and
        running them touches no physics (the engine's lazily-built model
        stays unbuilt).  A calibration failure marks the artifact
        unpackable instead of raising: the scalar reference reproduces
        the error lazily, at the moment its semantics would.
        """
        if not self.has_physical:
            return
        tables = {}
        for plan in self.levels:
            for op in plan.ops:
                if op.operation not in tables:
                    simulator = self.bindings.simulator(op.operation)
                    try:
                        cal_phases, cal_amps = simulator.calibration_arrays()
                    except SimulationError as exc:
                        self.packable = False
                        self.unpackable_reason = (
                            f"operation {op.operation!r} failed to "
                            f"calibrate: {exc}"
                        )
                        return
                    tables[op.operation] = (
                        simulator.nominal_weights(),
                        cal_phases,
                        cal_amps,
                        simulator._phase_lut,
                        np.asarray(simulator.amplitudes, dtype=float).ravel(),
                        simulator.gate.kind.uses_amplitude_readout,
                    )
                (op.weights, op.cal_phases, op.cal_amps, op.phase_lut,
                 op.amp_row, op.amplitude_readout) = tables[op.operation]
        # Cross-op packing: one block-diagonal weight matrix per level
        # (memoised per operation combination -- levels sharing a combo
        # share one matrix).  Single-op levels use the operation's
        # weights directly.
        stack_memo = {}
        n_bits = self.n_bits
        for plan in self.levels:
            if not plan.ops:
                continue
            source_offset = detector_offset = 0
            for op in plan.ops:
                op.src_offset = source_offset
                op.det_offset = detector_offset
                source_offset += op.n_inputs * n_bits
                detector_offset += n_bits
            plan.n_sources = source_offset
            if len(plan.ops) == 1:
                plan.weights = plan.ops[0].weights
            else:
                key = tuple(op.operation for op in plan.ops)
                if key not in stack_memo:
                    stack_memo[key] = LinearWaveguideModel.block_stack_weights(
                        [op.weights for op in plan.ops],
                        backend=self.bindings.backend,
                    )
                plan.weights = stack_memo[key]

    # ------------------------------------------------------------------
    # Per-run scratch
    # ------------------------------------------------------------------
    def _buffers(self, padded):
        """The reusable ``(n_slots, padded)`` value buffer + failed mask.

        Constant rows are written once at allocation (nothing else ever
        touches them); the failed mask is cleared on every acquisition.
        """
        buf = self._value_buffers.get(padded)
        if buf is None:
            buf = np.zeros((self.n_slots, padded), dtype=np.int64)
            for slot, value in self._const_rows:
                buf[slot] = value
            self._value_buffers[padded] = buf
        failed = self._failed_buffers.get(padded)
        if failed is None:
            failed = np.zeros(padded, dtype=bool)
            self._failed_buffers[padded] = failed
        else:
            failed[:] = False
        return buf, failed

    def _excite_buffer(self, level_index, plan, n_groups):
        """Reusable excitation block of one level: rows x packed sources.

        Off-segment entries are *structural zeros*: they are never
        written after allocation, and each op's segment is fully
        overwritten per run, so reuse keeps the cross-op GEMM exact.
        """
        key = (level_index, n_groups)
        excite = self._excite_buffers.get(key)
        if excite is None:
            rows = sum(op.n_cells for op in plan.ops) * n_groups
            excite = self.bindings.backend.zeros(
                (rows, plan.n_sources), kind="complex"
            )
            self._excite_buffers[key] = excite
        return excite

    def _fault_simulator(self, operation, fault):
        """Cached FaultySimulator (validates the fault's coordinates)."""
        key = (operation, fault)
        simulator = self._faulty_sims.get(key)
        if simulator is None:
            simulator = self.bindings.faulty_simulator(operation, fault)
            self._faulty_sims[key] = simulator
        return simulator

    def _fault_calibration(self, operation, fault):
        """Per-(operation, fault) calibration rows; None when undecodable.

        Faulted calibration *includes* the fault (the inherited
        calibration path builds the zero-word bank and mutates it), so a
        fault that silences the all-zeros reference -- e.g. stuck-phase-1
        on an XOR2 input -- yields None here and every row of that cell
        decodes dead, exactly like the scalar reference's per-entry
        calibration failure.
        """
        key = (operation, fault)
        if key not in self._faulty_cal:
            simulator = self._fault_simulator(operation, fault)
            try:
                self._faulty_cal[key] = simulator.calibration_arrays()
            except SimulationError:
                self._faulty_cal[key] = None
        return self._faulty_cal[key]

    @staticmethod
    def _derived_noise(context, physical_index):
        """The (cell, group) noise model of one group context.

        ``context`` is ``(template, ctx_n_groups, ctx_group)`` -- the
        request-relative group coordinates, so a request executed inside
        a coalesced block draws exactly the realisations it would have
        drawn standalone.
        """
        template, ctx_groups, ctx_group = context
        if template is None:
            return None
        return replace(
            template,
            seed=template.seed + physical_index * ctx_groups + ctx_group + 1,
        )

    # ------------------------------------------------------------------
    # Block execution (shared by run() and the coalescing executor)
    # ------------------------------------------------------------------
    def execute_block(self, tenants, mode, registry=None):
        """Run ``tenants`` side by side as one padded block.

        ``tenants`` is a sequence of ``(input block, noise template,
        fault map)`` triples, one per request: the
        :meth:`~repro.circuits.netlist.Netlist.input_block` block and
        the :func:`~repro.circuits.engine.normalise_faults` map.  Every
        tenant owns ``ceil(n_entries / n_bits)`` word groups with
        request-relative noise contexts, so it draws exactly the
        realisations it would draw alone.  Never raises for dead decodes
        (see :meth:`_execute_padded`).  Returns ``(run, spans)``: the
        packed run and each tenant's ``(group_start, group_end)``.
        """
        n_bits = self.n_bits
        contexts, group_faults, n_valid, spans = [], [], [], []
        for block, noise, fault_map in tenants:
            n_entries = block.shape[1]
            n_groups = -(-n_entries // n_bits)
            spans.append((len(n_valid), len(n_valid) + n_groups))
            for group in range(n_groups):
                contexts.append((noise, n_groups, group))
                group_faults.append(fault_map)
                n_valid.append(min(n_entries - group * n_bits, n_bits))
        n_groups = len(n_valid)
        buf, failed = self._buffers(n_groups * n_bits)
        for (block, _, _), (start, end) in zip(tenants, spans):
            # The buffer is reused: zero each tenant's padding tail.
            stop = start * n_bits + block.shape[1]
            buf[self._input_slots, start * n_bits : stop] = block
            buf[self._input_slots, stop : end * n_bits] = 0
        packed = self._execute_padded(
            buf, failed, n_groups, n_valid, contexts, group_faults, mode,
            registry,
        )
        return packed, spans

    def _execute_padded(self, buf, failed, n_groups, n_valid, contexts,
                        group_faults, mode, registry=None):
        """Execute every level over ``n_groups`` padded word groups.

        ``contexts[g]`` is the noise context of group ``g``;
        ``group_faults[g]`` its ``{cell: TransducerFault}`` map;
        ``n_valid[g]`` how many of its bits carry real entries.  Never
        raises for dead decodes -- strict handling happens per request
        via :meth:`_first_dead` so one coalesced failure cannot poison
        its neighbours.  ``registry`` routes the level spans/counters
        (the executor passes its private registry; direct callers
        default to the process-global one).
        """
        level_data = []
        dead_meta = []
        draws = {}
        registry = obs.get_registry() if registry is None else registry
        registry.inc("circuit.packed_runs")
        for level_index, plan in enumerate(self.levels):
            if plan.v_out is not None:
                source = buf[plan.v_src]
                buf[plan.v_out] = np.where(
                    plan.v_invert[:, None], 1 - source, source
                )
            op_data = []
            if plan.ops:
                if mode == "trace":
                    with registry.span("circuit/level/trace"):
                        self._execute_level_trace(
                            plan, buf, failed, n_groups, n_valid, contexts,
                            group_faults, op_data, dead_meta,
                        )
                else:
                    registry.inc("circuit.level_gemms")
                    with registry.span("circuit/level/phasor"):
                        self._execute_level_phasor(
                            level_index, plan, buf, failed, n_groups,
                            n_valid, contexts, group_faults, draws, op_data,
                            dead_meta,
                        )
            level_data.append(op_data)
        return _PackedRun(
            n_groups=n_groups,
            n_valid=n_valid,
            buf=buf,
            failed=failed,
            level_data=level_data,
            dead_meta=dead_meta,
        )

    def _execute_level_phasor(self, level_index, plan, buf, failed, n_groups,
                              n_valid, contexts, group_faults, draws,
                              op_data, dead_meta):
        """One cross-op packed GEMM evaluates every physical cell."""
        n_bits = self.n_bits
        padded = n_groups * n_bits
        excite = self._excite_buffer(level_index, plan, n_groups)
        jobs = []
        row_offset = 0
        for op_index, op in enumerate(plan.ops):
            n_cells, n_inputs = op.n_cells, op.n_inputs
            rows = n_cells * n_groups
            n_sources = n_inputs * n_bits
            # Gather fanin bits channel-major: column c*F + f carries
            # fanin f's bit on channel c -- the exact source order of
            # build_source_bank.
            bits = (
                buf[op.fanin_slots]
                .reshape(n_cells, n_inputs, n_groups, n_bits)
                .transpose(0, 2, 3, 1)
                .reshape(rows, n_sources)
            )
            phase = op.phase_lut[bits]
            amplitude = np.broadcast_to(op.amp_row, (rows, n_sources))
            row_refs = None
            forced_dead = None
            mutate = any(contexts[g][0] is not None for g in range(n_groups))
            mutate = mutate or any(
                name in faults
                for faults in group_faults for name in op.names
            )
            if mutate:
                amplitude = np.array(amplitude)
                for cell_index, name in enumerate(op.names):
                    physical_index = op.physical_indices[cell_index]
                    for group in range(n_groups):
                        row = cell_index * n_groups + group
                        noise = self._derived_noise(
                            contexts[group], physical_index
                        )
                        if noise is not None and noise.perturbs_sources:
                            # Keyed by arity too: derived seeds can
                            # collide across coalesced requests with
                            # different group counts, and a colliding
                            # draw must still match this op's width.
                            draw_key = (noise, n_sources)
                            if draw_key not in draws:
                                draws[draw_key] = (
                                    noise.source_perturbations(n_sources)
                                )
                            factor, phase_offset, _ = draws[draw_key]
                            amplitude[row] *= factor
                            phase[row] += phase_offset
                        fault = group_faults[group].get(name)
                        if fault is None:
                            continue
                        # Calibration first: constructing the faulty
                        # simulator validates the fault coordinates.
                        calibration = self._fault_calibration(
                            op.operation, fault
                        )
                        if row_refs is None:
                            row_refs = (
                                np.broadcast_to(
                                    op.cal_phases, (rows, n_bits)
                                ).copy(),
                                np.broadcast_to(
                                    op.cal_amps, (rows, n_bits)
                                ).copy(),
                            )
                            forced_dead = np.zeros(rows, dtype=bool)
                        if calibration is None:
                            forced_dead[row] = True
                            row_refs[0][row] = 0.0
                            row_refs[1][row] = 1.0
                        else:
                            row_refs[0][row] = calibration[0]
                            row_refs[1][row] = calibration[1]
                        # Fault lands after noise, on the victim column.
                        column = fault.channel * n_inputs + fault.input_index
                        if fault.kind == "dead-source":
                            amplitude[row, column] = 0.0
                        elif fault.kind == "weak-source":
                            amplitude[row, column] *= fault.severity
                        elif fault.kind == "stuck-phase-0":
                            phase[row, column] = 0.0
                        else:  # stuck-phase-1
                            phase[row, column] = math.pi
            excite[
                row_offset : row_offset + rows,
                op.src_offset : op.src_offset + n_sources,
            ] = amplitude * np.exp(1j * phase)
            jobs.append((op_index, op, row_offset, rows, row_refs,
                         forced_dead))
            row_offset += rows
        phasors = excite @ plan.weights
        for op_index, op, row_start, rows, row_refs, forced_dead in jobs:
            block = phasors[
                row_start : row_start + rows,
                op.det_offset : op.det_offset + n_bits,
            ]
            if row_refs is None:
                ref_phases, ref_amps = op.cal_phases, op.cal_amps
            else:
                ref_phases, ref_amps = row_refs
            bits, _, amplitudes, margins, dead = decode_phasor_block(
                block, ref_phases, ref_amps,
                amplitude_readout=op.amplitude_readout,
            )
            dead_rows = dead.any(axis=1)
            if forced_dead is not None:
                dead_rows |= forced_dead
            if dead_rows.any():
                bits = np.where(dead_rows[:, None], 0, bits)
                margins = np.where(dead_rows[:, None], math.nan, margins)
                amplitudes = np.where(
                    dead_rows[:, None], math.nan, amplitudes
                )
                for row in np.flatnonzero(dead_rows):
                    cell_index, group = divmod(int(row), n_groups)
                    failed[
                        group * n_bits : group * n_bits + n_valid[group]
                    ] = True
                    name = op.names[cell_index]
                    dead_meta.append((
                        plan.level, op_index, name in group_faults[group],
                        cell_index, group, name,
                    ))
            buf[op.out_slots] = bits.reshape(op.n_cells, padded)
            op_data.append((
                op,
                margins.reshape(op.n_cells, n_groups, n_bits),
                amplitudes.reshape(op.n_cells, n_groups, n_bits),
                dead_rows.reshape(op.n_cells, n_groups),
            ))

    def _execute_level_trace(self, plan, buf, failed, n_groups, n_valid,
                             contexts, group_faults, op_data, dead_meta):
        """Waveform execution per (level, op) on ndarray gathers.

        Per-gate time grids differ, so trace mode cannot cross-op pack;
        instead each operation's (cell, group) rows partition by fault
        and run through the array-native
        :meth:`~repro.core.simulate.GateSimulator.run_batch` -- the same
        physics as the scalar reference, fed straight from the value
        buffer with one noise model per row (placement noise included).
        """
        n_bits = self.n_bits
        for op_index, op in enumerate(plan.ops):
            n_cells, n_inputs = op.n_cells, op.n_inputs
            rows = n_cells * n_groups
            entries_all = (
                buf[op.fanin_slots]
                .reshape(n_cells, n_inputs, n_groups, n_bits)
                .transpose(0, 2, 1, 3)
                .reshape(rows, n_inputs, n_bits)
            )
            margins = np.full((n_cells, n_groups, n_bits), math.nan)
            amplitudes = np.full((n_cells, n_groups, n_bits), math.nan)
            dead_rows = np.zeros((n_cells, n_groups), dtype=bool)
            jobs = {}
            for cell_index, name in enumerate(op.names):
                for group in range(n_groups):
                    fault = group_faults[group].get(name)
                    jobs.setdefault(fault, []).append((cell_index, group))
            keys = list(jobs)
            if None in jobs:
                keys.remove(None)
                keys.insert(0, None)
            for fault in keys:
                pairs = jobs[fault]
                if fault is None:
                    simulator = self.bindings.simulator(op.operation)
                else:
                    simulator = self._fault_simulator(op.operation, fault)
                if len(pairs) == rows:
                    entries = entries_all
                else:
                    entries = entries_all[
                        np.array([c * n_groups + g for c, g in pairs])
                    ]
                noises = [
                    self._derived_noise(contexts[g], op.physical_indices[c])
                    for c, g in pairs
                ]
                if all(noise is None for noise in noises):
                    noises = None
                runs = simulator.run_batch(
                    np.ascontiguousarray(entries), noises=noises,
                    strict=False,
                )
                for (cell_index, group), run in zip(pairs, runs):
                    window = slice(group * n_bits, (group + 1) * n_bits)
                    if run is None:
                        failed[
                            group * n_bits : group * n_bits + n_valid[group]
                        ] = True
                        buf[op.out_slots[cell_index], window] = 0
                        dead_rows[cell_index, group] = True
                        dead_meta.append((
                            plan.level, op_index, fault is not None,
                            cell_index, group, op.names[cell_index],
                        ))
                        continue
                    buf[op.out_slots[cell_index], window] = run.decoded
                    margins[cell_index, group] = [
                        d.margin for d in run.decodes
                    ]
                    amplitudes[cell_index, group] = [
                        d.amplitude for d in run.decodes
                    ]
            op_data.append((op, margins, amplitudes, dead_rows))

    # ------------------------------------------------------------------
    # Result construction
    # ------------------------------------------------------------------
    def _first_dead(self, packed, group_start, group_end):
        """The strict-mode error of a request's group span, or None.

        Picks the first dead decode in the scalar reference's iteration
        order (level, sorted op, nominal-before-faulted, schedule
        position, group) so strict mode raises the identical message.
        """
        worst = None
        for level, op_index, is_faulted, cell_index, group, name in (
            packed.dead_meta
        ):
            if not group_start <= group < group_end:
                continue
            key = (level, op_index, is_faulted, cell_index, group)
            if worst is None or key < worst[0]:
                worst = (key, name, level)
        if worst is None:
            return None
        return SimulationError(
            f"cell {worst[1]!r} (level {worst[2]}) failed to "
            "decode: a channel produced no decodable carrier"
        )

    def _build_result(self, packed, netlist, group_start, group_end,
                      n_entries, expected, faults, mode):
        """Materialise one request's :class:`CircuitRunResult`.

        Must run before the next execution: the request's span of the
        shared value buffer and failed mask is copied once; per-cell
        records build from that copy on first access.  ``expected`` is
        the request's ``Netlist.evaluate_block`` output.
        """
        n_bits = self.n_bits
        start = group_start * n_bits
        bits = packed.buf[:, start : start + n_entries].copy()
        failed = packed.failed[start : start + n_entries].copy()
        level_reports = []
        for plan, minima in zip(self.levels, packed.level_minima()):
            minimum = min(minima[group_start:group_end])
            level_reports.append(
                LevelReport(
                    level=plan.level,
                    n_cells=plan.n_cells,
                    n_physical=plan.n_physical,
                    min_margin=None if minimum == math.inf else minimum,
                )
            )
        # The closure keeps the level plans and this block's level data,
        # not the artifact or its scratch buffers.
        plans, level_data = self.levels, packed.level_data

        def cell_records():
            def span(array):
                return array[:, group_start:group_end].reshape(
                    len(array), -1
                )[:, :n_entries]

            records = {}
            for plan, op_data in zip(plans, level_data):
                for name, slot, kind in plan.v_names:
                    records[name] = CellRecord(
                        name=name, operation=kind, level=plan.level,
                        bits=bits[slot].tolist(),
                    )
                for op, margins, amplitudes, dead_rows in op_data:
                    cell_bits = bits[op.out_slots]
                    dead = span(np.broadcast_to(
                        dead_rows[:, :, None], margins.shape
                    ))
                    if dead.any():
                        cell_bits = cell_bits.astype(object)
                        cell_bits[dead] = None
                    for name, row_bits, row_margins, row_amplitudes in zip(
                        op.names, cell_bits.tolist(), span(margins).tolist(),
                        span(amplitudes).tolist(),
                    ):
                        records[name] = CellRecord(
                            name=name, operation=op.operation,
                            level=plan.level, bits=row_bits,
                            margins=row_margins, amplitudes=row_amplitudes,
                        )
            return records

        names = netlist.outputs
        outputs = bits[[self._slots[name] for name in names]]
        if failed.any():
            outputs = outputs.astype(object)
            outputs[:, failed] = None
        return CircuitRunResult(
            outputs=dict(zip(names, outputs.tolist())),
            expected={
                name: column.tolist() for name, column in expected.items()
            },
            failed=failed.tolist(),
            levels=level_reports,
            cells=LazyCellRecords(cell_records),
            n_entries=n_entries,
            faults=list(faults),
            mode=mode,
        )

    # ------------------------------------------------------------------
    # Public execution
    # ------------------------------------------------------------------
    def run(self, assignments_batch, faults=(), noise=None, strict=True,
            mode="phasor"):
        """Evaluate a batch as a one-tenant block of the artifact.

        Same contract as :meth:`CircuitEngine.run`, which routes here
        whenever the artifact can run the configuration.  Raises
        :class:`~repro.errors.SimulationError` for the two it cannot: an
        unpackable artifact, and placement noise in phasor mode (the
        packed GEMM bakes nominal weights in) -- the engine runs both
        through :meth:`CircuitEngine.run_scalar` instead.
        """
        check_mode(mode)
        if not self.packable:
            raise SimulationError(
                f"netlist {self.netlist.name!r} is not packable: "
                f"{self.unpackable_reason}"
            )
        placed = noise is not None and noise.position_sigma > 0
        if placed and mode == "phasor":
            raise SimulationError(
                "per-entry placement noise perturbs the source geometry; "
                "the packed phasor path bakes nominal weights in -- use "
                "CircuitEngine.run or run_scalar"
            )
        block = self.netlist.input_block(assignments_batch)
        tenant = (block, noise, normalise_faults(self.netlist, faults))
        packed, ((start, end),) = self.execute_block([tenant], mode)
        if strict:
            error = self._first_dead(packed, start, end)
            if error is not None:
                raise error
        return self._build_result(
            packed, self.netlist, start, end, block.shape[1],
            self.netlist.evaluate_block(block), faults, mode,
        )


def compile_circuit(netlist, bindings, registry=None):
    """Compile ``netlist`` onto ``bindings`` into a :class:`CompiledCircuit`.

    The staged pipeline (levelise -> allocate slots -> pack levels ->
    calibrate) runs eagerly; the returned artifact is reusable across
    any number of runs and any batch shape.  ``registry`` routes the
    compile spans (defaults to the process-global registry).
    """
    return CompiledCircuit(netlist, bindings, registry=registry)


class CompiledCircuitCache:
    """LRU cache of compiled artifacts keyed by netlist signature.

    One cache serves one :class:`~repro.circuits.library.GateBindings`
    family (the executor owns cache and bindings together): the key is
    ``(signature, n_bits)``, so equal netlists compiled at one width
    share an artifact while the physics configuration stays implicit in
    the owner's bindings.

    Hit/miss/eviction counts live on a :class:`~repro.obs.MetricsRegistry`
    (``obs``; the executor shares its own so one snapshot covers serving
    and compile-cache behaviour together) under ``compile_cache.*``
    names; the historical ``hits``/``misses`` attributes remain as
    read-only properties.
    """

    def __init__(self, max_entries=16, obs=None):
        if max_entries < 1:
            raise NetlistError(
                f"max_entries must be >= 1, got {max_entries!r}"
            )
        self.max_entries = int(max_entries)
        self._entries = OrderedDict()
        from repro.obs import MetricsRegistry

        self.obs = obs if obs is not None else MetricsRegistry()

    def __len__(self):
        return len(self._entries)

    @property
    def hits(self):
        """Lookups served from the cache (registry-backed)."""
        return self.obs.counter("compile_cache.hits")

    @property
    def misses(self):
        """Lookups that compiled a fresh artifact (registry-backed)."""
        return self.obs.counter("compile_cache.misses")

    @property
    def evictions(self):
        """Artifacts dropped by the LRU bound (registry-backed)."""
        return self.obs.counter("compile_cache.evictions")

    @property
    def hit_rate(self):
        """hits / (hits + misses), or None before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else None

    def get_or_compile(self, netlist, bindings):
        """The cached artifact of ``netlist``, compiling on first sight.

        The key includes the bindings' backend identity: artifacts bake
        weights and buffers in the backend dtype, so a float32 artifact
        must never be served to a float64 caller (or vice versa).
        """
        key = self._key(netlist, bindings)
        artifact = self._entries.get(key)
        if artifact is not None:
            self._entries.move_to_end(key)
            self.obs.inc("compile_cache.hits")
            return artifact
        self.obs.inc("compile_cache.misses")
        return self._insert(key, compile_circuit(
            netlist, bindings, registry=self.obs
        ))

    def warm(self, netlists, bindings):
        """Compile ``netlists`` ahead of traffic so first requests hit.

        Each :class:`~repro.circuits.netlist.Netlist` enters the LRU
        under its own signature (already-cached ones are reused, not
        recompiled); afterwards :meth:`get_or_compile` serves equal
        netlists with zero misses.  Counts under ``compile_cache.warmed``
        (not as hits or misses).  Anything that is not a ``Netlist``
        raises :class:`~repro.errors.NetlistError`, leaving the netlists
        before it cached.  Returns the artifacts.
        """
        artifacts = []
        for netlist in netlists:
            if not isinstance(netlist, Netlist):
                raise NetlistError(
                    "warm takes Netlist objects (load JSON through "
                    f"Netlist.from_dict), got {type(netlist).__name__}"
                )
            key = self._key(netlist, bindings)
            artifact = self._entries.get(key) or compile_circuit(
                netlist, bindings, registry=self.obs
            )
            self.obs.inc("compile_cache.warmed")
            artifacts.append(self._insert(key, artifact))
        return artifacts

    @staticmethod
    def _key(netlist, bindings):
        return (netlist_signature(netlist), bindings.n_bits,
                bindings.backend.key)

    def _insert(self, key, artifact):
        """Store ``artifact`` as most recent, evicting past the bound."""
        self._entries[key] = artifact
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.obs.inc("compile_cache.evictions")
        return artifact

    def clear(self):
        """Drop every cached artifact (hit/miss counters persist)."""
        self._entries.clear()
