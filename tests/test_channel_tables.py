"""Channel truth tables: phasor cells decode by table gather.

Channels of a gate share one waveguide without interacting, so a
cell's steady-state decode on channel ``c`` is a fixed function of its
fanin bits on that channel: :meth:`GateSimulator.channel_table`.  These
tests record that table as data (bits, margins, no dead entries) and
pin the gather path of :class:`~repro.circuits.compiled.CompiledCircuit`
-- nominal and faulted cells, coalesced beside noisy tenants that keep
the GEMM -- to the scalar reference at <= 1e-12.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import (
    CellFault,
    CircuitEngine,
    CircuitExecutor,
    GateBindings,
    compile_circuit,
    random_netlist,
    ripple_carry_adder,
)
from repro.circuits import compiled
from repro.circuits.library import PHYSICAL_BINDINGS, physical_arity
from repro.core.faults import TransducerFault, enumerate_faults
from repro.errors import SimulationError
from repro.waveguide import NoiseModel

TOL = 1e-12

BOOLEAN = {
    "MAJ3": lambda bits: int(sum(bits) >= 2),
    "XOR2": lambda bits: sum(bits) % 2,
}


class TestNominalTables:
    @pytest.mark.parametrize("n_bits", [8, 4, 2])
    @pytest.mark.parametrize("operation", ["MAJ3", "XOR2"])
    def test_bits_are_the_boolean_operation(self, operation, n_bits):
        table = GateBindings(n_bits=n_bits).simulator(operation).channel_table()
        n_inputs = physical_arity(operation)
        assert table.bits.shape == (n_bits, 2 ** n_inputs)
        expected = [
            BOOLEAN[operation]([(p >> f) & 1 for f in range(n_inputs)])
            for p in range(2 ** n_inputs)
        ]
        for channel in range(n_bits):
            assert table.bits[channel].tolist() == expected
        assert not table.dead.any()

    def test_majority_margin_is_a_right_angle(self):
        table = GateBindings(n_bits=8).simulator("MAJ3").channel_table()
        np.testing.assert_allclose(table.margins, math.pi / 2, atol=TOL)

    def test_xor_margin_floor_rises_with_channel(self):
        """The paper's channel independence, as data: each channel's
        XOR2 margin floor is its own, from 0.4895 on channel 0 to
        0.4933 on channel 7."""
        table = GateBindings(n_bits=8).simulator("XOR2").channel_table()
        floor = table.margins.min(axis=1)
        assert round(floor[0], 4) == 0.4895
        assert round(floor[7], 4) == 0.4933
        assert (np.diff(floor) > 0).all()

    def test_memoised_and_frozen(self):
        simulator = GateBindings(n_bits=2).simulator("XOR2")
        table = simulator.channel_table()
        assert simulator.channel_table() is table
        with pytest.raises(ValueError):
            table.bits[0, 0] = 1

    def test_uncalibratable_gate_is_dead_everywhere(self):
        fault = TransducerFault("stuck-phase-1", channel=0, input_index=1)
        simulator = GateBindings(n_bits=2).faulty_simulator("XOR2", fault)

        def calibration():
            raise SimulationError("calibration produced zero amplitude")

        simulator.calibration = calibration
        table = simulator.channel_table()
        assert table.dead.all()
        assert np.isnan(table.margins).all()


class TestFaultCache:
    def test_bounded_lru_answers_evicted_faults_identically(self):
        """New weak-source severities never grow an artifact past the
        bound, and a fault evicted from it decodes as before."""
        netlist = ripple_carry_adder(4)
        artifact = compile_circuit(netlist, GateBindings(n_bits=8))
        cell = _physical_cells(netlist)[0].name
        batch = [
            {name: (i >> k) & 1 for k, name in enumerate(netlist.inputs)}
            for i in range(0, 256, 7)
        ]

        def run(severity):
            fault = TransducerFault(
                "weak-source", channel=3, input_index=0, severity=severity
            )
            return artifact.run(
                batch, faults=[CellFault(cell, fault)], strict=False
            )

        bound = compiled.FAULT_CACHE_ENTRIES
        first = run(0.05)
        for i in range(bound + 10):
            run(0.1 + 0.8 * i / (bound + 10))
            assert len(artifact._fault_cache) <= bound
        assert len(artifact._fault_cache) == bound
        assert not any(
            fault.severity == 0.05 for _, fault in artifact._fault_cache
        )
        again = run(0.05)
        assert again.outputs == first.outputs
        assert again.failed == first.failed
        for name, record in first.cells.items():
            assert again.cells[name] == record

    @pytest.mark.parametrize("n_bits", [8, 4, 2])
    def test_faulted_reference_is_the_simulator_calibration(self, n_bits):
        """The faulted calibration read off the fault table's own GEMM
        (pattern 0 is the all-zeros word) equals the faulted simulator's
        one-row-bank calibration, for every single fault."""
        bindings = GateBindings(n_bits=n_bits)
        artifact = compile_circuit(ripple_carry_adder(4), bindings)
        ops = {
            op.operation: op for plan in artifact.levels for op in plan.ops
        }
        assert set(ops) == set(PHYSICAL_BINDINGS)
        checked = 0
        for operation, op in ops.items():
            for fault in enumerate_faults(bindings.gate(operation)):
                phases, amplitudes = artifact._fault_entry(op, fault)[0]
                reference = bindings.faulty_simulator(
                    operation, fault
                ).calibration_arrays()
                assert np.abs(amplitudes - reference[1]).max() <= TOL
                offset = np.angle(np.exp(1j * (phases - reference[0])))
                assert np.abs(offset).max() <= TOL
                checked += 1
        # 4 kinds on every channel of MAJ3's 3 and XOR2's 2 inputs.
        assert checked == 4 * n_bits * 5


def _physical_cells(netlist):
    nodes = (netlist.node(name) for name in netlist.topological_order())
    return [node for node in nodes if node.kind in PHYSICAL_BINDINGS]


def _scalar(netlist, bindings, batch, faults, noise):
    return CircuitEngine(netlist, bindings=bindings).run_scalar(
        batch, faults=faults, noise=noise, strict=False
    )


def _assert_pinned(result, reference):
    assert result.outputs == reference.outputs
    assert result.failed == reference.failed
    for name, record in result.cells.items():
        ref = reference.cells[name]
        assert record.bits == ref.bits
        if record.margins is None:
            continue
        np.testing.assert_allclose(
            record.margins, ref.margins, rtol=TOL, atol=TOL
        )
        np.testing.assert_allclose(
            record.amplitudes, ref.amplitudes, rtol=TOL, atol=TOL
        )


FAULT_KINDS = ("dead-source", "weak-source", "stuck-phase-0", "stuck-phase-1")


@st.composite
def tenants(draw, netlist, n_bits):
    physical = _physical_cells(netlist)
    n_entries = draw(st.integers(1, 70))
    batch = [
        {name: draw(st.integers(0, 1)) for name in netlist.inputs}
        for _ in range(n_entries)
    ]
    faults = []
    if physical:
        cells = draw(st.lists(
            st.sampled_from(physical), max_size=2, unique_by=lambda n: n.name
        ))
        for node in cells:
            faults.append(CellFault(node.name, TransducerFault(
                draw(st.sampled_from(FAULT_KINDS)),
                channel=draw(st.integers(0, n_bits - 1)),
                input_index=draw(st.integers(0, physical_arity(node.kind) - 1)),
                severity=draw(st.sampled_from((0.2, 0.5, 0.9))),
            )))
    noise = draw(st.sampled_from((
        None,
        NoiseModel(amplitude_sigma=0.1, seed=draw(st.integers(0, 99))),
        NoiseModel(phase_sigma=0.3, seed=draw(st.integers(0, 99))),
    )))
    return batch, faults, noise


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_coalesced_gather_matches_scalar(data):
    """Random netlists, request sizes, fault maps and noisy tenants in
    one coalesced block: every tenant equals its scalar reference."""
    n_bits = data.draw(st.sampled_from((2, 4, 8)))
    netlist = random_netlist(data.draw(st.integers(0, 40)), n_cells=8)
    requests = [
        data.draw(tenants(netlist, n_bits))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    executor = CircuitExecutor(n_bits=n_bits, max_block=100_000)
    tickets = [
        executor.submit(netlist, batch, faults=faults, noise=noise,
                        strict=False)
        for batch, faults, noise in requests
    ]
    executor.flush()
    assert executor.stats["blocks"] == 1
    for ticket, (batch, faults, noise) in zip(tickets, requests):
        _assert_pinned(
            ticket.result(),
            _scalar(netlist, executor.bindings, batch, faults, noise),
        )


def test_every_single_fault_matches_scalar():
    """Each fault of the universe, every channel and input, gathered."""
    netlist = random_netlist(3, n_cells=6)
    bindings = GateBindings(n_bits=2)
    artifact = compile_circuit(netlist, bindings)
    batch = [
        dict(zip(netlist.inputs, bits))
        for bits in product((0, 1), repeat=len(netlist.inputs))
    ]
    for node in _physical_cells(netlist):
        for kind, channel, input_index in product(
            FAULT_KINDS, range(2), range(physical_arity(node.kind))
        ):
            faults = [CellFault(node.name, TransducerFault(
                kind, channel=channel, input_index=input_index
            ))]
            _assert_pinned(
                artifact.run(batch, faults=faults, strict=False),
                _scalar(netlist, bindings, batch, faults, None),
            )


def test_uncalibratable_fault_gathers_dead_rows():
    """A faulted cell that cannot calibrate reads a table dead
    everywhere: every row fails, with the scalar strict message."""
    from test_circuit_conformance import (
        UNCALIBRATABLE,
        CancellingBindings,
        every_assignment,
        majority_xor_netlist,
    )

    netlist = majority_xor_netlist()
    engine = CircuitEngine(netlist, bindings=CancellingBindings(n_bits=2))
    batch = every_assignment(netlist)
    faults = [UNCALIBRATABLE]
    result = engine.run(batch, faults=faults, strict=False)
    assert result.cells[UNCALIBRATABLE.cell].bits == [None] * len(batch)
    _assert_pinned(
        result, engine.run_scalar(batch, faults=faults, strict=False)
    )
    with pytest.raises(SimulationError) as packed:
        engine.run(batch, faults=faults)
    with pytest.raises(SimulationError) as scalar:
        engine.run_scalar(batch, faults=faults)
    assert str(packed.value) == str(scalar.value)
