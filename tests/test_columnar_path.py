"""The columnar request path: one validated input block, a memoised
signature and lazily built per-cell records.

Pins the invariants the serving path leans on:

* :meth:`Netlist.input_block` is the only input check -- bad bits raise
  at :meth:`CircuitExecutor.submit`, never later inside a flush;
* :meth:`Netlist.evaluate_block` over that block is the Boolean model;
* the signature memo never hides a mutation;
* a result's lazy ``cells`` never alias the artifact's reused scratch;
* the dict DAG round-trips through the wire format unchanged, and the
  circuit and serving layers no longer import networkx.
"""

import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.circuits import (
    CircuitEngine,
    CircuitExecutor,
    majority_tree,
    netlist_signature,
    random_netlist,
    ripple_carry_adder,
)
from repro.circuits.engine import LazyCellRecords
from repro.circuits.netlist import Netlist
from repro.errors import EncodingError, NetlistError

N_BITS = 2


def xor_pair(title="pair"):
    netlist = Netlist(title)
    for name in ("a", "b", "c"):
        netlist.add_input(name)
    netlist.add_cell("x", "XOR2", ("a", "b"))
    netlist.add_cell("y", "XOR2", ("x", "c"))
    netlist.mark_output("y")
    return netlist


BATCH = [
    {"a": 0, "b": 1, "c": 1},
    {"a": 1, "b": 1, "c": 0},
    {"a": 1, "b": 0, "c": 1},
]


class TestInputBlock:
    def test_rows_follow_inputs(self):
        block = xor_pair().input_block(BATCH)
        assert block.dtype == np.uint8
        np.testing.assert_array_equal(
            block, [[0, 1, 1], [1, 1, 0], [1, 0, 1]]
        )

    def test_bool_and_float_bits_accepted(self):
        block = xor_pair().input_block([{"a": True, "b": 1.0, "c": 0.0}])
        np.testing.assert_array_equal(block, [[1], [1], [0]])

    def test_numpy_float_bits_take_the_exact_check(self):
        block = xor_pair().input_block(
            [{"a": np.float64(1.0), "b": 0, "c": False}]
        )
        np.testing.assert_array_equal(block, [[1], [0], [0]])

    @pytest.mark.parametrize("bad", [0.5, "1", None, 2, -1, math.nan])
    def test_invalid_bits_rejected(self, bad):
        with pytest.raises(EncodingError, match="0 or 1"):
            xor_pair().input_block([{"a": 0, "b": bad, "c": 1}])

    def test_missing_input_and_empty_batch(self):
        with pytest.raises(NetlistError, match="'c'"):
            xor_pair().input_block([{"a": 0, "b": 1}])
        with pytest.raises(NetlistError, match="no assignments"):
            xor_pair().input_block([])

    def test_block_shape_checked(self):
        with pytest.raises(NetlistError, match="3 rows"):
            xor_pair().evaluate_block(np.zeros((2, 4), dtype=np.uint8))

    def test_constant_only_netlist(self):
        netlist = Netlist("consts")
        netlist.add_const("one", 1)
        netlist.add_cell("zero", "INV", ("one",))
        netlist.mark_output("zero")
        block = netlist.input_block([{}, {}])
        assert block.shape == (0, 2)
        assert netlist.evaluate_batch([{}, {}]) == {"zero": [0, 0]}


#: One mixed-type bit: every Python spelling validate_bit accepts.
_bit = st.sampled_from([0, 1, False, True, 0.0, 1.0])


class TestEvaluateBlockProperty:
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 50),
        n_cells=st.integers(2, 24),
        data=st.data(),
    )
    def test_block_evaluation_matches_per_word_evaluate(
        self, seed, n_cells, data
    ):
        netlist = random_netlist(
            seed, n_inputs=4, n_cells=n_cells, n_outputs=2
        )
        batch = data.draw(st.lists(
            st.fixed_dictionaries({name: _bit for name in netlist.inputs}),
            min_size=1, max_size=20,
        ))
        outputs = netlist.evaluate_block(netlist.input_block(batch))
        for index, assignment in enumerate(batch):
            word = netlist.evaluate(assignment)
            assert {
                name: int(bits[index]) for name, bits in outputs.items()
            } == word


class TestSubmitValidation:
    @pytest.mark.parametrize("bad", [0.5, "1", None, 2])
    def test_invalid_bits_raise_at_submit(self, bad):
        executor = CircuitExecutor(n_bits=N_BITS)
        netlist = ripple_carry_adder(4)
        assignment = {name: 0 for name in netlist.inputs}
        assignment["a0"] = bad
        with pytest.raises(EncodingError):
            executor.submit(netlist, [assignment])
        assert executor.pending_words == 0
        executor.flush()
        assert executor.stats["errors"]["request"] == 0
        assert executor.error_count == 0

    @pytest.mark.parametrize("good", [True, 1.0])
    def test_bool_and_float_accepted_at_submit(self, good):
        executor = CircuitExecutor(n_bits=N_BITS)
        netlist = ripple_carry_adder(4)
        assignment = {name: 0 for name in netlist.inputs}
        assignment["a0"] = good
        result = executor.submit(netlist, [assignment]).result()
        reference = dict(assignment, a0=1)
        assert result.correct
        assert {k: v[0] for k, v in result.outputs.items()} == (
            netlist.evaluate(reference)
        )


class TestSignatureMemo:
    def test_memo_tracks_output_edits_and_growth(self):
        netlist = xor_pair()
        first = netlist_signature(netlist)
        assert netlist_signature(netlist) == first
        netlist.mark_output("x")
        marked = netlist_signature(netlist)
        assert marked != first
        netlist.add_input("d")
        assert netlist_signature(netlist) not in (first, marked)

    @pytest.mark.parametrize("edit", ["add_input", "mark_output"])
    def test_edit_after_submit_resolves_as_mutated(self, edit):
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        netlist = xor_pair()
        ticket = executor.submit(netlist, BATCH)
        if edit == "add_input":
            netlist.add_input("d")
        else:
            netlist.mark_output("x")
        executor.flush()
        with pytest.raises(NetlistError, match="mutated"):
            ticket.result()
        assert executor.stats["errors"]["mutated"] == 1


class TestLazyCells:
    def test_cells_survive_scratch_reuse(self, monkeypatch):
        """Request A's records, read only after blocks B and C reused the
        artifact's buffers, equal the eager per-op records of a
        scalar run -- with group 0 of every cell decoding dead."""
        from repro.circuits import compiled

        decode = compiled.decode_phasor_block

        def group0_dead(*args, **kwargs):
            bits, phases, amplitudes, margins, dead = decode(*args, **kwargs)
            dead = dead.copy()
            dead[0] = True
            return bits, phases, amplitudes, margins, dead

        monkeypatch.setattr(compiled, "decode_phasor_block", group0_dead)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        netlist = xor_pair()
        first = executor.submit(netlist, BATCH, strict=False).result()
        assert isinstance(first.cells, LazyCellRecords)
        for flipped in (1, 0):
            other = [{k: flipped for k in entry} for entry in BATCH]
            executor.submit(netlist, other, strict=False)
            executor.flush()
        assert executor.stats["blocks"] == 3
        reference = CircuitEngine(netlist, n_bits=N_BITS).run_scalar(BATCH)
        assert first.failed == [True, True, False]
        assert first.outputs == {"y": [None, None, reference.outputs["y"][2]]}
        assert list(first.cells) == list(reference.cells)
        for name, record in reference.cells.items():
            lazy = first.cells[name]
            assert (lazy.operation, lazy.level) == (
                record.operation, record.level
            )
            assert lazy.bits == [None, None, record.bits[2]]
            assert all(math.isnan(m) for m in lazy.margins[:2])
            assert all(math.isnan(a) for a in lazy.amplitudes[:2])
            np.testing.assert_allclose(
                [lazy.margins[2], lazy.amplitudes[2]],
                [record.margins[2], record.amplitudes[2]],
                rtol=1e-12, atol=1e-12,
            )
        for report, name in zip(first.levels, ("x", "y")):
            assert report.min_margin == pytest.approx(
                reference.cells[name].margins[2], abs=1e-12
            )

    def test_cells_are_read_only_and_pickle_as_dict(self):
        result = CircuitExecutor(n_bits=N_BITS).run(xor_pair(), BATCH)
        with pytest.raises(TypeError):
            result.cells["x"] = None
        clone = pickle.loads(pickle.dumps(result))
        assert type(clone.cells) is dict
        assert clone.cells == result.cells


@pytest.mark.parametrize("netlist", [
    ripple_carry_adder(4),
    majority_tree(9),
    random_netlist(7, n_inputs=5, n_cells=20, n_outputs=3),
], ids=["rca4", "maj9", "rand7"])
def test_wire_round_trip_keeps_schedule_and_signature(netlist):
    clone = Netlist.from_dict(netlist.to_dict())
    assert clone.topological_order() == netlist.topological_order()
    assert [[n.name for n in level] for level in clone.level_schedule()] == [
        [n.name for n in level] for level in netlist.level_schedule()
    ]
    assert netlist_signature(clone) == netlist_signature(netlist)


def _inputs_reversed(netlist):
    """An equal netlist whose inputs were added in reverse order."""
    payload = netlist.to_dict()
    inputs = [e for e in payload["nodes"] if e["kind"] == "input"]
    rest = [e for e in payload["nodes"] if e["kind"] != "input"]
    payload["nodes"] = inputs[::-1] + rest
    return Netlist.from_dict(payload)


class TestInputOrder:
    """Input-block rows follow ``Netlist.inputs``, so netlists whose
    inputs were added in another order must never share a queue or an
    artifact."""

    def _check(self, netlist, result, batch):
        assert result.correct
        for output, bits in result.outputs.items():
            assert bits == [netlist.evaluate(a)[output] for a in batch]

    def test_signature_covers_input_order(self):
        netlist = ripple_carry_adder(4)
        flipped = _inputs_reversed(netlist)
        assert flipped.inputs == netlist.inputs[::-1]
        assert netlist_signature(flipped) != netlist_signature(netlist)

    def test_one_executor_runs_both_orders_bit_exact(self):
        rng = np.random.default_rng(3)
        netlist = ripple_carry_adder(4)
        flipped = _inputs_reversed(netlist)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        tickets = []
        for circuit in (flipped, netlist, flipped):
            batch = [
                {name: int(rng.integers(2)) for name in circuit.inputs}
                for _ in range(5)
            ]
            tickets.append(
                (circuit, batch, executor.submit(circuit, batch))
            )
        executor.flush()
        for circuit, batch, ticket in tickets:
            self._check(circuit, ticket.result(), batch)

    def test_warmed_artifact_is_not_served_to_other_order(self):
        netlist = ripple_carry_adder(4)
        flipped = _inputs_reversed(netlist)
        executor = CircuitExecutor(n_bits=N_BITS)
        executor.warm([netlist])
        batch = [
            {name: int(name in ("a0", "a2", "b1")) for name in flipped.inputs}
        ]
        self._check(flipped, executor.run(flipped, batch), batch)
        self._check(netlist, executor.run(netlist, batch), batch)
        assert executor.cache.misses == 1


def test_topological_order_is_kahn_by_generation():
    """Sources in insertion order, then each generation in fanout order."""
    netlist = Netlist("order")
    netlist.add_input("b")
    netlist.add_input("a")
    netlist.add_cell("late", "XOR2", ("a", "b"))
    netlist.add_cell("deep", "INV", ("late",))
    netlist.add_const("k", 1)
    netlist.add_cell("early", "MAJ3", ("b", "b", "k"))
    assert netlist.topological_order() == (
        "b", "a", "k", "late", "early", "deep"
    )


def test_serving_layers_do_not_import_networkx():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, repro.circuits, repro.serve.daemon; "
        "print('networkx' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.strip() == "False"
