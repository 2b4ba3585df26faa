"""Warm start from netlist JSON; compiled artifacts stay in process.

A daemon warm-starts by compiling netlists before its first request:
``swgate circuit --save-netlist`` writes ``Netlist.to_dict`` JSON,
``swgate serve --warm`` reads it back through ``Netlist.from_dict`` (the
validator the wire uses) and :meth:`CompiledCircuitCache.warm` /
:meth:`CircuitExecutor.warm` compile it.  Pins that a warmed artifact
serves bit-identical results to a fresh compile, with zero compile
misses; that it is never served to bindings of another width; that
malformed files refuse with a typed :mod:`repro.errors` error; and that
no executable payload is ever deserialised -- a pickle handed to
``--warm`` never runs, and no ``src/`` module imports ``pickle``.
"""

import ast
import json
import math
import pathlib
import pickle

import pytest

import repro
from repro.circuits import (
    CircuitExecutor,
    CompiledCircuitCache,
    GateBindings,
    compile_circuit,
    ripple_carry_adder,
)
from repro.circuits.netlist import Netlist
from repro.cli import _load_netlists, main
from repro.errors import NetlistError, ReproError

N_BITS = 2


def xor_pair(title):
    netlist = Netlist(title)
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_input("c")
    netlist.add_cell("x", "XOR2", ("a", "b"))
    netlist.add_cell("y", "XOR2", ("x", "c"))
    netlist.mark_output("y")
    return netlist


BATCH = [
    {"a": 0, "b": 1, "c": 1},
    {"a": 1, "b": 1, "c": 0},
    {"a": 1, "b": 0, "c": 1},
]


def save(netlist, path):
    """What ``swgate circuit --save-netlist`` writes."""
    path.write_text(json.dumps(netlist.to_dict()))
    return path


def assert_results_pinned(left, right, tolerance=1e-12):
    """Outputs bit-identical; margins within ``tolerance``."""
    assert left.outputs == right.outputs
    assert left.expected == right.expected
    assert list(left.failed) == list(right.failed)
    for mine, theirs in zip(left.levels, right.levels):
        if mine.min_margin is None or math.isnan(mine.min_margin):
            assert theirs.min_margin is None or math.isnan(
                theirs.min_margin
            )
        else:
            assert abs(mine.min_margin - theirs.min_margin) <= tolerance


class TestSaveLoadRoundTrip:
    def test_loaded_artifact_matches_fresh_compile(self, tmp_path):
        bindings = GateBindings(n_bits=N_BITS)
        original = compile_circuit(xor_pair("disk"), bindings)
        (netlist,) = _load_netlists([save(xor_pair("disk"), tmp_path / "x")])
        loaded = compile_circuit(netlist, bindings)
        assert loaded.signature == original.signature
        assert loaded.n_bits == original.n_bits
        assert loaded.packable == original.packable
        assert_results_pinned(loaded.run(BATCH), original.run(BATCH))

    def test_round_trip_preserves_trace_mode(self, tmp_path):
        bindings = GateBindings(n_bits=N_BITS)
        original = compile_circuit(xor_pair("trace"), bindings)
        (netlist,) = _load_netlists([save(xor_pair("trace"), tmp_path / "x")])
        loaded = compile_circuit(netlist, bindings)
        assert_results_pinned(
            loaded.run(BATCH, mode="trace"),
            original.run(BATCH, mode="trace"),
        )


class TestLoadRefusals:
    def test_wrong_n_bits_refused(self):
        narrow = GateBindings(n_bits=N_BITS)
        wide = GateBindings(n_bits=N_BITS * 2)
        cache = CompiledCircuitCache(max_entries=4)
        (warmed,) = cache.warm([xor_pair("w")], narrow)
        served = cache.get_or_compile(xor_pair("w"), wide)
        assert served is not warmed
        assert served.n_bits == N_BITS * 2
        assert (cache.hits, cache.misses) == (0, 1)

    def test_tampered_topology_refused(self, tmp_path):
        """A file whose cell reads an undefined node never builds."""
        payload = xor_pair("t").to_dict()
        payload["nodes"][-1]["fanin"] = ["x", "ghost"]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(NetlistError, match="ghost"):
            _load_netlists([path])

    def test_unknown_format_version_refused(self, tmp_path):
        """Valid JSON in another format (here a versioned envelope with
        no node list) is not a netlist."""
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"format": 999, "attrs": {}}))
        with pytest.raises(NetlistError, match="nodes"):
            _load_netlists([path])

    def test_non_artifact_file_refused(self, tmp_path):
        path = tmp_path / "noise.bin"
        for junk in (b"this is not JSON", b"[" * 200_000):
            path.write_bytes(junk)
            with pytest.raises(NetlistError, match="cannot read"):
                _load_netlists([path])

    def test_foreign_pickle_refused(self, tmp_path):
        """A pickle handed to ``swgate serve --warm`` is refused with a
        typed error and never unpickled: its payload would create the
        sentinel file."""
        sentinel = tmp_path / "pwned"

        class Payload:
            def __reduce__(self):
                return open, (str(sentinel), "w")

        path = tmp_path / "rca4.ccz"
        path.write_bytes(pickle.dumps(Payload()))
        with pytest.raises(ReproError):
            main(["serve", "--port", "0", "--warm", str(path)])
        with pytest.raises(NetlistError, match="cannot read"):
            _load_netlists([path])
        assert not sentinel.exists()


class TestWarmStart:
    def test_cache_warm_serves_without_misses(self):
        bindings = GateBindings(n_bits=N_BITS)
        cache = CompiledCircuitCache(max_entries=4)
        warmed = cache.warm([xor_pair("warm")], bindings)
        assert len(warmed) == 1
        assert len(cache) == 1
        assert cache.obs.counter("compile_cache.warmed") == 1
        served = cache.get_or_compile(xor_pair("other-title"), bindings)
        assert served is warmed[0]
        assert (cache.hits, cache.misses) == (1, 0)

    def test_executor_warm_first_request_zero_misses(self):
        """The acceptance bar: a warm-started worker's first request
        never pays compile + calibration."""
        executor = CircuitExecutor(bindings=GateBindings(n_bits=N_BITS))
        executor.warm([ripple_carry_adder(2)])
        result = executor.run(
            ripple_carry_adder(2),
            [{"a0": 1, "a1": 0, "b0": 1, "b1": 1}],
        )
        assert result.correct
        assert executor.cache.misses == 0
        assert executor.cache.hits == 1

    def test_warm_respects_lru_capacity(self):
        bindings = GateBindings(n_bits=N_BITS)
        netlists = [xor_pair("a"), ripple_carry_adder(2),
                    ripple_carry_adder(3)]
        cache = CompiledCircuitCache(max_entries=2)
        warmed = cache.warm(netlists, bindings)
        assert len(warmed) == 3  # all compile...
        assert len(cache) == 2  # ...but the cache stays bounded

    def test_warm_propagates_refusals(self, tmp_path):
        """Anything but a Netlist -- e.g. a path, as warm took before --
        raises a typed error; the netlists before it stay cached."""
        bindings = GateBindings(n_bits=N_BITS)
        cache = CompiledCircuitCache(max_entries=2)
        with pytest.raises(NetlistError, match="Netlist objects"):
            cache.warm([xor_pair("ok"), str(tmp_path / "r.ccz")], bindings)
        assert len(cache) == 1


def test_no_src_module_imports_pickle():
    """Compiled artifacts never leave the process, so nothing under
    ``src/`` has a reason to deserialise executable payloads."""
    banned = {"pickle", "_pickle", "cPickle", "dill", "cloudpickle",
              "shelve"}
    offenders = []
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.relative_to(root)}: {name}" for name in names
                if name.split(".")[0] in banned
            ]
    assert offenders == []
