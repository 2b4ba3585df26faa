"""Compile-once execution layer: signatures, caches, executor serving.

The conformance harness (:mod:`tests.test_circuit_conformance`) pins the
*numerics* of packed and coalesced execution; this module pins the
*lifecycle*: content-hash signatures of structurally equal netlists,
LRU hit/miss/invalidate behaviour of the compile cache, recompilation
when a netlist grows, and the executor's validation and bookkeeping.
"""

import time

import pytest

from repro.circuits import (
    CellFault,
    CircuitEngine,
    CircuitExecutor,
    CompiledCircuitCache,
    GateBindings,
    compile_circuit,
    netlist_signature,
    ripple_carry_adder,
)
from repro.circuits import executor as executor_module
from repro.circuits.netlist import Netlist
from repro.core.faults import TransducerFault
from repro.errors import EncodingError, NetlistError

N_BITS = 2


def xor_pair(title):
    """A tiny two-XOR netlist; structure is identical for any title."""
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


class _Clock:
    """The executor module's ``time`` with a hand-driven ``monotonic``:
    queues age only when a test moves :attr:`now`."""

    perf_counter = staticmethod(time.perf_counter)

    def __init__(self):
        self.now = 1000.0

    def monotonic(self):
        return self.now


@pytest.fixture()
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr(executor_module, "time", fake)
    return fake


class TestNetlistSignature:
    def test_structural_equality_ignores_object_and_title(self):
        assert netlist_signature(xor_pair("one")) == netlist_signature(
            xor_pair("two")
        )

    def test_topology_edit_changes_signature(self):
        netlist = xor_pair("grow")
        before = netlist_signature(netlist)
        netlist.add_cell("z", "XOR2", ("x", "y"))
        netlist.mark_output("z")
        assert netlist_signature(netlist) != before

    def test_output_marking_changes_signature(self):
        netlist = xor_pair("outputs")
        before = netlist_signature(netlist)
        netlist.mark_output("x")  # same DAG, different observed set
        assert netlist_signature(netlist) != before


class TestCompileCache:
    def test_hit_on_structurally_equal_netlist(self):
        bindings = GateBindings(n_bits=N_BITS)
        cache = CompiledCircuitCache(max_entries=4)
        first = cache.get_or_compile(xor_pair("a"), bindings)
        second = cache.get_or_compile(xor_pair("b"), bindings)
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_miss_after_mutation(self):
        bindings = GateBindings(n_bits=N_BITS)
        cache = CompiledCircuitCache(max_entries=4)
        netlist = xor_pair("mutate")
        first = cache.get_or_compile(netlist, bindings)
        netlist.add_cell("z", "XOR2", ("x", "y"))
        netlist.mark_output("z")
        second = cache.get_or_compile(netlist, bindings)
        assert second is not first
        assert cache.misses == 2
        assert len(cache) == 2

    def test_lru_eviction(self):
        bindings = GateBindings(n_bits=N_BITS)
        cache = CompiledCircuitCache(max_entries=1)
        small = xor_pair("small")
        cache.get_or_compile(small, bindings)
        cache.get_or_compile(ripple_carry_adder(2), bindings)
        assert len(cache) == 1
        cache.get_or_compile(small, bindings)  # evicted -> recompiles
        assert cache.misses == 3
        assert cache.hits == 0

    def test_key_follows_physics_content(self):
        """Regression: the key was ``(signature, n_bits)``, so bindings
        on another waveguide were served the first bindings' artifact."""
        from repro.waveguide import Waveguide

        cache = CompiledCircuitCache(max_entries=4)
        default = GateBindings(n_bits=N_BITS)
        narrow = GateBindings(n_bits=N_BITS, waveguide=Waveguide(width=30e-9))
        first = cache.get_or_compile(xor_pair("a"), default)
        other = cache.get_or_compile(xor_pair("b"), narrow)
        assert other is not first
        assert other.bindings is narrow
        # Equal content in distinct objects still shares one artifact.
        twin = GateBindings(n_bits=N_BITS, waveguide=Waveguide())
        assert cache.get_or_compile(xor_pair("c"), twin) is first
        assert (cache.hits, cache.misses) == (1, 2)

    def test_engine_recompiles_after_growth(self):
        netlist = xor_pair("engine")
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        artifact = engine.compiled()
        assert engine.compiled() is artifact  # stable while unchanged
        assert artifact.topology_revision == netlist.topology_revision
        netlist.add_cell("z", "XOR2", ("x", "y"))
        netlist.mark_output("z")
        regrown = engine.compiled()
        assert regrown is not artifact
        assert regrown.topology_revision == netlist.topology_revision
        result = engine.run(BATCH)
        assert result.outputs == netlist.evaluate_batch(BATCH)

    def test_artifact_runs_standalone(self):
        netlist = xor_pair("direct")
        bindings = GateBindings(n_bits=N_BITS)
        artifact = compile_circuit(netlist, bindings)
        assert artifact.packable
        assert artifact.n_physical_cells == 2
        result = artifact.run(BATCH)
        assert result.outputs == netlist.evaluate_batch(BATCH)

    def test_artifact_refuses_placement_noise_in_both_modes(self):
        """Both modes' packed GEMMs bake the nominal geometry in, so the
        artifact refuses placement noise; the engine serves it through
        the scalar reference instead."""
        from repro.errors import SimulationError
        from repro.waveguide import NoiseModel

        netlist = xor_pair("placed")
        bindings = GateBindings(n_bits=N_BITS)
        artifact = compile_circuit(netlist, bindings)
        noise = NoiseModel(position_sigma=1e-9, seed=5)
        for mode in ("phasor", "trace"):
            with pytest.raises(SimulationError, match="placement noise"):
                artifact.run(BATCH, noise=noise, mode=mode)
        engine = CircuitEngine(netlist, bindings=bindings)
        trace = engine.run(BATCH, noise=noise, strict=False, mode="trace")
        reference = engine.run_scalar(
            BATCH, noise=noise, strict=False, mode="trace"
        )
        assert trace.outputs == reference.outputs
        assert trace.failed == reference.failed


class TestExecutorValidation:
    def test_unknown_mode_rejected(self):
        executor = CircuitExecutor(n_bits=N_BITS)
        with pytest.raises(NetlistError, match="unknown execution mode"):
            executor.submit(xor_pair("m"), BATCH, mode="spice")

    def test_empty_batch_rejected(self):
        executor = CircuitExecutor(n_bits=N_BITS)
        with pytest.raises(NetlistError, match="no assignments"):
            executor.submit(xor_pair("e"), [])

    def test_missing_input_rejected_at_submit(self):
        executor = CircuitExecutor(n_bits=N_BITS)
        with pytest.raises(NetlistError, match="no value supplied"):
            executor.submit(xor_pair("i"), [{"a": 0, "b": 1}])

    def test_fault_range_rejected_at_submit(self):
        """Bad fault coordinates raise at submit, not mid-flush."""
        executor = CircuitExecutor(n_bits=N_BITS)
        fault = CellFault(
            "x", TransducerFault("dead-source", channel=N_BITS, input_index=0)
        )
        with pytest.raises(EncodingError, match="out of range"):
            executor.submit(xor_pair("f"), BATCH, faults=[fault])
        assert executor.pending_words == 0

    def test_max_block_validated(self):
        with pytest.raises(NetlistError, match="max_block"):
            CircuitExecutor(n_bits=N_BITS, max_block=0)


class TestExecutorServing:
    def test_result_forces_flush(self):
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        netlist = xor_pair("lazy")
        ticket = executor.submit(netlist, BATCH)
        assert not ticket.done
        result = ticket.result()  # forces the pending queue to execute
        assert ticket.done
        assert result.outputs == netlist.evaluate_batch(BATCH)

    def test_twins_share_one_compile(self):
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        first = executor.submit(xor_pair("t1"), BATCH)
        second = executor.submit(xor_pair("t2"), BATCH)
        executor.flush()
        assert first.result().outputs == second.result().outputs
        assert executor.cache.misses == 1
        assert executor.stats["blocks"] == 1
        assert executor.stats["coalesced_requests"] == 2

    def test_strict_failure_is_per_ticket(self):
        """A strict error resolves through its own ticket only."""
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        netlist = xor_pair("strict")
        healthy = executor.submit(netlist, BATCH, strict=True)
        assert healthy.result().correct

    def test_describe_mentions_cache_counters(self):
        executor = CircuitExecutor(n_bits=N_BITS)
        executor.run(xor_pair("d"), BATCH)
        text = executor.describe()
        assert "packed blocks" in text
        assert "compile cache" in text


class TestExecutorFailureBookkeeping:
    """Failed flushes must leave no queue residue and count errors.

    Regression class for the ``_queue_born`` audit: a flush that raises
    mid-queue (e.g. out of the compile step) previously could strand
    per-key state, so the latency sweep kept chasing a ghost key.  All
    per-key bookkeeping now clears in a ``finally`` and every failure
    class lands in a distinct ``executor.errors.*`` counter.
    """

    def test_failed_flush_leaves_no_residue(self, monkeypatch):
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        netlist = xor_pair("boom")
        ticket = executor.submit(netlist, BATCH)

        def explode(netlist, bindings):
            raise RuntimeError("compile exploded")

        monkeypatch.setattr(executor.cache, "get_or_compile", explode)
        executor.flush()
        assert executor._queues == {}
        assert executor._queue_words == {}
        assert executor._queue_born == {}
        assert executor.pending_words == 0
        assert ticket.done
        with pytest.raises(RuntimeError, match="compile exploded"):
            ticket.result()
        assert executor.stats["errors"]["flush"] == 1
        assert executor.error_count == 1

    def test_max_latency_still_triggers_after_failed_flush(
        self, monkeypatch
    ):
        executor = CircuitExecutor(
            n_bits=N_BITS, max_block=1024, max_latency=0.0
        )
        netlist = xor_pair("flaky")
        real = executor.cache.get_or_compile
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient compile failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(executor.cache, "get_or_compile", flaky)
        # max_latency=0 flushes on the submit itself; the flush fails.
        first = executor.submit(netlist, BATCH)
        assert first.done
        with pytest.raises(RuntimeError, match="transient"):
            first.result()
        # No residue survived, so the latency sweep fires again for
        # fresh traffic instead of chasing a stale key.
        second = executor.submit(netlist, BATCH)
        assert second.done
        assert second.result().outputs == netlist.evaluate_batch(BATCH)
        assert executor.stats["errors"]["flush"] == 1

    def test_mutated_netlist_counted(self):
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        netlist = xor_pair("mutant")
        ticket = executor.submit(netlist, BATCH)
        netlist.add_cell("z", "XOR2", ("x", "y"))
        netlist.mark_output("z")
        executor.flush()
        with pytest.raises(NetlistError, match="mutated"):
            ticket.result()
        assert executor.stats["errors"]["mutated"] == 1
        assert executor.error_count == 1

    def test_strict_decode_error_counted(self, monkeypatch):
        """A dead strict decode lands in errors.decode, per ticket."""
        from repro.circuits import compiled as compiled_mod
        from repro.errors import SimulationError

        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        netlist = xor_pair("dead")
        ticket = executor.submit(netlist, BATCH, strict=True)
        monkeypatch.setattr(
            compiled_mod.CompiledCircuit,
            "_first_dead",
            lambda self, packed, start, end: SimulationError(
                "decode of cell 'y' is dead"
            ),
        )
        executor.flush()
        assert ticket.done
        with pytest.raises(SimulationError, match="dead"):
            ticket.result()
        assert executor.stats["errors"]["decode"] == 1
        assert executor.error_count == 1

    def test_healthy_traffic_counts_no_errors(self):
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        executor.run(xor_pair("clean"), BATCH)
        assert executor.error_count == 0
        assert all(
            count == 0 for count in executor.stats["errors"].values()
        )

    def test_sweep_runs_even_when_submit_flushes_another_key(self):
        """Regression: the latency sweep used to live in an ``elif``
        after the max_block check, so a submit that flushed its *own*
        queue skipped the sweep and left other keys' stale requests
        waiting past ``max_latency`` for as long as mixed traffic kept
        hitting the high-water branch."""
        import time as _time

        executor = CircuitExecutor(
            n_bits=N_BITS, max_block=3, max_latency=0.01
        )
        netlist = xor_pair("stale")
        slow = executor.submit(netlist, BATCH[:1])  # 1 word: below mark
        _time.sleep(0.03)  # now older than max_latency
        # A different key (trace mode) whose submit reaches max_block.
        fast = executor.submit(netlist, BATCH, mode="trace")
        assert fast.done  # flushed by its own high-water mark
        assert slow.done  # swept by the same submit, despite the flush
        assert slow.result().outputs == netlist.evaluate_batch(BATCH[:1])

    def test_sweep_method_bounds_latency_without_traffic(self, clock):
        """A same-key submit inside the window waits for a partner, and
        ``sweep()`` (a daemon handler's call at its ticket's deadline)
        flushes it once stale, with no new submit to piggyback on."""
        executor = CircuitExecutor(
            n_bits=N_BITS, max_block=1024, max_latency=0.005
        )
        netlist = xor_pair("idle")
        assert executor.submit(netlist, BATCH).done  # no partner in sight
        ticket = executor.submit(netlist, BATCH)
        assert not ticket.done  # partnered: waits in a young queue
        assert executor.sweep() == 0
        clock.now = ticket.deadline
        assert executor.sweep() == 1
        assert ticket.done
        assert ticket.result().outputs == netlist.evaluate_batch(BATCH)

    def test_describe_reports_error_rate(self):
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        netlist = xor_pair("rate")
        ticket = executor.submit(netlist, BATCH)
        netlist.add_cell("z", "XOR2", ("x", "y"))
        netlist.mark_output("z")
        executor.flush()
        with pytest.raises(NetlistError):
            ticket.result()
        text = executor.describe()
        assert "error rate" in text
        assert "1 errors" in text


class TestPartnerAwareFlush:
    """With ``max_latency`` set, a queue waits only while a same-key
    partner is in sight."""

    def test_lone_submit_resolves_inside_submit(self):
        executor = CircuitExecutor(
            n_bits=N_BITS, max_block=1024, max_latency=60.0
        )
        netlist = xor_pair("lone")
        ticket = executor.submit(netlist, BATCH)
        assert ticket.done
        assert executor.pending_words == 0
        assert ticket.result().outputs == netlist.evaluate_batch(BATCH)
        assert executor.stats["flushes"]["alone"] == 1

    def test_partnered_submit_waits_then_coalesces_on_max_block(self):
        executor = CircuitExecutor(
            n_bits=N_BITS, max_block=2 * len(BATCH), max_latency=60.0
        )
        netlist = xor_pair("pair")
        first = executor.submit(netlist, BATCH)
        assert first.done
        second = executor.submit(netlist, BATCH)
        assert not second.done
        third = executor.submit(netlist, BATCH)
        assert second.done and third.done
        assert second.trace.block_id == third.trace.block_id
        assert second.trace.block_id != first.trace.block_id
        assert third.trace.coalesced_with == [second.request_id]
        assert executor.stats["blocks"] == 2
        assert executor.stats["flushes"] == {
            "full": 1, "alone": 1, "deadline": 0, "forced": 0,
        }

    def test_other_keys_are_no_partners(self):
        executor = CircuitExecutor(
            n_bits=N_BITS, max_block=1024, max_latency=60.0
        )
        netlist = xor_pair("modes")
        assert executor.submit(netlist, BATCH).done
        assert executor.submit(netlist, BATCH, mode="trace").done
        assert executor.submit(netlist, BATCH, strict=False).done
        assert executor.stats["flushes"]["alone"] == 3

    def test_arrival_map_stays_bounded(self, clock):
        """Ever-new netlists spaced beyond the window never grow it."""
        executor = CircuitExecutor(
            n_bits=N_BITS, max_block=1024, max_latency=0.005
        )
        for index in range(10_000):
            clock.now += 0.006
            netlist = Netlist(f"n{index}")
            netlist.add_input(f"in{index}")
            netlist.add_cell("out", "INV", (f"in{index}",))
            netlist.mark_output("out")
            assert executor.submit(netlist, [{f"in{index}": 1}]).done
            assert len(executor._arrivals) == 1
        assert executor.stats["flushes"]["alone"] == 10_000

    def test_submit_sweeps_another_keys_partnered_queue(self, clock):
        executor = CircuitExecutor(
            n_bits=N_BITS, max_block=1024, max_latency=1.0
        )
        netlist = xor_pair("stale")
        executor.submit(netlist, BATCH)
        waiting = executor.submit(netlist, BATCH)
        assert not waiting.done
        clock.now += 1.0
        assert executor.submit(netlist, BATCH, mode="trace").done
        assert waiting.done
        assert executor.stats["flushes"]["deadline"] == 1

    def test_each_flush_reason_counts_once(self, clock):
        executor = CircuitExecutor(
            n_bits=N_BITS, max_block=2 * len(BATCH), max_latency=1.0
        )
        netlist = xor_pair("why")
        executor.submit(netlist, BATCH)  # alone
        executor.submit(netlist, BATCH)  # waits for a partner ...
        executor.submit(netlist, BATCH)  # ... which fills the block: full
        executor.submit(netlist, BATCH).result()  # forced
        stale = executor.submit(netlist, BATCH)
        clock.now += 1.0
        assert executor.sweep() == 1  # deadline
        assert stale.done
        assert executor.stats["flushes"] == {
            "full": 1, "alone": 1, "deadline": 1, "forced": 1,
        }
        counters = executor.obs.snapshot()["counters"]
        assert all(
            counters[f"executor.flushes.{reason}"] == 1
            for reason in ("full", "alone", "deadline", "forced")
        )
        assert "flushes 1 full, 1 alone, 1 deadline, 1 forced" in (
            executor.describe()
        )

    def test_no_bound_keeps_todays_queueing(self):
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        ticket = executor.submit(xor_pair("unbounded"), BATCH)
        assert not ticket.done
        assert ticket.deadline is None
        assert executor._arrivals == {}
        ticket.result()
        assert executor.stats["flushes"]["forced"] == 1


class TestFallbackEngineLifecycle:
    """Error handling of the fallback path.

    Regression class for a leak: a non-``ReproError`` out of the
    fallback run escaped :meth:`_run_fallback` with the ticket stranded
    unresolved and the request already counted as served.
    """

    #: Placement noise in phasor mode forces the fallback path onto the
    #: scalar reference (the packed GEMM bakes nominal geometry in).
    @staticmethod
    def _noise():
        from repro.waveguide.noise import NoiseModel

        return NoiseModel(position_sigma=5e-9, seed=7)

    def test_fallback_resolves_ticket_on_non_repro_error(
        self, monkeypatch
    ):
        """A ``TypeError`` out of the scalar reference must resolve the
        ticket and count as a fallback error, not escape ``submit``
        with the ticket stranded."""
        from repro.circuits import engine as engine_mod

        executor = CircuitExecutor(n_bits=N_BITS)

        def broken_run(self, *args, **kwargs):
            raise TypeError("hook returned the wrong shape")

        monkeypatch.setattr(
            engine_mod.CircuitEngine, "run_scalar", broken_run
        )
        ticket = executor.submit(
            xor_pair("broken"), BATCH, noise=self._noise()
        )
        assert ticket.done
        with pytest.raises(TypeError, match="wrong shape"):
            ticket.result()
        assert executor.stats["errors"]["fallback"] == 1
        assert executor.error_count == 1

    def test_fallback_repro_error_still_counted(self, monkeypatch):
        """The pre-fix behaviour (ReproError handling) is preserved:
        strict physics failures resolve through the ticket."""
        from repro.circuits import engine as engine_mod
        from repro.errors import SimulationError

        executor = CircuitExecutor(n_bits=N_BITS)

        def dead_run(self, *args, **kwargs):
            raise SimulationError("decode of cell 'y' is dead")

        monkeypatch.setattr(
            engine_mod.CircuitEngine, "run_scalar", dead_run
        )
        ticket = executor.submit(
            xor_pair("sick"), BATCH, noise=self._noise(), strict=True
        )
        assert ticket.done
        with pytest.raises(SimulationError, match="dead"):
            ticket.result()
        assert executor.stats["errors"]["fallback"] == 1


class TestRequestTraces:
    """Per-request tracing on the executor itself (PR 10)."""

    def test_trace_rides_ticket_and_result(self):
        executor = CircuitExecutor(n_bits=N_BITS)
        ticket = executor.submit(xor_pair("traced"), BATCH)
        result = ticket.result()
        trace = result.trace
        assert trace is ticket.trace
        assert trace.request_id == ticket.request_id
        assert trace.path == "packed"
        assert trace.n_entries == len(BATCH)
        assert trace.compile_cache == "miss"
        assert trace.block_id == "blk-1"
        assert trace.compile_s > 0.0
        assert trace.execute_s > 0.0
        assert trace.decode_s > 0.0

    def test_compile_cache_hit_recorded_on_second_block(self):
        executor = CircuitExecutor(n_bits=N_BITS)
        first = executor.run(xor_pair("hot"), BATCH)
        second = executor.run(xor_pair("hot"), BATCH)
        assert first.trace.compile_cache == "miss"
        assert second.trace.compile_cache == "hit"
        assert second.trace.block_id == "blk-2"

    def test_coalesced_tenants_listed(self):
        executor = CircuitExecutor(n_bits=N_BITS)
        t1 = executor.submit(xor_pair("co"), BATCH, request_id="one")
        t2 = executor.submit(xor_pair("co"), BATCH, request_id="two")
        executor.flush()
        assert t1.trace.coalesced_with == ["two"]
        assert t2.trace.coalesced_with == ["one"]
        assert t1.trace.block_id == t2.trace.block_id
        assert t1.trace.block_requests == 2
        assert t1.trace.block_words == 2 * len(BATCH)

    def test_trace_survives_error_resolution(self):
        executor = CircuitExecutor(n_bits=N_BITS)
        ticket = executor.submit(xor_pair("mut"), BATCH)
        ticket2_netlist = xor_pair("mut")
        ticket2 = executor.submit(ticket2_netlist, BATCH)
        ticket2_netlist.add_input("d")  # mutate between submit and flush
        executor.flush()
        with pytest.raises(NetlistError, match="mutated"):
            ticket2.result()
        assert ticket2.trace is not None  # breakdown survives the error
        assert ticket.result().trace.block_id == "blk-1"

    def test_disabled_tracing_resolves_with_none(self):
        executor = CircuitExecutor(n_bits=N_BITS, trace_requests=False)
        ticket = executor.submit(xor_pair("fast"), BATCH)
        result = ticket.result()
        assert ticket.trace is None
        assert result.trace is None
        assert result.correct

    def test_wire_round_trip_preserves_breakdown(self):
        from repro.circuits.executor import RequestTrace

        executor = CircuitExecutor(n_bits=N_BITS)
        trace = executor.run(xor_pair("wire"), BATCH).trace
        rebuilt = RequestTrace.from_dict(trace.as_dict())
        assert rebuilt.as_dict() == trace.as_dict()
        # Unknown wire keys (a newer server) are ignored, not fatal.
        widened = dict(trace.as_dict(), future_field=1)
        assert RequestTrace.from_dict(widened).request_id == (
            trace.request_id
        )


class TestRegistryIsolation:
    """An executor's private registry must never leak spans onto the
    process-global stack, whatever thread flushes (PR 10 regression:
    ``_flush_requests`` used the global ``obs.span`` instead of the
    executor's own registry)."""

    def test_flush_spans_land_in_executor_registry_only(self):
        from repro import obs

        global_registry = obs.MetricsRegistry(enabled=True)
        executor = CircuitExecutor(
            n_bits=N_BITS, obs=obs.MetricsRegistry(enabled=True)
        )
        with obs.use_registry(global_registry):
            executor.run(xor_pair("iso"), BATCH)
        global_names = {
            node["name"] for node in global_registry.snapshot()["spans"]
        }
        assert "executor/flush" not in global_names
        executor_names = {
            node["name"] for node in executor.obs.snapshot()["spans"]
        }
        assert "executor/flush" in executor_names

    def test_concurrent_submits_never_touch_global_span_stack(self):
        import threading

        from repro import obs

        global_registry = obs.MetricsRegistry(enabled=True)
        executor = CircuitExecutor(
            n_bits=N_BITS, max_latency=0.001,
            obs=obs.MetricsRegistry(enabled=True),
        )
        errors = []

        def worker(index):
            try:
                ticket = executor.submit(xor_pair("conc"), BATCH)
                ticket.result(timeout=1.0)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        with obs.use_registry(global_registry):
            # The main thread holds an open span while handler-style
            # threads submit and flush: their executor spans must not
            # appear as children of (or siblings to) this one.
            with global_registry.span("main-work"):
                threads = [
                    threading.Thread(target=worker, args=(index,))
                    for index in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
        assert not errors
        spans = global_registry.snapshot()["spans"]
        assert [node["name"] for node in spans] == ["main-work"]
        (main,) = spans
        assert main["children"] == []
        assert executor.obs.counter("executor.requests") == 8
