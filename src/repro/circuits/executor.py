"""Coalescing circuit execution front end.

A :class:`CircuitExecutor` serves *many* logical circuit-evaluation
requests -- potentially over many distinct netlists -- from one shared
:class:`~repro.circuits.library.GateBindings` (one waveguide model, one
gate template and one memoised weight/basis cache per operation) and
one :class:`~repro.circuits.compiled.CompiledCircuitCache` of packed
artifacts.

Requests enter through :meth:`CircuitExecutor.submit`, which returns an
:class:`ExecutionTicket` immediately; the executor **coalesces** queued
requests that share a coalescing key -- netlist *signature* (content
hash, so structurally equal netlists coalesce even as distinct objects),
execution mode and strictness -- into maximal padded word blocks, and
executes each block through one packed artifact pass
(:meth:`~repro.circuits.compiled.CompiledCircuit.execute_block`): one
cross-op GEMM per level covers every queued request's word groups at
once.  Per-group noise contexts and fault maps keep each request's
realisations bit-identical to a standalone :meth:`CircuitEngine.run`
call (pinned by ``tests/test_circuit_conformance.py``).

Flush policy: a queue flushes when its pending word count reaches
``max_block``, when the oldest queued request exceeds ``max_latency``
seconds (every submit sweeps *all* queues, whatever else it triggered),
on an explicit :meth:`flush` or :meth:`sweep`, or when any ticket's
:meth:`~ExecutionTicket.result` is forced.  The executor itself runs no
threads -- a long-lived front end (``repro.serve``'s daemon) calls
:meth:`sweep` from a background flush thread so ``max_latency`` bounds
queue wait even without fresh traffic.  Submission, flushing and
fallback execution are serialised by one internal lock, so many
threads may submit concurrently; tickets resolve through a
``threading.Event`` and can be awaited without forcing a flush
(:meth:`ExecutionTicket.result` with ``timeout``).
Placement-noise requests skip coalescing and are served eagerly as
*fallbacks*: in trace mode as a one-tenant artifact block (each row's
geometry is drawn inside ``run_batch``), in phasor mode through the
scalar reference :meth:`~repro.circuits.engine.CircuitEngine.run_scalar`
(the packed GEMM bakes nominal weights in).  A netlist whose artifact
cannot calibrate also runs the scalar reference, which raises the
calibration failure lazily.

>>> from repro.circuits.netlist import Netlist
>>> netlist = Netlist("demo")
>>> _ = netlist.add_input("a")
>>> _ = netlist.add_input("b")
>>> _ = netlist.add_cell("s", "XOR2", ("a", "b"))
>>> _ = netlist.mark_output("s")
>>> executor = CircuitExecutor(n_bits=2)
>>> t1 = executor.submit(netlist, [{"a": 0, "b": 1}])
>>> t2 = executor.submit(netlist, [{"a": 1, "b": 1}])
>>> (t1.result().outputs["s"], t2.result().outputs["s"])
([1], [0])
>>> executor.stats["blocks"]  # both requests rode one packed block
1
"""

import threading
import time
import uuid
from dataclasses import dataclass, field, fields

from repro import obs as _obs
from repro.circuits.compiled import CompiledCircuitCache, netlist_signature
from repro.circuits.engine import CircuitEngine, check_mode, normalise_faults
from repro.circuits.library import GateBindings, physical_arity
from repro.errors import (
    EncodingError,
    NetlistError,
    SimulationError,
)


def mint_request_id():
    """A fresh request ID (``req-`` + 12 hex chars of a UUID4)."""
    return f"req-{uuid.uuid4().hex[:12]}"


@dataclass
class RequestTrace:
    """Per-request timing breakdown of one executor submission.

    Minted at :meth:`CircuitExecutor.submit` (when the executor traces
    requests, the default) and filled in as the request moves through
    the serving pipeline: queue wait from submit to flush, the compile
    step (with its cache outcome), the shared packed execution of the
    coalesced block, and this request's own strict-check + decode +
    result construction.  The trace rides on the
    :class:`ExecutionTicket`, is attached to the
    :class:`~repro.circuits.engine.CircuitRunResult` it resolves with,
    and is returned over the wire in ``/v1/run`` responses -- so a slow
    remote request is attributable without server-side spelunking.

    ``block_id`` names the coalesced block the request executed in and
    ``coalesced_with`` lists the *other* request IDs that shared it: a
    slow block is attributable to its tenants.  ``path`` is ``"packed"``
    for coalesced block execution and ``"fallback"`` for requests served
    eagerly outside coalescing (placement noise, uncalibratable cells).
    """

    request_id: str
    mode: str = "phasor"
    path: str = "packed"
    n_entries: int = 0
    queue_wait_s: float = 0.0
    compile_s: float = 0.0
    compile_cache: str = None
    execute_s: float = 0.0
    decode_s: float = 0.0
    block_id: str = None
    block_requests: int = 1
    block_words: int = 0
    coalesced_with: list = field(default_factory=list)

    @property
    def total_s(self):
        """Sum of the recorded stages (the executor-side latency)."""
        return (
            self.queue_wait_s + self.compile_s + self.execute_s
            + self.decode_s
        )

    def as_dict(self):
        """JSON-pure dict (the ``/v1/run`` wire form, ``total_s`` added)."""
        payload = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        payload["coalesced_with"] = list(self.coalesced_with)
        payload["total_s"] = self.total_s
        return payload

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a trace from its wire dict (unknown keys ignored)."""
        names = {f.name for f in fields(cls)}
        return cls(**{
            key: value for key, value in payload.items() if key in names
        })


class ExecutionTicket:
    """Handle on one submitted request; resolves when its block runs."""

    __slots__ = (
        "_executor", "_done", "_result", "_error", "_event", "request_id",
        "trace",
    )

    def __init__(self, executor, request_id=None):
        self._executor = executor
        self._done = False
        self._result = None
        self._error = None
        self._event = threading.Event()
        self.request_id = (
            mint_request_id() if request_id is None else str(request_id)
        )
        self.trace = None

    def _resolve(self, result=None, error=None, trace=None):
        self._result = result
        self._error = error
        if trace is not None:
            self.trace = trace
        self._done = True
        self._event.set()

    @property
    def done(self):
        """True once the request's block has executed."""
        return self._done

    def wait(self, timeout=None):
        """Block until the ticket resolves (or ``timeout`` seconds pass)
        without forcing a flush; returns :attr:`done`.

        This is how a serving front end waits for the executor's own
        flush policy (block high-water mark, latency sweep) to resolve
        the request, keeping coalescing opportunities alive instead of
        flushing a near-empty block immediately.
        """
        self._event.wait(timeout)
        return self._done

    def result(self, timeout=None):
        """The request's :class:`CircuitRunResult`, flushing if needed.

        With ``timeout`` the call first waits that many seconds for the
        executor's own flush policy to resolve the ticket (see
        :meth:`wait`); unresolved tickets then force a :meth:`flush`
        either way.  Raises whatever a standalone strict run would have
        raised (the error is captured per request, so one failing
        request never poisons the rest of its coalesced block).
        """
        if timeout is not None:
            self._event.wait(timeout)
        if not self._done:
            self._executor.flush()
        if not self._done:
            raise SimulationError(
                "request was never executed: its queue was dropped "
                "before this ticket resolved"
            )
        if self._error is not None:
            raise self._error
        return self._result


class _Request:
    """One queued submission plus its validated input block."""

    __slots__ = (
        "netlist", "batch", "faults", "fault_map", "noise", "strict",
        "ticket", "n_entries", "block", "signature",
        "born", "trace",
    )


class CircuitExecutor:
    """Coalesces circuit requests into maximal packed GEMM blocks.

    Parameters
    ----------
    n_bits, waveguide, transducer:
        Forwarded to a fresh :class:`~repro.circuits.library.GateBindings`
        when ``bindings`` is not supplied -- every circuit this executor
        serves shares that one physics configuration (and therefore its
        memoised propagation weights and trace bases).
    bindings:
        An existing bindings object to share (e.g. with engines built
        elsewhere).
    max_block:
        Word-count high-water mark per coalescing queue: submitting the
        request that reaches it flushes the queue immediately.
    max_latency:
        Optional seconds the oldest queued request may wait; every
        submit sweeps *all* queues against it (the executor starts no
        threads itself -- a daemon front end such as ``repro.serve``
        calls :meth:`sweep` periodically so the bound holds without
        fresh traffic).
    cache_size:
        LRU capacity of the compile cache (distinct netlist signatures).
    obs:
        Optional :class:`~repro.obs.MetricsRegistry` holding this
        executor's serving metrics (and, shared onward, its compile
        cache's counters).  Defaults to a private registry so two
        executors in one process never mix counts; pass one explicitly
        to aggregate serving stats into a wider scope (the CLI's
        ``--profile`` report merges it into the process-global view).
    trace_requests:
        When true (the default) every submission mints a
        :class:`RequestTrace` recording its queue wait, compile cache
        outcome, packed execution and decode timings; the trace rides
        on the ticket and the resolved result.  Disable to shed even
        that bookkeeping on hot paths -- tickets then resolve with
        ``trace=None`` exactly as before this field existed.
    events:
        Optional :class:`~repro.obs.EventLog`; when set, each executed
        coalesced block emits one ``"block"`` event naming the block
        and its participating request IDs.
    """

    #: Counter names (under ``executor.``) surfaced by :attr:`stats`.
    _STAT_KEYS = (
        "requests", "words", "blocks", "coalesced_requests", "fallbacks",
    )
    #: Per-request failure classes counted under ``executor.errors.``:
    #: strict decode failures, netlists mutated between submit and
    #: flush, block-level flush exceptions, fallback errors and
    #: any other per-request failure (e.g. result construction).
    _ERROR_KEYS = ("decode", "mutated", "flush", "fallback", "request")

    def __init__(self, n_bits=8, waveguide=None, transducer=None,
                 bindings=None, max_block=64, max_latency=None,
                 cache_size=16, backend=None, obs=None,
                 trace_requests=True, events=None):
        if bindings is None:
            bindings = GateBindings(
                n_bits=n_bits, waveguide=waveguide, transducer=transducer,
                backend=backend,
            )
        self.bindings = bindings
        self.n_bits = bindings.n_bits
        if max_block < 1:
            raise NetlistError(
                f"max_block must be >= 1 word, got {max_block!r}"
            )
        self.max_block = int(max_block)
        self.max_latency = None if max_latency is None else float(max_latency)
        self.obs = obs if obs is not None else _obs.MetricsRegistry()
        self.trace_requests = bool(trace_requests)
        self.events = events
        self.cache = CompiledCircuitCache(
            max_entries=cache_size, obs=self.obs
        )
        # Monotone coalesced-block sequence number (under self._lock);
        # block IDs let an access log's per-request traces be grouped
        # back into the packed blocks that actually executed them.
        self._block_seq = 0
        # One lock serialises queue mutation, flushing and fallback
        # execution: many threads may submit/flush concurrently (the
        # serving daemon does), coalescing still sees a consistent
        # queue.  RLock because a submit-triggered flush re-enters.
        self._lock = threading.RLock()
        self._queues = {}       # key -> list of _Request
        self._queue_words = {}  # key -> pending word count
        self._queue_born = {}   # key -> monotonic time of oldest request

    @property
    def stats(self):
        """Serving counters, rendered from the metrics registry.

        Same keys as the pre-obs ad-hoc dict (``requests``, ``words``,
        ``blocks``, ``coalesced_requests``, ``fallbacks``) plus an
        ``errors`` sub-dict of per-request failure counters.
        """
        stats = {
            key: self.obs.counter(f"executor.{key}")
            for key in self._STAT_KEYS
        }
        stats["errors"] = {
            key: self.obs.counter(f"executor.errors.{key}")
            for key in self._ERROR_KEYS
        }
        return stats

    @property
    def error_count(self):
        """Total requests resolved with an error instead of a result."""
        return sum(
            self.obs.counter(f"executor.errors.{key}")
            for key in self._ERROR_KEYS
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, netlist, assignments_batch, faults=(), noise=None,
               strict=True, mode="phasor", request_id=None):
        """Queue one evaluation request; returns its ticket.

        Validation that a standalone run performs up front (mode, empty
        batch, input presence and 0/1 values, fault plumbing) raises
        here, at the call site that caused it; physics-level failures
        surface later through the ticket.  The batch is validated once,
        into the ``Netlist.input_block`` the flush writes.

        ``request_id`` names the request in traces, events and block
        tenant lists (the serving daemon passes a client-supplied
        ``X-Request-Id`` through here); omitted, a fresh
        ``req-<hex>`` ID is minted.
        """
        check_mode(mode)
        batch = list(assignments_batch)
        request = _Request()
        request.block = netlist.input_block(batch)
        request.netlist = netlist
        request.batch = batch
        request.faults = list(faults)
        request.fault_map = normalise_faults(netlist, request.faults)
        for cell, fault in request.fault_map.items():
            # Mirror FaultySimulator's range validation here so a bad
            # fault raises at its own call site instead of surfacing
            # mid-flush and failing the whole coalesced block.
            if not 0 <= fault.channel < self.n_bits:
                raise EncodingError(
                    f"fault channel {fault.channel} out of range"
                )
            arity = physical_arity(netlist.node(cell).kind)
            if not 0 <= fault.input_index < arity:
                raise EncodingError(
                    f"fault input index {fault.input_index} out of range"
                )
        request.noise = noise
        request.strict = strict
        request.ticket = ExecutionTicket(self, request_id=request_id)
        request.n_entries = len(batch)
        request.signature = netlist_signature(netlist)
        request.born = time.monotonic()
        if self.trace_requests:
            request.trace = RequestTrace(
                request_id=request.ticket.request_id, mode=mode,
                n_entries=request.n_entries,
            )
            request.ticket.trace = request.trace
        else:
            request.trace = None
        self.obs.inc("executor.requests")
        self.obs.inc("executor.words", request.n_entries)

        if noise is not None and noise.position_sigma > 0:
            # Per-entry geometry cannot share a coalesced block.
            self._run_fallback(request, mode)
            return request.ticket

        # Backend identity is part of the coalescing signature: requests
        # may only share a packed block when their artifacts were
        # compiled for the same precision / FFT engine.
        key = (request.signature, mode, strict, self.bindings.backend.key)
        with self._lock:
            self._queues.setdefault(key, []).append(request)
            self._queue_words[key] = (
                self._queue_words.get(key, 0) + request.n_entries
            )
            self._queue_born.setdefault(key, time.monotonic())
            if self._queue_words[key] >= self.max_block:
                self._flush_queue(key)
            # The latency sweep runs unconditionally: a submit that
            # triggered a max_block flush must still bound *other*
            # keys' oldest requests, or mixed traffic lets them wait
            # past max_latency indefinitely.
            self._sweep_stale()
        return request.ticket

    def run(self, netlist, assignments_batch, faults=(), noise=None,
            strict=True, mode="phasor", request_id=None):
        """Submit + resolve in one call (no cross-request coalescing
        beyond whatever is already queued under the same key)."""
        return self.submit(
            netlist, assignments_batch, faults=faults, noise=noise,
            strict=strict, mode=mode, request_id=request_id,
        ).result()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def flush(self):
        """Execute every pending queue (in submission order of keys)."""
        with self._lock:
            for key in list(self._queues):
                self._flush_queue(key)

    def sweep(self):
        """Flush every queue whose oldest request exceeds ``max_latency``.

        Safe to call from any thread at any time (no-op without a
        ``max_latency`` bound or pending traffic); the serving daemon's
        background flush thread drives this so the latency bound holds
        even when no new submits arrive.  Returns the number of queues
        flushed.
        """
        with self._lock:
            return self._sweep_stale()

    def _sweep_stale(self):
        if self.max_latency is None:
            return 0
        now = time.monotonic()
        stale = [
            k for k, born in self._queue_born.items()
            if now - born >= self.max_latency
        ]
        for key in stale:
            self._flush_queue(key)
        return len(stale)

    @property
    def pending_words(self):
        """Words currently queued and not yet executed."""
        with self._lock:
            return sum(self._queue_words.values())

    def _flush_queue(self, key):
        # Per-key queue state is cleared in the ``finally`` below: a
        # flush that raises anywhere must never leave a stale
        # ``_queue_born`` (or words/requests) entry behind, or the
        # max_latency sweep would keep "flushing" a ghost key forever
        # while real bookkeeping drifted.
        try:
            self._flush_requests(key, self._queues.get(key, ()))
        finally:
            self._queues.pop(key, None)
            self._queue_words.pop(key, None)
            self._queue_born.pop(key, None)

    def _flush_requests(self, key, requests):
        if not requests:
            return
        now = time.monotonic()
        for request in requests:
            wait = now - request.born
            self.obs.observe("executor.queue_latency_s", wait)
            if request.trace is not None:
                request.trace.queue_wait_s = wait
        signature, mode = key[0], key[1]
        live = []
        for request in requests:
            # The queue was keyed on the submit-time signature; a
            # netlist mutated since then must not execute against a
            # stale artifact (or, worse, silently against the new
            # topology while its neighbours expect the old one).
            if netlist_signature(request.netlist) != signature:
                self.obs.inc("executor.errors.mutated")
                request.ticket._resolve(error=NetlistError(
                    f"netlist {request.netlist.name!r} was mutated "
                    "between submit and flush; re-submit the request"
                ), trace=request.trace)
                continue
            live.append(request)
        requests = live
        if not requests:
            return
        tracing = self.trace_requests
        compile_s = execute_s = 0.0
        compile_cache = None
        try:
            # Spans go to *this executor's* registry, never the
            # process-global stack: handler threads flushing here must
            # not interleave span trees with whatever the main thread
            # is profiling (see tests/test_compiled_execution.py's
            # registry-isolation regression).
            with self.obs.span("executor/flush"):
                if tracing:
                    misses_before = self.cache.misses
                    compile_started = time.perf_counter()
                artifact = self.cache.get_or_compile(
                    requests[0].netlist, self.bindings
                )
                if tracing:
                    compile_s = time.perf_counter() - compile_started
                    compile_cache = (
                        "miss" if self.cache.misses > misses_before
                        else "hit"
                    )
                if not artifact.packable:
                    for request in requests:
                        self._run_fallback(request, mode, artifact)
                    return
                if tracing:
                    execute_started = time.perf_counter()
                packed, spans = artifact.execute_block(
                    [(r.block, r.noise, r.fault_map) for r in requests],
                    mode, registry=self.obs,
                )
                if tracing:
                    execute_s = time.perf_counter() - execute_started
        except Exception as exc:
            # Should be unreachable after submit-time validation, but
            # any block-level failure -- a compile error, physics
            # ReproError or an unexpected bug -- must still resolve
            # every ticket rather than strand them pending.
            for request in requests:
                if not request.ticket.done:
                    self.obs.inc("executor.errors.flush")
                    request.ticket._resolve(error=exc, trace=request.trace)
            return
        block_words = sum(r.n_entries for r in requests)
        self.obs.inc("executor.blocks")
        self.obs.observe(
            "executor.block_occupancy",
            block_words / (packed.n_groups * self.n_bits),
            bounds=(0.25, 0.5, 0.75, 1.0),
        )
        self.obs.observe(
            "executor.block_words", block_words,
            bounds=(1, 8, 16, 32, 64, 128, 256),
        )
        if len(requests) > 1:
            self.obs.inc("executor.coalesced_requests", len(requests))
        block_id = None
        if tracing:
            self._block_seq += 1
            block_id = f"blk-{self._block_seq}"
            tenant_ids = [r.ticket.request_id for r in requests]
            for request in requests:
                trace = request.trace
                if trace is None:
                    continue
                trace.compile_s = compile_s
                trace.compile_cache = compile_cache
                trace.execute_s = execute_s
                trace.block_id = block_id
                trace.block_requests = len(requests)
                trace.block_words = block_words
                trace.coalesced_with = [
                    rid for rid in tenant_ids
                    if rid != request.ticket.request_id
                ]
            if self.events is not None:
                self.events.emit(
                    "block", block_id=block_id, mode=mode,
                    n_requests=len(requests), n_words=block_words,
                    request_ids=tenant_ids,
                )
        for request, (group_start, group_end) in zip(requests, spans):
            trace = request.trace
            if trace is not None:
                decode_started = time.perf_counter()
            try:
                if request.strict:
                    error = artifact._first_dead(
                        packed, group_start, group_end
                    )
                    if error is not None:
                        self.obs.inc("executor.errors.decode")
                        if trace is not None:
                            trace.decode_s = (
                                time.perf_counter() - decode_started
                            )
                        request.ticket._resolve(error=error, trace=trace)
                        continue
                result = artifact._build_result(
                    packed, request.netlist, group_start, group_end,
                    request.n_entries,
                    request.netlist.evaluate_block(request.block),
                    request.faults, mode,
                )
            except Exception as exc:
                self.obs.inc("executor.errors.request")
                if trace is not None:
                    trace.decode_s = time.perf_counter() - decode_started
                request.ticket._resolve(error=exc, trace=trace)
            else:
                if trace is not None:
                    trace.decode_s = time.perf_counter() - decode_started
                    result.trace = trace
                request.ticket._resolve(result=result, trace=trace)

    def _run_fallback(self, request, mode, artifact=None):
        """Serve one request eagerly, outside coalescing.

        Trace mode runs a one-tenant block of ``artifact`` (looked up
        when not given): ``run_batch`` takes a noise model per row, so
        placement noise rides the compiled path.  Phasor-mode placement
        noise and an unpackable artifact run the scalar reference.
        """
        self.obs.inc("executor.fallbacks")
        trace = request.trace
        if trace is not None:
            trace.path = "fallback"
            execute_started = time.perf_counter()
        with self._lock:
            try:
                if mode == "trace" and artifact is None:
                    artifact = self.cache.get_or_compile(
                        request.netlist, self.bindings
                    )
                if mode == "trace" and artifact.packable:
                    runner = artifact.run
                else:
                    runner = CircuitEngine(
                        request.netlist, bindings=self.bindings
                    ).run_scalar
                result = runner(
                    request.batch,
                    faults=request.faults,
                    noise=request.noise,
                    strict=request.strict,
                    mode=mode,
                )
            except Exception as exc:
                # Mirror _flush_requests: *any* failure -- a physics
                # ReproError or an unexpected TypeError -- must resolve
                # the ticket and land in the error counters, or submit()
                # leaks the exception with the request already counted
                # as served.
                self.obs.inc("executor.errors.fallback")
                if trace is not None:
                    trace.execute_s = time.perf_counter() - execute_started
                request.ticket._resolve(error=exc, trace=trace)
            else:
                if trace is not None:
                    trace.execute_s = time.perf_counter() - execute_started
                    result.trace = trace
                request.ticket._resolve(result=result, trace=trace)

    # ------------------------------------------------------------------
    # Warm start
    # ------------------------------------------------------------------
    def warm(self, netlists):
        """Compile ``netlists`` into the cache ahead of traffic (see
        :meth:`CompiledCircuitCache.warm`): their first requests then
        hit instead of paying compile + calibration.  Returns the
        artifacts."""
        with self._lock:
            return self.cache.warm(netlists, self.bindings)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self):
        """One-line serving summary for CLI reports."""
        stats = self.stats
        errors = self.error_count
        requests = stats["requests"]
        rate = f"{errors / requests:.1%}" if requests else "0.0%"
        line = (
            f"{stats['requests']} requests ({stats['words']} words) in "
            f"{stats['blocks']} packed blocks; "
            f"{stats['coalesced_requests']} coalesced, "
            f"{stats['fallbacks']} fallbacks, "
            f"{errors} errors ({rate} error rate); compile cache "
            f"{self.cache.hits} hits / {self.cache.misses} misses"
        )
        latency = self.obs.histogram("executor.queue_latency_s")
        if latency is not None and latency["count"]:
            line += (
                f"; queue latency mean "
                f"{latency['mean'] * 1e3:.3f} ms over {latency['count']} "
                f"requests"
            )
        return line
