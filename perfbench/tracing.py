"""In-memory spans around the program's public calls, for traced runs.

:class:`Recorder` keeps every span (name, start, end, parent and
request ID) in a list until the run ends; :func:`self_times` turns the
list into per-span self time, a span's duration minus the part of it
its child spans cover.  :func:`instrument` wraps the public calls of
``repro.serve`` and ``repro.circuits`` where their callers look them
up -- class attributes and module globals -- and restores the originals
on exit.  Nothing inside ``src/`` is edited.

Spans of one served request share its request ID: the load generator
opens a ``client.request`` span and sends its ID as ``X-Request-Id``;
the daemon's HTTP handler (``do_POST``, in a handler thread) reads that
header into its ``serve.http`` span, and every span opened below it in
that thread inherits the ID.  The daemon runs in its own process;
:meth:`Recorder.merge` brings its spans into the generator's recorder
and hangs each ``serve.http`` span under the client span of its ID.
"""

import itertools
import json
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid", "attrs")

    def __init__(self, id, name, start, parent=None, rid=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.rid = rid
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def row(self):
        """The span as a JSON-ready list (see :meth:`Recorder.merge`)."""
        return [self.id, self.name, self.start, self.end, self.parent,
                self.rid, self.attrs]


class Recorder:
    """Collects spans from every thread of the process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # request ID -> root (client) span id, for cross-thread parents.
        self.roots = {}

    def _stack(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
        return local.stack

    def open(self, name, rid=None, root=False):
        """Start a span under the calling thread's innermost open span,
        or, in a thread with none open, under request ``rid``'s root."""
        stack = self._stack()
        parent = None
        if stack:
            top = stack[-1]
            parent, rid = top.id, top.rid if rid is None else rid
        elif rid is not None and not root:
            parent = self.roots.get(rid)
        span = Span(next(self._ids), name, time.perf_counter(), parent, rid)
        if root:
            self.roots[rid] = span.id
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name, rid=None, root=False):
        span = self.open(name, rid=rid, root=root)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, func, name):
        """``func`` with every call recorded as a ``name`` span."""
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def merge(self, rows):
        """Add spans another process recorded (:meth:`Span.row` rows),
        renumbered, each top-level one under this recorder's root span
        of its request ID.  ``time.perf_counter`` is the system's
        monotonic clock, so both processes' times compare."""
        ids = {row[0]: next(self._ids) for row in rows}
        for id_, name, start, end, parent, rid, attrs in rows:
            span = Span(
                ids[id_], name, start,
                ids[parent] if parent is not None else self.roots.get(rid),
                rid,
            )
            span.end = end
            span.attrs = attrs
            self.spans.append(span)

    def by_name(self, name):
        return [s for s in self.spans if s.name == name]


def self_times(spans):
    """{span id: self time}: duration minus the union of the child
    intervals, each child clipped to its parent's interval."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
        )
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.duration - covered
    return result


def covered_share(spans, selfs, root_ids):
    """Share of the root spans' time their descendants' self times
    cover: a root's own self time counts as uncovered, so a call the
    spans miss lowers the share."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span.id)
    durations = {span.id: span.duration for span in spans}
    covered = total = 0.0
    for root_id in root_ids:
        total += durations[root_id]
        todo = list(children.get(root_id, ()))
        while todo:
            current = todo.pop()
            covered += selfs[current]
            todo.extend(children.get(current, ()))
    return covered / total if total else 0.0


class _TimedJson:
    """Stand-in for the daemon module's ``json``: same calls, timed."""

    def __init__(self, recorder):
        self.loads = recorder.wrap(json.loads, "serve.json_loads")
        self.dumps = recorder.wrap(json.dumps, "serve.json_dumps")

    def __getattr__(self, name):
        return getattr(json, name)


@contextmanager
def instrument(recorder):
    """Wrap the serving and circuit layers' public calls while active."""
    from repro.circuits import compiled, executor, netlist
    from repro.serve import daemon, protocol

    rec = recorder
    patches = []

    def patch(owner, name, new):
        patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    do_post = daemon._Handler.do_POST

    def traced_do_post(self):
        span = rec.open("serve.http", rid=self.headers.get("X-Request-Id"))
        try:
            return do_post(self)
        finally:
            rec.close(span)

    submit = executor.CircuitExecutor.submit

    def traced_submit(self, netlist, assignments_batch, *args, **kwargs):
        span = rec.open("executor.submit")
        span.attrs["words"] = len(assignments_batch)
        try:
            return submit(self, netlist, assignments_batch, *args, **kwargs)
        finally:
            rec.close(span)

    evaluate_batch = netlist.Netlist.evaluate_batch

    def traced_evaluate_batch(self, assignments_batch):
        span = rec.open("netlist.evaluate_batch")
        span.attrs["words"] = len(assignments_batch)
        try:
            return evaluate_batch(self, assignments_batch)
        finally:
            rec.close(span)

    get_or_compile = compiled.CompiledCircuitCache.get_or_compile

    def traced_get_or_compile(self, netlist, bindings):
        misses = self.misses
        span = rec.open("compiled.get_or_compile")
        try:
            return get_or_compile(self, netlist, bindings)
        finally:
            rec.close(span)
            span.attrs["miss"] = self.misses > misses

    from_dict = netlist.Netlist.__dict__["from_dict"].__func__
    signature = rec.wrap(compiled.netlist_signature, "netlist.signature")

    patch(daemon._Handler, "do_POST", traced_do_post)
    patch(daemon.CircuitServer, "handle_run", rec.wrap(
        daemon.CircuitServer.handle_run, "serve.handle_run"))
    patch(daemon, "json", _TimedJson(rec))
    patch(protocol, "decode_run_request", rec.wrap(
        protocol.decode_run_request, "protocol.decode_run_request"))
    patch(protocol, "result_to_wire", rec.wrap(
        protocol.result_to_wire, "protocol.result_to_wire"))
    patch(netlist.Netlist, "from_dict",
          classmethod(rec.wrap(from_dict, "netlist.from_dict")))
    patch(netlist.Netlist, "evaluate_batch", traced_evaluate_batch)
    patch(executor, "netlist_signature", signature)
    patch(compiled, "netlist_signature", signature)
    patch(executor.CircuitExecutor, "submit", traced_submit)
    patch(executor.ExecutionTicket, "result", rec.wrap(
        executor.ExecutionTicket.result, "executor.ticket_result"))
    patch(compiled.CompiledCircuitCache, "get_or_compile",
          traced_get_or_compile)
    try:
        yield rec
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
