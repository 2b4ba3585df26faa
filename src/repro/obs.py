"""``repro.obs`` -- unified metrics and tracing across the stack.

Every hot path in the codebase -- compiled circuit execution, the
coalescing executor, waveform physics, the LLG kernels, the synthesis
pass pipeline -- answers "where did the time go?" through this one
layer instead of ad-hoc ``time.perf_counter()`` calls and bare counter
attributes.  It provides:

:class:`MetricsRegistry`
    A thread-safe store of **counters**, **gauges** and fixed-bucket
    **histograms**, plus an aggregated **span tree** of nested timed
    sections.  Counters, gauges and histogram observations always
    record (they are the serving statistics ``CircuitExecutor.stats``
    and the compile-cache hit counters render from); *timing*
    instrumentation -- :meth:`~MetricsRegistry.span` and
    :meth:`~MetricsRegistry.record` -- is gated by the registry's
    ``enabled`` attribute and reduces to a single attribute check plus
    a shared no-op context manager when disabled, so instrumented hot
    loops cost nothing measurable with profiling off (pinned by a bench
    row in ``benchmarks/bench_circuit_throughput.py``).

Process-wide registry
    :func:`get_registry` returns the process-global registry that
    library-level instrumentation (compile stages, per-level GEMMs,
    waveguide cache hit rates, demag FFTs, LLG step counts, synthesis
    passes) writes to by default.  :func:`enable` / :func:`disable`
    flip its timing switch -- ``swgate ... --profile`` does exactly
    this and prints :func:`report` afterwards.  Components with
    *per-instance* serving statistics (:class:`CircuitExecutor`,
    :class:`CompiledCircuitCache`) own their own registries so two
    executors in one process never mix counts; :func:`report` merges
    any extra registries into one table.

Export
    :meth:`MetricsRegistry.snapshot` returns a JSON-pure dict (every
    value round-trips through :meth:`MetricsRegistry.to_json`);
    ``run_experiment(..., metrics=True)`` attaches one to each
    experiment result, and the ``--bench-json`` benchmarks embed
    efficiency metrics (cache hit rates, GEMM counts) that
    ``benchmarks/compare_bench.py`` diffs across PRs.
    :func:`render_prometheus` renders merged snapshots in the
    Prometheus text exposition format (cumulative buckets,
    ``_sum``/``_count``, sanitized names) so the serving daemon's
    ``/metrics?format=prometheus`` is scrapable by stock tooling.

:class:`EventLog`
    A bounded thread-safe ring of JSON-pure structured events with an
    optional JSON-lines file sink -- the serving daemon's access log,
    slow-request captures and per-class error events (``GET /logs``,
    ``swgate serve --access-log PATH``).

>>> registry = MetricsRegistry(enabled=True)
>>> registry.inc("requests")
>>> registry.inc("requests", 2)
>>> with registry.span("compile"):
...     with registry.span("levelise"):
...         pass
>>> registry.snapshot()["counters"]["requests"]
3
>>> [node["name"] for node in registry.snapshot()["spans"]]
['compile']
>>> registry.disable()
>>> with registry.span("never-recorded"):
...     pass
>>> len(registry.snapshot()["spans"])
1
"""

import json
import math
import re
import threading
import time
from collections import deque
from contextlib import contextmanager

#: Default histogram bucket upper bounds, in seconds -- log-spaced to
#: cover everything from a no-op span (~1e-7 s) to a slow experiment.
DEFAULT_TIME_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class _NoopSpan:
    """Shared do-nothing context manager: the disabled fast path.

    One instance serves every disabled ``span()`` call, so
    the cost of instrumentation with profiling off is one attribute
    check and two trivial method calls -- no allocation, no clock read.
    """

    __slots__ = ()
    elapsed = 0.0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One live timed section; aggregates into the registry's span tree."""

    __slots__ = ("_registry", "name", "_start", "elapsed")

    def __init__(self, registry, name):
        self._registry = registry
        self.name = name
        self.elapsed = None

    def __enter__(self):
        self._registry._push(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self._start
        self._registry._pop(self.elapsed)
        return False


class _Histogram:
    """Fixed-bucket histogram plus running count/sum/min/max."""

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds):
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(
                f"histogram bounds must be sorted, got {bounds!r}"
            )
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value):
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def as_dict(self):
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count if self.count else None,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class _SpanNode:
    """Aggregated node of the span tree (same-name siblings merge)."""

    __slots__ = ("name", "count", "total", "children")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.children = {}

    def child(self, name):
        node = self.children.get(name)
        if node is None:
            node = _SpanNode(name)
            self.children[name] = node
        return node

    def as_dict(self):
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "children": [c.as_dict() for c in self.children.values()],
        }


class MetricsRegistry:
    """Thread-safe counters, gauges, histograms and nested span tracing.

    Parameters
    ----------
    enabled:
        Gates *timing* instrumentation only (:meth:`span`,
        :meth:`record`).  Counters,
        gauges and explicit histogram observations always record --
        they are the always-on serving statistics.  ``None`` (default)
        inherits the process-wide profiling switch at construction
        time (see :func:`enable`).

    Every mutating method takes the registry lock, so concurrent
    writers from multiple threads never lose updates; span nesting is
    tracked per thread (each thread owns its own stack, all merging
    into one aggregated tree).
    """

    def __init__(self, enabled=None):
        self.enabled = _PROFILING if enabled is None else bool(enabled)
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._span_root = _SpanNode("<root>")
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Switches
    # ------------------------------------------------------------------
    def enable(self):
        """Turn timing instrumentation (spans) on."""
        self.enabled = True

    def disable(self):
        """Turn timing instrumentation off (counters keep recording)."""
        self.enabled = False

    # ------------------------------------------------------------------
    # Counters and gauges (always on)
    # ------------------------------------------------------------------
    def inc(self, name, value=1):
        """Add ``value`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name):
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def gauge(self, name, value):
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name, value, bounds=DEFAULT_TIME_BUCKETS):
        """Record ``value`` into histogram ``name`` (created on first use).

        ``bounds`` only matters on the creating call; later observations
        reuse the existing buckets.
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = _Histogram(bounds)
                self._histograms[name] = histogram
            histogram.observe(value)

    def histogram(self, name):
        """Snapshot dict of histogram ``name``, or None."""
        with self._lock:
            histogram = self._histograms.get(name)
            return None if histogram is None else histogram.as_dict()

    # ------------------------------------------------------------------
    # Timing instrumentation (gated by ``enabled``)
    # ------------------------------------------------------------------
    def span(self, name):
        """Context manager timing one nested section of the span tree.

        Disabled registries return a shared no-op object -- the fast
        path is one attribute check.
        """
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name)

    def record(self, name, elapsed):
        """Append one pre-measured leaf span under the current position.

        The migration hook for code that already measured a duration
        (e.g. the synthesis pass pipeline's ``PassStats.elapsed``):
        records exactly like ``with span(name)`` would have, without
        re-timing.  No-op when disabled.
        """
        if not self.enabled:
            return
        self._push(name)
        self._pop(elapsed)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, name):
        self._stack().append(name)

    def _pop(self, elapsed):
        stack = self._stack()
        path = tuple(stack)
        stack.pop()
        with self._lock:
            node = self._span_root
            for name in path:
                node = node.child(name)
            node.count += 1
            node.total += elapsed

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self):
        """JSON-pure dict of everything recorded so far."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: h.as_dict()
                    for name, h in self._histograms.items()
                },
                "spans": [
                    c.as_dict() for c in self._span_root.children.values()
                ],
            }

    def to_json(self, indent=2):
        """The snapshot serialised as JSON text."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self):
        """Drop every counter, gauge, histogram and span."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._span_root = _SpanNode("<root>")

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_spans(self):
        """Multi-line span-tree profile (name, calls, total ms)."""
        snapshot = self.snapshot()
        lines = []

        def walk(node, depth):
            lines.append(
                f"  {'  ' * depth}{node['name']:{32 - 2 * depth}s} "
                f"{node['count']:>6d} calls  "
                f"{node['total'] * 1e3:>10.2f} ms"
            )
            for child in node["children"]:
                walk(child, depth + 1)

        for root in snapshot["spans"]:
            walk(root, 0)
        if not lines:
            return "span tree: (empty -- enable profiling to trace)"
        header = (
            f"  {'span':32s} {'calls':>12s}  {'total':>13s}"
        )
        return "\n".join(["span tree:", header] + lines)

    def render_metrics(self):
        """Multi-line counters / gauges / histograms table."""
        return render_metrics([self.snapshot()])


def merge_snapshots(snapshots):
    """Merge registry snapshot dicts into one counters/gauges/histograms view.

    Counters sum across snapshots, gauges take the last write and
    histograms merge counts/count/sum/min/max -- so a process-global
    registry and a component's private registry export as one surface
    (the merged table of :func:`render_metrics` and the Prometheus
    exposition of :func:`render_prometheus` both build on this).
    """
    counters = {}
    gauges = {}
    histograms = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        gauges.update(snapshot.get("gauges", {}))
        for name, h in snapshot.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = dict(h)
            else:
                merged["count"] += h["count"]
                merged["sum"] += h["sum"]
                for bound in ("min", "max"):
                    values = [
                        v for v in (merged[bound], h[bound])
                        if v is not None
                    ]
                    merged[bound] = (
                        (min(values) if bound == "min" else max(values))
                        if values else None
                    )
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], h["counts"])
                ]
                merged["mean"] = (
                    merged["sum"] / merged["count"]
                    if merged["count"] else None
                )
    return {
        "counters": counters, "gauges": gauges, "histograms": histograms,
    }


def render_metrics(snapshots):
    """Render one merged metrics table from snapshot dicts.

    Counters sum across snapshots, gauges take the last write and
    histograms merge count/sum/min/max -- so a process-global registry
    and a component's private registry print as one table.
    """
    merged = merge_snapshots(snapshots)
    counters = merged["counters"]
    gauges = merged["gauges"]
    histograms = merged["histograms"]
    lines = ["metrics:"]
    for name in sorted(counters):
        lines.append(f"  {name:44s} {counters[name]:>12}")
    for name in sorted(gauges):
        value = gauges[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:44s} {shown:>12}")
    for name in sorted(histograms):
        h = histograms[name]
        if not h["count"]:
            continue
        lines.append(
            f"  {name:44s} n={h['count']} mean={h['mean']:.3g} "
            f"min={h['min']:.3g} max={h['max']:.3g}"
        )
    if len(lines) == 1:
        return "metrics: (none recorded)"
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
#: Content-Type of the Prometheus text exposition format.  Stock
#: scrapers require the ``version=0.0.4`` parameter and reject generic
#: ``text/plain`` responses.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name):
    """Sanitize a metric name into the Prometheus grammar.

    Prometheus names match ``[a-zA-Z_:][a-zA-Z0-9_:]*``; the registry's
    dotted names (``executor.queue_latency_s``) become underscore form
    (``executor_queue_latency_s``).

    >>> prometheus_name("executor.errors.decode")
    'executor_errors_decode'
    >>> prometheus_name("9lives")
    '_9lives'
    """
    sanitized = _PROM_INVALID.sub("_", str(name))
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return sanitized


def _prometheus_value(value):
    """One sample value in Prometheus text syntax."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def render_prometheus(snapshots):
    """Render snapshot dicts in the Prometheus text exposition format.

    Counters export with the conventional ``_total`` suffix, gauges
    verbatim (non-numeric gauge values are skipped -- Prometheus samples
    are floats), and histograms as cumulative ``_bucket{le="..."}``
    series closed by ``le="+Inf"`` plus the ``_sum``/``_count`` pair, so
    ``/metrics?format=prometheus`` is scrapable by stock tooling.
    Snapshots merge exactly as in :func:`render_metrics`
    (:func:`merge_snapshots`).

    >>> registry = MetricsRegistry()
    >>> registry.inc("executor.requests", 3)
    >>> registry.observe("wait", 0.5, bounds=(1.0, 2.0))
    >>> print(render_prometheus([registry.snapshot()]))
    # TYPE executor_requests_total counter
    executor_requests_total 3
    # TYPE wait histogram
    wait_bucket{le="1"} 1
    wait_bucket{le="2"} 1
    wait_bucket{le="+Inf"} 1
    wait_sum 0.5
    wait_count 1
    <BLANKLINE>
    """
    merged = merge_snapshots(snapshots)
    lines = []
    for name in sorted(merged["counters"]):
        prom = prometheus_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prometheus_value(merged['counters'][name])}")
    for name in sorted(merged["gauges"]):
        value = merged["gauges"][name]
        if not isinstance(value, (int, float)):
            continue
        prom = prometheus_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prometheus_value(value)}")
    for name in sorted(merged["histograms"]):
        h = merged["histograms"][name]
        prom = prometheus_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in zip(h["bounds"], h["counts"]):
            cumulative += count
            lines.append(
                f'{prom}_bucket{{le="{format(float(bound), "g")}"}} '
                f"{cumulative}"
            )
        lines.append(f'{prom}_bucket{{le="+Inf"}} {h["count"]}')
        lines.append(f"{prom}_sum {_prometheus_value(h['sum'])}")
        lines.append(f"{prom}_count {h['count']}")
    return "\n".join(lines) + "\n"


def histogram_quantile(histogram, q):
    """Upper-bound quantile estimate from one histogram snapshot dict.

    Walks the cumulative bucket counts and returns the upper bound of
    the bucket containing quantile ``q`` (observations in the overflow
    bucket report the observed ``max``).  ``None`` when the histogram is
    missing or empty.  This is the estimator ``swgate top`` uses for
    p50/p99 queue and request latency.

    >>> h = {"bounds": [1.0, 2.0], "counts": [8, 1, 1], "count": 10,
    ...      "max": 5.0}
    >>> histogram_quantile(h, 0.5)
    1.0
    >>> histogram_quantile(h, 0.99)
    5.0
    """
    if not histogram or not histogram.get("count"):
        return None
    target = q * histogram["count"]
    cumulative = 0
    for bound, count in zip(histogram["bounds"], histogram["counts"]):
        cumulative += count
        if cumulative >= target:
            return float(bound)
    return histogram.get("max")


# ----------------------------------------------------------------------
# Structured event log
# ----------------------------------------------------------------------
def _json_pure(value):
    """Coerce ``value`` into the JSON-pure subset the event ring holds."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_pure(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_pure(v) for v in value]
    # numpy scalars (np.int64 block words, np.float64 latencies) carry
    # their native value through .item(); anything else stringifies.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _json_pure(value.item())
        except (TypeError, ValueError):
            pass
    return str(value)


class EventLog:
    """Bounded thread-safe ring of JSON-pure structured events.

    The serving daemon's access log, slow-request captures and
    per-class error events all land here: each :meth:`emit` stamps a
    monotone sequence number, a wall-clock timestamp and a ``kind``,
    coerces every field into the JSON-pure subset (anything exotic
    stringifies), appends to a fixed-capacity ring (oldest events drop,
    counted by :attr:`dropped`) and -- when a ``sink`` is configured --
    appends one JSON line to it (``swgate serve --access-log PATH``).

    >>> log = EventLog(capacity=2)
    >>> _ = log.emit("access", path="/healthz", status=200)
    >>> _ = log.emit("access", path="/v1/run", status=200)
    >>> _ = log.emit("error", path="/v1/run", status=400)
    >>> [e["kind"] for e in log.tail()]
    ['access', 'error']
    >>> log.dropped
    1
    >>> [e["path"] for e in log.tail(kind="error")]
    ['/v1/run']
    """

    def __init__(self, capacity=512, sink=None):
        if capacity < 1:
            raise ValueError(
                f"event log capacity must be >= 1, got {capacity!r}"
            )
        self.capacity = int(capacity)
        self._events = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._dropped = 0
        self._owns_sink = False
        if sink is None or hasattr(sink, "write"):
            self._sink = sink
        else:
            self._sink = open(sink, "a", encoding="utf-8")
            self._owns_sink = True

    def __len__(self):
        with self._lock:
            return len(self._events)

    @property
    def dropped(self):
        """Events pushed out of the ring by the capacity bound."""
        with self._lock:
            return self._dropped

    def emit(self, kind, **fields):
        """Record one event; returns the stored (JSON-pure) dict."""
        event = {"kind": str(kind)}
        for name, value in fields.items():
            event[name] = _json_pure(value)
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            event["ts"] = time.time()
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(event)
            if self._sink is not None:
                self._sink.write(json.dumps(event, sort_keys=True) + "\n")
                self._sink.flush()
        return event

    def tail(self, n=50, kind=None):
        """The most recent ``n`` events (oldest first), optionally
        filtered to one ``kind``; ``n=None`` returns everything held."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e["kind"] == kind]
        if n is not None and n >= 0:
            events = events[len(events) - min(n, len(events)):]
        return events

    def clear(self):
        """Drop every held event (the sink file is left as written)."""
        with self._lock:
            self._events.clear()

    def close(self):
        """Flush and close a sink this log opened itself."""
        with self._lock:
            if self._sink is not None and self._owns_sink:
                self._sink.close()
            self._sink = None
            self._owns_sink = False


# ----------------------------------------------------------------------
# Process-wide registry and conveniences
# ----------------------------------------------------------------------
_PROFILING = False
_REGISTRY = MetricsRegistry(enabled=False)


def get_registry():
    """The process-global registry library instrumentation writes to."""
    return _REGISTRY


def set_registry(registry):
    """Replace the process-global registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


@contextmanager
def use_registry(registry):
    """Temporarily route global instrumentation into ``registry``."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def enable():
    """Enable timing instrumentation process-wide.

    Flips the global registry's switch and the default inherited by
    registries constructed afterwards (``MetricsRegistry(enabled=None)``,
    the executor/cache per-instance default).
    """
    global _PROFILING
    _PROFILING = True
    _REGISTRY.enable()


def disable():
    """Disable timing instrumentation process-wide."""
    global _PROFILING
    _PROFILING = False
    _REGISTRY.disable()


def profiling():
    """True when :func:`enable` is in effect."""
    return _PROFILING


def span(name):
    """``get_registry().span(name)`` -- the library instrumentation hook."""
    return _REGISTRY.span(name)


def inc(name, value=1):
    """``get_registry().inc(name, value)``."""
    _REGISTRY.inc(name, value)


def observe(name, value, bounds=DEFAULT_TIME_BUCKETS):
    """``get_registry().observe(name, value)``."""
    _REGISTRY.observe(name, value, bounds=bounds)


def record(name, elapsed):
    """``get_registry().record(name, elapsed)``."""
    _REGISTRY.record(name, elapsed)


def report(extra=None):
    """Span-tree profile + merged metrics table, ready to print.

    ``extra`` lists additional registries (e.g. an executor's private
    one) whose counters and histograms merge into the metrics table;
    the span tree always comes from the global registry, where all
    library-level tracing lands.
    """
    snapshots = [_REGISTRY.snapshot()]
    for registry in extra or ():
        snapshots.append(registry.snapshot())
    return "\n".join(
        [_REGISTRY.render_spans(), "", render_metrics(snapshots)]
    )
