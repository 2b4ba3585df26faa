"""``swgate serve`` -- the JSON-over-HTTP circuit-serving daemon.

:class:`CircuitServer` is a thin, observable network front end on the
coalescing :class:`~repro.circuits.executor.CircuitExecutor`: a
stdlib-only ``ThreadingHTTPServer`` whose handler threads submit
requests and *wait* on their tickets instead of forcing a flush, so
concurrent clients' word batches coalesce into shared packed GEMM
blocks exactly as in-process submitters' do.  A background **flush
thread** calls :meth:`CircuitExecutor.sweep` every
``flush_interval`` seconds, so the executor's ``max_latency`` bound
holds even when no fresh traffic arrives to piggyback on -- the
daemon's end of the executor's lifecycle contract.

Endpoints::

    POST /v1/run        netlist + assignments (+ faults/noise/mode/
                        strict) -> CircuitRunResult wire dict, with a
                        per-request executor timing ``trace``
    GET  /healthz       liveness + uptime + pending queue depth
    GET  /metrics       merged metrics table (text);
                        ?format=json -> registry snapshot() dict;
                        ?format=prometheus -> Prometheus text
                        exposition (scrapeable)
    GET  /stats         executor describe() line + structured stats
    GET  /logs          recent structured events (?n=, ?kind=)

Every ``/v1/run`` carries a request ID -- client-supplied via the
``X-Request-Id`` header or daemon-minted -- that names the request in
its returned trace, the access log and the coalesced block's tenant
list, and is echoed back as a response ``X-Request-Id`` header.
Access, slow-request (latency above ``slow_request_s``), per-class
error and executor block events land in a bounded
:class:`~repro.obs.EventLog` (``GET /logs``), optionally mirrored as
JSON lines to an access-log file (``swgate serve --access-log``).

Strict failures map onto HTTP statuses per
:data:`repro.serve.protocol.ERROR_STATUS` (request errors 400, physics
errors 422, bugs 500) and carry the exception class over the wire, so
remote callers re-raise exactly what in-process callers catch.

Workers start hot by compiling the netlists passed as ``warm=``
(``swgate serve --warm`` reads them from ``Netlist.to_dict`` JSON):
their first requests then hit the compile cache instead of paying
compile + calibration.  Compiled artifacts never leave the process.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from repro import obs as _obs
from repro.circuits.executor import CircuitExecutor, mint_request_id
from repro.serve import protocol

#: Fallback handler-side wait bound (seconds) when the executor has no
#: ``max_latency`` (tickets then resolve via max_block or this force).
_DEFAULT_WAIT = 0.05


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the owning :class:`CircuitServer`."""

    server_version = "swgate-serve"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two writes; with Nagle on, the body
    # waits for the client's delayed ACK (~40 ms) on keep-alive
    # connections.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Access logging lands in the metrics registry, not stderr.
        pass

    def _send(self, status, payload, content_type="application/json",
              headers=()):
        body = (
            payload if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8")
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        app = self.server.app
        started = time.perf_counter()
        path, _, query = self.path.partition("?")
        params = parse_qs(query)
        fmt = params.get("format", [""])[-1]
        if path == "/healthz":
            status = 200
            self._send(status, app.healthz())
        elif path == "/metrics":
            status = 200
            if fmt == "json":
                self._send(status, app.metrics_snapshot())
            elif fmt == "prometheus":
                self._send(
                    status, app.metrics_prometheus().encode("utf-8"),
                    content_type=_obs.PROMETHEUS_CONTENT_TYPE,
                )
            else:
                self._send(
                    status, app.metrics_text().encode("utf-8") + b"\n",
                    content_type=_obs.PROMETHEUS_CONTENT_TYPE,
                )
        elif path == "/stats":
            status = 200
            self._send(status, app.stats())
        elif path == "/logs":
            status = 200
            try:
                n = int(params.get("n", ["50"])[-1])
            except ValueError:
                n = 50
            kind = params.get("kind", [None])[-1]
            self._send(status, app.logs(n=n, kind=kind))
        else:
            status = 404
            self._send(status, {"error": {
                "type": "NotFound", "message": f"no route {path!r}",
            }})
        app.log_access(
            "GET", path, status, time.perf_counter() - started
        )

    def do_POST(self):
        app = self.server.app
        started = time.perf_counter()
        path = self.path.partition("?")[0]
        if path != "/v1/run":
            self._send(404, {"error": {
                "type": "NotFound", "message": f"no route {path!r}",
            }})
            app.log_access(
                "POST", path, 404, time.perf_counter() - started
            )
            return
        request_id = self.headers.get("X-Request-Id") or None
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, TypeError) as exc:
            self._send(400, {"error": {
                "type": "NetlistError",
                "message": f"request body is not valid JSON: {exc}",
            }})
            app.log_access(
                "POST", path, 400, time.perf_counter() - started,
                request_id=request_id,
            )
            return
        status, wire, request_id = app.handle_run(
            payload, request_id=request_id
        )
        self._send(
            status, wire, headers=(("X-Request-Id", request_id),)
        )


class CircuitServer:
    """One serving daemon: HTTP front end + flush thread + executor.

    Parameters
    ----------
    executor:
        An existing :class:`CircuitExecutor` to serve (its ``obs``
        registry backs ``/metrics``); by default the server builds its
        own from the remaining keyword arguments.
    host, port:
        Bind address; port 0 (the default) picks an ephemeral port,
        read back from :attr:`port` / :attr:`url`.
    n_bits, bindings, backend, max_block, max_latency, cache_size, obs:
        Forwarded to the internally-built executor when ``executor`` is
        not supplied.
    warm:
        :class:`~repro.circuits.netlist.Netlist` objects to compile
        into the executor's cache before serving
        (:meth:`CircuitExecutor.warm`).
    flush_interval:
        Seconds between background :meth:`CircuitExecutor.sweep` calls;
        defaults to half the executor's ``max_latency`` (no thread when
        the executor has no latency bound -- tickets then resolve via
        ``max_block`` or the handler's own wait deadline).
    trace_requests:
        Forwarded to the internally-built executor: when true (the
        default) every ``/v1/run`` response carries its per-request
        timing ``trace``.
    events:
        An existing :class:`~repro.obs.EventLog` to record into; by
        default the server builds one of ``log_capacity`` events
        (``log_capacity=0`` disables event logging entirely).
    access_log:
        Optional path (or file-like object) the event log mirrors as
        JSON lines, one object per event (``swgate serve
        --access-log``).
    log_capacity:
        Ring capacity of the internally-built event log.
    slow_request_s:
        ``/v1/run`` latency (seconds) above which a ``slow_request``
        event captures the request's full trace; ``None`` disables the
        capture.
    """

    def __init__(self, executor=None, host="127.0.0.1", port=0, *,
                 n_bits=8, bindings=None, backend=None, max_block=64,
                 max_latency=0.005, cache_size=16, obs=None, warm=(),
                 flush_interval=None, trace_requests=True, events=None,
                 access_log=None, log_capacity=512, slow_request_s=0.5):
        if events is None and log_capacity:
            events = _obs.EventLog(capacity=log_capacity, sink=access_log)
        self.events = events
        self.slow_request_s = (
            None if slow_request_s is None else float(slow_request_s)
        )
        if executor is None:
            executor = CircuitExecutor(
                n_bits=n_bits, bindings=bindings, backend=backend,
                max_block=max_block, max_latency=max_latency,
                cache_size=cache_size, obs=obs,
                trace_requests=trace_requests, events=events,
            )
        elif executor.events is None:
            # Share the daemon's event log with a caller-supplied
            # executor so its block events land beside the access log.
            executor.events = events
        self.executor = executor
        self.obs = executor.obs
        if warm:
            executor.warm(warm)
        if flush_interval is None and executor.max_latency is not None:
            flush_interval = max(executor.max_latency / 2.0, 0.001)
        self.flush_interval = flush_interval
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.app = self
        self._started = time.monotonic()
        self._stop = threading.Event()
        self._flush_thread = None
        self._serve_thread = None

    # -- address -------------------------------------------------------
    @property
    def host(self):
        return self._httpd.server_address[0]

    @property
    def port(self):
        return self._httpd.server_address[1]

    @property
    def url(self):
        """Base URL clients talk to, e.g. ``http://127.0.0.1:8077``."""
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------
    def _flush_loop(self):
        while not self._stop.wait(self.flush_interval):
            self.executor.sweep()
        # Final sweep so no ticket is stranded past shutdown.
        self.executor.flush()

    def _start_flush_thread(self):
        if self.flush_interval is None or self._flush_thread is not None:
            return
        self._flush_thread = threading.Thread(
            target=self._flush_loop, name="swgate-serve-flush", daemon=True,
        )
        self._flush_thread.start()

    def start(self):
        """Serve in background threads; returns the base URL."""
        self._start_flush_thread()
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="swgate-serve-http", daemon=True,
            )
            self._serve_thread.start()
        return self.url

    def serve_forever(self):
        """Serve in the calling thread (the CLI foreground mode)."""
        self._start_flush_thread()
        try:
            self._httpd.serve_forever()
        finally:
            self.close()

    def close(self):
        """Stop serving, join the flush thread, release the socket."""
        self._stop.set()
        if self._serve_thread is not None:
            self._httpd.shutdown()
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        if self._flush_thread is not None:
            self._flush_thread.join(timeout=5.0)
            self._flush_thread = None
        self._httpd.server_close()
        if self.events is not None:
            # Closes only a sink file the event log opened itself; the
            # in-memory ring stays readable after shutdown.
            self.events.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- request handling ----------------------------------------------
    def _wait_timeout(self):
        """How long a handler waits for the flush policy before forcing.

        Twice the latency bound plus two sweep intervals comfortably
        covers the worst-case sweep phase; the force after the deadline
        is a latency fallback, never a correctness requirement.
        """
        if self.executor.max_latency is None or self.flush_interval is None:
            return _DEFAULT_WAIT
        return 2.0 * self.executor.max_latency + 2.0 * self.flush_interval

    def handle_run(self, payload, request_id=None):
        """Decode, submit, await and encode one ``/v1/run`` request.

        Returns ``(status, wire, request_id)``; the request ID is the
        client-supplied one (``X-Request-Id``) or a daemon-minted
        ``req-<hex>``, and names the request in its trace, the access
        log and its block's tenant list.
        """
        started = time.perf_counter()
        self.obs.inc("serve.requests")
        if request_id is None:
            request_id = mint_request_id()
        words = 0
        error = None
        try:
            request = protocol.decode_run_request(payload)
            words = len(request.assignments)
            ticket = self.executor.submit(
                request.netlist,
                request.assignments,
                faults=request.faults,
                noise=request.noise,
                strict=request.strict,
                mode=request.mode,
                request_id=request_id,
            )
            result = ticket.result(timeout=self._wait_timeout())
            status = 200
            wire = protocol.result_to_wire(
                result, include_cells=request.cells
            )
        except Exception as exc:
            error = exc
            status, wire = protocol.error_to_wire(exc)
            self.obs.inc(f"serve.errors.{status}")
            self.obs.inc(f"serve.errors.class.{type(exc).__name__}")
        latency = time.perf_counter() - started
        self.obs.observe("serve.request_s", latency)
        if self.events is not None:
            trace = wire.get("trace") if status == 200 else None
            self.log_access(
                "POST", "/v1/run", status, latency,
                request_id=request_id, words=words,
                block_id=(trace or {}).get("block_id"),
            )
            if error is not None:
                self.events.emit(
                    "error", request_id=request_id, status=status,
                    type=type(error).__name__, message=str(error),
                )
            if (
                self.slow_request_s is not None
                and latency >= self.slow_request_s
            ):
                self.events.emit(
                    "slow_request", request_id=request_id,
                    latency_ms=round(latency * 1e3, 3), words=words,
                    status=status, trace=trace,
                )
        return status, wire, request_id

    # -- introspection endpoints ---------------------------------------
    def healthz(self):
        """Liveness payload: protocol, uptime, queue depth."""
        return {
            "status": "ok",
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_s": time.monotonic() - self._started,
            "pending_words": self.executor.pending_words,
            "n_bits": self.executor.n_bits,
            "backend": self.executor.bindings.backend.tag,
        }

    def log_access(self, method, path, status, latency_s, **fields):
        """Record one ``access`` event (no-op without an event log)."""
        if self.events is None:
            return None
        return self.events.emit(
            "access", method=method, path=path, status=int(status),
            latency_ms=round(latency_s * 1e3, 3), **fields,
        )

    def logs(self, n=50, kind=None):
        """The ``GET /logs`` payload: recent events, oldest first."""
        if self.events is None:
            return {"events": [], "capacity": 0, "dropped": 0}
        return {
            "events": self.events.tail(n, kind=kind),
            "capacity": self.events.capacity,
            "dropped": self.events.dropped,
        }

    def metrics_snapshot(self):
        """The executor registry ``snapshot()`` (JSON-pure dict)."""
        return self.obs.snapshot()

    def metrics_text(self):
        """Merged metrics table: executor registry + process-global."""
        return _obs.render_metrics(
            [self.obs.snapshot(), _obs.get_registry().snapshot()]
        )

    def metrics_prometheus(self):
        """Prometheus text exposition of the merged metrics
        (``GET /metrics?format=prometheus``, scrapeable)."""
        return _obs.render_prometheus(
            [self.obs.snapshot(), _obs.get_registry().snapshot()]
        )

    def stats(self):
        """Structured serving stats + the executor's describe() line."""
        executor = self.executor
        return {
            "describe": executor.describe(),
            "stats": executor.stats,
            "pending_words": executor.pending_words,
            "compile_cache": {
                "entries": len(executor.cache),
                "max_entries": executor.cache.max_entries,
                "hits": executor.cache.hits,
                "misses": executor.cache.misses,
                "evictions": executor.cache.evictions,
                "warmed": executor.obs.counter("compile_cache.warmed"),
            },
        }
