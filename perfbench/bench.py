"""Workload runners and the metrics they report.

A timed run (``--trace 0``) measures the program as a user runs it and
reports the end-to-end metrics.  A traced run (``--trace 1``) of the
same workload and seed measures half the run on a daemon as it is and
the other half on one with spans around the program's public calls
(:mod:`perfbench.tracing`), and reports the per-layer metrics,
including the tracing overhead between the two halves.  Both run
``perfbench/traced_server.py``, which serves from a ``CircuitServer``
in its own process, so the wrappers can reach it.

On a box with two or more cores the serving side (daemon process,
cold-start probes) runs on one core and the load generator on another;
left to the scheduler, the two sometimes share a core, and on a
2-core VM that alone moved serve-rca4's figures by 10-35% between runs.
"""

import json
import os
import platform
import statistics
import time
from bisect import bisect_right

import numpy as np

from perfbench import PINNED_ENV, load, streams, tracing

#: The daemon's flush policy (the ``swgate serve`` defaults).
MAX_BLOCK = 64
MAX_LATENCY_S = 0.005
#: Cold starts per timed run, half before and half after the measured
#: window so they sample more of the box's slow swings.
N_COLD = 14
#: Cold-start probes per traced run, for the set-up breakdown.
N_PROBE = 3
#: Traffic before each measured window (caches fill, threads settle).
WARMUP_S = 1.0
#: Daemon CPU is sampled every STEP_S seconds of the measured window;
#: a workload's throughput and CPU figures are medians over sub-windows
#: of ``sub_steps`` steps (None: the whole window is one).
STEP_S = 0.25
#: Fixed calibration loop: iterations per timing, timings per reading.
CALIB_ITERS = 300
CALIB_REPEATS = 5

#: The daemon of a traced run.
TRACED_SERVER = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "traced_server.py"
)
#: What a cold-start probe imports: the daemon's own imports.
PROBE_PACKAGES = ("repro.cli", "repro.serve")

#: Per workload: daemon flags, load shape (``rate`` None = closed loop,
#: else open loop in requests/s) and the latency limit ``slo_ok_share``
#: counts against.
WORKLOADS = {
    "serve-rca4": {
        "daemon_args": (),
        "cache_size": 16,
        "rate": None,
        "sub_steps": 4,
        "slo_ms": 100.0,
    },
    "serve-mixed": {
        "daemon_args": ("--cache-size", str(streams.MIXED_CACHE_SIZE)),
        "cache_size": streams.MIXED_CACHE_SIZE,
        "rate": 30.0,
        "sub_steps": None,
        "slo_ms": 250.0,
    },
}

#: Every CPU this process may use, read before any pinning.
ALL_CPUS = os.sched_getaffinity(0)

#: Validity guards: beyond these a run is flagged, not trusted.
GENERATOR_CPU_LIMIT = 0.9
LATENESS_P50_LIMIT_MS = 2.0
TIMER_FLUSH_LIMIT = 0.5


def calibration_ms(cpus):
    """Median time of a fixed numpy + dict loop on ``cpus`` (the
    daemon's core): the box's own speed where the program runs."""
    home = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        a = np.arange(4096.0).reshape(64, 64) / 4096.0
        timings = []
        for _ in range(CALIB_REPEATS):
            table = {}
            started = time.perf_counter()
            for i in range(CALIB_ITERS):
                b = a @ a
                table[i % 97] = float(b[0, 0]) + len(table)
                sum(range(200))
            timings.append((time.perf_counter() - started) * 1e3)
        return statistics.median(timings)
    finally:
        os.sched_setaffinity(0, home)


def environment(server_cpus, generator_cpus):
    import scipy

    return {
        "cpus": {
            "server": sorted(server_cpus or ALL_CPUS),
            "generator": sorted(generator_cpus or ALL_CPUS),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(ALL_CPUS),
        "pinned": {
            key: os.environ.get(key) for key in sorted(PINNED_ENV)
        },
    }


def cpu_plan():
    """(server CPUs, generator CPUs): one core each on a box with two or
    more, so the scheduler never stacks the two on one core."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


def child_env(root):
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _first_request(stream):
    """The cold-start request: the stream's first nominal rca4 one."""
    return next(
        r for r in stream if r.kind == "nominal" and r.netlist_key == "rca4"
    )


def _check_probe(request, reply):
    return streams.check_result(
        request, 200, reply["outputs"], reply["failed"], request.n_words
    )


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
def check_window(window):
    """Parse and check every measured response (outside the timing),
    setting each record's ``ok`` and ``trace``; returns ``window``."""
    for record in window:
        try:
            payload = json.loads(record.body)
        except ValueError:
            payload = None
        if isinstance(payload, dict) and record.status == 200:
            record.ok = streams.check_result(
                record.request, record.status, payload.get("outputs"),
                payload.get("failed", ()), payload.get("n_entries"),
            )
            record.trace = payload.get("trace")
    return window


def _cold_start_daemon(root, env, cfg, request, cpus):
    """Launch a daemon; seconds to its first correct response."""
    daemon = load.DaemonProcess(
        root, env, load.SWGATE_SERVE + cfg["daemon_args"], cpus
    )
    try:
        url = daemon.wait_ready()
        status, body = load.Connection(url).post(request.body, "bench-cold")
        answered = time.perf_counter()
        payload = json.loads(body) if status == 200 else {}
        if not streams.check_result(
            request, status, payload.get("outputs"),
            payload.get("failed", ()), payload.get("n_entries"),
        ):
            raise RuntimeError(f"cold-start response wrong: {body[:300]!r}")
    except BaseException:
        daemon.close()
        raise
    return answered - daemon.launched, daemon


def _serve_timed(root, env, cfg, stream, seconds, cpus):
    """Cold starts around one measured window on the last daemon
    started before it."""
    first = _first_request(stream)
    setups, daemon = [], None
    try:
        for _ in range(N_COLD // 2):
            if daemon is not None:
                daemon.close()
            setup, daemon = _cold_start_daemon(root, env, cfg, first, cpus)
            setups.append(setup)
        window, readings = load.drive(
            daemon.url, stream, seconds=seconds, warmup_s=WARMUP_S,
            rate=cfg["rate"], daemon_pid=daemon.pid, step_s=STEP_S,
        )
        peak_rss = load.proc_peak_rss_mb(daemon.pid)
    finally:
        if daemon is not None:
            daemon.close()
    for _ in range(N_COLD - N_COLD // 2):
        setup, daemon = _cold_start_daemon(root, env, cfg, first, cpus)
        daemon.close()
        setups.append(setup)
    return check_window(window), readings, setups, peak_rss


def _serve_traced(root, env, cfg, stream, seconds, cpus):
    """Half the run on a daemon as it is, half on another with every
    span wrapper in place; each daemon in a process of its own
    (``perfbench/traced_server.py``), like a timed run's."""
    recorder = tracing.Recorder()
    halves = []
    for traced in (False, True):
        daemon = load.DaemonProcess(root, env, [TRACED_SERVER, json.dumps({
            "trace": traced, "n_bits": 8, "max_block": MAX_BLOCK,
            "max_latency": MAX_LATENCY_S, "cache_size": cfg["cache_size"],
        })], cpus)
        try:
            window, readings = load.drive(
                daemon.wait_ready(), stream, seconds=seconds / 2.0,
                warmup_s=WARMUP_S, rate=cfg["rate"],
                recorder=recorder if traced else None,
                daemon_pid=daemon.pid, step_s=STEP_S,
            )
            reply = json.loads(daemon.finish())
        finally:
            daemon.close()
        halves.append((check_window(window), readings))
    recorder.merge(reply["spans"])
    return halves, recorder, reply["counters"]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def rates(window, readings, steps):
    """Per sub-window of ``steps`` sampling steps (one sub-window over
    the whole window when ``steps`` is None): correct words answered
    per second, and daemon CPU microseconds per such word."""
    samples = readings["samples"]
    marks = (samples[:-1][::steps] if steps
             else [samples[0], samples[-1]])
    times = sorted(r.done for r in window)
    words_at = [0]
    for record in sorted(window, key=lambda r: r.done):
        words_at.append(words_at[-1] + record.request.n_words * record.ok)
    words_per_s, cpu_us_per_word = [], []
    for (ta, cpu_a), (tb, cpu_b) in zip(marks, marks[1:]):
        words = (words_at[bisect_right(times, tb)]
                 - words_at[bisect_right(times, ta)])
        words_per_s.append(words / (tb - ta))
        if words:
            cpu_us_per_word.append((cpu_b - cpu_a) / words * 1e6)
    return words_per_s, cpu_us_per_word


def latency_ms(window, q):
    """The ``q`` percentile of the window's request latencies; a wrong
    answer counts as infinitely late."""
    return _percentile(
        [r.latency * 1e3 if r.ok else float("inf") for r in window], q
    )


def end_to_end(window, readings, cfg, setups, peak_rss):
    """The user-visible figures of one timed run.

    Throughput and CPU per word are medians over the run's
    sub-windows, so a few seconds of other load on the host move them
    little; latency percentiles are over every measured request;
    ``setup_s`` is the median of the run's cold starts.
    """
    words_per_s, cpu_us_per_word = rates(window, readings, cfg["sub_steps"])
    slo_s = cfg["slo_ms"] / 1e3
    return {
        "words_per_s": (statistics.median(words_per_s), "1/s"),
        "latency_p50_ms": (latency_ms(window, 50), "ms"),
        "latency_p95_ms": (latency_ms(window, 95), "ms"),
        "slo_ok_share": (
            sum(r.ok and r.latency <= slo_s for r in window) / len(window),
            "share",
        ),
        "cpu_us_per_word": (statistics.median(cpu_us_per_word), "us"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }


def _blocks(window):
    """{block id: (mode, words, execute_s)} of packed blocks."""
    blocks = {}
    for record in window:
        trace = record.trace
        if trace and trace.get("path") == "packed" and trace.get("block_id"):
            blocks[trace["block_id"]] = (
                trace["mode"], trace["block_words"], trace["execute_s"],
            )
    return blocks


def flush_stats(window):
    """Words per packed block and the share flushed before filling."""
    blocks = _blocks(window)
    sizes = [words for _, words, _ in blocks.values()]
    if not sizes:
        return 0.0, 0.0
    return (
        float(np.mean(sizes)),
        sum(words < MAX_BLOCK for words in sizes) / len(sizes),
    )


def _overhead(cfg, traced, untraced):
    """How much the span wrappers slow a run: the share of throughput
    lost on a closed loop; on an open loop, where throughput is the
    offered rate either way, the share added to median latency."""
    if cfg["rate"] is None:
        def figure(half):
            return statistics.median(rates(*half, cfg["sub_steps"])[0])
        return 1.0 - figure(traced) / figure(untraced)
    return latency_ms(traced[0], 50) / latency_ms(untraced[0], 50) - 1.0


def per_layer(recorder, traced, untraced, probes, cfg):
    """The per-layer figures of one traced run."""
    window, readings = traced
    spans = [s for s in recorder.spans if s.start >= readings["t_measure"]]
    selfs = tracing.self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(*names):
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    n_req = max(len(window), 1)
    n_words = max(sum(r.request.n_words for r in window), 1)
    traces = [r.trace for r in window if r.trace]
    packed = [t for t in traces if t["path"] == "packed"]

    # Submits that ran nothing but validation: a submit that flushed a
    # block or served a fallback request has child spans besides the
    # signature hash.
    busy = {s.parent for s in spans if s.name != "netlist.signature"}
    quiet_submits = [s for s in by_name.get("executor.submit", ())
                     if s.id not in busy]
    lookups = by_name.get("compiled.get_or_compile", [])
    misses = [s for s in lookups if s.attrs.get("miss")]
    evals = by_name.get("netlist.evaluate_batch", [])

    blocks = _blocks(window)
    words_per_block, timer_share = flush_stats(window)

    def execute_us(mode):
        chosen = [(w, e) for m, w, e in blocks.values() if m == mode]
        words = sum(w for w, _ in chosen)
        return sum(e for _, e in chosen) / words * 1e6 if words else 0.0

    measured = {r.rid for r in window}
    roots = [s for s in by_name.get("client.request", ())
             if s.rid in measured]
    return {
        "serve.protocol.decode_us_per_req": (
            total("serve.json_loads", "protocol.decode_run_request")
            / n_req * 1e6, "us"),
        "serve.protocol.encode_us_per_req": (
            total("protocol.result_to_wire", "serve.json_dumps")
            / n_req * 1e6, "us"),
        "serve.protocol.req_bytes_per_word": (
            sum(len(r.request.body) for r in window) / n_words, "B"),
        "serve.protocol.resp_bytes_per_word": (
            sum(len(r.body) for r in window) / n_words, "B"),
        "serve.daemon.handler_us_per_req": (
            total("serve.handle_run") / n_req * 1e6, "us"),
        "serve.daemon.transport_us_per_req": (
            (total("client.request") - total("serve.handle_run"))
            / n_req * 1e6, "us"),
        "circuits.executor.submit_us_per_word": (
            sum(s.duration for s in quiet_submits)
            / max(sum(s.attrs["words"] for s in quiet_submits), 1) * 1e6,
            "us"),
        "circuits.executor.queue_wait_ms_p50": (
            statistics.median(t["queue_wait_s"] for t in traces) * 1e3
            if traces else 0.0, "ms"),
        "circuits.executor.words_per_block": (words_per_block, "count"),
        "circuits.executor.timer_flush_share": (timer_share, "share"),
        "circuits.executor.fallback_share": (
            sum(t["path"] == "fallback" for t in traces)
            / max(len(traces), 1), "share"),
        "circuits.netlist.signature_calls_per_req": (
            len(by_name.get("netlist.signature", ())) / n_req, "count"),
        "circuits.netlist.evaluate_batch_us_per_word": (
            sum(s.duration for s in evals)
            / max(sum(s.attrs["words"] for s in evals), 1) * 1e6, "us"),
        "circuits.compiled.cache_hit_rate": (
            (len(lookups) - len(misses)) / max(len(lookups), 1), "share"),
        "circuits.compiled.compile_ms_per_miss": (
            sum(s.duration for s in misses) / max(len(misses), 1) * 1e3,
            "ms"),
        "circuits.compiled.execute_us_per_word.phasor": (
            execute_us("phasor"), "us"),
        "circuits.compiled.execute_us_per_word.trace": (
            execute_us("trace"), "us"),
        "circuits.compiled.decode_us_per_word": (
            sum(t["decode_s"] for t in packed)
            / max(sum(t["n_entries"] for t in packed), 1) * 1e6, "us"),
        "setup.import_s": (
            statistics.median(p["import_s"] for p in probes), "s"),
        "setup.bindings_warm_s": (
            statistics.median(p["warm_s"] for p in probes), "s"),
        "serve.client.cpu_share": (
            readings["generator_cpu_s"]
            / (readings["t_end"] - readings["t_measure"]), "share"),
        "bench.trace_overhead_share": (
            _overhead(cfg, traced, untraced), "share"),
        "bench.span_coverage_share": (
            tracing.covered_share(spans, selfs, [s.id for s in roots]),
            "share"),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(root, workload, seed, seconds, trace):
    """One benchmark run; returns (result dict, report dict)."""
    cfg = WORKLOADS[workload]
    env = child_env(root)
    server_cpus, generator_cpus = cpu_plan()
    if server_cpus:
        # This thread's affinity; the generator threads inherit it.
        os.sched_setaffinity(0, generator_cpus)
    stream = streams.make_stream(workload, seed)
    calib_before = calibration_ms(server_cpus)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "environment": environment(server_cpus, generator_cpus),
    }
    if not trace:
        window, readings, setups, peak_rss = _serve_timed(
            root, env, cfg, stream, seconds, server_cpus
        )
        metrics = end_to_end(window, readings, cfg, setups, peak_rss)
        checked = window
        report["setup_samples_s"] = setups
    else:
        probes = []
        first = _first_request(stream)
        for _ in range(N_PROBE):
            reply = load.run_probe(
                root, env, PROBE_PACKAGES, first, server_cpus
            )
            if not _check_probe(first, reply):
                raise RuntimeError("cold-start probe answered wrongly")
            probes.append(reply)
        (untraced, traced), recorder, counters = _serve_traced(
            root, env, cfg, stream, seconds, server_cpus
        )
        metrics = per_layer(recorder, traced, untraced, probes, cfg)
        checked = untraced[0] + traced[0]
        readings = traced[1]
        report["spans"] = len(recorder.spans)
        report["counters"] = counters
    calib_after = calibration_ms(server_cpus)

    attempted = len(checked)
    failed = sum(not r.ok for r in checked)
    validity = {
        "generator_cpu_share": readings["generator_cpu_s"]
        / (readings["t_end"] - readings["t_measure"]),
    }
    if cfg["rate"] is not None:
        lateness = [r.lateness * 1e3 for r in checked]
        validity["lateness_p50_ms"] = _percentile(lateness, 50)
        validity["lateness_p99_ms"] = _percentile(lateness, 99)
    if workload == "serve-rca4":
        validity["timer_flush_share"] = flush_stats(checked)[1]
    flags = []
    if validity["generator_cpu_share"] > GENERATOR_CPU_LIMIT:
        flags.append("generator_saturated")
    if validity.get("lateness_p50_ms", 0.0) > LATENESS_P50_LIMIT_MS:
        flags.append("sends_fell_behind")
    if validity.get("timer_flush_share", 0.0) > TIMER_FLUSH_LIMIT:
        flags.append("timer_bound")
    validity["flags"] = flags
    report.update({
        "samples": len(checked),
        "latency_percentiles_ms": {
            str(q): latency_ms(checked, q) for q in (50, 90, 95, 99)
        },
        "failed_share": failed / max(attempted, 1),
        "calibration_ms": {"before": calib_before, "after": calib_after},
        "validity": validity,
    })
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return result, report
