"""Processes the benchmark starts, and the HTTP load it sends them.

:class:`DaemonProcess` runs a daemon -- ``python -m repro.cli serve
--port 0`` (the ``swgate serve`` daemon) or a traced run's
``perfbench/traced_server.py`` -- in its own process and reads back the
URL it prints.  :func:`drive` sends it a generated stream's pre-encoded
bodies from at most two threads, closed or open loop.
:func:`run_probe` launches one cold-start probe
(``perfbench/probe.py``).  CPU time and peak RSS of a child come from
``/proc``.
"""

import http.client
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from urllib.parse import urlsplit

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_URL = re.compile(r"listening on (http://\S+)")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")


def proc_cpu_s(pid):
    """User + system CPU seconds of process ``pid`` (all threads)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid):
    """Peak resident set size (VmHWM) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


#: The ``swgate serve`` daemon, as :class:`DaemonProcess` arguments.
SWGATE_SERVE = ("-m", "repro.cli", "serve", "--port", "0")


class DaemonProcess:
    """One daemon in a child process: ``python -u *argv`` that prints
    ``listening on URL`` once it serves."""

    def __init__(self, root, env, argv, cpus=None):
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *argv],
            cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        self.url = None
        self.output = deque(maxlen=100)
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        # Drained until exit so the child never blocks on a full pipe.
        for line in self.proc.stdout:
            self.output.append(line.rstrip())
            match = _URL.search(line)
            if match and self.url is None:
                self.url = match.group(1)
                self._ready.set()
        self._ready.set()

    @property
    def pid(self):
        return self.proc.pid

    def wait_ready(self, timeout=120.0):
        if not self._ready.wait(timeout) or self.url is None:
            self.close()
            raise RuntimeError(
                "daemon did not start:\n" + "\n".join(self.output)
            )
        return self.url

    def finish(self, timeout=60.0):
        """Close the daemon's standard input, wait for it to exit and
        return its last line of output."""
        self.proc.stdin.close()
        self.proc.wait(timeout=timeout)
        self._reader.join(timeout=10)
        if self.proc.returncode != 0 or not self.output:
            raise RuntimeError(
                "daemon failed:\n" + "\n".join(self.output)
            )
        return self.output[-1]

    def close(self):
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()


def run_probe(root, env, package, request, cpus=None):
    """Run one cold-start probe to its end; returns its reply."""
    job = json.dumps({
        "package": list(package), "netlist": request.netlist.to_dict(),
        "words": request.words, "mode": request.mode,
    })
    proc = subprocess.Popen(
        [sys.executable, PROBE], cwd=root, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if cpus:
        os.sched_setaffinity(proc.pid, cpus)
    try:
        proc.stdin.write(job)
        proc.stdin.close()
        line = proc.stdout.readline()
        err = proc.stderr.read()
    finally:
        proc.wait(timeout=60)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"cold-start probe failed:\n{err}")
    return json.loads(line)


class Connection:
    """Posts requests to a daemon, one TCP connection per request.

    This is what the repository's own client (:class:`ServeClient`, on
    ``urllib``) puts on the wire: ``Connection: close`` and a fresh
    connection for every request.
    """

    def __init__(self, url):
        parts = urlsplit(url)
        self._address = (parts.hostname, parts.port)

    def post(self, body, request_id):
        conn = http.client.HTTPConnection(*self._address, timeout=60)
        try:
            conn.request("POST", "/v1/run", body=body, headers={
                "Content-Type": "application/json",
                "Connection": "close",
                "X-Request-Id": request_id,
            })
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()


@dataclass
class Record:
    """One sent request: when it was due, sent and answered, and (once
    checked) whether the answer was right and the trace it carried."""

    request: object
    rid: str
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    ok: bool = False
    trace: dict = None

    @property
    def latency(self):
        return self.done - self.due

    @property
    def lateness(self):
        return self.sent - self.due


def _drive(url, stream, n_threads, due_of, t_measure, t_end, recorder,
           stop):
    counter = itertools.count()
    records = []
    errors = []
    cpu = []   # per thread: CPU seconds spent sending measured requests

    def worker():
        conn = Connection(url)
        cpu0 = None
        try:
            while True:
                i = next(counter)
                due = due_of(i, time.perf_counter())
                if due >= t_end or stop.is_set():
                    return
                if cpu0 is None and due >= t_measure:
                    cpu0 = time.thread_time()
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                request = stream[i % len(stream)]
                rid = f"bench-{i}"
                sent = time.perf_counter()
                if recorder is None:
                    status, body = conn.post(request.body, rid)
                else:
                    with recorder.span("client.request", rid=rid, root=True):
                        status, body = conn.post(request.body, rid)
                records.append(Record(
                    request, rid, due, sent, time.perf_counter(), status,
                    body,
                ))
        except Exception as exc:  # reported by the caller
            errors.append(exc)
        finally:
            if cpu0 is not None:
                cpu.append(time.thread_time() - cpu0)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    return threads, records, errors, cpu


def drive(url, stream, *, seconds, warmup_s, rate=None, n_threads=2,
          recorder=None, daemon_pid=None, step_s=0.25):
    """Send ``stream`` to ``url`` for ``warmup_s + seconds``.

    Closed loop when ``rate`` is None (each thread sends its next
    request when the previous one is answered); otherwise open loop,
    request ``i`` due at ``start + i / rate`` whatever the replies do.
    Requests due in the last ``seconds`` are measured.  Returns their
    records and the window's readings: its start and end, the CPU
    seconds the sending threads spent on them, and ``(time, daemon CPU
    seconds)`` samples every ``step_s`` over the window (zeros without
    ``daemon_pid``), plus one after the last answer.
    """
    t_start = time.perf_counter() + 0.01
    t_measure = t_start + warmup_s
    t_end = t_measure + seconds
    if rate is None:
        def due_of(i, now):
            return now
    else:
        def due_of(i, now):
            return t_start + i / rate

    def sample():
        cpu = proc_cpu_s(daemon_pid) if daemon_pid else 0.0
        return time.perf_counter(), cpu

    stop = threading.Event()   # set early only if sampling is cut short
    threads, records, errors, cpu = _drive(
        url, stream, n_threads, due_of, t_measure, t_end, recorder, stop
    )
    samples = []
    for thread in threads:
        thread.start()
    try:
        for k in range(int(round(seconds / step_s)) + 1):
            step = t_measure + k * step_s
            time.sleep(max(0.0, step - time.perf_counter()))
            samples.append(sample())
    except BaseException:
        stop.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    samples.append(sample())
    if errors:
        raise errors[0]
    window = [r for r in records if r.due >= t_measure]
    window.sort(key=lambda r: r.due)
    return window, {
        "t_measure": t_measure,
        "t_end": t_end,
        "generator_cpu_s": sum(cpu),
        "samples": samples,
    }
