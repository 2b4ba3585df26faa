"""The daemon of a traced run: a ``CircuitServer`` in this process,
with or without the span wrappers of :mod:`perfbench.tracing`.

    python3 perfbench/traced_server.py '{"trace": true, "n_bits": 8,
        "max_block": 64, "max_latency": 0.005, "cache_size": 16}'

Prints ``listening on URL`` and serves until its standard input
closes; then prints one JSON line with its spans (as
:meth:`Span.row` rows) and its ``executor.*`` and ``compile_cache.*``
counters.  Running the daemon in its own process keeps the load
generator off its interpreter lock, as in a timed run.
"""

import contextlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    cfg = json.loads(sys.argv[1])
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import tracing
    from repro.serve import CircuitServer

    recorder = tracing.Recorder()
    server = CircuitServer(
        n_bits=cfg["n_bits"], max_block=cfg["max_block"],
        max_latency=cfg["max_latency"], cache_size=cfg["cache_size"],
    )
    spans = (tracing.instrument(recorder) if cfg["trace"]
             else contextlib.nullcontext())
    with spans, server:
        print(f"listening on {server.url}", flush=True)
        sys.stdin.read()
    counters = {
        name: value
        for name, value in server.obs.snapshot()["counters"].items()
        if name.startswith(("executor.", "compile_cache."))
    }
    print(json.dumps({
        "spans": [span.row() for span in recorder.spans],
        "counters": counters,
    }), flush=True)


if __name__ == "__main__":
    main()
