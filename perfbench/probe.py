"""Cold-start probe: one fresh interpreter serving one request.

Reads ``{"package", "netlist", "words", "mode"}`` as JSON on standard
input, imports ``package`` (timed as ``import_s``), then builds a
default 8-bit :class:`CircuitExecutor` and runs the request through it
(timed as ``warm_s``: gate bindings, compile, calibration and the first
execution).  Prints one JSON line with both times and the outputs, so
the parent can check the response against its own reference.
"""

import importlib
import json
import os
import sys
import time


def main():
    job = json.loads(sys.stdin.read())
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    started = time.perf_counter()
    for name in job["package"]:
        importlib.import_module(name)
    imported = time.perf_counter()
    from repro.circuits import CircuitExecutor, Netlist

    executor = CircuitExecutor(n_bits=8)
    result = executor.run(
        Netlist.from_dict(job["netlist"]), job["words"], mode=job["mode"]
    )
    warmed = time.perf_counter()
    print(json.dumps({
        "import_s": imported - started,
        "warm_s": warmed - imported,
        "outputs": result.outputs,
        "failed": list(result.failed),
    }), flush=True)


if __name__ == "__main__":
    main()
