"""Run one benchmark measurement and print its JSON result.

    python3 perfbench/run.py --workload serve-rca4 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The process re-executes itself once
with the pinned environment (fixed ``PYTHONHASHSEED``, BLAS/OpenMP at
one thread) before importing numpy, and passes the same environment to
every process it starts.  The last line of standard output is the
result object; the line before it is the run's report.
"""

import argparse
import compileall
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import PINNED_ENV, WORKLOADS  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main():
    args = parse_args(sys.argv[1:])
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    # A terminated run still unwinds, so the processes it started stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(1, src)
    # Byte-compile once so every cold start reads cached bytecode.
    compileall.compile_dir(src, quiet=1)
    from perfbench.bench import run

    result, report = run(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
