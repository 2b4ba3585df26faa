"""The benchmark rows run as a smoke check with timing switched off.

``pytest benchmarks/bench_*.py --benchmark-disable`` executes every row
once without pytest-benchmark's timing, which leaves
``benchmark.stats`` unset; rows must then skip their derived rate
figures instead of failing.  Running the command in a subprocess keeps
the rows from silently rotting between benchmark refreshes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_bench_rows_pass_with_benchmarking_disabled():
    benches = sorted(
        str(path.relative_to(ROOT))
        for path in (ROOT / "benchmarks").glob("bench_*.py")
    )
    assert benches, "no bench_*.py modules found"
    src = str(ROOT / "src")
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src if not pythonpath else src + os.pathsep + pythonpath,
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *benches, "-q",
         "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert "failed" not in summary and "passed" in summary, summary
