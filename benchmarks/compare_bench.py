"""Diff fresh ``--bench-json`` snapshots against the committed baseline.

Workflow (documented in ``benchmarks/`` and the README):

1. regenerate the snapshots in the working tree::

       PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only --bench-json

2. diff them against the committed versions (the baseline is read from
   git, so the working-tree files can be regenerated in place)::

       python benchmarks/compare_bench.py            # all BENCH_*.json
       python benchmarks/compare_bench.py BENCH_bench_circuit_throughput.json
       python benchmarks/compare_bench.py --ref HEAD~1 --threshold 0.10

For every benchmark present in both snapshots the per-test throughput
delta is reported -- ``words_per_second`` from ``extra_info`` when the
bench records it, pytest-benchmark ``ops`` (rounds/s) otherwise, both
higher-is-better.  Any drop beyond ``--threshold`` (default 25%) is
flagged as a regression and the script exits nonzero, so it can gate a
bench-refresh commit.  Stdlib only.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def committed_snapshot(name, ref):
    """The committed JSON snapshot ``name`` at ``ref`` (None if absent)."""
    proc = subprocess.run(
        ["git", "show", f"{ref}:{name}"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def throughput(record):
    """(metric value, metric name) of one bench record, higher-is-better.

    Tolerates malformed records (wrong types, non-numeric values) by
    returning ``(None, None)`` instead of raising -- a corrupt row in
    one snapshot must not take the whole comparison down.
    """
    if not isinstance(record, dict):
        return None, None
    extra = record.get("extra_info", {})
    try:
        if isinstance(extra, dict) and "words_per_second" in extra:
            return float(extra["words_per_second"]), "words/s"
        if "ops" in record:
            return float(record["ops"]), "ops/s"
        mean = record.get("mean")
        return (1.0 / float(mean), "runs/s") if mean else (None, None)
    except (TypeError, ValueError, ZeroDivisionError):
        return None, None


#: Relative drop in a ``*.hit_rate`` metric (in rate points, 0-1 scale)
#: that triggers an efficiency warning.
HIT_RATE_DROP = 0.10


def bench_metrics(record):
    """The efficiency ``metrics`` sub-dict of one bench record, or {}.

    Tolerates malformed records the same way :func:`throughput` does:
    anything that is not a dict of metrics reads as empty.
    """
    if not isinstance(record, dict):
        return {}
    extra = record.get("extra_info", {})
    if not isinstance(extra, dict):
        return {}
    metrics = extra.get("metrics", {})
    return metrics if isinstance(metrics, dict) else {}


def diff_metrics(name, fresh_record, baseline_record):
    """Efficiency-warning lines for one bench's ``metrics`` sub-dict.

    Warns (never gates) on cache hit-rate collapses: any ``*.hit_rate``
    metric present in both snapshots that dropped by more than
    ``HIT_RATE_DROP`` points -- a compile-cache that stopped hitting is
    an efficiency regression even when throughput hasn't (yet) moved.
    """
    fresh = bench_metrics(fresh_record)
    baseline = bench_metrics(baseline_record)
    lines = []
    for key in sorted(set(fresh) & set(baseline)):
        if not key.endswith(".hit_rate"):
            continue
        try:
            new, old = float(fresh[key]), float(baseline[key])
        except (TypeError, ValueError):
            continue
        if old - new > HIT_RATE_DROP:
            lines.append(
                f"    WARNING {name}: {key} dropped "
                f"{old:.1%} -> {new:.1%} "
                f"(>{HIT_RATE_DROP:.0%} points)"
            )
    return lines


def diff_records(fresh, baseline, threshold):
    """Diff two snapshot dicts; returns ``(lines, regression_count)``.

    Rows present only in ``fresh`` (e.g. a bench just added or renamed)
    are reported as informational "new bench" lines and never gate;
    rows present only in ``baseline`` are reported as removed.  Only rows common to both
    snapshots can count as regressions.  Efficiency warnings from the
    ``metrics`` sub-dict (cache hit-rate collapses) are appended per
    row but never count as regressions.
    """
    lines = []
    regressions = 0
    for name in sorted(set(fresh) | set(baseline)):
        if name not in fresh:
            lines.append(f"  {name}: REMOVED (was in baseline)")
            continue
        if name not in baseline:
            value, unit = throughput(fresh[name])
            shown = f"{value:,.1f} {unit}" if value else "no metric"
            lines.append(f"  {name}: new bench ({shown})")
            continue
        new, unit = throughput(fresh[name])
        old, old_unit = throughput(baseline[name])
        if new is None or old is None or unit != old_unit or old == 0:
            lines.append(f"  {name}: metrics not comparable")
            lines.extend(diff_metrics(name, fresh[name], baseline[name]))
            continue
        delta = (new - old) / old
        tag = ""
        if delta <= -threshold:
            tag = f"  <-- REGRESSION (>{threshold:.0%} drop)"
            regressions += 1
        lines.append(
            f"  {name}: {old:,.1f} -> {new:,.1f} {unit} "
            f"({delta:+.1%}){tag}"
        )
        lines.extend(diff_metrics(name, fresh[name], baseline[name]))
    return lines, regressions


def compare_module(path, ref, threshold, lines):
    """Compare one snapshot file; returns the regression count."""
    fresh = json.loads(path.read_text())
    baseline = committed_snapshot(path.name, ref)
    lines.append(f"{path.name} (baseline: {ref})")
    if baseline is None:
        lines.append(f"  no committed baseline at {ref}: new snapshot")
        return 0
    diff_lines, regressions = diff_records(fresh, baseline, threshold)
    lines.extend(diff_lines)
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=(
            "diff fresh --bench-json snapshots against the committed "
            "BENCH_*.json baselines (throughput deltas, higher is better)"
        )
    )
    parser.add_argument(
        "snapshots",
        nargs="*",
        help="snapshot files to compare (default: all BENCH_*.json at the "
        "repo root)",
    )
    parser.add_argument(
        "--ref",
        default="HEAD",
        help="git ref holding the baseline snapshots (default: HEAD)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative throughput drop flagged as a regression "
        "(default: 0.25)",
    )
    args = parser.parse_args(argv)
    if args.snapshots:
        paths = [ROOT / Path(name).name for name in args.snapshots]
    else:
        paths = sorted(ROOT.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json snapshots found; run pytest benchmarks/ "
              "--benchmark-only --bench-json first")
        return 2
    lines = []
    regressions = 0
    for path in paths:
        if not path.exists():
            print(f"missing snapshot {path.name}; run pytest benchmarks/ "
                  "--benchmark-only --bench-json first")
            return 2
        regressions += compare_module(path, args.ref, args.threshold, lines)
    print("\n".join(lines))
    if regressions:
        print(f"\n{regressions} regression(s) beyond "
              f"{args.threshold:.0%} -- investigate before committing "
              "the refreshed snapshots.")
        return 1
    print("\nno regressions beyond the threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
