"""Benchmark fixtures.

Each benchmark regenerates one paper table/figure through the experiment
harness and prints its paper-versus-measured report (visible with
``pytest benchmarks/ --benchmark-only -s`` and always captured into the
bench log).  pytest-benchmark measures the regeneration cost.

``--bench-json`` additionally snapshots every measured benchmark into
``BENCH_<module>.json`` files at the repo root (one per bench module,
keyed by test name, with the pytest-benchmark stats plus any
``extra_info`` the bench recorded), so the performance trajectory is
tracked across PRs by diffing the snapshots.
"""

import json
from pathlib import Path

import pytest

_STAT_KEYS = ("min", "max", "mean", "stddev", "median", "rounds", "ops")


def bench_seconds(benchmark, stat="mean"):
    """The measured ``stat`` [s] of a timed row, or ``None`` untimed.

    ``--benchmark-disable`` runs every row once as a smoke check and
    leaves ``benchmark.stats`` unset; rows derive their rate figures
    (``words_per_second`` and friends) only when this is not ``None``.
    """
    stats = getattr(benchmark, "stats", None)
    return None if stats is None else getattr(stats.stats, stat)


def print_report(text):
    """Print a report block with a separator, surviving capture."""
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


@pytest.fixture(scope="session")
def byte_gate():
    from repro import byte_majority_gate

    return byte_majority_gate()


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store_true",
        default=False,
        help=(
            "autosave benchmark stats to BENCH_<module>.json files in the "
            "repo root (perf trajectory tracking across PRs)"
        ),
    )


def pytest_sessionfinish(session, exitstatus):
    if not session.config.getoption("--bench-json", default=False):
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    groups = {}
    for bench in bench_session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None:  # collected but never measured (e.g. errored)
            continue
        module = Path(bench.fullname.split("::")[0]).stem
        record = {}
        for key in _STAT_KEYS:
            value = getattr(stats, key, None)
            if value is not None:
                record[key] = float(value)
        extra = getattr(bench, "extra_info", None)
        if extra:
            record["extra_info"] = dict(extra)
        groups.setdefault(module, {})[bench.name] = record
    root = Path(str(getattr(session.config, "rootpath", Path.cwd())))
    for module, records in sorted(groups.items()):
        path = root / f"BENCH_{module}.json"
        path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
        print(f"bench-json: wrote {path}")
