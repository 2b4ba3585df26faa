"""The repository benchmark: seeded workloads over ``repro.serve`` and
``repro.circuits``, driven from outside through their public calls.

Run one measurement with::

    python3 perfbench/run.py --workload serve-rca4 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` makes a separate traced run of the
same workload and prints the per-layer metrics.  The last line of
standard output is the JSON result; the line before it is a JSON report
with sample counts, the pinned environment, the calibration loop and
the run's validity flags.
"""

#: Workload names, as ``--workload`` takes them.
WORKLOADS = ("serve-rca4", "serve-mixed")

#: Set in every process the benchmark runs, itself included.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
