"""Benchmark: DSE wall time with the memoized evaluation engine.

Runs the Table III suite through ``auto_dse`` twice -- once with every
caching layer disabled, once with the memoized engine -- verifies the
two searches return bit-identical designs, and records the before/after
wall time to ``BENCH_dse.json`` at the repo root.  The acceptance bar
is a >= 2x suite-wide wall-time reduction at the default benchmark
size.

The frontier-mode companion (``test_dse_pareto_surrogate_savings``)
runs the same suite under ``objective="pareto"`` with the surrogate
skip-by-signature path on and off, asserts the two frontiers are
bit-identical per workload, and records the exact-estimator calls
saved as a ``pareto`` row in the same JSON.  Its bar: the surrogate
skips >= 25% of exact estimator calls on at least one workload while
changing nothing about the result.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.dse import auto_dse
from repro.util import atomic_write
from repro.workloads import polybench
from repro.dse.options import DseOptions

WORKLOADS = ["gemm", "bicg", "mm2", "mm3", "gesummv"]

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dse.json"


def _merge_result(updates):
    """Merge ``updates`` into BENCH_dse.json, keeping other rows.

    Both benchmarks in this module record into the same file; merging
    (instead of overwriting) lets either run alone without erasing the
    other's most recent row.
    """
    document = {}
    if RESULT_PATH.exists():
        try:
            document = json.loads(RESULT_PATH.read_text())
        except ValueError:
            document = {}
    document.update(updates)
    atomic_write(RESULT_PATH, json.dumps(document, indent=2) + "\n")


def _run_suite(size, cache):
    per_workload = {}
    results = {}
    for name in WORKLOADS:
        function = getattr(polybench, name)(size)
        start = time.perf_counter()
        results[name] = auto_dse(function, options=DseOptions(cache=cache))
        per_workload[name] = time.perf_counter() - start
    return per_workload, results


def test_dse_cache_speedup(polybench_size, benchmark):
    uncached_times, uncached = _run_suite(polybench_size, cache=False)

    cached_results = {}
    cached_times = {}

    def run_cached():
        times, results = _run_suite(polybench_size, cache=True)
        cached_times.clear()
        cached_times.update(times)
        cached_results.clear()
        cached_results.update(results)

    benchmark(run_cached)

    for name in WORKLOADS:
        assert cached_results[name].report == uncached[name].report, name
        assert cached_results[name].tile_vectors() == uncached[name].tile_vectors(), name
        assert cached_results[name].evaluations == uncached[name].evaluations, name

    uncached_s = sum(uncached_times.values())
    cached_s = sum(cached_times.values())
    ratio = uncached_s / cached_s
    payload = {
        "size": polybench_size,
        "cpus": os.cpu_count() or 1,
        "uncached_s": round(uncached_s, 4),
        "cached_s": round(cached_s, 4),
        "speedup": round(ratio, 2),
        "per_workload": {
            name: {
                "uncached_s": round(uncached_times[name], 4),
                "cached_s": round(cached_times[name], 4),
                "evaluations": uncached[name].evaluations,
            }
            for name in WORKLOADS
        },
    }
    _merge_result(payload)
    benchmark.extra_info.update(payload)
    assert ratio >= 2.0, f"cache speedup {ratio:.2f}x below the 2x bar"


def _frontier_records(result):
    return [point.to_record() for point in result.frontier or ()]


def test_dse_pareto_surrogate_savings(polybench_size, benchmark):
    surrogate_results = {}

    def run_surrogate():
        surrogate_results.clear()
        for name in WORKLOADS:
            function = getattr(polybench, name)(polybench_size)
            surrogate_results[name] = auto_dse(
                function,
                options=DseOptions(
                    objective="pareto", surrogate=True, cache=False
                ),
            )

    benchmark(run_surrogate)

    per_workload = {}
    for name in WORKLOADS:
        function = getattr(polybench, name)(polybench_size)
        exhaustive = auto_dse(
            function,
            options=DseOptions(
                objective="pareto", surrogate=False, cache=False
            ),
        )
        guided = surrogate_results[name]
        assert _frontier_records(guided) == _frontier_records(exhaustive), name
        assert guided.report == exhaustive.report, name
        exact = exhaustive.stats.estimations
        with_surrogate = guided.stats.estimations
        assert with_surrogate <= exact, name
        per_workload[name] = {
            "frontier_size": len(guided.frontier or ()),
            "estimations_exhaustive": exact,
            "estimations_surrogate": with_surrogate,
            "skipped_fraction": round(1.0 - with_surrogate / exact, 4),
        }

    best_saving = max(
        row["skipped_fraction"] for row in per_workload.values()
    )
    payload = {
        "pareto": {
            "size": polybench_size,
            "objective": "pareto:latency,dsp,bram,lut,ff",
            "best_skipped_fraction": best_saving,
            "per_workload": per_workload,
        }
    }
    _merge_result(payload)
    benchmark.extra_info.update(payload)
    assert best_saving >= 0.25, (
        f"surrogate skipped only {best_saving:.0%} of exact estimator "
        f"calls on its best workload (bar: 25%)"
    )
