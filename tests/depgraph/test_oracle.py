"""Brute-force oracle for the carried-dependence analysis.

At extents small enough to enumerate, every pair of dependent statement
instances is listed explicitly.  Grouping the pairs by their carrying
level gives, per ``(kind, array, level)``, the distance entries (the
constant ``sink - source`` difference of a dim, or ``None`` when it
varies) and the minimum carried distance -- exactly what
:class:`~repro.depgraph.analysis.CarriedDependence` must report.

Registry computes go through ``analyze_compute``; statements rewritten
by fuzzer-drawn schedules go through ``carried_for_statement``.  Each
case runs twice: in the isl mode the process was started with
(``REPRO_ISL_REFERENCE=1`` selects the reference path) and in forced
reference mode.
"""

import itertools
import random
from collections import defaultdict

import numpy as np
import pytest

from repro import workloads
from repro.depgraph import RAW, WAR, WAW, analyze_compute
from repro.depgraph.analysis import access_pairs
from repro.dse.analysis import carried_for_statement
from repro.fuzz.generator import random_schedule
from repro.isl import intern as _intern
from repro.isl import memo as _memo
from repro.polyir.program import PolyProgram
from repro.workloads import dnn

SIZE = 6
# The DNN builders scale channel counts, not the problem size: shrink
# the channels so every layer's domain stays enumerable.
DNN_CHANNEL_SCALE = 0.04
FUZZ_CASES = [
    (name, seed)
    for name in ("gemm", "jacobi-1d", "seidel", "2mm", "heat-1d", "trisolv", "bicg")
    for seed in range(4)
]


@pytest.fixture(params=["default", "reference"])
def isl_mode(request):
    _memo.clear_all()
    previous = _intern.reference_mode()
    if request.param == "reference":
        _intern.set_reference_mode(True)
    try:
        yield request.param
    finally:
        _intern.set_reference_mode(previous)
        _memo.clear_all()


def _build(name):
    if name in dnn.SUITE:
        return getattr(dnn, name)(4, channel_scale=DNN_CHANNEL_SCALE)
    return workloads.get(name, SIZE)


def _grouped(indices, points, dims):
    """Points grouped by the array cell ``indices`` address, as arrays."""
    groups = defaultdict(list)
    for point in points:
        cell = tuple(expr.evaluate(point) for expr in indices)
        groups[cell].append([point[d] for d in dims])
    return {cell: np.array(rows, dtype=np.int64) for cell, rows in groups.items()}


def brute_force(dims, points, pairs):
    """``(kind, array, level, entries, min_distance)`` by enumeration.

    Every (source, sink) instance pair touching the same cell is
    formed; a pair is carried at the first dim where the instances
    differ, provided the sink comes later there.  Per level, a dim's
    entry is its ``sink - source`` difference when that is the same for
    every pair, else ``None``.
    """
    expected = []
    for kind, array, src_idx, snk_idx in pairs:
        sinks = _grouped(snk_idx, points, dims)
        low, high = {}, {}  # level -> per-dim min / max of the differences
        for cell, sources in _grouped(src_idx, points, dims).items():
            if cell not in sinks:
                continue
            delta = (sinks[cell][None, :, :] - sources[:, None, :]).reshape(-1, len(dims))
            nonzero = delta != 0
            level = nonzero.argmax(axis=1)
            leading = delta[np.arange(len(delta)), level]
            carried = nonzero.any(axis=1) & (leading > 0)
            for lvl in np.unique(level[carried]).tolist():
                rows = delta[carried & (level == lvl)]
                lo, hi = rows.min(axis=0), rows.max(axis=0)
                low[lvl] = np.minimum(low[lvl], lo) if lvl in low else lo
                high[lvl] = np.maximum(high[lvl], hi) if lvl in high else hi
        for lvl in sorted(low):
            entries = tuple(
                int(a) if a == b else None
                for a, b in zip(low[lvl].tolist(), high[lvl].tolist())
            )
            expected.append((kind, array, lvl, entries, int(low[lvl][lvl])))
    return expected


def _observed(deps):
    return [
        (d.kind, d.array, d.level, d.distance.entries, d.min_distance)
        for d in deps
    ]


def _without_entries(deps):
    return [dep[:3] + dep[4:] for dep in deps]


@pytest.mark.parametrize("name", workloads.names(kind="function"))
def test_registry_computes_match_enumeration(name, isl_mode):
    for compute in _build(name).computes:
        dims = compute.iter_names
        bounds = compute.domain_bounds()
        ranges = [range(bounds[d][0], bounds[d][1] + 1) for d in dims]
        points = [dict(zip(dims, values)) for values in itertools.product(*ranges)]
        pairs = access_pairs(compute.store(), compute.loads())
        observed = _observed(analyze_compute(compute).carried)
        assert observed == brute_force(dims, points, pairs), compute.name


@pytest.mark.parametrize("name,seed", FUZZ_CASES)
def test_fuzzed_statements_match_enumeration(name, seed, isl_mode):
    function = _build(name)
    random_schedule(function, random.Random(seed))
    for stmt in PolyProgram(function).apply_schedule().statements:
        dims = list(stmt.loop_order)
        points = list(stmt.domain.reorder_dims(dims).points())
        pairs = access_pairs(stmt.dest, stmt.body.loads())
        observed = _observed(
            carried_for_statement(stmt, kinds=(RAW, WAR, WAW))
        )
        expected = brute_force(dims, points, pairs)
        where = (name, seed, stmt.name)
        # Dependences, levels and minimum distances are exact.  An entry
        # may be unknown where enumeration finds a constant: emptiness
        # is decided on the rational relaxation, so a split dim tied by
        # ``3*o + r == 3*o' + r'`` keeps a fractional ``o' - o``.  A
        # wrong constant would be optimistic, and fails.
        assert _without_entries(observed) == _without_entries(expected), where
        for got, want in zip(observed, expected):
            for entry, exact in zip(got[3], want[3]):
                assert entry in (exact, None), where

