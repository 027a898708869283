"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each layer in place:
every module under ``repro`` that bound a wrapped function (``from
repro.dse.stage2 import plan_node_config`` in ``engine``, ``stage1``
and ``parallel``, say) gets the wrapper, and wrapped methods are
replaced on their class.  Nothing under ``src/`` changes; uninstalling
restores every binding.

Spans are kept in memory as ``[name, start, end, parent, job]`` rows
(parent is the index of the enclosing span, -1 at the top) and written
out when the run ends.  A layer's self time is its span time minus the
time its direct child spans cover.  Counters record calls too hot or
too small to time one by one.

``LAYERS`` records, for each per-layer metric, the end-to-end metric it
should move and the workload it should move on.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

# Span name -> (module, attribute path) of each wrapped callable.
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "depgraph.carried": (("repro.depgraph.analysis", "carried_dependences_generic"),),
    "depgraph.relation": (("repro.depgraph.analysis", "dependence_relation"),),
    "isl.sample": (("repro.isl.sets", "BasicSet.sample"),),
    "isl.project": (
        ("repro.isl.sets", "BasicSet.project_onto"),
        ("repro.isl.sets", "BasicSet.drop_dim"),
    ),
    "isl.ast_build": (("repro.isl.astbuild", "AstBuilder.build"),),
    "dsl.accesses": (
        ("repro.dsl.compute", "Compute.loads"),
        ("repro.dsl.compute", "Compute.arrays"),
    ),
    "dse.stage1": (("repro.dse.stage1", "plan_stage1"),),
    "dse.stage2": (("repro.dse.stage2", "plan_node_config"),),
    "dse.search": (("repro.dse.engine", "auto_dse"),),
    "dataflow": (("repro.dataflow.dse", "auto_dse_dataflow"),),
    "polyir.apply": (("repro.polyir.program", "PolyProgram.apply_directive"),),
    "affine.lower": (
        ("repro.affine.lowering", "lower_program"),
        ("repro.affine.lowering", "lower_program_incremental"),
    ),
    "affine.passes": (
        ("repro.affine.passes.canonicalize", "canonicalize"),
        ("repro.affine.passes.pragmas", "InsertDependencePragmas.run"),
        ("repro.affine.passes.verify", "verify_func"),
    ),
    "hls.estimate": (("repro.hls.estimator", "HlsEstimator.estimate"),),
    "preflight": (("repro.preflight", "preflight_schedule"),),
    "hlsgen.codegen": (("repro.hlsgen.codegen", "generate_hls_c"),),
    "sim.compile": (("repro.affine.compile", "compile_func"),),
    "sim.run": (("repro.affine.compile", "simulate"),),
}

# Counter name -> wrapped callable (counted, not timed).
COUNTERS: Dict[str, Tuple[str, str]] = {
    "isl.basicset.constructed": ("repro.isl.sets", "BasicSet.__init__"),
    "isl.is_empty.calls": ("repro.isl.sets", "BasicSet.is_empty"),
}

# Per-layer metric -> (unit, end-to-end metric it should move, workloads).
# Times and counts are per round: one pass over the workload's job set.
_DSE = "polybench-dse"
LAYERS: Dict[str, Tuple[str, str, str]] = {
    "depgraph.carried.calls": ("count", "job_s_p50", "dnn-dse"),
    "depgraph.carried.self_s": ("s", "job_s_p50", "dnn-dse"),
    "depgraph.relation.calls": ("count", "job_s_p50", "dnn-dse"),
    "isl.sample.calls": ("count", "job_s_p50", "dnn-dse"),
    "isl.sample.self_s": ("s", "job_s_p50", "dnn-dse"),
    "isl.basicset.constructed": ("count", "job_s_p50", "dnn-dse"),
    "isl.is_empty.calls": ("count", "job_s_p50", "dnn-dse"),
    "isl.project.self_s": ("s", "job_s_p50", "dnn-dse"),
    "isl.ast_build.calls": ("count", "job_s_p50", _DSE),
    "isl.ast_build.self_s": ("s", "job_s_p50", _DSE),
    "isl.memo.hit_ratio": ("ratio", "job_s_p50", _DSE),
    "isl.memo.lookups": ("count", "job_s_p50", _DSE),
    "dsl.accesses.calls": ("count", "job_s_p50", "dnn-dse"),
    "dsl.accesses.self_s": ("s", "job_s_p50", "dnn-dse"),
    "dse.stage1.self_s": ("s", "job_s_p50", _DSE + ",dnn-dse"),
    "dse.stage2.calls": ("count", "job_s_p50", _DSE + ",dnn-dse"),
    "dse.stage2.self_s": ("s", "job_s_p50", _DSE + ",dnn-dse"),
    "dse.search.self_s": ("s", "job_s_p50", _DSE),
    "dse.evaluations": ("count", "design_cycles_geomean", _DSE),
    "dse.estimations": ("count", "job_s_p50", _DSE),
    "dse.quarantined": ("count", "ok_fraction", _DSE),
    **{
        f"dse.{layer}_cache.{part}": (unit, "peak_rss_mb", _DSE)
        for layer in ("eval", "design", "lowering", "config", "partition", "report")
        for part, unit in (("hit_ratio", "ratio"), ("lookups", "count"))
    },
    "dse.pareto.evaluated_ratio": ("ratio", "jobs_per_s", "frontier-dse"),
    "dse.pareto.candidates": ("count", "jobs_per_s", "frontier-dse"),
    "dse.surrogate_skips": ("count", "jobs_per_s", "frontier-dse"),
    "dse.frontier_size": ("count", "design_cycles_geomean", "frontier-dse"),
    "dataflow.self_s": ("s", "jobs_per_s", "frontier-dse"),
    "dataflow.naive_speedup": ("ratio", "design_cycles_geomean", "frontier-dse"),
    "polyir.apply.self_s": ("s", "job_s_p50", _DSE + ",compile-sim"),
    "affine.lower.calls": ("count", "job_s_p50", _DSE + ",compile-sim"),
    "affine.lower.self_s": ("s", "job_s_p50", _DSE + ",compile-sim"),
    "affine.passes.self_s": ("s", "job_s_p50", "compile-sim"),
    "hls.estimate.calls": ("count", "job_s_p50", _DSE + ",frontier-dse"),
    "hls.estimate.self_s": ("s", "job_s_p50", _DSE + ",frontier-dse"),
    "preflight.calls": ("count", "job_s_p50", "compile-sim"),
    "preflight.self_s": ("s", "job_s_p50", "compile-sim"),
    "preflight.conservative_rejects": ("count", "ok_fraction", _DSE),
    "hlsgen.codegen.self_s": ("s", "job_s_p50", "compile-sim"),
    "hlsgen.lines": ("count", "job_s_p50", "compile-sim"),
    "sim.compile.self_s": ("s", "job_s_p50", "compile-sim"),
    "sim.run.self_s": ("s", "job_s_p50", "compile-sim"),
    "sim.vector_nests": ("count", "job_s_p50", "compile-sim"),
    "sim.fallbacks": ("count", "job_s_p50", "compile-sim"),
    "untraced_fraction": ("ratio", "none", "all"),
    "trace.overhead_fraction": ("ratio", "none", "all"),
}


class Recorder:
    """In-memory spans with parent links, plus call counters."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.job = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name_id, time.perf_counter(), 0.0, parent, self.job])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self, first: int, last: int):
        """Calls and self seconds per span name over spans ``first:last``,
        and the time each span's direct children cover."""
        spans = self.spans[first:last]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= first:
                covered[parent - first] += end - start
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for offset, (name_id, start, end, _, _) in enumerate(spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += (end - start) - covered[offset]
        return calls, self_s, covered

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as handle:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": dict(self.counts)}, handle)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *scope, attr = path.split(".")
    for part in scope:
        owner = getattr(owner, part)
    return owner, attr


def _span_wrapper(recorder: Recorder, name: str, fn):
    name_id = recorder.name_id(name)

    def wrapper(*args, **kwargs):
        index = recorder.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(recorder: Recorder, name: str, fn):
    counts = recorder.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


class Installation:
    """Wrappers installed into the program; :meth:`remove` undoes them."""

    def __init__(self, recorder: Recorder):
        self.patches: List[Tuple[object, str, object]] = []
        targets = [
            (name, target, _span_wrapper)
            for name, group in SPANS.items()
            for target in group
        ] + [(name, target, _count_wrapper) for name, target in COUNTERS.items()]
        for name, (module_name, path), make in targets:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            wrapper = make(recorder, name, original)
            self._patch(owner, attr, wrapper)
            if not isinstance(owner, type):
                # Rebind every module-level alias of a wrapped function.
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
