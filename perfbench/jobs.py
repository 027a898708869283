"""The benchmark's workloads: job sets, the timed job, and output checks.

A *job* is one user-level request: one ``auto_dse`` or
``auto_dse_dataflow`` sweep, or one compile of a scheduled function.
Each workload has a fixed job set (its "universe"); a run goes through
it in *rounds*, each round a seeded permutation of the whole set run in
a fresh :class:`repro.serve.SessionContext`.  Every round therefore does
the same work from the same cold process-wide tables, so the per-job
numbers do not depend on how many rounds fit in ``--seconds``, and the
design metrics are the same for every seed.  Sweeps of one kernel at
several sizes and budgets share a round, so the memo tables still see
reuse across sweeps.

All calls into the program go through module attributes (``dse.auto_dse``
rather than a name imported here) so that the traced run's wrappers in
:mod:`layers` see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.affine.compile as sim
import repro.affine.passes as passes
import repro.dataflow as dataflow
import repro.dse as dse
import repro.hlsgen as hlsgen
import repro.pipeline as pipeline
import repro.preflight as preflight
from repro import workloads as registry
from repro.diagnostics import Severity
from repro.dsl.serialize import schedule_from_dict, schedule_to_dict
from repro.dsl.schedule import Interchange, Schedule
from repro.hls.device import DEFAULT_DEVICE
from repro.hls.estimator import HlsEstimator
from repro.workloads import dnn

HERE = os.path.dirname(os.path.abspath(__file__))

PARETO = "pareto:latency,dsp,bram,lut,ff"
# Seconds one round takes on a 2-CPU x86-64 Linux host (Python 3.11); a run
# measures ceil(--seconds / this) rounds.
ROUND_SECONDS = {
    "polybench-dse": 5.5,
    "frontier-dse": 7.0,
    "dnn-dse": 20.0,
    "compile-sim": 6.5,
}
DSE_KERNEL_SUITES = ("polybench", "polybench-extra", "stencils")
COMPILE_SUITES = ("polybench", "polybench-extra", "stencils", "image")


@dataclass(frozen=True)
class Job:
    kind: str                      # "dse" | "pareto" | "dataflow" | "dnn" | "compile"
    name: str
    size: int
    fraction: float = 1.0
    channel_scale: float = 1.0
    schedule: Optional[str] = None  # compile-sim: JSON of a schedule dict

    @property
    def key(self) -> str:
        text = f"{self.kind}:{self.name}@{self.size}/f{self.fraction}/c{self.channel_scale}"
        if self.schedule is not None:
            text += ":" + hashlib.sha256(self.schedule.encode()).hexdigest()[:12]
        return text


@dataclass
class Outcome:
    """What one job produced, reduced to what the checks and metrics need."""

    cycles: int
    fingerprint: str
    stats: Any = None                      # merged DseStats (DSE jobs)
    naive_speedup: Optional[float] = None  # dataflow jobs
    lines: int = 0                         # compile-sim: HLS C lines
    vector_nests: int = 0
    fallbacks: int = 0
    errors: List[str] = field(default_factory=list)
    subjects: list = field(default_factory=list)  # Functions to verify
    arrays: Optional[Dict[str, np.ndarray]] = None


# -- job sets -------------------------------------------------------------------


def _kernels(suites) -> List[str]:
    table = registry.suites()
    return [name for suite in suites for name in table[suite]]


def _schedule_pool() -> Dict[str, List[dict]]:
    with open(os.path.join(HERE, "schedules.json")) as handle:
        return json.load(handle)["pool"]


def universe(workload: str) -> List[Job]:
    """The workload's job set; ``--seed`` only orders it and, for
    compile-sim, draws the simulated arrays."""
    if workload == "polybench-dse":
        return [
            Job("dse", name, size, fraction)
            for name in _kernels(DSE_KERNEL_SUITES)
            for size in (256, 512)
            for fraction in (0.5, 1.0)
        ]
    if workload == "frontier-dse":
        return [
            Job("pareto", name, size, fraction)
            for name in _kernels(DSE_KERNEL_SUITES)
            for size in (256, 512)
            for fraction in (0.5, 1.0)
        ] + [
            Job("dataflow", name, size, fraction)
            for name in ("image-pipeline", "conv-block")
            for size in (32, 64)
            for fraction in (0.25, 0.5)
        ]
    if workload == "dnn-dse":
        return [
            Job("dnn", "resnet18", 32, channel_scale=0.25),
            Job("dnn", "vgg16", 16, channel_scale=0.125),
        ]
    if workload == "compile-sim":
        return [
            Job("compile", key.rsplit("@", 1)[0], int(key.rsplit("@", 1)[1]),
                schedule=json.dumps(schedule, sort_keys=True))
            for key, schedules in sorted(_schedule_pool().items())
            for schedule in schedules
        ]
    raise KeyError(workload)


def round_order(jobs: List[Job], seed: int, index: int) -> List[Job]:
    """Round ``index``'s permutation of the job set."""
    order = list(jobs)
    random.Random(seed * 1000003 + index).shuffle(order)
    return order


# -- inputs and the timed job ----------------------------------------------------


def make_input(job: Job, seed: int):
    """Build the job's input (untimed): a fresh Function or design."""
    if job.kind == "dnn":
        return getattr(dnn, job.name)(job.size, job.channel_scale)
    function = registry.get(job.name, job.size)
    if job.kind == "compile":
        return function, json.loads(job.schedule), function.allocate_arrays(seed=seed)
    return function


def run_job(job: Job, subject):
    """The timed part of one job."""
    if job.kind == "compile":
        function, schedule, arrays = subject
        return compile_sim_job(function, schedule, arrays=arrays)
    if job.kind == "dataflow":
        return dataflow.auto_dse_dataflow(
            subject, options=dse.DseOptions(jobs=1, resource_fraction=job.fraction)
        )
    objective = PARETO if job.kind == "pareto" else "single"
    return dse.auto_dse(subject, options=dse.DseOptions(
        jobs=1, resource_fraction=job.fraction, objective=objective
    ))


def compile_sim_job(function, schedule: Optional[dict], seed: int = 0, arrays=None):
    """``repro compile``/``verify`` in library form, ending in a simulation.

    ``schedule`` (a ``schedule_to_dict`` payload) is applied first when
    given; ``arrays`` default to the function's seeded buffers.
    """
    if schedule is not None:
        schedule_from_dict(function, schedule)
    if arrays is None:
        arrays = function.allocate_arrays(seed=seed)
    engine = preflight.preflight_schedule(function)
    if engine.has_errors:
        return engine, None, None, arrays
    func = pipeline.lower_to_affine(function)
    passes.canonicalize(func)
    passes.InsertDependencePragmas().run(func)
    code = hlsgen.generate_hls_c(func)
    report = HlsEstimator(
        device=DEFAULT_DEVICE, clock_ns=DEFAULT_DEVICE.clock_ns
    ).estimate(func)
    sim.simulate(func, arrays)
    return engine, (func, code), report, arrays


# -- reducing results --------------------------------------------------------------


def _digest(*parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode() if isinstance(part, str) else part)
        hasher.update(b"\0")
    return hasher.hexdigest()


def _error_messages(diagnostics) -> List[str]:
    return [str(d) for d in diagnostics if d.severity >= Severity.ERROR]


def summarize(job: Job, subject, result, compile_func) -> Outcome:
    """Reduce a job's result (untimed).  ``compile_func`` is unwrapped."""
    if job.kind == "compile":
        engine, lowered, report, arrays = result
        if lowered is None:
            return Outcome(0, "", errors=_error_messages(engine.diagnostics),
                           arrays=arrays)
        func, code = lowered
        kernel_stats = compile_func(func).stats
        outputs = [
            _digest(name, arrays[name].tobytes()) for name in sorted(arrays)
        ]
        return Outcome(
            cycles=report.total_cycles,
            fingerprint=_digest(repr(report), code, *outputs),
            lines=len(code.splitlines()),
            vector_nests=kernel_stats.vector_nests,
            fallbacks=1 if kernel_stats.fallback else 0,
            errors=_error_messages(engine.diagnostics),
            arrays=arrays,
        )
    if job.kind == "dataflow":
        stats = dse.DseStats.merge(
            [stage.stats for stage in result.stage_results.values()]
        )
        errors = [
            message
            for stage in result.stage_results.values()
            for message in _error_messages(stage.diagnostics)
        ]
        if result.quarantine:
            errors.append(f"{len(result.quarantine)} quarantined candidates")
        return Outcome(
            cycles=result.report.total_cycles,
            fingerprint=_digest(json.dumps(result.payload(), sort_keys=True)),
            stats=stats,
            naive_speedup=result.balanced_speedup,
            errors=errors,
            subjects=[stage.function for stage in subject.stages.values()],
        )
    errors = _error_messages(result.diagnostics)
    if result.quarantine:
        errors.append(f"{len(result.quarantine)} quarantined candidates")
    frontier = [(p.key, p.cycles, p.values) for p in (result.frontier or ())]
    return Outcome(
        cycles=result.report.total_cycles,
        fingerprint=_digest(
            repr(result.report),
            json.dumps(schedule_to_dict(subject), sort_keys=True),
            repr(frontier),
        ),
        stats=result.stats,
        errors=errors,
        subjects=[subject],
    )


# -- output checks ------------------------------------------------------------------


def verify_design(outcome: Outcome, seed: int) -> Tuple[List[str], int]:
    """Re-check a chosen design: schedule preflight + IR verifier.

    Returns ``(problems, conservative_rejects)``.  The preflight may
    reject a legal design when a dependence distance is not constant
    (it then assumes the worst sign).  A design whose only preflight
    errors are such legality errors (``LEG*``) is checked with a stronger
    oracle instead: its lowered IR must pass the verifier and its
    simulation must equal ``reference_execute`` bit for bit.  Each such
    design is counted, so the preflight's imprecision stays visible.
    """
    problems = list(outcome.errors)
    conservative = 0
    for function in outcome.subjects:
        errors = function.verify().errors()
        if errors and all(d.code.startswith("LEG") for d in errors):
            func = pipeline.lower_to_affine(function, verify=False)
            errors = passes.verify_func(func).errors()
            if not errors:
                simulated = function.allocate_arrays(seed=seed)
                sim.simulate(func, simulated)
                expected = function.allocate_arrays(seed=seed)
                function.reference_execute(expected)
                if all(np.array_equal(expected[k], simulated[k]) for k in expected):
                    conservative += 1
                else:
                    problems.append(f"{function.name}: preflight rejects the "
                                    "design and its simulation is wrong")
        problems += [f"{function.name}: {d}" for d in errors]
    return problems, conservative


class ReferenceOracle:
    """``Function.reference_execute`` outputs, memoised per
    (workload, size, structural directives, array seed)."""

    def __init__(self):
        self._memo: Dict[Tuple, Dict[str, np.ndarray]] = {}

    def expected(self, job: Job, seed: int) -> Dict[str, np.ndarray]:
        function = registry.get(job.name, job.size)
        schedule_from_dict(function, json.loads(job.schedule))
        key = (job.name, job.size, repr(function.structural_directives()), seed)
        if key not in self._memo:
            arrays = function.allocate_arrays(seed=seed)
            function.reference_execute(arrays)
            self._memo[key] = arrays
        return self._memo[key]

    def check(self, job: Job, seed: int, arrays) -> List[str]:
        expected = self.expected(job, seed)
        return [
            f"simulated {name!r} differs from reference_execute"
            for name in sorted(expected)
            if not np.array_equal(expected[name], arrays[name])
        ]


def corrupted_design(job: Job, seed: int) -> Outcome:
    """A DSE job's fresh input with an illegal directive appended.

    Used to prove on every run that :func:`verify_design` rejects a bad
    design.
    """
    subject = make_input(job, seed)
    if job.kind == "dataflow":
        function = next(iter(subject.stages.values())).function
    else:
        function = subject
    compute = function.computes[0]
    bad = Interchange(compute.name, "no_such_loop", compute.iter_names[0])
    function.schedule = Schedule(list(function.schedule) + [bad])
    return Outcome(0, "", subjects=[function])
