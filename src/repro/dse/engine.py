"""The DSE engine: stage 1 + stage 2 + bottleneck search (Section VI).

``auto_dse`` restructures the function's loops (stage 1), then walks the
parallelism ladder node by node: the bottleneck node on the critical
path of the dependence graph doubles its parallelism degree while the
virtual-HLS estimate stays within the resource constraints; a node whose
next step is infeasible (or maxed out) leaves the optimization list; the
search ends when the list is empty.  The winning schedule is installed
on the function.

Evaluation is memoized at several layers (all local to one ``auto_dse``
call unless noted):

- *node config*: ``(node, parallelism)`` -> :class:`NodeConfig`;
- *evaluation*: ``(config fingerprints, bank_cap)`` -> scored design;
- *design*: ``(config fingerprints, partition fingerprints)`` -> lowered
  function + report, catching bank caps that derive identical banking;
- *partitions*: ``(config fingerprints, bank_cap)`` -> derived factors;
- *nest lowering*: per top-level loop nest, keyed on statement
  fingerprints (incremental lowering splices unchanged nests);
- *reports*: per estimator instance, keyed on function fingerprints;
- *isl kernels*: global process-wide memo tables
  (:mod:`repro.isl.memo`).

``cache=False`` disables every layer (including the global isl tables
for the duration of the call) so measured speedups compare genuinely
uncached runs; cached and uncached searches visit identical design
points and return bit-identical results.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import faults as _faults
from repro import trace as _trace
from repro.diagnostics import (
    Diagnostic,
    DiagnosticEngine,
    DiagnosticError,
    Severity,
    SourceLocation,
)
from repro.util.deadline import (
    Deadline,
    DeadlineExceeded,
    active as _active_deadline,
    deadline_scope,
)
from repro.dsl.function import Function
from repro.dsl.schedule import Schedule
from repro.depgraph.graph import build_dependence_graph
from repro.affine.ir import AffineStoreOp, FuncOp
from repro.affine.lowering import lower_program_incremental
from repro.hls.device import DEFAULT_DEVICE, FPGADevice
from repro.hls.estimator import HlsEstimator, TransientEstimatorError
from repro.hls.report import SynthesisReport, speedup
from repro.isl import memo as _isl_memo
from repro.polyir.program import PolyProgram
from repro.dse.checkpoint import (
    CheckpointJournal,
    candidate_key,
    make_header,
    workload_fingerprint,
)
from repro.dse.options import MAX_PARALLELISM, DseOptions
from repro.dse.pareto import (
    Objective,
    ParetoFrontier,
    ParetoPoint,
)
from repro.dse.surrogate import (
    SurrogateModel,
    candidate_features,
    memo_hit_rate,
)
from repro.dse.stage1 import Stage1Plan, plan_stage1
from repro.dse.stage2 import (
    NodeConfig,
    config_directives,
    derive_partitions,
    plan_node_config,
    stage1_program,
)
from repro.dse.stats import DseStats

MAX_ESTIMATOR_RETRIES = 2
RETRY_BACKOFF_S = 0.05
# The banking fallback ladder: full banking first, then trade banks for
# operator sharing when the spatial design overflows the device.
BANK_CAPS = (128, 16, 8)
# Cap on how long one retry-backoff slice may sleep before re-polling
# the active deadlines.
BACKOFF_SLICE_S = 0.01


def _backoff_sleep(
    seconds: float,
    sweep_deadline: Optional[Deadline] = None,
    slice_s: float = BACKOFF_SLICE_S,
) -> float:
    """Sleep up to ``seconds`` without sleeping through a deadline.

    The estimator retry backoff must not let a sweep overshoot its
    budgets while blocked in ``time.sleep``: the sleep is taken in small
    slices, each of which first polls the active per-candidate
    :class:`Deadline` (raising :class:`DeadlineExceeded`, which the
    candidate scope converts to a ``DSE003`` timeout quarantine) and
    gives up early -- without raising -- once the whole-sweep deadline
    is exhausted, so the search loop's own budget check fires at the
    next iteration.  Returns the wall time actually slept so callers can
    attribute it separately from estimation time.
    """
    slept = 0.0
    end = time.monotonic() + seconds
    while True:
        candidate_deadline = _active_deadline()
        if candidate_deadline is not None:
            candidate_deadline.poll()
        if sweep_deadline is not None and sweep_deadline.exceeded():
            return slept
        left = end - time.monotonic()
        if left <= 0:
            return slept
        nap = min(slice_s, left)
        if candidate_deadline is not None:
            # Never sleep meaningfully past the candidate budget; the
            # +1ms keeps the loop progressing when the budget boundary
            # lands inside this slice (the next poll then raises).
            nap = min(nap, max(candidate_deadline.remaining(), 0.0) + 0.001)
        time.sleep(nap)
        slept += nap


def _estimate_with_retries(
    estimator: HlsEstimator,
    func_op: FuncOp,
    location: SourceLocation,
    on_retry: Optional[Callable[[float], None]] = None,
    sweep_deadline: Optional[Deadline] = None,
) -> SynthesisReport:
    """Estimate with bounded, deadline-aware retry backoff.

    Transient estimator failures are retried; ``DSE002`` is raised when
    the retries run out.  ``on_retry`` receives the backoff actually
    slept before each retry.
    """
    last: Optional[TransientEstimatorError] = None
    for attempt in range(MAX_ESTIMATOR_RETRIES + 1):
        try:
            return estimator.estimate(func_op)
        except TransientEstimatorError as exc:
            last = exc
            if attempt < MAX_ESTIMATOR_RETRIES:
                slept = _backoff_sleep(
                    RETRY_BACKOFF_S * (2 ** attempt), sweep_deadline
                )
                if on_retry is not None:
                    on_retry(slept)
    raise DiagnosticError(
        f"estimator failed after {MAX_ESTIMATOR_RETRIES + 1} "
        f"attempts: {last}",
        code="DSE002",
        location=location,
    ) from last


@dataclass
class QuarantinedCandidate:
    """A design point whose evaluation failed; excluded from the search.

    The search keeps climbing with the remaining candidates instead of
    aborting; the failure survives as a structured diagnostic (not a
    traceback) so ``repro dse`` can report what was skipped and why.
    A ``bank_cap`` of 0 means the candidate failed while planning its
    node configurations, before a banking budget was chosen.
    """

    parallelism: Dict[str, int]
    bank_cap: int
    diagnostic: Diagnostic
    # Wall time lost before the watchdog fired, for DSE003 timeouts.
    elapsed_s: Optional[float] = None

    def __str__(self) -> str:
        return self.diagnostic.oneline()


@dataclass
class DseResult:
    """The outcome of automatic design space exploration."""

    function: Function
    report: SynthesisReport
    schedule: Schedule
    plan: Stage1Plan
    configs: Dict[str, NodeConfig]
    dse_time_s: float
    evaluations: int
    stats: Optional[DseStats] = None
    quarantine: List[QuarantinedCandidate] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    journal_path: Optional[str] = None
    #: Spans/metrics captured by a worker-side tracer (sharded sweeps
    #: ship these back for deterministic merging); None when the sweep
    #: ran under the caller's own tracer or with tracing off.
    trace: Optional[_trace.TraceData] = None
    #: The canonical objective spec the sweep ran under ("single" keeps
    #: the classic best-latency behavior and leaves `frontier` None).
    objective: str = "single"
    #: The dominance-pruned Pareto frontier, in canonical order
    #: (objective vector, then candidate key), for "pareto"/"weighted"
    #: objectives; see :mod:`repro.dse.pareto`.
    frontier: Optional[List["ParetoPoint"]] = None

    @property
    def degraded(self) -> bool:
        """Whether the sweep completed in a weakened form.

        True when any candidate was quarantined (including watchdog
        timeouts), the wall-clock budget ran out, or the sweep was
        interrupted -- the conditions under which the returned design is
        "best found" rather than "best reachable".
        """
        if self.quarantine:
            return True
        return bool(
            self.stats is not None
            and (self.stats.interrupted or self.stats.time_budget_hit)
        )

    def tile_vector(self, node: str) -> List[int]:
        """Paper-style achieved tile sizes for one node."""
        return self.configs[node].tile_vector(self.plan.orders[node])

    def tile_vectors(self) -> Dict[str, List[int]]:
        return {name: self.tile_vector(name) for name in self.configs}

    @property
    def parallelism(self) -> float:
        """Product of tile sizes divided by achieved II (paper metric).

        The product runs over *all* node configs: a multi-kernel design's
        parallelism is the product of its per-node tile products, not the
        largest node's (taking the max under-reported every design with
        more than one compute).
        """
        total = 1
        for config in self.configs.values():
            total *= config.total_parallelism
        ii = self.report.worst_ii() or 1
        return total / ii

    def speedup_vs(self, baseline: SynthesisReport) -> float:
        """Wall-clock speedup of this design over a baseline report."""
        return speedup(baseline, self.report)


@dataclass
class _Resilience:
    """Crash-safety state threaded through one sweep."""

    journal: Optional[CheckpointJournal] = None
    candidate_timeout_s: Optional[float] = None
    sweep_deadline: Optional[Deadline] = None
    fault_plan: Optional[_faults.FaultPlan] = None


def auto_dse(
    function: Function,
    options: Optional[DseOptions] = None,
) -> DseResult:
    """Run the two-stage DSE and install the best schedule found.

    All configuration travels in one :class:`~repro.dse.options.DseOptions`::

        auto_dse(function, options=DseOptions(cache=False))

    ``options.cache=False`` disables all memoization layers (for
    measurement); the search trajectory and the result are identical
    either way.

    Crash safety (see ``docs/resilience.md``):

    * ``options.checkpoint`` journals every really-evaluated candidate
      to an append-only JSON-lines file; with ``resume=True`` an
      existing journal (validated against the workload, device, and
      engine version -- ``DSE005`` on mismatch) replays completed
      candidates and the sweep continues where it died.
    * ``options.candidate_timeout_s`` arms a cooperative watchdog around
      each candidate: overruns are quarantined as ``DSE003`` timeouts.
    * ``options.time_budget_s`` bounds the whole sweep; when it runs out
      the search degrades gracefully to the best design found
      (``DSE004``).
    * ``options.fault_plan`` installs a deterministic fault-injection
      plan for the duration of the call (:mod:`repro.faults`; testing
      only).

    Observability: when a :mod:`repro.trace` tracer is active, the sweep
    records hierarchical spans (per candidate, per pipeline layer) and
    bulk-publishes its :class:`~repro.dse.stats.DseStats` counters as
    trace metrics.  Tracing never changes the result.
    """
    if options is None:
        options = DseOptions()
    # Function-independent validation first, before anything (device
    # scaling, estimator construction) can fail with a less precise
    # message or leave a side effect behind.
    options.validate()
    objective = options.parsed_objective()
    start = time.perf_counter()
    device = options.resolved_device()
    clock_ns = options.resolved_clock_ns()
    resource_fraction = options.resource_fraction
    cache = options.cache
    checkpoint = options.checkpoint
    fault_plan = options.fault_plan
    budget = device.scaled(resource_fraction) if resource_fraction < 1.0 else device
    estimator = HlsEstimator(
        device=device, clock_ns=clock_ns, memoize_reports=cache
    )

    stats = DseStats(cache_enabled=cache)
    engine = DiagnosticEngine()
    quarantine: List[QuarantinedCandidate] = []

    # Every option is validated *before* a checkpoint journal file is
    # created: an early raise must never leave a created-but-unusable
    # journal open or half-written on disk.
    if options.resume and checkpoint is None:
        raise DiagnosticError(
            "resume requested without a checkpoint journal path",
            code="DSE005",
            location=SourceLocation(function=function.name),
        )
    if (
        fault_plan is not None
        and fault_plan.plans("hang")
        and options.candidate_timeout_s is None
    ):
        # A hang with no watchdog would never return in a real sweep;
        # refuse the misconfigured harness up front instead of letting
        # the quarantine machinery mask it mid-sweep.
        raise ValueError(
            "fault plan schedules a hang but no candidate_timeout_s is "
            "set; the injected stall would have no active deadline"
        )
    resilience = _Resilience(
        candidate_timeout_s=options.candidate_timeout_s,
        sweep_deadline=(
            Deadline(options.time_budget_s)
            if options.time_budget_s is not None
            else None
        ),
        fault_plan=fault_plan,
    )

    journal: Optional[CheckpointJournal] = None
    if checkpoint is not None:
        header = make_header(
            function, device, resource_fraction, clock_ns,
            options.max_parallelism, options.keep_existing_schedule,
        )
        if options.resume:
            journal = CheckpointJournal.resume(
                checkpoint, header, engine=engine, fault_plan=fault_plan
            )
        else:
            journal = CheckpointJournal.create(
                checkpoint, header, fault_plan=fault_plan
            )
    resilience.journal = journal

    isl_before = _isl_memo.stats_snapshot()
    isl_was_enabled = _isl_memo.set_enabled(cache)
    previous_plan = _faults.install(fault_plan) if fault_plan is not None else None

    span_args = None
    if _trace.enabled():
        span_args = {
            "function": function.name,
            "fingerprint": workload_fingerprint(
                function, options.keep_existing_schedule
            ),
            "cache": cache,
        }
    try:
        with _trace.span("dse.auto_dse", "dse", span_args):
            result = _search(
                function, device, budget, estimator, stats,
                options.max_parallelism, options.keep_existing_schedule, cache,
                engine, quarantine, resilience,
                objective=objective, surrogate=options.surrogate,
            )
    finally:
        _isl_memo.set_enabled(isl_was_enabled)
        if fault_plan is not None:
            _faults.install(previous_plan)
        if journal is not None:
            journal.close()

    stats.finish_isl(isl_before, _isl_memo.stats_snapshot())
    stats.report_hits = estimator.report_hits
    stats.report_misses = estimator.report_misses
    stats.total_s = time.perf_counter() - start

    tracer = _trace.active()
    if tracer is not None:
        _publish_stats_metrics(tracer, stats)

    report, configs, plan, frontier = result
    return DseResult(
        function=function,
        report=report,
        schedule=function.schedule.copy(),
        plan=plan,
        configs=configs,
        dse_time_s=stats.total_s,
        evaluations=stats.evaluations,
        stats=stats,
        quarantine=quarantine,
        diagnostics=list(engine.diagnostics),
        journal_path=checkpoint,
        objective=objective.canonical,
        frontier=frontier,
    )


# DseStats counters published as trace metrics at the end of a traced
# sweep, with their metric names.  Bulk-loading from the authoritative
# stats (instead of counting twice in the hot loops) keeps the metrics
# consistent with `--stats` for free.
_STATS_METRICS = (
    ("evaluations", "dse.evaluations"),
    ("candidates", "dse.candidates"),
    ("lowerings", "dse.lowerings"),
    ("group_lowerings", "dse.group_lowerings"),
    ("estimations", "dse.estimations"),
    ("quarantined", "dse.quarantined"),
    ("estimator_retries", "dse.estimator_retries"),
    ("replayed", "dse.replayed"),
    ("timeouts", "dse.timeouts"),
    ("eval_cache_hits", "dse.cache.evaluation.hits"),
    ("eval_cache_misses", "dse.cache.evaluation.misses"),
    ("design_cache_hits", "dse.cache.design.hits"),
    ("design_cache_misses", "dse.cache.design.misses"),
    ("lowering_cache_hits", "dse.cache.nest_lowering.hits"),
    ("lowering_cache_misses", "dse.cache.nest_lowering.misses"),
    ("report_hits", "dse.cache.report.hits"),
    ("report_misses", "dse.cache.report.misses"),
    ("config_cache_hits", "dse.cache.config.hits"),
    ("config_cache_misses", "dse.cache.config.misses"),
    ("partition_cache_hits", "dse.cache.partitions.hits"),
    ("partition_cache_misses", "dse.cache.partitions.misses"),
    ("pareto_candidates", "dse.pareto.candidates"),
    ("pareto_evaluated", "dse.pareto.evaluated"),
    ("surrogate_skips", "dse.pareto.surrogate_skips"),
    ("frontier_size", "dse.pareto.frontier_size"),
)


def _publish_stats_metrics(tracer, stats: DseStats) -> None:
    """Mirror one sweep's :class:`DseStats` into the tracer's metrics."""
    metrics = tracer.metrics
    for attr, name in _STATS_METRICS:
        value = getattr(stats, attr)
        if value:
            metrics.count(name, value)
    for table, (hits, misses) in sorted(stats.isl_counters.items()):
        if hits:
            metrics.count(f"isl.memo.{table}.hits", hits)
        if misses:
            metrics.count(f"isl.memo.{table}.misses", misses)
    if stats.retry_backoff_s:
        metrics.observe("dse.retry_backoff_s", stats.retry_backoff_s)
    if stats.timeout_s:
        metrics.observe("dse.timeout_s", stats.timeout_s)


def _search(
    function: Function,
    device: FPGADevice,
    budget: FPGADevice,
    estimator: HlsEstimator,
    stats: DseStats,
    max_parallelism: int,
    keep_existing_schedule: bool,
    cache: bool,
    engine: DiagnosticEngine,
    quarantine: List[QuarantinedCandidate],
    resilience: _Resilience,
    objective: Optional[Objective] = None,
    surrogate: bool = True,
) -> Tuple[
    SynthesisReport, Dict[str, NodeConfig], Stage1Plan,
    Optional[List[ParetoPoint]],
]:
    if objective is None:
        objective = Objective()
    journal = resilience.journal
    plan_hooks = resilience.fault_plan
    structural, saved_partitions = _prepare_function(
        function, keep_existing_schedule
    )

    # Legality preflight on the directives the search will build upon
    # (structural after/fuse, or the user's full schedule when kept):
    # a dependence-violating directive is rejected here, before any
    # lowering, with a diagnostic naming the violated dependence.
    from repro.preflight import preflight_schedule

    preflight_schedule(function, engine=engine)
    engine.raise_if_errors()

    graph = build_dependence_graph(function, analyze=False)
    t0 = time.perf_counter()
    with _trace.span("dse.stage1", "dse"):
        plan = plan_stage1(function, graph)
        program = stage1_program(function, plan)
    stats.stage1_s += time.perf_counter() - t0

    nodes = [c.name for c in function.computes]
    parallelism = {name: 1 for name in nodes}

    # -- memo layers (all scoped to this call) ------------------------------
    config_cache: Dict[Tuple[str, int], NodeConfig] = {}
    eval_cache: Dict[tuple, Tuple[SynthesisReport, Dict[str, NodeConfig], FuncOp]] = {}
    design_cache: Dict[tuple, Tuple[SynthesisReport, FuncOp]] = {}
    partitions_cache: Dict[tuple, Dict[str, Tuple[int, ...]]] = {}
    nest_cache: Optional[Dict[tuple, list]] = {} if cache else None

    def node_config(name: str, degree: int) -> NodeConfig:
        if not cache:
            return plan_node_config(function, plan, name, degree, program=program)
        key = (name, degree)
        config = config_cache.get(key)
        if config is None:
            stats.config_cache_misses += 1
            config = plan_node_config(function, plan, name, degree, program=program)
            config_cache[key] = config
        else:
            stats.config_cache_hits += 1
        return config

    def _diagnostic_of(exc: BaseException) -> Diagnostic:
        if isinstance(exc, DiagnosticError):
            return exc.diagnostic
        return Diagnostic(
            Severity.ERROR,
            "DSE001",
            f"{type(exc).__name__}: {exc}",
            location=SourceLocation(function=function.name),
        )

    def quarantine_candidate(
        exc: BaseException, par: Dict[str, int], bank_cap: int
    ) -> None:
        diagnostic = _diagnostic_of(exc)
        elapsed = getattr(exc, "elapsed_s", None)
        stats.quarantined += 1
        if diagnostic.code == "DSE003":
            stats.timeouts += 1
            if elapsed is not None:
                stats.timeout_s += elapsed
        quarantine.append(
            QuarantinedCandidate(dict(par), bank_cap, diagnostic, elapsed_s=elapsed)
        )
        engine.emit(diagnostic)
        if journal is not None:
            journal.append_eval(
                stats.candidates, candidate_key(par, bank_cap), par, bank_cap,
                code=diagnostic.code, message=diagnostic.message,
                elapsed_s=elapsed,
            )

    @contextmanager
    def candidate_deadline():
        """Arm the per-candidate watchdog; overruns become DSE003 errors.

        The :class:`Deadline` is polled cooperatively from the hot loops
        of Fourier-Motzkin elimination, AST building, and lowering, so a
        pathological candidate is abandoned at its next checkpoint
        instead of hanging the sweep.
        """
        budget_s = resilience.candidate_timeout_s
        if budget_s is None:
            yield
            return
        try:
            with deadline_scope(Deadline(budget_s)):
                yield
        except DeadlineExceeded as exc:
            error = DiagnosticError(
                f"candidate evaluation timed out after {exc.elapsed_s:.3f}s "
                f"(budget {exc.budget_s:.3f}s)",
                code="DSE003",
                location=SourceLocation(function=function.name),
            )
            error.elapsed_s = exc.elapsed_s
            raise error from exc

    def timed_estimate(func_op: FuncOp) -> SynthesisReport:
        stats.estimations += 1
        t0 = time.perf_counter()
        backoff_before = stats.retry_backoff_s

        def on_retry(slept: float) -> None:
            stats.estimator_retries += 1
            stats.retry_backoff_s += slept

        try:
            return _estimate_with_retries(
                estimator, func_op,
                location=SourceLocation(function=function.name),
                on_retry=on_retry,
                sweep_deadline=resilience.sweep_deadline,
            )
        finally:
            # Retry backoff is idle waiting, not estimation: attribute
            # it to its own counter so --stats does not inflate the
            # estimator's share of the profile.
            stats.estimation_s += (
                time.perf_counter() - t0
                - (stats.retry_backoff_s - backoff_before)
            )

    def lower_and_estimate(
        configs_fp: tuple, bank_cap: int, exact: bool = False
    ) -> Tuple[SynthesisReport, FuncOp]:
        """Install partitions, lower, estimate -- with design-level reuse.

        ``exact=True`` bypasses the design-cache *read* (never the
        write) so the estimator genuinely runs: the exhaustive
        (``surrogate=False``) frontier pass uses it to make
        ``stats.estimations`` an honest count of exact estimator calls.
        """
        pkey = (configs_fp, bank_cap)
        derived = partitions_cache.get(pkey) if cache else None
        # The candidate's schedule is applied at most once: the program
        # that derives the partitions is the one lowered below.
        scheduled = None
        if derived is None:
            if cache:
                stats.partition_cache_misses += 1
            t0 = time.perf_counter()
            scheduled = PolyProgram(function).apply_schedule()
            stats.lowering_s += time.perf_counter() - t0
            derived = derive_partitions(
                function, max_banks=bank_cap, program=scheduled
            )
            if cache:
                partitions_cache[pkey] = derived
        else:
            stats.partition_cache_hits += 1
        _apply_partitions(function, saved_partitions, derived)

        partitions_fp = tuple(p.fingerprint() for p in function.placeholders())
        dkey = (configs_fp, partitions_fp)
        if cache and not exact:
            hit = design_cache.get(dkey)
            if hit is not None:
                stats.design_cache_hits += 1
                return hit
            stats.design_cache_misses += 1
        stats.lowerings += 1
        t0 = time.perf_counter()
        if scheduled is None:
            scheduled = PolyProgram(function).apply_schedule()
        func_op = lower_program_incremental(scheduled, cache=nest_cache, stats=stats)
        stats.lowering_s += time.perf_counter() - t0
        if nest_cache is None:
            stats.group_lowerings += len(func_op.body)
        report = timed_estimate(func_op)
        if cache:
            design_cache[dkey] = (report, func_op)
        return report, func_op

    # -- multi-objective bookkeeping ----------------------------------------
    # The ladder runs identically for every objective (single-objective
    # results stay bit-identical); frontier modes additionally remember
    # every scored candidate and every distinct parallelism vector, in
    # visit order, so the post-ladder enrichment pass can complete the
    # (visited parallelism) x (bank cap) grid deterministically.
    scored: Dict[str, Tuple[Dict[str, int], int, SynthesisReport]] = {}
    visited_pars: List[Dict[str, int]] = []
    _seen_pars: set = set()

    def note_scored(
        par: Dict[str, int], bank_cap: int, report: SynthesisReport
    ) -> None:
        if not objective.wants_frontier:
            return
        frozen = tuple(sorted(par.items()))
        if frozen not in _seen_pars:
            _seen_pars.add(frozen)
            visited_pars.append(dict(par))
        jkey = candidate_key(par, bank_cap)
        if jkey not in scored:
            scored[jkey] = (dict(par), bank_cap, report)

    def evaluate(
        par: Dict[str, int],
        bank_cap: int = 128,
        force: bool = False,
        exact: bool = False,
    ) -> Tuple[SynthesisReport, Dict[str, NodeConfig], Optional[FuncOp]]:
        stats.evaluations += 1
        configs = {name: node_config(name, par[name]) for name in nodes}
        configs_fp = tuple(configs[name].fingerprint() for name in nodes)
        ekey = (configs_fp, bank_cap)
        if cache and not force and not exact:
            hit = eval_cache.get(ekey)
            if hit is not None:
                stats.eval_cache_hits += 1
                note_scored(par, bank_cap, hit[0])
                return hit
            stats.eval_cache_misses += 1
        jkey = candidate_key(par, bank_cap)
        if journal is not None and not force and not exact:
            record = journal.replay(jkey)
            if record is not None:
                # Resumed sweep: this candidate was already scored before
                # the crash.  The journaled cycles/resources are all the
                # search decisions consume; no func_op exists (the final
                # best design is re-lowered for real at the end).
                stats.replayed += 1
                report = journal.report_from(
                    record, function.name, device, estimator.clock_ns
                )
                note_scored(par, bank_cap, report)
                return report, configs, None
        ordinal = stats.candidates
        stats.candidates += 1
        span_args = None
        if _trace.enabled():
            span_args = {
                "ordinal": ordinal,
                "bank_cap": bank_cap,
                "parallelism": dict(par),
            }
        if plan_hooks is not None:
            plan_hooks.enter_candidate(ordinal)
        t0 = time.perf_counter()
        try:
            with _trace.span("dse.candidate", "dse", span_args):
                with candidate_deadline():
                    _install_schedule(function, plan, configs, structural, program)
                    report, func_op = lower_and_estimate(
                        configs_fp, bank_cap, exact=exact
                    )
        finally:
            if plan_hooks is not None:
                plan_hooks.exit_candidate()
        if journal is not None:
            journal.append_eval(
                ordinal, jkey, par, bank_cap,
                report=report, elapsed_s=time.perf_counter() - t0,
            )
        result = (report, configs, func_op)
        if cache:
            eval_cache[ekey] = result
        note_scored(par, bank_cap, report)
        return result

    # The degree-1 baseline must evaluate: without it there is no legal
    # design to degrade to, so a failure here is fatal (as a diagnostic,
    # not a traceback).
    try:
        report, configs, func_op = evaluate(parallelism)
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        raise DiagnosticError(_diagnostic_of(exc)) from exc
    best = (report, configs, dict(parallelism), 128)
    # The degree-1 design is the latency normalizer for weighted
    # objectives (the worst latency the ladder ever accepts).
    baseline_report = report

    # Fused statements share one pipeline, so they step together: the
    # optimization unit is the fusion group of the bottleneck node.
    group_of = {name: [name] for name in nodes}
    for group in plan.fused_groups:
        for member in group:
            group_of[member] = group

    def latencies_for_best() -> Dict[str, int]:
        """Per-node latencies of the current best design, journal-aware.

        On a resumed sweep the best design may have been replayed (no
        lowered func_op); its latency attribution comes from the journal,
        or -- if the crash landed between the eval and lat appends -- from
        one forced re-evaluation.
        """
        nonlocal report, configs, func_op
        jkey = candidate_key(best[2], best[3])
        if func_op is None:
            cached = journal.latencies(jkey) if journal is not None else None
            if cached is not None:
                return cached
            report, configs, func_op = evaluate(best[2], best[3], force=True)
        latencies = _node_latencies(func_op, timed_estimate)
        if journal is not None:
            journal.append_latencies(jkey, latencies)
        return latencies

    active = set(nodes)

    try:
        while active:
            if (
                resilience.sweep_deadline is not None
                and resilience.sweep_deadline.exceeded()
            ):
                # Same graceful-degradation contract as estimator faults:
                # the best design found so far is the answer.
                stats.time_budget_hit = True
                engine.note(
                    "DSE004",
                    f"sweep time budget "
                    f"({resilience.sweep_deadline.budget_s:.1f}s) exhausted; "
                    "stopping at the best design found so far",
                )
                break
            try:
                latencies = latencies_for_best()
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                # Bottleneck analysis failed on an already-accepted design:
                # degrade gracefully to the best design found so far.
                engine.emit(_diagnostic_of(exc))
                engine.note(
                    "GEN001",
                    "bottleneck analysis failed; stopping the search at the "
                    "best design found so far",
                )
                break
            bottleneck = _pick_bottleneck(graph, latencies, active)
            if bottleneck is None:
                break
            members = group_of[bottleneck]
            trial = dict(parallelism)
            exhausted = False
            for member in members:
                trial[member] = parallelism[member] * 2
                if trial[member] > _max_parallelism(function, member, max_parallelism):
                    exhausted = True
            if exhausted:
                active.difference_update(members)
                continue
            # Factor quantization (even-divisor preference, legality) can make
            # a doubled degree produce the exact same configs; that is a no-op
            # step, not a dead end -- keep climbing the ladder.
            try:
                with candidate_deadline():
                    trial_plan = {
                        member: node_config(member, trial[member])
                        for member in members
                    }
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                quarantine_candidate(exc, trial, 0)
                active.difference_update(members)
                continue
            if all(
                trial_plan[member].unrolls == configs[member].unrolls
                and trial_plan[member].pipeline_dim == configs[member].pipeline_dim
                for member in members
            ):
                parallelism = trial
                continue
            accepted = False
            # Full banking first; if the spatial design overflows, trade
            # banks for operator sharing (a larger II lets copies timeshare
            # units -- the paper's BICG [1,32] / II=2 design point).
            for bank_cap in BANK_CAPS:
                try:
                    trial_report, trial_configs, trial_func = evaluate(trial, bank_cap)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    # The trial schedule is installed on the function; its
                    # failure must not abort the sweep.  Quarantine it (the
                    # failure is banking-independent, so other caps are not
                    # retried) and keep searching from the best design.
                    quarantine_candidate(exc, trial, bank_cap)
                    break
                if _within_budget(trial_report, budget) and trial_report.total_cycles < best[0].total_cycles:
                    parallelism = trial
                    best = (trial_report, trial_configs, dict(parallelism), bank_cap)
                    report, configs, func_op = trial_report, trial_configs, trial_func
                    accepted = True
                    break
            if not accepted:
                active.difference_update(members)
    except KeyboardInterrupt:
        # SIGINT is a graceful stop: the checkpoint journal is already
        # flushed through the last completed candidate, and the best
        # design found so far is installed and returned.
        stats.interrupted = True
        engine.note(
            "DSE007",
            "sweep interrupted; stopping at the best design found so far",
        )

    # -- frontier enrichment (objective="pareto"/"weighted") ----------------
    # The ladder above ran exactly as it does for "single" (its
    # trajectory, journal records, and best design are bit-identical);
    # frontier modes now complete the (visited parallelism) x (bank cap)
    # grid so latency-vs-resource tradeoffs the ladder rejected (or
    # never tried at smaller bank caps) become frontier candidates.
    frontier_points: Optional[List[ParetoPoint]] = None
    if objective.wants_frontier and not stats.interrupted:
        frontier = ParetoFrontier()
        with _trace.span("dse.pareto", "dse"):
            grid: List[Tuple[Dict[str, int], int, str]] = []
            for par in visited_pars:
                for cap in BANK_CAPS:
                    grid.append((par, cap, candidate_key(par, cap)))
            stats.pareto_candidates += len(grid)
            pending = [entry for entry in grid if entry[2] not in scored]

            # Provable skips (surrogate mode only): a pending candidate
            # whose *design signature* -- node-config fingerprints plus
            # the partition factors derived at its bank cap -- matches
            # an already-scored design lowers to the bit-identical
            # design, so its report is copied instead of estimated.
            # Signature equality is the only skip condition; the
            # surrogate model merely orders the exact evaluations, which
            # is why the frontier is provably identical with the
            # surrogate on or off (the differential suite pins this).
            sig_partitions: Dict[tuple, Dict[str, Tuple[int, ...]]] = {}

            def design_signature(par: Dict[str, int], cap: int) -> tuple:
                sig_configs = {
                    name: node_config(name, par[name]) for name in nodes
                }
                sig_fp = tuple(
                    sig_configs[name].fingerprint() for name in nodes
                )
                pkey = (sig_fp, cap)
                derived = sig_partitions.get(pkey)
                if derived is None:
                    derived = partitions_cache.get(pkey) if cache else None
                    if derived is None:
                        _install_schedule(
                            function, plan, sig_configs, structural, program
                        )
                        derived = derive_partitions(function, max_banks=cap)
                    sig_partitions[pkey] = derived
                return (
                    sig_fp,
                    tuple(
                        sorted(
                            (name, tuple(factors))
                            for name, factors in derived.items()
                        )
                    ),
                )

            def total_par(par: Dict[str, int]) -> int:
                total = 1
                for degree in par.values():
                    total *= degree
                return total

            iteration_volume = 0
            for compute in function.computes:
                volume = 1
                for it in compute.iters:
                    volume *= it.extent
                iteration_volume += volume
            hit_rate = memo_hit_rate(_isl_memo.stats_snapshot())

            if surrogate:
                sig_to_report: Dict[tuple, SynthesisReport] = {}
                for skey in scored:
                    spar, scap, sreport = scored[skey]
                    sig_to_report.setdefault(
                        design_signature(spar, scap), sreport
                    )
                model = SurrogateModel(
                    axes=objective.axes, weights=objective.weights
                )
                for skey in scored:
                    spar, scap, sreport = scored[skey]
                    model.observe(
                        candidate_features(
                            total_par(spar), scap, iteration_volume, hit_rate
                        ),
                        objective.vector(sreport),
                    )
                ordered = model.rank(
                    [
                        (
                            entry,
                            candidate_features(
                                total_par(entry[0]), entry[1],
                                iteration_volume, hit_rate,
                            ),
                        )
                        for entry in pending
                    ]
                )
            else:
                ordered = pending

            try:
                for par, cap, jkey in ordered:
                    if (
                        resilience.sweep_deadline is not None
                        and resilience.sweep_deadline.exceeded()
                    ):
                        if not stats.time_budget_hit:
                            stats.time_budget_hit = True
                            engine.note(
                                "DSE004",
                                f"sweep time budget "
                                f"({resilience.sweep_deadline.budget_s:.1f}s) "
                                "exhausted; publishing the partial frontier",
                            )
                        break
                    if surrogate:
                        signature = design_signature(par, cap)
                        donor = sig_to_report.get(signature)
                        if donor is not None:
                            # Bit-identical design already scored: copy
                            # its report.  Journaled (ordinal unchanged:
                            # no real evaluation started) so a resumed
                            # sweep replays the copy too.
                            stats.surrogate_skips += 1
                            note_scored(par, cap, donor)
                            if journal is not None:
                                journal.append_eval(
                                    stats.candidates, jkey, par, cap,
                                    report=donor, elapsed_s=0.0,
                                )
                            continue
                    try:
                        enriched_report, _, _ = evaluate(
                            par, cap, exact=not surrogate
                        )
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        quarantine_candidate(exc, par, cap)
                        continue
                    stats.pareto_evaluated += 1
                    if surrogate:
                        sig_to_report.setdefault(signature, enriched_report)
            except KeyboardInterrupt:
                stats.interrupted = True
                engine.note(
                    "DSE007",
                    "sweep interrupted; publishing the partial frontier",
                )

            for par, cap, jkey in grid:
                entry = scored.get(jkey)
                if entry is None:
                    continue
                if not _within_budget(entry[2], budget):
                    continue
                frontier.insert(
                    ParetoPoint.from_report(jkey, par, cap, objective, entry[2])
                )
            frontier_points = frontier.points()
            stats.frontier_size += len(frontier_points)
            if journal is not None:
                journal.append_frontier(
                    objective.canonical, frontier.to_records()
                )

        if objective.mode == "weighted" and frontier_points:
            # Select the frontier member minimizing the normalized
            # weighted sum; it becomes the installed design.
            reference = objective.reference_vector(baseline_report, budget)
            selected = min(
                frontier_points,
                key=lambda p: (
                    objective.scalarize(p.values, reference), p.key,
                ),
            )
            sel_par = dict(selected.parallelism)
            sel_configs = {
                name: node_config(name, sel_par[name]) for name in nodes
            }
            best = (scored[selected.key][2], sel_configs, sel_par,
                    selected.bank_cap)

    # Reinstall the best schedule (the last trial may have been rejected).
    report, configs, best_cap = best[0], best[1], best[3]
    with _trace.span("dse.finalize", "dse"):
        _install_schedule(function, plan, configs, structural, program)
        configs_fp = tuple(configs[name].fingerprint() for name in nodes)
        report, _ = lower_and_estimate(configs_fp, best_cap)
    return report, configs, plan, frontier_points


def _prepare_function(function: Function, keep_existing_schedule: bool):
    """Reset the function to the directives the search builds upon.

    Returns the structural directives and the baseline partition
    schemes.
    """
    structural = function.structural_directives()
    if not keep_existing_schedule:
        function.reset_schedule()
        for directive in structural:
            function.schedule.add(directive)
    saved_partitions = {p.name: p.partition_scheme for p in function.placeholders()}
    return structural, saved_partitions


def _install_schedule(
    function: Function,
    plan: Stage1Plan,
    configs,
    structural=(),
    program: Optional[PolyProgram] = None,
) -> None:
    """Install a trial schedule on the function (partitions separate).

    Structural after/fuse directives (algorithm-level loop sharing) are
    re-added first so they keep their meaning under the new schedule.
    """
    function.reset_schedule()
    for directive in structural:
        function.schedule.add(directive)
    for directive in config_directives(function, plan, configs, program=program):
        function.schedule.add(directive)


def _apply_partitions(function: Function, saved_partitions, derived) -> None:
    """Reset partition schemes to the saved baseline, then apply derived."""
    placeholders = {p.name: p for p in function.placeholders()}
    for name, placeholder in placeholders.items():
        placeholder.partition_scheme = saved_partitions.get(name)
    for name, factors in derived.items():
        if any(f > 1 for f in factors):
            placeholders[name].partition(list(factors), "cyclic")


def _within_budget(report: SynthesisReport, budget: FPGADevice) -> bool:
    return (
        report.resources.dsp <= budget.dsp
        and report.resources.lut <= budget.lut
        and report.resources.ff <= budget.ff
    )


def _node_latencies(
    func_op: FuncOp, estimate: Callable[[FuncOp], SynthesisReport]
) -> Dict[str, int]:
    """Latency attributed to each compute via its top-level loop nest.

    Per-nest estimates are reused across ladder steps for free: each
    shell function's fingerprint covers only the one nest (and the
    partition schemes of arrays it touches), so a memoizing ``estimate``
    recognizes nests unchanged since the previous evaluation.
    """
    latencies: Dict[str, int] = {}
    for op in func_op.body:
        shell = FuncOp(func_op.name, func_op.arrays)
        # Deep-copy dict-valued attributes: the shells must never alias
        # the parent's mutable attribute payloads (e.g. partitions).
        shell.attributes.update(
            {
                key: dict(value) if isinstance(value, dict) else value
                for key, value in func_op.attributes.items()
            }
        )
        shell.body.append(op)
        cycles = estimate(shell).total_cycles
        names = {
            inner.attributes.get("statement")
            for inner in op.walk()
            if isinstance(inner, AffineStoreOp)
        }
        for name in names:
            if name:
                latencies[name] = latencies.get(name, 0) + cycles
    return latencies


def _pick_bottleneck(graph, latencies: Dict[str, int], active) -> Optional[str]:
    """The highest-latency active node on the critical data path."""
    paths = graph.data_paths()
    ordered_paths = sorted(
        paths,
        key=lambda p: sum(latencies.get(n, 0) for n in p),
        reverse=True,
    )
    for path in ordered_paths:
        candidates = [n for n in path if n in active]
        if candidates:
            return max(candidates, key=lambda n: latencies.get(n, 0))
    remaining = [n for n in active]
    if remaining:
        return max(remaining, key=lambda n: latencies.get(n, 0))
    return None


def _max_parallelism(function: Function, node: str, cap: int) -> int:
    compute = function.get_compute(node)
    total = 1
    for it in compute.iters:
        total *= it.extent
    return min(cap, total)
