"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload polybench-dse --seed 1 --seconds 10 --trace 0

One process, one thread, ``DseOptions(jobs=1)``: a closed loop with a
single caller that sends the next job when the previous one returns.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it wraps each layer's public functions (see
:mod:`layers`) and prints the per-layer metrics instead.  Either way it
checks every output, and exits 1 when any check fails.  The last line
of standard output is one JSON object; the lines before it give every
metric with its unit and sample count, and the environment.

``--setup-probe`` only sets up and prints the setup time; ``run.py``
starts four such probes and reports the median of five setups.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench_state")

WORKLOADS = ("polybench-dse", "frontier-dse", "dnn-dse", "compile-sim")
P90_MIN_JOBS = 100
SETUP_PROBES = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def bootstrap() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


# -- setup ----------------------------------------------------------------------


def setup(workload: str) -> float:
    """Import the program, build the registry, run the warm-up jobs.

    Warm-up jobs are kept out of every timed job set and run in their
    own session, so they fill lazy imports and code paths but none of
    the memo tables a timed round uses.  Returns seconds since T0.
    """
    import repro
    from repro.serve import SessionContext

    repro.workloads.names()
    import jobs

    with SessionContext().activate():
        gemm = repro.workloads.get("gemm", 64)
        if workload == "compile-sim":
            jobs.compile_sim_job(gemm, None, seed=0)
        else:
            jobs.run_job(jobs.Job("dse", "gemm", 64), gemm)
        if workload == "frontier-dse":
            jobs.run_job(jobs.Job("pareto", "gemm", 64), repro.workloads.get("gemm", 64))
            jobs.run_job(jobs.Job("dataflow", "conv-block", 16, 0.25),
                         repro.workloads.get("conv-block", 16))
    return time.perf_counter() - T0


def probe_setups(workload: str) -> list:
    """Setup times of fresh processes, each measured like this one's."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# -- the timed loop -----------------------------------------------------------------


class Round:
    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.records = []          # (job, seconds, outcome)
        self.midpoints = []        # when each job ran (perf_counter)
        self.memo = {}             # isl memo (hits, misses) per table
        self.first_span = 0
        self.last_span = 0


class Speed:
    """The host's speed during the run, from a fixed calibration kernel.

    This machine's speed drifts: a whole run's job times can move
    together by a third, and every layer's time moves with it.  The
    kernel (pure Python plus numpy, like the program) runs between jobs,
    at most every ``EVERY_S`` seconds and after each round.  A job's time
    is reported scaled by ``REFERENCE_S`` over the median of the
    ``NEAREST`` kernel times taken closest to it: seconds on a host that
    runs the kernel in ``REFERENCE_S``.
    """

    REFERENCE_S = 0.006
    EVERY_S = 0.5
    REPEAT = 3
    NEAREST = 6

    def __init__(self):
        import numpy

        self._np = numpy
        self.samples = []  # (when, seconds)
        self._last = -math.inf

    def _kernel(self):
        total = 0
        for i in range(60000):
            total += i * i % 7
        values = self._np.arange(20000, dtype=self._np.float64)
        for _ in range(20):
            values = values * 1.0000001 + 1.0
        return total

    def sample(self, force=False):
        if not force and time.perf_counter() - self._last < self.EVERY_S:
            return
        for _ in range(self.REPEAT):
            start = time.perf_counter()
            self._kernel()
            self.samples.append((start, time.perf_counter() - start))
        self._last = time.perf_counter()

    def factor(self, when: float) -> float:
        """The scale for a job that ran around ``when``."""
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - when))[:self.NEAREST]
        return self.REFERENCE_S / statistics.median(s for _, s in nearest)

    def overall(self) -> float:
        return self.REFERENCE_S / statistics.median(s for _, s in self.samples)


def run_round(index, universe, checks, speed, recorder, compile_func):
    import jobs
    from repro.serve import SessionContext

    traced = recorder is not None
    current = Round(index, traced)
    session = SessionContext()
    installation = None
    with session.activate():
        if traced:
            import layers

            current.first_span = len(recorder.spans)
            installation = layers.Installation(recorder)
            job_span = recorder.name_id("job")
        try:
            for job in jobs.round_order(universe, checks.seed, index):
                speed.sample()
                subject = jobs.make_input(job, checks.seed)
                if traced:
                    recorder.job += 1
                    span = recorder.open(job_span)
                start = time.perf_counter()
                try:
                    result = jobs.run_job(job, subject)
                except Exception as exc:  # a failed job, counted in failed_fraction
                    result = None
                    error = "raised " + "".join(
                        traceback.format_exception_only(type(exc), exc)).strip()
                seconds = time.perf_counter() - start
                current.midpoints.append(start + seconds / 2)
                if traced:
                    recorder.close(span)
                if result is None:
                    outcome = jobs.Outcome(0, "raised", errors=[error])
                else:
                    outcome = jobs.summarize(job, subject, result, compile_func)
                checks.after_job(index, job, outcome)
                current.records.append((job, seconds, outcome))
            speed.sample(force=True)
        finally:
            if installation is not None:
                installation.remove()
                current.last_span = len(recorder.spans)
    current.memo = session.memo.stats_snapshot()
    return current


def run_rounds(workload, universe, checks, speed, seconds, trace, recorder, compile_func):
    """Enough whole rounds to cover ``seconds`` at the workload's nominal
    round time.  The count does not depend on how fast this run goes, so
    every run mixes the same first and later rounds.  Traced runs
    alternate untraced and traced rounds, starting and ending untraced."""
    import jobs

    count = max(1, math.ceil(seconds / jobs.ROUND_SECONDS[workload]))
    if trace:  # odd, so untraced rounds after the first match traced ones
        count = max(3, count + 1 - count % 2)
    return [
        run_round(index, universe, checks, speed,
                  recorder if trace and index % 2 == 1 else None, compile_func)
        for index in range(count)
    ]


# -- checks -------------------------------------------------------------------------


class Checks:
    """Output checks, run untimed as each job finishes and after the loop.

    Simulation outputs are compared with the reference as soon as a job
    ends, and only round 0 keeps its designs for verification, so memory
    does not grow with the number of rounds.
    """

    def __init__(self, seed, oracle, store):
        self.seed = seed
        self.oracle = oracle
        self.store = store
        self.self_test_problems = []
        self._tested = False

    def after_job(self, index, job, outcome):
        if outcome.arrays is not None:
            outcome.errors += self.oracle.check(job, self.seed, outcome.arrays)
            if not self._tested:
                self._tested = True
                self._corrupt_output(job, outcome.arrays)
            outcome.arrays = None
        if index > 0:
            outcome.subjects = []

    def _corrupt_output(self, job, arrays):
        import numpy as np

        corrupted = {name: np.array(value) for name, value in arrays.items()}
        corrupted[sorted(corrupted)[0]].flat[0] += 1
        if not self.oracle.check(job, self.seed, corrupted):
            self.self_test_problems.append(
                "self-test: a corrupted simulation output passed the oracle")

    def verify_designs(self, rounds):
        """Failures per job key and the count of conservative rejects.

        A DSE design is verified once per version of the sources: a
        design whose fingerprint matches one verified earlier in this
        checkout shares its verdict (the DNN designs take ~15 s each to
        preflight).  Every run still proves the check rejects a design
        with an illegal directive.
        """
        import jobs

        failures = {}
        conservative = 0
        first = {job.key: (job, outcome) for job, _, outcome in rounds[0].records}
        for job, outcome in first.values():
            if job.kind == "compile":
                continue
            name = hashlib.sha256(f"{job.key}:{outcome.fingerprint}".encode()).hexdigest()[:24]
            verdict = self.store.load("verified", name)
            if verdict is None:
                problems, rejects = jobs.verify_design(outcome, self.seed)
                if problems:
                    failures[job.key] = problems
                    continue
                verdict = {"conservative_rejects": rejects}
                self.store.save("verified", name, verdict)
            conservative += verdict["conservative_rejects"]
        job, _, outcome = rounds[0].records[0]
        if job.kind != "compile":
            broken = jobs.corrupted_design(job, self.seed)
            if not jobs.verify_design(broken, self.seed)[0]:
                self.self_test_problems.append(
                    "self-test: an illegal design passed preflight + verifier")
        for current in rounds:
            for job, _, outcome in current.records:
                problems = list(outcome.errors)
                if outcome.fingerprint != first[job.key][1].fingerprint:
                    which = "traced" if current.traced else "untraced"
                    problems.append(f"round {current.index} ({which}) chose a "
                                    "different design than round 0")
                if problems:
                    failures.setdefault(job.key, []).extend(problems)
        return failures, conservative


class Store:
    """Records kept across runs in one checkout.

    Keyed by a hash of the program and benchmark sources, so changing
    either starts afresh.
    """

    def __init__(self):
        hasher = hashlib.sha256()
        for base in (SRC, HERE):
            for directory, dirs, files in sorted(os.walk(base)):
                dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__")))
                for name in sorted(files):
                    if name.endswith((".py", ".json")):
                        path = os.path.join(directory, name)
                        hasher.update(os.path.relpath(path, ROOT).encode())
                        with open(path, "rb") as handle:
                            hasher.update(handle.read())
        self.digest = hasher.hexdigest()[:16]

    def _path(self, kind: str, name: str) -> str:
        return os.path.join(STATE, kind, f"{name}-{self.digest}.json")

    def load(self, kind: str, name: str):
        try:
            with open(self._path(kind, name)) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    def save(self, kind: str, name: str, value) -> None:
        path = self._path(kind, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as handle:
            json.dump(value, handle, sort_keys=True)
        os.replace(path + ".tmp", path)


def check_repeat(store, workload, seed, trace, values):
    """Compare the values that must repeat with an earlier run of the same
    sources and seed; record them on the first such run."""
    name = f"{workload}-s{seed}-t{trace}"
    earlier = store.load("determinism", name)
    if earlier is None:
        store.save("determinism", name, values)
        return []
    return [
        f"{key} drifted from an earlier run with this seed: "
        f"{earlier.get(key)!r} -> {value!r}"
        for key, value in values.items()
        if earlier.get(key) != value
    ]


# -- metrics ------------------------------------------------------------------------


def geomean(values):
    values = sorted(v for v in values if v > 0)  # order-independent sum
    return math.exp(sum(map(math.log, values)) / len(values)) if values else 0.0


def ratio(hits, lookups):
    return hits / lookups if lookups else 0.0


def per_round_counts(current):
    """Counts a round must repeat exactly, from its job results."""
    counts = {"dse.evaluations": 0, "dse.estimations": 0,
              "hlsgen.lines": 0, "sim.fallbacks": 0}
    for _, _, outcome in current.records:
        if outcome.stats is not None:
            counts["dse.evaluations"] += outcome.stats.evaluations
            counts["dse.estimations"] += outcome.stats.estimations
        counts["hlsgen.lines"] += outcome.lines
        counts["sim.fallbacks"] += outcome.fallbacks
    return counts


def scaled_times(rounds, speed):
    """Job times at reference host speed (see :class:`Speed`)."""
    return [
        s * speed.factor(when)
        for r in rounds for (_, s, _), when in zip(r.records, r.midpoints)
    ]


def end_to_end(rounds, setups, peak_rss_mb, speed):
    """The end-to-end metrics, and extra lines that are only printed.

    Job times are scaled by the run's host speed (see :class:`Speed`);
    the printed extra lines give the unscaled values too.
    """
    raw = [s for r in rounds for _, s, _ in r.records]
    times = scaled_times(rounds, speed)
    cycles = [o.cycles for r in rounds for _, _, o in r.records]
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "jobs_per_s": (n / sum(times), "1/s", n),
        "job_s_p50": (statistics.median(times), "s", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "design_cycles_geomean": (geomean(cycles), "cycles", n),
    }
    extra = {}
    if n >= P90_MIN_JOBS:
        extra["job_s_p90"] = (statistics.quantiles(times, n=10)[8], "s", n)
    extra.update({
        "host.speed_factor": (speed.overall(), "ratio", len(speed.samples)),
        "host.jobs_per_s": (n / sum(raw), "1/s", n),
        "host.job_s_p50": (statistics.median(raw), "s", n),
    })
    return metrics, extra


def per_layer(rounds, recorder, speed):
    """Per-layer metrics, per round, from the traced rounds."""
    import layers

    traced = [r for r in rounds if r.traced]
    n = len(traced)
    calls, self_s = defaultdict(int), defaultdict(float)
    job_time = covered_time = 0.0
    job_id = recorder.name_id("job")
    carried_per_round = []
    for current in traced:
        c, s, covered = recorder.self_times(current.first_span, current.last_span)
        carried_per_round.append(c.get("depgraph.carried", 0))
        for name, value in c.items():
            calls[name] += value
        for name, value in s.items():
            self_s[name] += value
        spans = recorder.spans[current.first_span:current.last_span]
        for offset, span in enumerate(spans):
            if span[0] == job_id:
                job_time += span[2] - span[1]
                covered_time += covered[offset]

    outcomes = [o for r in traced for _, _, o in r.records]
    stats = [o.stats for o in outcomes if o.stats is not None]

    def stat(name):
        return sum(getattr(s, name) for s in stats)

    memo = [counts for r in traced for counts in r.memo.values()]
    memo_hits = sum(h for h, _ in memo)
    memo_lookups = sum(h + m for h, m in memo)
    speedups = [o.naive_speedup for o in outcomes if o.naive_speedup is not None]
    traced_times = scaled_times(traced, speed)
    # Round 0 runs slower than later rounds; compare like with like.
    plain_times = scaled_times([r for r in rounds[1:] if not r.traced], speed)

    values = {}
    for name in layers.LAYERS:  # "<span>.calls" and "<span>.self_s"
        span, _, kind = name.rpartition(".")
        if span in layers.SPANS and kind in ("calls", "self_s"):
            values[name] = (calls if kind == "calls" else self_s)[span] / n
    values.update({
        "isl.basicset.constructed": recorder.counts["isl.basicset.constructed"] / n,
        "isl.is_empty.calls": recorder.counts["isl.is_empty.calls"] / n,
        "isl.memo.hit_ratio": ratio(memo_hits, memo_lookups),
        "isl.memo.lookups": memo_lookups / n,
        "dse.evaluations": stat("evaluations") / n,
        "dse.estimations": stat("estimations") / n,
        "dse.quarantined": stat("quarantined") / n,
        "dse.pareto.evaluated_ratio": ratio(stat("pareto_evaluated"), stat("pareto_candidates")),
        "dse.pareto.candidates": stat("pareto_candidates") / n,
        "dse.surrogate_skips": stat("surrogate_skips") / n,
        "dse.frontier_size": stat("frontier_size") / n,
        "dataflow.naive_speedup": geomean(speedups),
        "hlsgen.lines": sum(o.lines for o in outcomes) / n,
        "sim.vector_nests": sum(o.vector_nests for o in outcomes) / n,
        "sim.fallbacks": sum(o.fallbacks for o in outcomes) / n,
        "untraced_fraction": ratio(job_time - covered_time, job_time),
        "trace.overhead_fraction": (
            statistics.median(traced_times) / statistics.median(plain_times) - 1.0
        ),
    })
    for layer, (hits, misses) in CACHE_LAYERS.items():
        lookups = stat(hits) + stat(misses)
        values[f"dse.{layer}_cache.hit_ratio"] = ratio(stat(hits), lookups)
        values[f"dse.{layer}_cache.lookups"] = lookups / n
    return values, len(traced_times), carried_per_round


CACHE_LAYERS = {
    "eval": ("eval_cache_hits", "eval_cache_misses"),
    "design": ("design_cache_hits", "design_cache_misses"),
    "lowering": ("lowering_cache_hits", "lowering_cache_misses"),
    "config": ("config_cache_hits", "config_cache_misses"),
    "partition": ("partition_cache_hits", "partition_cache_misses"),
    "report": ("report_hits", "report_misses"),
}


# -- main ---------------------------------------------------------------------------


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    bootstrap()
    own_setup = setup(args.workload)
    if args.setup_probe:
        print(f"{own_setup:.6f}")
        return 0
    setups = [own_setup] + probe_setups(args.workload)

    import jobs
    import layers
    from repro.affine.compile import compile_func

    universe = jobs.universe(args.workload)
    oracle = jobs.ReferenceOracle()
    if args.workload == "compile-sim":
        for job in universe:  # untimed, outside setup_s
            oracle.expected(job, args.seed)
    recorder = layers.Recorder() if args.trace else None
    store = Store()
    checks = Checks(args.seed, oracle, store)
    speed = Speed()
    rounds = run_rounds(args.workload, universe, checks, speed, args.seconds, args.trace,
                        recorder, compile_func)
    # Before the checks: re-verifying a design holds memory of its own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, conservative = checks.verify_designs(rounds)
    problems = checks.self_test_problems
    counts = [per_round_counts(r) for r in rounds]
    if any(c != counts[0] for c in counts):
        problems.append(f"per-round counts differ between rounds: {counts}")
    repeat = {
        "design_cycles_geomean": geomean([o.cycles for _, _, o in rounds[0].records]),
        "designs": hashlib.sha256(json.dumps(sorted(
            (job.key, o.fingerprint) for job, _, o in rounds[0].records
        )).encode()).hexdigest(),
        **counts[0],
    }
    notes = []
    if args.trace:
        values, samples, carried = per_layer(rounds, recorder, speed)
        values["preflight.conservative_rejects"] = conservative
        if len(set(carried)) > 1:
            problems.append(f"depgraph.carried.calls differ between rounds: {carried}")
        repeat["depgraph.carried.calls"] = carried[0]
        metrics = {name: (values[name], layers.LAYERS[name][0], samples)
                   for name in layers.LAYERS}
    else:
        metrics, extra = end_to_end(rounds, setups, peak_rss_mb, speed)
        notes = [_format(name, entry) for name, entry in extra.items()]
    problems += check_repeat(store, args.workload, args.seed, args.trace, repeat)
    if conservative:
        notes.append(f"  note: {conservative} chosen designs fail the conservative "
                     "preflight but simulate bit-identically to reference_execute")

    attempted = sum(len(r.records) for r in rounds)
    failed = sum(1 for r in rounds for job, _, _ in r.records if job.key in failures)
    if not args.trace:
        metrics["ok_fraction"] = (1.0 - failed / attempted, "ratio", attempted)
    correct = not failures and not problems
    for key, messages in sorted(failures.items()):
        print(f"perfbench: FAILED {key}: {messages[0]}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)

    env = environment(args)
    print(f"perfbench {args.workload}: {len(rounds)} rounds of {len(universe)} jobs, "
          f"{failed} of {attempted} failed")
    for name, entry in metrics.items():
        print(_format(name, entry))
    for line in notes:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    _write_results(args, env, metrics, correct, attempted, failed, recorder,
                   rounds, speed)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


def _format(name, entry):
    value, unit, samples = entry
    return f"  {name:<32} {value:>16.6g} {unit:<7} n={samples}"


def _write_results(args, env, metrics, correct, attempted, failed, recorder,
                   rounds, speed):
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(STATE, "results", stem + ".json"), "w") as handle:
        json.dump({
            "env": env, "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": u, "samples": n}
                        for name, (v, u, n) in metrics.items()},
            "speed_samples": speed.samples,
            "jobs": [[r.index, r.traced, job.key, seconds, when]
                     for r in rounds
                     for (job, seconds, _), when in zip(r.records, r.midpoints)],
        }, handle, indent=1, sort_keys=True)
    if recorder is not None:
        recorder.write(os.path.join(STATE, "results", stem + ".spans.json.gz"))


if __name__ == "__main__":
    raise SystemExit(main())
