"""Regenerate ``schedules.json``, the compile-sim schedule pool.

Usage, from the repository root::

    python3 perfbench/make_schedules.py

For every non-DNN function workload at each compile-sim size, draws
legal random schedules with ``repro.fuzz.generator.random_schedule``
until ``PER_KEY`` are accepted.  A draw is rejected when generating it
or compiling it through the compile-sim job takes longer than
``DRAW_BUDGET_S``: some skewed and split nests make the legality
check's integer-set sampling run for minutes, which would stall a run
for longer than the benchmark may take.  The rejected count is kept in
the file so the pool's bias stays visible.

The pool is committed rather than drawn at run time so that a change
to the generator or the legality checker cannot silently change the
benchmark's inputs; each run's ``--seed`` draws its schedules from it.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

SIZES = (24, 32)
PER_KEY = 6
DRAW_BUDGET_S = 1.0
MAX_DRAWS = 60


def main() -> int:
    from repro import workloads
    from repro.dsl.serialize import schedule_to_dict
    from repro.fuzz.generator import random_schedule
    from repro.util.deadline import Deadline, DeadlineExceeded, deadline_scope

    sys.path.insert(0, HERE)
    import jobs

    suites = workloads.suites()
    names = [name for suite in jobs.COMPILE_SUITES for name in suites[suite]]
    pool = {}
    rejected = 0
    for name in names:
        for size in SIZES:
            rng = random.Random(f"perfbench:{name}:{size}")
            accepted = []
            draws = 0
            while len(accepted) < PER_KEY:
                draws += 1
                if draws > MAX_DRAWS:
                    raise SystemExit(f"{name}@{size}: too many slow draws")
                function = workloads.get(name, size)
                start = time.perf_counter()
                try:
                    with deadline_scope(Deadline(DRAW_BUDGET_S)):
                        random_schedule(function, rng)
                        schedule = schedule_to_dict(function)
                        jobs.compile_sim_job(
                            workloads.get(name, size), schedule, seed=0
                        )
                except DeadlineExceeded:
                    rejected += 1
                    continue
                if time.perf_counter() - start > DRAW_BUDGET_S:
                    rejected += 1
                    continue
                schedule.pop("function", None)
                accepted.append(schedule)
            pool[f"{name}@{size}"] = accepted
            print(f"{name}@{size}: {len(accepted)} schedules", flush=True)
    payload = {
        "sizes": list(SIZES),
        "draw_budget_s": DRAW_BUDGET_S,
        "rejected_slow_draws": rejected,
        "pool": pool,
    }
    with open(os.path.join(HERE, "schedules.json"), "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(map(len, pool.values()))} schedules, "
          f"rejected {rejected} slow draws")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
