"""Each DSE candidate's schedule is applied once.

The engine applies a candidate's schedule once and hands the program to
``derive_partitions`` before lowering it.  That is exact only if the
partitions derived from a given program equal the ones
``derive_partitions`` derives by replaying the schedule itself; both
are compared under DSE-chosen and fuzzer-drawn schedules.
"""

import random

import pytest

from repro import workloads
from repro.dse import auto_dse
from repro.dse.stage2 import derive_partitions
from repro.fuzz.generator import random_schedule
from repro.polyir.program import PolyProgram
from repro.workloads import dnn

SIZE = 16
# Small channel counts keep the DNN sweeps to a few seconds.
DNN_CHANNEL_SCALE = 0.125


def _build(name):
    if name in dnn.SUITE:
        return getattr(dnn, name)(8, channel_scale=DNN_CHANNEL_SCALE)
    return workloads.get(name, SIZE)


def _given_program_matches_replay(function):
    program = PolyProgram(function).apply_schedule()
    assert derive_partitions(function, program=program) == derive_partitions(function)


@pytest.mark.parametrize("name", workloads.names(kind="function"))
def test_dse_applies_each_candidate_schedule_once(name, monkeypatch):
    applies = []
    apply_schedule = PolyProgram.apply_schedule

    def counting(self, *args, **kwargs):
        applies.append(self)
        return apply_schedule(self, *args, **kwargs)

    monkeypatch.setattr(PolyProgram, "apply_schedule", counting)
    function = _build(name)
    result = auto_dse(function)
    # Every scored candidate misses the partitions cache (it shares the
    # evaluation cache's key), so it applies its schedule exactly once:
    # for the partitions, and the same program is lowered.
    assert len(applies) == result.stats.candidates
    monkeypatch.undo()
    _given_program_matches_replay(function)


@pytest.mark.parametrize(
    "name", [n for n in workloads.names(kind="function") if n not in dnn.SUITE]
)
@pytest.mark.parametrize("seed", range(3))
def test_partitions_from_given_program_under_fuzzed_schedules(name, seed):
    function = _build(name)
    random_schedule(function, random.Random(seed))
    _given_program_matches_replay(function)
