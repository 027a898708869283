"""The dependence analysis shortcuts agree with the plain emptiness probes.

``_distance_entry`` answers a pinned entry (a literal ``d' - d == c``
equality in the relation) without testing emptiness, and
``_min_distance`` reads a constant carried entry off directly and caps
its binary search at the sample's distance.  Each case here recomputes
both quantities the plain way -- two ``is_empty`` probes around the
sample's distance, and a binary search over ``[1, extent]`` -- and
requires the same answer.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.depgraph import RAW, WAR, WAW
from repro.depgraph.analysis import (
    _carried_at,
    _distance_entry,
    _min_distance,
    _pair_relation,
    _sink_name,
    access_pairs,
    carried_dependences_generic,
)
from repro.dsl import Function, compute, placeholder, var
from repro.fuzz.generator import random_schedule
from repro.isl.affine import AffineExpr
from repro.isl.constraint import Constraint
from repro.isl.sets import BasicSet
from repro.polyir.program import PolyProgram

from tests.depgraph.test_oracle import FUZZ_CASES, _build
from tests.isl.test_properties import affine_exprs, random_sets

e = AffineExpr

SRC = ("i", "j")
SNK = tuple(_sink_name(d) for d in SRC)


def _delta(dim):
    return e.var(_sink_name(dim)) - e.var(dim)


def plain_entry(relation, dim, sample):
    """The constant ``dim' - dim``: nothing above or below the sample's."""
    if sample is None:
        return None
    candidate = sample[_sink_name(dim)] - sample[dim]
    above = relation.with_constraints([Constraint.ge(_delta(dim), candidate + 1)])
    below = relation.with_constraints([Constraint.le(_delta(dim), candidate - 1)])
    if above.is_empty() and below.is_empty():
        return candidate
    return None


def plain_min(relation, dim, extent):
    """Smallest ``m`` in ``[1, extent]`` with ``dim' - dim <= m`` non-empty."""
    lo, hi = 1, extent
    if relation.with_constraints([Constraint.le(_delta(dim), hi)]).is_empty():
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if relation.with_constraints([Constraint.le(_delta(dim), mid)]).is_empty():
            lo = mid + 1
        else:
            hi = mid
    return lo


def assert_shortcuts_agree(relation, dims, level, extent, where=None):
    sample = relation.sample()
    entries = [_distance_entry(relation, d, sample) for d in dims]
    assert entries == [plain_entry(relation, d, sample) for d in dims], where
    carried = dims[level]
    got = _min_distance(relation, carried, extent, entries[level], sample)
    assert got == plain_min(relation, carried, extent), where


@st.composite
def carried_relations(draw):
    """``(relation, level)`` over ``(i, j, i__snk, j__snk)``.

    Like ``tests.isl.test_properties.relation_sets``: boxes on both
    instances, random source/sink equalities and the lexicographic
    order carried at ``level``.  Optionally one dim is also tied by a
    translation ``d' - d == c``, written with either sign, so pinned
    entries the lexicographic equalities do not cover are drawn too.
    """
    rename = dict(zip(SRC, SNK))
    relation = draw(random_sets(SRC + SNK))
    extra = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        expr = draw(affine_exprs(SRC))
        extra.append(Constraint.eq(expr, draw(affine_exprs(SRC)).rename(rename)))
    if draw(st.booleans()):
        dim = draw(st.sampled_from(SRC))
        offset = draw(st.integers(min_value=-3, max_value=3))
        if draw(st.booleans()):
            extra.append(Constraint.eq(_delta(dim), offset))
        else:
            extra.append(Constraint.eq(offset, _delta(dim)))
    level = draw(st.integers(min_value=0, max_value=len(SRC) - 1))
    extra += _carried_at(SRC, level)
    return relation.with_constraints(extra), level


class TestRelationProperties:
    @given(carried_relations(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_shortcuts_match_plain_probes(self, drawn, extent):
        relation, level = drawn
        assume(not relation.is_empty())
        assert_shortcuts_agree(relation, SRC, level, extent)


@pytest.mark.parametrize("name,seed", FUZZ_CASES)
def test_fuzzed_statements_match_plain_probes(name, seed):
    function = _build(name)
    random_schedule(function, random.Random(seed))
    for stmt in PolyProgram(function).apply_schedule().statements:
        dims = list(stmt.loop_order)
        domain = stmt.domain.project_onto(dims)
        for kind, array, src_idx, snk_idx in access_pairs(
            stmt.dest, stmt.body.loads(), (RAW, WAR, WAW)
        ):
            base = _pair_relation(dims, domain, src_idx, snk_idx)
            for level, carried in enumerate(dims):
                relation = base.with_constraints(_carried_at(dims, level))
                if relation.is_empty():
                    continue
                extent = stmt.loop_extent(carried) or 1
                where = (name, seed, stmt.name, kind, array, level)
                assert_shortcuts_agree(relation, dims, level, extent, where)


def _skewed_statement():
    """``A[i][j] = A[i][j-2] + 1`` skewed to ``jp = j + i``."""
    with Function("skewed") as f:
        i = var("i", 0, 6)
        j = var("j", 2, 8)
        A = placeholder("A", (6, 8))
        s = compute("S", [i, j], A(i, j - 2) + 1.0, A(i, j))
    s.skew(i, j, 1, "ip", "jp")
    return PolyProgram(f).apply_schedule().statement("S")


def test_constant_distance_above_fallback_extent_stays_none():
    stmt = _skewed_statement()
    dims = list(stmt.loop_order)
    domain = stmt.domain.project_onto(dims)
    pairs = access_pairs(stmt.dest, stmt.body.loads(), (RAW,))
    # No extent for the skewed dim: the analysis falls back to 1.
    extents = {"ip": stmt.loop_extent("ip")}
    (dep,) = carried_dependences_generic(dims, domain, pairs, extents)
    assert (dep.carried_dim, dep.distance.entries) == ("jp", (0, 2))
    assert dep.min_distance is None
    relation = _pair_relation(dims, domain, *pairs[0][2:]).with_constraints(
        _carried_at(dims, dep.level)
    )
    assert plain_min(relation, "jp", 1) is None
    assert_shortcuts_agree(relation, dims, dep.level, 1)


def test_pinned_entries_need_no_emptiness_test(monkeypatch):
    box = BasicSet.box({d: (0, 5) for d in SRC + SNK}, order=SRC + SNK)
    relation = box.with_constraints(
        [Constraint.eq(_delta("i"), 0), Constraint.eq(2, _delta("j"))]
    )
    sample = relation.sample()

    def refuse(self):
        raise AssertionError("pinned entry probed for emptiness")

    monkeypatch.setattr(BasicSet, "is_empty", refuse)
    assert [_distance_entry(relation, d, sample) for d in SRC] == [0, 2]
    assert _min_distance(relation, "j", 6, 2, sample) == 2
    assert _min_distance(relation, "j", 1, 2, sample) is None
