"""Fine-grained loop-carried dependence analysis (paper Section V-A).

For each compute, the analyzer builds the exact dependence relation
between statement instances as an integer set over source and sink
iteration vectors, splits it by carrying loop level, and extracts
distance/direction vectors plus the minimum carried distance -- the
quantity that bounds pipeline initiation intervals.  Reduction
dimensions (iteration dims absent from the destination access pattern,
Fig. 8-3) are identified as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import trace as _trace
from repro.dsl.compute import Compute
from repro.dsl.expr import Access
from repro.isl.affine import AffineExpr
from repro.isl.constraint import Constraint
from repro.isl.sets import BasicSet
from repro.depgraph.vectors import DirectionVector, DistanceVector

_SINK_SUFFIX = "__snk"

RAW, WAR, WAW = "RAW", "WAR", "WAW"


@dataclass(frozen=True)
class CarriedDependence:
    """One loop-carried dependence of a compute (or a fused pair)."""

    array: str
    kind: str
    level: int
    dims: Tuple[str, ...]
    distance: DistanceVector
    direction: DirectionVector
    min_distance: Optional[int]

    @property
    def carried_dim(self) -> str:
        return self.dims[self.level]

    def elementary_distance(self) -> DistanceVector:
        """The paper-style distance vector of the *elementary* dependence.

        The raw relation includes transitively-implied pairs, so the
        carried entry may be non-constant; reporting the minimum carried
        distance there recovers the vector the paper quotes (e.g.
        ``(0, 0, 1)`` for a reduction along ``k``, Fig. 8-3).
        """
        entries = list(self.distance.entries)
        if entries[self.level] is None and self.min_distance is not None:
            entries[self.level] = self.min_distance
        return DistanceVector(self.dims, tuple(entries))

    def __str__(self):
        return (
            f"{self.kind}[{self.array}] carried at {self.carried_dim} "
            f"d={self.distance} min={self.min_distance}"
        )


@dataclass
class NodeAnalysis:
    """Dependence attributes attached to a dependence-graph node."""

    compute: Compute
    reduction_dims: List[str] = field(default_factory=list)
    carried: List[CarriedDependence] = field(default_factory=list)

    @property
    def dims(self) -> List[str]:
        return self.compute.iter_names

    def carried_raw(self) -> List[CarriedDependence]:
        return [d for d in self.carried if d.kind == RAW]

    def dims_with_carried_raw(self) -> List[str]:
        return sorted({d.carried_dim for d in self.carried_raw()})

    def free_dims(self) -> List[str]:
        """Dims carrying no RAW dependence (safe to pipeline/unroll over)."""
        carried = set(self.dims_with_carried_raw())
        return [d for d in self.dims if d not in carried]

    def has_tight_innermost_dependence(self) -> bool:
        """Whether a RAW dependence is carried by the innermost loop."""
        innermost = self.dims[-1]
        return any(d.carried_dim == innermost for d in self.carried_raw())


def domain_of(compute: Compute, dims: Optional[Sequence[str]] = None) -> BasicSet:
    """The iteration domain of a compute as a BasicSet."""
    bounds = compute.domain_bounds()
    order = list(dims) if dims is not None else compute.iter_names
    return BasicSet.box({d: bounds[d] for d in order}, order=order)


def _sink_name(dim: str) -> str:
    return dim + _SINK_SUFFIX


def _pair_relation(
    dims: Sequence[str],
    domain: BasicSet,
    src_idx: Sequence[AffineExpr],
    snk_idx: Sequence[AffineExpr],
) -> BasicSet:
    """Instances ``(v, v')`` of ``domain`` with ``src(v) == snk(v')``."""
    sink_dims = [_sink_name(d) for d in dims]
    snk_rename = dict(zip(dims, sink_dims))
    constraints = list(domain.constraints)
    constraints += domain.rename_dims(snk_rename).constraints
    constraints += [
        Constraint.eq(s_expr, k_expr.rename(snk_rename))
        for s_expr, k_expr in zip(src_idx, snk_idx)
    ]
    return BasicSet(tuple(dims) + tuple(sink_dims), constraints)


def _carried_at(dims: Sequence[str], level: int) -> List[Constraint]:
    """Equality on every dim above ``level``, strict ``<`` at ``level``."""
    constraints = [
        Constraint.eq(AffineExpr.var(d), AffineExpr.var(_sink_name(d)))
        for d in dims[:level]
    ]
    carried = dims[level]
    constraints.append(
        Constraint.lt(AffineExpr.var(carried), AffineExpr.var(_sink_name(carried)))
    )
    return constraints


def dependence_relation(
    compute: Compute,
    src: Access,
    snk: Access,
    level: int,
) -> BasicSet:
    """Instances ``(v, v')`` with ``src(v) == snk(v')`` carried at ``level``.

    The source instance precedes the sink lexicographically with equality
    on all dims above ``level`` and strict inequality at ``level``.
    """
    dims = compute.iter_names
    base = _pair_relation(
        dims, domain_of(compute), src.affine_indices(), snk.affine_indices()
    )
    return base.with_constraints(_carried_at(dims, level))


def _distance_entry(
    relation: BasicSet, dim: str, sample: Optional[Dict[str, int]]
) -> Optional[int]:
    """The constant value of ``dim' - dim`` over the relation, or None.

    ``sample`` is any point of the relation (None when it has none).
    The result does not depend on which point it is: the point's
    distance is the answer exactly when no point lies above or below it.

    When the relation's constraints literally contain ``dim' - dim ==
    c`` (either sign: equalities are not sign-normalized), the entry is
    pinned and the sample's distance is returned without testing
    emptiness.  This covers every dim above the carried level and every
    dim the two accesses tie by a translation.  Otherwise two rational
    emptiness probes, one above and one below the sample's distance,
    decide it.
    """
    if sample is None:
        return None
    delta = AffineExpr.var(_sink_name(dim)) - AffineExpr.var(dim)
    candidate = sample[_sink_name(dim)] - sample[dim]
    pinned = (Constraint.eq(delta, candidate), Constraint.eq(candidate, delta))
    if any(c in relation.constraints for c in pinned):
        return candidate
    above = relation.with_constraints([Constraint.ge(delta, candidate + 1)])
    below = relation.with_constraints([Constraint.le(delta, candidate - 1)])
    if above.is_empty() and below.is_empty():
        return candidate
    return None


def _min_distance(
    relation: BasicSet,
    dim: str,
    extent: int,
    entry: Optional[int],
    sample: Optional[Dict[str, int]],
) -> Optional[int]:
    """Minimum of ``dim' - dim`` over the relation (>= 1 when carried).

    The search is bounded by ``extent``: a minimum above it is reported
    as None.  ``entry`` is the dim's distance entry and ``sample`` a
    point of the relation, as passed to :func:`_distance_entry`.  A
    constant entry is the minimum itself.  Otherwise the smallest
    ``m`` in ``[1, extent]`` with ``dim' - dim <= m`` non-empty is
    binary-searched; the sample lies in every such set at or above its
    own distance, so that distance caps the search when it is within
    ``extent`` and no emptiness probe is spent on the cap.
    """
    if entry is not None:
        return entry if entry <= extent else None
    delta = AffineExpr.var(_sink_name(dim)) - AffineExpr.var(dim)
    lo, hi = 1, extent
    reached = None if sample is None else sample[_sink_name(dim)] - sample[dim]
    if reached is not None and reached <= extent:
        hi = reached
    elif relation.with_constraints([Constraint.le(delta, hi)]).is_empty():
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if relation.with_constraints([Constraint.le(delta, mid)]).is_empty():
            lo = mid + 1
        else:
            hi = mid
    return lo


def access_pairs(
    store: Access, loads: Sequence[Access], kinds: Sequence[str] = (RAW, WAR, WAW)
) -> List[Tuple[str, str, List[AffineExpr], List[AffineExpr]]]:
    """Self-dependence ``(kind, array, src_indices, snk_indices)`` pairs.

    One RAW (store, load) and one WAR (load, store) pair per distinct
    load of the stored array, then the WAW pair of the store with
    itself; ``kinds`` keeps a subset.
    """
    array = store.array_name
    store_idx = store.affine_indices()
    pairs = []
    seen = set()
    for load in loads:
        key = tuple(map(str, load.indices))
        if load.array_name != array or key in seen:
            continue
        seen.add(key)
        load_idx = load.affine_indices()
        if RAW in kinds:
            pairs.append((RAW, array, store_idx, load_idx))
        if WAR in kinds:
            pairs.append((WAR, array, load_idx, store_idx))
    if WAW in kinds:
        pairs.append((WAW, array, store_idx, store_idx))
    return pairs


def carried_dependences_generic(
    dims: Sequence[str],
    domain: BasicSet,
    pairs: Sequence[Tuple[str, str, Sequence[AffineExpr], Sequence[AffineExpr]]],
    extents: Dict[str, int],
) -> List[CarriedDependence]:
    """Carried dependences for arbitrary affine accesses over ``dims``.

    ``pairs`` are ``(kind, array, src_indices, snk_indices)`` with index
    expressions over ``dims``.  This is the engine behind both the
    DSL-level analyzer and the post-transformation analysis the HLS
    estimator runs on the affine dialect (where loop structure no longer
    matches the original computes).
    """
    dims = tuple(dims)
    results: List[CarriedDependence] = []
    with _trace.span("depgraph.carried", "depgraph"):
        for kind, array, src_idx, snk_idx in pairs:
            base = _pair_relation(dims, domain, src_idx, snk_idx)
            for level, carried in enumerate(dims):
                relation = base.with_constraints(_carried_at(dims, level))
                if relation.is_empty():
                    continue
                sample = relation.sample()
                entries = tuple(_distance_entry(relation, d, sample) for d in dims)
                distance = DistanceVector(dims, entries)
                min_distance = _min_distance(
                    relation, carried, extents.get(carried, 1), entries[level], sample
                )
                results.append(
                    CarriedDependence(
                        array=array,
                        kind=kind,
                        level=level,
                        dims=dims,
                        distance=distance,
                        direction=distance.direction(),
                        min_distance=min_distance,
                    )
                )
    return results


def analyze_compute(compute: Compute) -> NodeAnalysis:
    """Full fine-grained analysis of one compute node."""
    analysis = NodeAnalysis(compute=compute)
    dims = compute.iter_names

    # Reduction dims: iteration dims absent from the destination pattern.
    dest_dims = set()
    for index in compute.store().affine_indices():
        dest_dims.update(index.dims())
    analysis.reduction_dims = [d for d in dims if d not in dest_dims]

    pairs = access_pairs(compute.store(), compute.loads())
    extents = {d: hi - lo + 1 for d, (lo, hi) in compute.domain_bounds().items()}
    analysis.carried = carried_dependences_generic(
        dims, domain_of(compute), pairs, extents
    )
    return analysis


def cross_offsets(producer: Compute, consumer: Compute) -> Dict[str, Optional[Tuple[int, ...]]]:
    """Per-shared-array alignment between a producer's store and consumer loads.

    Returns, for each array the producer writes and the consumer reads,
    the constant index offset vector when both accesses are translations
    of a shared iterator pattern (a necessary condition for legal
    fusion), or ``None`` when the accesses are not aligned.
    """
    result: Dict[str, Optional[Tuple[int, ...]]] = {}
    store = producer.store()
    for load in consumer.loads():
        if load.array_name != store.array_name:
            continue
        offsets: List[int] = []
        aligned = True
        for sidx, lidx in zip(store.affine_indices(), load.affine_indices()):
            diff = lidx - sidx
            if diff.is_constant():
                offsets.append(diff.constant)
            else:
                aligned = False
                break
        key = store.array_name
        value = tuple(offsets) if aligned else None
        if key in result and result[key] != value:
            result[key] = None  # conflicting access patterns
        else:
            result.setdefault(key, value)
    return result
