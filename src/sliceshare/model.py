"""Domain model for share-based multi-resource allocation.

A network owner pools resources (capacities normalized to 1) and sells
shares of the pool to slices.  Each slice serves user classes; a class is
described by a demand vector giving the fraction of each resource one unit
of processing rate consumes, plus traffic parameters for the simulator.

The records `Resource`, `SliceSpec` and `UserClass` check their own fields
when built.  `validate_instance` checks the rules across records and
canonicalizes an instance: capacities are rescaled to 1 (with demand columns
rescaled to match) and shares are normalized to sum to 1, in new records
that check the canonical values.  Engines and the simulator consume
canonical instances only.  All model types are immutable value objects.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

WEIGHT_TOL = 1e-12
FEASIBILITY_TOL = 1e-9

EXPONENTIAL = "exponential"
DETERMINISTIC = "deterministic"
WORKLOAD_KINDS = (EXPONENTIAL, DETERMINISTIC)

class ValidationError(ValueError):
    """An instance, population, or weight vector violates the model rules."""

    record = None   # (kind, id) of the instance record at fault, if any


_ID_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def _require(ok, kind, ident, msg):
    """Unless ok, raise ValidationError(msg) about the record (kind, ident)."""
    if not ok:
        e = ValidationError(msg)
        e.record = (kind, ident)
        raise e


def _check_id(kind, ident):
    _require(ident and set(ident) <= _ID_CHARS, kind, ident,
             f"{kind} id {ident!r} must be nonempty and use [A-Za-z0-9_-]")


@dataclass(frozen=True)
class Resource:
    id: str
    capacity: float = 1.0

    def __post_init__(self):
        _check_id("resource", self.id)
        _require(0 < self.capacity < math.inf, "resource", self.id,
                 f"resource {self.id!r} capacity must be finite and > 0, got {self.capacity!r}")


@dataclass(frozen=True)
class SliceSpec:
    id: str
    share: float

    def __post_init__(self):
        _check_id("slice", self.id)
        _require(0 < self.share < math.inf, "slice", self.id,
                 f"slice {self.id!r} share must be finite and > 0, got {self.share!r}")


@dataclass(frozen=True)
class UserClass:
    """A class of statistically identical users of one slice.

    demand maps resource id -> fraction of that resource consumed per unit
    of processing rate.  arrival_rate and mean_workload parameterize the
    traffic simulator (Poisson arrivals, exponential or deterministic
    workloads) and are ignored by the static engines.
    """

    id: str
    slice_id: str
    demand: dict[str, float]
    arrival_rate: float = 0.0
    mean_workload: float = 1.0
    workload: str = EXPONENTIAL

    def __post_init__(self):
        _check_id("class", self.id)
        name = f"class {self.id!r}"
        for rid, v in self.demand.items():
            _require(0 <= v < math.inf, "class", self.id,
                     f"{name} demand must be finite and >= 0, got {v!r} on {rid!r}")
        _require(any(self.demand.values()), "class", self.id,
                 f"{name} has an {'all-zero' if self.demand else 'empty'} demand vector: "
                 "demand must be > 0 on some resource")
        _require(0 <= self.arrival_rate < math.inf, "class", self.id,
                 f"{name} arrival_rate must be finite and >= 0, got {self.arrival_rate!r}")
        _require(0 < self.mean_workload < math.inf, "class", self.id,
                 f"{name} mean_workload must be finite and > 0, got {self.mean_workload!r}")
        _require(self.workload in WORKLOAD_KINDS, "class", self.id,
                 f"{name} workload must be one of {WORKLOAD_KINDS}, got {self.workload!r}")


@dataclass(frozen=True)
class Instance:
    resources: tuple[Resource, ...]
    slices: tuple[SliceSpec, ...]
    classes: tuple[UserClass, ...]

    @property
    def n_resources(self):
        return len(self.resources)

    @property
    def n_slices(self):
        return len(self.slices)

    @property
    def n_classes(self):
        return len(self.classes)

    @cached_property
    def resource_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.resources)

    @cached_property
    def slice_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.slices)

    @cached_property
    def class_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.classes)

    @cached_property
    def resource_index(self) -> dict[str, int]:
        return {r.id: i for i, r in enumerate(self.resources)}

    @cached_property
    def slice_index(self) -> dict[str, int]:
        return {s.id: i for i, s in enumerate(self.slices)}

    @cached_property
    def class_index(self) -> dict[str, int]:
        return {c.id: i for i, c in enumerate(self.classes)}

    @cached_property
    def shares_array(self) -> np.ndarray:
        a = np.array([s.share for s in self.slices], dtype=float)
        a.flags.writeable = False
        return a

    @cached_property
    def demand_matrix(self) -> np.ndarray:
        """Dense (classes x resources) demand matrix on the canonical scale."""
        d = np.zeros((self.n_classes, self.n_resources))
        for i, c in enumerate(self.classes):
            for rid, v in c.demand.items():
                d[i, self.resource_index[rid]] = v
        d.flags.writeable = False
        return d

    @cached_property
    def class_slice(self) -> np.ndarray:
        a = np.array([self.slice_index[c.slice_id] for c in self.classes])
        a.flags.writeable = False
        return a

    @cached_property
    def slice_classes(self) -> tuple[tuple[int, ...], ...]:
        groups = [[] for _ in self.slices]
        for i, c in enumerate(self.classes):
            groups[self.slice_index[c.slice_id]].append(i)
        return tuple(tuple(g) for g in groups)


def validate_instance(instance: Instance) -> Instance:
    """Check the rules across records and canonicalize an instance.

    Returns a new Instance with unit capacities (demands rescaled by the
    original capacity) and shares normalized to sum to 1; a record whose
    fields fail their checks on that scale is rejected.  Idempotent:
    validating a canonical instance returns an equal instance.
    """
    if not instance.resources:
        raise ValidationError("instance needs at least one resource")
    if not instance.slices:
        raise ValidationError("instance needs at least one slice")
    if not instance.classes:
        raise ValidationError("instance needs at least one user class")
    for kind, records in (("resource", instance.resources),
                          ("slice", instance.slices), ("class", instance.classes)):
        seen = set()
        for r in records:
            _require(r.id not in seen, kind, r.id, f"duplicate {kind} id {r.id!r}")
            seen.add(r.id)

    cap = {r.id: r.capacity for r in instance.resources}
    slice_ids = {s.id for s in instance.slices}
    for c in instance.classes:
        _require(c.slice_id in slice_ids, "class", c.id,
                 f"class {c.id!r} references unknown slice {c.slice_id!r}")
        for rid in c.demand:
            _require(rid in cap, "class", c.id,
                     f"class {c.id!r} has unknown demand resource {rid!r}")

    total_share = sum(s.share for s in instance.slices)
    try:
        if abs(total_share - 1.0) > WEIGHT_TOL:
            slices = tuple(replace(s, share=s.share / total_share) for s in instance.slices)
        else:
            slices = instance.slices
        resources = tuple(
            r if r.capacity == 1.0 else replace(r, capacity=1.0) for r in instance.resources
        )
        classes = tuple(replace(c, demand={rid: v / cap[rid] for rid, v in c.demand.items()})
                        for c in instance.classes)
    except ValidationError as e:
        e.args = (f"{e} (canonical scale: unit capacities, shares summing to 1)",)
        raise
    return Instance(resources=resources, slices=slices, classes=classes)


@dataclass(frozen=True)
class PopulationState:
    """Per-class user counts, aligned with Instance.classes."""

    counts: tuple[int, ...]

    @staticmethod
    def from_dict(instance: Instance, counts: dict[str, int]) -> "PopulationState":
        unknown = set(counts) - set(instance.class_ids)
        if unknown:
            raise ValidationError(f"population references unknown classes {sorted(unknown)}")
        return PopulationState(tuple(int(counts.get(cid, 0)) for cid in instance.class_ids))

    def check(self, instance: Instance):
        if len(self.counts) != instance.n_classes:
            raise ValidationError("population length does not match instance classes")
        for cid, n in zip(instance.class_ids, self.counts):
            if n < 0:
                raise ValidationError(f"class {cid!r} count must be >= 0")

    def slice_counts(self, instance: Instance) -> tuple[int, ...]:
        totals = [0] * instance.n_slices
        for i, n in enumerate(self.counts):
            totals[instance.class_slice[i]] += n
        return tuple(totals)


@dataclass(frozen=True)
class ClassWeights:
    """Per-class weights q_c."""

    values: tuple[float, ...]

    def array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


def _population_weights(instance, pop, dominant, per_slice) -> ClassWeights:
    """The weight rule every population-driven engine shares.

    Each present user of class c in slice v weighs share_v, so
    q_c = share_v * n_c; dominant scales that by the reciprocal dominant
    demand 1 / max_r d_c^r, and per_slice divides it by the slice
    population n_v, which makes each busy slice's weights sum to its
    share.  A class with no users weighs 0; an idle slice's share is not
    redistributed.
    """
    pop.check(instance)
    n = pop.counts
    slice_totals = pop.slice_counts(instance) if per_slice else None
    values = []
    for i, c in enumerate(instance.classes):
        if n[i] == 0:
            values.append(0.0)
            continue
        v = instance.class_slice[i]
        q = instance.slices[v].share * n[i]
        if dominant:
            q *= 1.0 / max(c.demand.values())
        if per_slice:
            q /= slice_totals[v]
        values.append(q)
    return ClassWeights(tuple(values))


def scwa_weights(instance, pop) -> ClassWeights:
    """Share-constrained weights: each slice's share split equally over its
    present users, q_c = share_v * n_c / n_v."""
    return _population_weights(instance, pop, dominant=False, per_slice=True)


def drf_weights(instance, pop) -> ClassWeights:
    """Dominant-resource-fairness weights, q_c = share_v * n_c * delta_c / n_v
    with delta_c = 1 / max_r d_c^r.  Not share-constrained in general."""
    return _population_weights(instance, pop, dominant=True, per_slice=True)


def dps_weights(instance, pop) -> ClassWeights:
    """Discriminatory processor sharing, q_c = share_v * n_c: weights grow
    with the population, so a busy slice can crowd out a small one."""
    return _population_weights(instance, pop, dominant=False, per_slice=False)


def drf_unconstrained_weights(instance, pop) -> ClassWeights:
    """DPS weights discounted by the reciprocal dominant demand,
    q_c = share_v * n_c * delta_c, with no per-slice normalization."""
    return _population_weights(instance, pop, dominant=True, per_slice=False)


@dataclass(frozen=True)
class Allocation:
    """Per-class processing rates, optionally with solver by-products."""

    rates: tuple[float, ...]
    duals: tuple[float, ...] | None = None

    def array(self) -> np.ndarray:
        return np.array(self.rates, dtype=float)


@dataclass(frozen=True)
class FeasibilityReport:
    usage: dict[str, float]
    violations: tuple[tuple[str, float], ...]
    tol: float

    @property
    def feasible(self) -> bool:
        return not self.violations


def feasibility_report(instance, allocation, tol=FEASIBILITY_TOL) -> FeasibilityReport:
    """Per-resource usage of an allocation against the unit capacities.

    Accumulates in plain class order so repeated calls are bit-identical.
    """
    rates = allocation.rates if isinstance(allocation, Allocation) else tuple(allocation)
    if len(rates) != instance.n_classes:
        raise ValidationError("allocation length does not match instance classes")
    for cid, phi in zip(instance.class_ids, rates):
        if phi < 0 or not np.isfinite(phi):
            raise ValidationError(f"class {cid!r} rate must be finite and >= 0")
    usage = {}
    violations = []
    for j, rid in enumerate(instance.resource_ids):
        u = 0.0
        for i, c in enumerate(instance.classes):
            d = c.demand.get(rid, 0.0)
            if d:
                u += d * rates[i]
        usage[rid] = u
        if u > 1.0 + tol:
            violations.append((rid, u - 1.0))
    return FeasibilityReport(usage=usage, violations=tuple(violations), tol=tol)
