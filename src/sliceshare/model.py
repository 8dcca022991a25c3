"""Domain model for share-based multi-resource allocation.

A network owner pools resources (capacities normalized to 1) and sells
shares of the pool to slices.  Each slice serves user classes; a class is
described by a demand vector giving the fraction of each resource one unit
of processing rate consumes, plus traffic parameters for the simulator.

`validate_instance` canonicalizes an instance: capacities are rescaled to 1
(with demand columns rescaled to match) and shares are normalized to sum
to 1.  Engines and the simulator consume canonical instances only.
All model types are immutable value objects.
"""

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


@dataclass(frozen=True)
class Resource:
    id: str
    capacity: float = 1.0


@dataclass(frozen=True)
class SliceSpec:
    id: str
    share: float


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


_ID_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def _check_id(kind, ident):
    if not ident or not set(ident) <= _ID_CHARS:
        raise ValidationError(f"{kind} id {ident!r} must be nonempty and use [A-Za-z0-9_-]")


def validate_instance(instance: Instance) -> Instance:
    """Check and canonicalize an instance.

    Returns a new Instance with unit capacities (demands rescaled by the
    original capacity) and shares normalized to sum to 1.  Idempotent:
    validating a canonical instance returns an equal instance.
    """
    if not instance.resources:
        raise ValidationError("instance needs at least one resource")
    if not instance.slices:
        raise ValidationError("instance needs at least one slice")
    if not instance.classes:
        raise ValidationError("instance needs at least one user class")

    seen = set()
    for r in instance.resources:
        _check_id("resource", r.id)
        if r.id in seen:
            raise ValidationError(f"duplicate resource id {r.id!r}")
        seen.add(r.id)
        if not (r.capacity > 0) or not np.isfinite(r.capacity):
            raise ValidationError(f"resource {r.id!r} capacity must be finite and > 0")

    seen = set()
    for s in instance.slices:
        _check_id("slice", s.id)
        if s.id in seen:
            raise ValidationError(f"duplicate slice id {s.id!r}")
        seen.add(s.id)
        if not (s.share > 0) or not np.isfinite(s.share):
            raise ValidationError(f"slice {s.id!r} share must be finite and > 0")

    cap = {r.id: r.capacity for r in instance.resources}
    slice_ids = {s.id for s in instance.slices}
    seen = set()
    for c in instance.classes:
        _check_id("class", c.id)
        if c.id in seen:
            raise ValidationError(f"duplicate class id {c.id!r}")
        seen.add(c.id)
        if c.slice_id not in slice_ids:
            raise ValidationError(f"class {c.id!r} references unknown slice {c.slice_id!r}")
        if not c.demand:
            raise ValidationError(f"class {c.id!r} has an empty demand vector")
        positive = 0
        for rid, v in c.demand.items():
            if rid not in cap:
                raise ValidationError(f"class {c.id!r} demands unknown resource {rid!r}")
            if v < 0 or not np.isfinite(v):
                raise ValidationError(f"class {c.id!r} demand on {rid!r} must be finite and >= 0")
            positive += v > 0
        if positive == 0:
            raise ValidationError(f"class {c.id!r} has an all-zero demand vector")
        if c.arrival_rate < 0 or not np.isfinite(c.arrival_rate):
            raise ValidationError(f"class {c.id!r} arrival_rate must be finite and >= 0")
        if not (c.mean_workload > 0) or not np.isfinite(c.mean_workload):
            raise ValidationError(f"class {c.id!r} mean_workload must be finite and > 0")
        if c.workload not in WORKLOAD_KINDS:
            raise ValidationError(f"class {c.id!r} workload must be one of {WORKLOAD_KINDS}")

    total_share = sum(s.share for s in instance.slices)
    if abs(total_share - 1.0) > WEIGHT_TOL:
        slices = tuple(replace(s, share=s.share / total_share) for s in instance.slices)
    else:
        slices = instance.slices

    resources = tuple(
        r if r.capacity == 1.0 else replace(r, capacity=1.0) for r in instance.resources
    )
    classes = []
    for c in instance.classes:
        demand = {rid: v / cap[rid] for rid, v in c.demand.items()}
        classes.append(replace(c, demand=demand))

    return Instance(resources=resources, slices=slices, classes=tuple(classes))


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
