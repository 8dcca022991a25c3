"""Random desk-scale instance generators for verification suites and tests."""

import numpy as np

from .model import Instance, Resource, SliceSpec, UserClass, ClassWeights, validate_instance


def random_instance(rng, max_classes=4, max_resources=3, max_slices=3,
                    zero_prob=0.35, demand_range=(0.5, 1.5), min_demand_one=False):
    """A validated random instance.

    Every slice receives at least one class and every class keeps at least
    one positive demand entry.  With min_demand_one, positive demands are
    drawn in [1, 1 + span] so surrogate-bound hypotheses hold.
    """
    n_res = int(rng.integers(1, max_resources + 1))
    n_cls = int(rng.integers(1, max_classes + 1))
    n_slc = int(rng.integers(1, min(max_slices, n_cls) + 1))
    lo, hi = demand_range
    if min_demand_one:
        lo, hi = 1.0, 1.0 + (hi - lo)
    demand = rng.uniform(lo, hi, size=(n_cls, n_res))
    drop = rng.random(size=(n_cls, n_res)) < zero_prob
    for i in range(n_cls):
        keep = int(rng.integers(0, n_res))
        drop[i, keep] = False
    demand[drop] = 0.0

    shares = rng.uniform(0.2, 1.0, size=n_slc)
    shares /= shares.sum()
    # round-robin guarantees no empty slice, remainder assigned at random
    owner = [v % n_slc for v in range(n_slc)]
    owner += [int(rng.integers(0, n_slc)) for _ in range(n_cls - n_slc)]
    rng.shuffle(owner)

    inst = Instance(
        resources=tuple(Resource(f"r{j}") for j in range(n_res)),
        slices=tuple(SliceSpec(f"s{v}", float(shares[v])) for v in range(n_slc)),
        classes=tuple(
            UserClass(f"c{i}", f"s{owner[i]}",
                      {f"r{j}": float(demand[i, j]) for j in range(n_res) if demand[i, j] > 0})
            for i in range(n_cls)),
    )
    return validate_instance(inst)


def random_scwa_weights(rng, instance, min_frac=0.15) -> ClassWeights:
    """Random share-constrained weights: per slice, a random positive split."""
    values = np.zeros(instance.n_classes)
    for v, s in enumerate(instance.slices):
        idx = list(instance.slice_classes[v])
        split = rng.uniform(min_frac, 1.0, size=len(idx))
        split = split / split.sum() * s.share
        for i, j in enumerate(idx):
            values[j] = split[i]
    return ClassWeights(tuple(float(x) for x in values))


def random_parallel_instance(rng, max_classes=6, max_resources=3, max_slices=3,
                             unit_demand=True):
    """Instance where every class uses exactly one resource.

    With unit_demand each positive entry is 1.0; otherwise drawn uniformly.
    """
    n_res = int(rng.integers(1, max_resources + 1))
    n_cls = int(rng.integers(2, max_classes + 1))
    n_slc = int(rng.integers(1, min(max_slices, n_cls) + 1))
    shares = rng.uniform(0.2, 1.0, size=n_slc)
    shares /= shares.sum()
    owner = [v % n_slc for v in range(n_slc)]
    owner += [int(rng.integers(0, n_slc)) for _ in range(n_cls - n_slc)]
    rng.shuffle(owner)
    homes = [int(rng.integers(0, n_res)) for _ in range(n_cls)]
    inst = Instance(
        resources=tuple(Resource(f"r{j}") for j in range(n_res)),
        slices=tuple(SliceSpec(f"s{v}", float(shares[v])) for v in range(n_slc)),
        classes=tuple(
            UserClass(f"c{i}", f"s{owner[i]}",
                      {f"r{homes[i]}": 1.0 if unit_demand else float(rng.uniform(0.5, 1.5))})
            for i in range(n_cls)),
    )
    return validate_instance(inst)


def random_feasible_rates(rng, instance, weights, slack=(0.3, 0.95)):
    """Strictly positive rates inside the capacity region.

    Starts from the max-min fill of the weights so every weighted class is
    positive, then backs off by a random factor.
    """
    from .engines import maxmin_waterfill

    base = maxmin_waterfill(instance, weights).allocation.array()
    jitter = rng.uniform(0.6, 1.4, size=base.shape)
    rates = base * jitter
    usage = rates @ instance.demand_matrix
    m = usage.max()
    if m > 0:
        rates *= rng.uniform(*slack) / m
    return rates
