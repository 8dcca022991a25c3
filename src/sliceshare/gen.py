"""Random desk-scale instance generators for verification suites and tests.

Each draws from the numpy Generator it is handed, in a fixed order, so a
seed names the same instances, weights and rates from run to run.  Instances
have 1..max_resources resources, 1..3 slices (no more than classes) and
slice shares drawn in [0.2, 1], then normalized.
"""

import numpy as np

from .model import Instance, Resource, SliceSpec, UserClass, ClassWeights, validate_instance


def _sizes(rng, max_resources, min_classes, max_classes):
    """(resources, classes, slices) counts."""
    n_res = int(rng.integers(1, max_resources + 1))
    n_cls = int(rng.integers(min_classes, max_classes + 1))
    n_slc = int(rng.integers(1, min(3, n_cls) + 1))
    return n_res, n_cls, n_slc


def _build(rng, n_res, n_cls, n_slc, demands):
    """Draw shares and slice owners, then the validated instance whose
    class i demands demands()[i]; demands is called after the owners."""
    shares = rng.uniform(0.2, 1.0, size=n_slc)
    shares /= shares.sum()
    # round-robin guarantees no empty slice, remainder assigned at random
    owner = [v % n_slc for v in range(n_slc)]
    owner += [int(rng.integers(0, n_slc)) for _ in range(n_cls - n_slc)]
    rng.shuffle(owner)
    inst = Instance(
        resources=tuple(Resource(f"r{j}") for j in range(n_res)),
        slices=tuple(SliceSpec(f"s{v}", float(shares[v])) for v in range(n_slc)),
        classes=tuple(UserClass(f"c{i}", f"s{owner[i]}", d)
                      for i, d in enumerate(demands())),
    )
    return validate_instance(inst)


def random_instance(rng, max_classes=4, max_resources=3, min_demand_one=False):
    """A validated random instance.

    Every slice receives at least one class and every class keeps at least
    one positive demand entry; each entry is dropped with probability 0.35.
    Positive demands are drawn in [0.5, 1.5], or with min_demand_one in
    [1, 2] so surrogate-bound hypotheses hold.
    """
    n_res, n_cls, n_slc = _sizes(rng, max_resources, 1, max_classes)
    lo = 1.0 if min_demand_one else 0.5
    demand = rng.uniform(lo, lo + 1.0, size=(n_cls, n_res))
    drop = rng.random(size=(n_cls, n_res)) < 0.35
    for i in range(n_cls):
        drop[i, int(rng.integers(0, n_res))] = False
    demand[drop] = 0.0
    rows = [{f"r{j}": float(demand[i, j]) for j in range(n_res) if demand[i, j] > 0}
            for i in range(n_cls)]
    return _build(rng, n_res, n_cls, n_slc, lambda: rows)


def random_scwa_weights(rng, instance) -> ClassWeights:
    """Random share-constrained weights: per slice, a random positive split,
    each part drawn in [0.15, 1] before scaling to the slice's share."""
    values = np.zeros(instance.n_classes)
    for v, s in enumerate(instance.slices):
        idx = list(instance.slice_classes[v])
        split = rng.uniform(0.15, 1.0, size=len(idx))
        split = split / split.sum() * s.share
        for i, j in enumerate(idx):
            values[j] = split[i]
    return ClassWeights(tuple(float(x) for x in values))


def random_parallel_instance(rng, max_resources=3):
    """Instance of 2..6 classes where every class demands 1.0 of exactly one
    resource, its home, drawn after the slice owners."""
    n_res, n_cls, n_slc = _sizes(rng, max_resources, 2, 6)
    return _build(rng, n_res, n_cls, n_slc,
                  lambda: [{f"r{int(rng.integers(0, n_res))}": 1.0} for _ in range(n_cls)])


def random_feasible_rates(rng, instance, weights):
    """Strictly positive rates inside the capacity region.

    Starts from the max-min fill of the weights so every weighted class is
    positive, then backs off so the busiest resource is 30-95% used.
    """
    from .engines import maxmin_waterfill

    base = maxmin_waterfill(instance, weights).allocation.array()
    jitter = rng.uniform(0.6, 1.4, size=base.shape)
    rates = base * jitter
    usage = rates @ instance.demand_matrix
    m = usage.max()
    if m > 0:
        rates *= rng.uniform(0.3, 0.95) / m
    return rates
