"""Utility evaluation, the efficiency/fairness decomposition, and the
protection / envy / surrogate bound checks.

Shadow prices always come from the full shared solve; the partition and
swap problems are capacity-modified re-solves used only for their utility
values.
"""

from dataclasses import dataclass

import numpy as np

from .model import ValidationError
from .engines import (DEFAULT_OPTIONS, ALPHA_ONE_THRESHOLD, _weight_array,
                      _solve_with_caps, solve_alpha_scs, static_partition,
                      maxmin_waterfill)


def alignment_index(x, y, alpha) -> float:
    """How closely the distribution x tracks the distribution y.

    Equals 1 when x = y.  For alpha in (0,1] that is the maximum over x;
    for alpha > 1 it is the minimum (the surrounding utility terms carry a
    negative sign there, so the product form still rewards alignment).
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("alignment_index needs two equal-length vectors")
    if (x <= 0).any() or (y <= 0).any():
        raise ValidationError("alignment_index needs strictly positive entries")
    if abs(x.sum() - 1.0) > 1e-9 or abs(y.sum() - 1.0) > 1e-9:
        raise ValidationError("alignment_index inputs must each sum to 1")
    if abs(alpha - 1.0) < ALPHA_ONE_THRESHOLD:
        return float(np.exp(-np.sum(x * np.log(x / y))))
    return float(np.sum(x * (y / x) ** (1.0 - alpha)) ** (1.0 / alpha))


def _utility_terms(rates, q, alpha):
    """Per-class utility contributions; -inf where a weighted class starves."""
    terms = np.zeros(len(q))
    w = q > 0
    with np.errstate(divide="ignore"):
        if abs(alpha - 1.0) < ALPHA_ONE_THRESHOLD:
            terms[w] = q[w] * np.log(rates[w] / q[w])
        else:
            terms[w] = q[w] * (rates[w] / q[w]) ** (1.0 - alpha) / (1.0 - alpha)
    return terms


@dataclass(frozen=True)
class UtilityReport:
    alpha: float
    per_slice: dict[str, float]
    total: float

    @property
    def combined(self) -> float:
        """Single comparable scalar; exponentiates the log form at alpha=1."""
        if abs(self.alpha - 1.0) < ALPHA_ONE_THRESHOLD:
            return float(np.exp(self.total))
        return self.total


def utility(instance, rates, weights, alpha) -> UtilityReport:
    """Per-slice and total utility of an allocation under weights q.

    Zero-weight classes contribute nothing.  A starving weighted class
    yields -inf for alpha >= 1 and a zero term for alpha < 1, reported
    as-is rather than raised.
    """
    q = _weight_array(weights)
    rates = np.asarray(rates, float)
    terms = _utility_terms(rates, q, alpha)
    per_slice = {}
    for v, s in enumerate(instance.slices):
        idx = list(instance.slice_classes[v])
        per_slice[s.id] = float(terms[idx].sum()) if idx else 0.0
    return UtilityReport(alpha, per_slice, float(terms.sum()))


@dataclass(frozen=True)
class FactorizationReport:
    """total utility = efficiency-of-total-rate x alignment factors.

    mix_weights are the per-slice weights inside the intra factor; they
    are nonnegative and sum to 1 by construction.
    """

    alpha: float
    total_rate: float
    efficiency: float
    inter_alignment: float
    intra_alignment: float
    per_slice_alignment: dict[str, float]
    mix_weights: dict[str, float]
    direct: float
    reconstructed: float

    @property
    def rel_error(self) -> float:
        return abs(self.direct - self.reconstructed) / max(1.0, abs(self.direct))


def factorize(instance, rates, weights, alpha) -> FactorizationReport:
    """Split total utility into efficiency and alignment factors.

    Requires share-constrained weights (per-slice sums equal the shares)
    and strictly positive rates on weighted classes.  All aggregates run
    over weighted classes only.
    """
    q = _weight_array(weights)
    rates = np.asarray(rates, float)
    shares = instance.shares_array
    sums = np.array([q[list(instance.slice_classes[v])].sum()
                     for v in range(instance.n_slices)])
    if np.abs(sums - shares).max() > 1e-9:
        raise ValidationError("factorize needs share-constrained weights")
    if (rates[q > 0] <= 0).any():
        raise ValidationError("factorize needs positive rates on weighted classes")

    n_slc = instance.n_slices
    slice_rate = np.zeros(n_slc)
    for v in range(n_slc):
        idx = [i for i in instance.slice_classes[v] if q[i] > 0]
        slice_rate[v] = rates[idx].sum()
    if (slice_rate <= 0).any():
        raise ValidationError("zero slice aggregate rate")
    total = float(slice_rate.sum())
    gamma = slice_rate / total

    per_slice = {}
    intra_terms = np.zeros(n_slc)
    for v, s in enumerate(instance.slices):
        idx = [i for i in instance.slice_classes[v] if q[i] > 0]
        qn = q[idx] / sums[v]
        pn = rates[idx] / slice_rate[v]
        per_slice[s.id] = alignment_index(qn, pn, alpha)
        if abs(alpha - 1.0) < ALPHA_ONE_THRESHOLD:
            intra_terms[v] = np.log(per_slice[s.id])
        else:
            intra_terms[v] = per_slice[s.id] ** alpha

    at_one = abs(alpha - 1.0) < ALPHA_ONE_THRESHOLD
    inter = alignment_index(shares, gamma, alpha)
    if at_one:
        mix = shares.copy()
        efficiency = float(np.log(total))
        intra = float(np.exp(np.dot(mix, intra_terms)))
        reconstructed = efficiency + float(np.log(inter)) + float(np.log(intra))
    else:
        raw = shares ** alpha * gamma ** (1.0 - alpha)
        mix = raw / raw.sum()
        efficiency = total ** (1.0 - alpha) / (1.0 - alpha)
        intra = float(np.dot(mix, intra_terms) ** (1.0 / alpha))
        reconstructed = efficiency * (inter * intra) ** alpha

    direct = utility(instance, rates, weights, alpha).total
    return FactorizationReport(
        alpha, total, float(efficiency), float(inter), float(intra), per_slice,
        {s.id: float(mix[v]) for v, s in enumerate(instance.slices)},
        float(direct), float(reconstructed))


@dataclass(frozen=True)
class BoundReport:
    """A measured gap against its analytic bound; holds when slack >= -tol."""

    kind: str
    alpha: float
    slice_id: str
    other_id: str | None
    gap: float
    bound: float
    bound_cap: float | None = None

    @property
    def slack(self) -> float:
        return self.bound - self.gap

    def holds(self, tol=1e-6) -> bool:
        return self.gap <= self.bound + tol


def _priced_weights(instance, q, duals, alpha):
    """q_c * price_c^((alpha-1)/alpha) per class, zero for zero weights.

    Evaluated in log space; the exponent collapses to 0 at alpha=1, where
    the priced weight is just q_c.
    """
    out = np.zeros(len(q))
    w = q > 0
    if abs(alpha - 1.0) < ALPHA_ONE_THRESHOLD:
        out[w] = q[w]
        return out
    price = instance.demand_matrix[w] @ np.asarray(duals, float)
    out[w] = q[w] * np.exp((alpha - 1.0) / alpha * np.log(price))
    return out


def protection_report(instance, weights, alpha, opts=DEFAULT_OPTIONS) -> list[BoundReport]:
    """Per-slice: how much a slice could gain by retreating to its static
    partition, against the shadow-price sensitivity bound.

    The shared solve is the base problem (per-resource caps at the slice's
    own usage); the partition caps every resource at the share, so the
    optimal value moves by at most dual . (new caps - old caps), giving
    bound = s_v * sum_r nu_r - sum_{c in v} q_c p_c.  At alpha=1 the priced
    weights collapse to q_c and the bound is s_v (sum_r nu_r - 1) ~ 0.
    """
    q = _weight_array(weights)
    full = solve_alpha_scs(instance, weights, alpha, opts)
    parts = static_partition(instance, weights, alpha, opts)
    qp = _priced_weights(instance, q, full.allocation.duals, alpha)
    total_dual = float(sum(full.allocation.duals))
    full_u = utility(instance, full.allocation.rates, weights, alpha)

    reports = []
    for v, s in enumerate(instance.slices):
        part_u = utility(instance, parts[s.id].allocation.rates, weights, alpha)
        gap = part_u.per_slice[s.id] - full_u.per_slice[s.id]
        idx = list(instance.slice_classes[v])
        bound = s.share * total_dual - float(qp[idx].sum())
        reports.append(BoundReport("protection", alpha, s.id, None, float(gap), bound))
    return reports


def envy_report(instance, weights, alpha, slice_id, other_id,
                opts=DEFAULT_OPTIONS, full=None) -> BoundReport:
    """Would slice_id prefer other_id's resource footprint to its own?

    Re-optimizes slice_id's classes inside the per-resource usage of
    other_id under the shared solve; the gap is that utility minus its
    utility in the shared solve.  Passing a precomputed shared solve
    avoids re-solving in pairwise loops.
    """
    q = _weight_array(weights)
    if full is None:
        full = solve_alpha_scs(instance, weights, alpha, opts)
    rates = full.allocation.array()
    v = instance.slice_index[slice_id]
    o = instance.slice_index[other_id]
    other_cls = list(instance.slice_classes[o])
    caps = rates[other_cls] @ instance.demand_matrix[other_cls]

    mine = np.zeros(len(q))
    idx = list(instance.slice_classes[v])
    mine[idx] = q[idx]
    swap = _solve_with_caps(instance, mine, alpha, caps, opts)
    swap_u = utility(instance, swap.allocation.rates, weights, alpha)
    full_u = utility(instance, rates, weights, alpha)
    gap = swap_u.per_slice[slice_id] - full_u.per_slice[slice_id]

    qp = _priced_weights(instance, q, full.allocation.duals, alpha)
    bound = float(qp[other_cls].sum()) - float(qp[idx].sum())
    return BoundReport("envy", alpha, slice_id, other_id, float(gap), bound)


def surrogate_report(instance, weights, opts=DEFAULT_OPTIONS) -> BoundReport:
    """Log-utility loss of the water-fill against the alpha=1 optimum.

    Hypothesis: every positive demand entry is >= 1 (rescale rate units if
    not).  The gap is nonnegative since the alpha=1 solution maximizes the
    weighted log objective; the bound is sum_c q_c D_c - 1 with D_c the
    total demand of class c, capped by max_c D_c - 1.
    """
    D = instance.demand_matrix
    low = (D > 0) & (D < 1.0 - 1e-12)
    if low.any():
        i, r = np.argwhere(low)[0]
        raise ValidationError(
            f"surrogate bound needs demands >= 1 on used resources; "
            f"class {instance.class_ids[i]} uses {instance.resource_ids[r]} "
            f"at {D[i, r]:.6g}")
    q = _weight_array(weights)
    pf = solve_alpha_scs(instance, weights, 1.0, opts).allocation.array()
    wf = maxmin_waterfill(instance, weights).allocation.array()
    w = q > 0
    psi_pf = float(np.dot(q[w], np.log(pf[w])))
    psi_wf = float(np.dot(q[w], np.log(wf[w])))
    d_tot = D.sum(axis=1)
    bound = float(np.dot(q[w], d_tot[w])) - 1.0
    cap = float(d_tot[w].max()) - 1.0
    return BoundReport("surrogate", 1.0, "", None, psi_pf - psi_wf, bound, cap)
