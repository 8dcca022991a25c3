"""Allocation engines.

All engines take a canonical Instance (unit capacities) and per-class
weights and return a SolveResult whose allocation respects every capacity
constraint within tolerance.

solve_alpha_scs maximizes sum_c q_c * (phi_c/q_c)^(1-alpha) / (1-alpha)
(the log form at alpha=1) subject to the capacity constraints by
minimizing its dual over the resource prices nu >= 0: stationarity pins
phi_c = q_c * price_c^(-1/alpha) with price_c = sum_r d_c^r nu_r, and a
projected Newton method (Bertsekas 1982) drives the prices until
feasibility and complementary slackness hold.  maxmin_waterfill computes
the weighted max-min allocation exactly by progressive filling.
static_partition solves each slice alone on a share-scaled copy of the
resources.  The weights come from the rules in the model module.
"""

from dataclasses import dataclass

import numpy as np

from .model import Allocation, ClassWeights, ValidationError

ALPHA_ONE_THRESHOLD = 1e-6


class SolverError(RuntimeError):
    """Engine failed to converge; carries the last residuals for diagnosis."""

    def __init__(self, message, residuals=None, iterations=None):
        super().__init__(message)
        self.residuals = residuals
        self.iterations = iterations


@dataclass(frozen=True)
class SolverOptions:
    """Stop once the worst KKT residual is <= tol (finite, > 0); raise
    SolverError after max_iters (an integer >= 1).  A tol below round-off
    is accepted but cannot be met, so such a solve may fail only at max_iters."""
    tol: float = 1e-8
    max_iters: int = 100_000

    def __post_init__(self):
        if not (self.tol > 0 and np.isfinite(self.tol)):
            raise ValidationError(f"solver tol must be finite and > 0, not {self.tol!r}")
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise ValidationError(
                f"solver max_iters must be an integer >= 1, not {self.max_iters!r}")


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True)
class Residuals:
    """feasibility: worst capacity overshoot.  complementary_slackness:
    worst |1 - usage| over resources whose dual still carries weight in
    some class price.  Stationarity holds exactly for price-driven rates,
    so it has no residual."""

    feasibility: float
    complementary_slackness: float | None = None

    def worst(self) -> float:
        return max(v for v in (self.feasibility, self.complementary_slackness)
                   if v is not None)


@dataclass(frozen=True)
class SolveResult:
    allocation: Allocation
    iterations: int
    residuals: Residuals


def _weight_array(weights):
    q = np.asarray(weights.values if isinstance(weights, ClassWeights) else weights, float)
    if (q < 0).any() or not np.isfinite(q).all():
        raise ValidationError("weights must be finite and >= 0")
    return q


def _kkt(Dn, nu, price, rates):
    """(gradient, feasibility, slackness) of the dual at nu.

    A resource only counts for slackness while its dual carries weight in
    some class price; an absolute test on nu would be blind to the price
    scale, which spans dozens of decades at large alpha.
    """
    grad = 1.0 - rates @ Dn
    relevant = ((Dn * nu) / price[:, None]).max(axis=0) > 1e-9
    return (grad, max(0.0, -float(grad.min())),
            float(np.abs(grad[relevant]).max(initial=0.0)))


def _price_iteration(Dn, g, alpha, opts, warm=None):
    """Projected Newton on the dual of the normalized problem (capacities 1).

    Dn and g cover positive-weight classes and the resources they use.  The
    dual f(nu) = sum_r nu_r + sum_c T_c(p_c), p = Dn nu, with
    T_c = -g_c log p_c at alpha=1 and alpha/(1-alpha) phi_c p_c otherwise,
    is smooth and convex on nu >= 0 (Mo & Walrand 2000): its gradient is
    1 - usage and its Hessian Dn^T diag(phi / (alpha p)) Dn.  A dual whose
    gradient is positive and whose diagonal Newton step would carry it past
    zero is held on the bound and steps by that scaled gradient; the others
    take a Newton step, Levenberg-damped because the Hessian is singular
    whenever fewer classes than resources are live.  Armijo backtracking
    along the projected arc keeps every price positive (Bertsekas 1982).
    Returns (rates, prices, iterations, feasibility residual, slackness
    residual, converged flag); a failed line search ends the iteration
    early.
    """
    inv_alpha = 1.0 if abs(alpha - 1.0) < ALPHA_ONE_THRESHOLD else 1.0 / alpha
    k = 1.0 - inv_alpha
    nu = None if warm is None else np.maximum(warm, 0.0)
    if nu is None or not np.isfinite(nu).all() or not (Dn @ nu > 0.0).all():
        # cold: equal duals, scaled so the busiest resource is exactly full;
        # at large alpha the optimal duals are tiny (~1e-35 at alpha=50)
        peak = (g * Dn.sum(axis=1) ** -inv_alpha) @ Dn
        nu = np.full(Dn.shape[1], peak.max() ** (1.0 / inv_alpha))
    price = Dn @ nu
    for it in range(1, opts.max_iters + 1):
        rates = g * price ** -inv_alpha
        grad, feas, cs = _kkt(Dn, nu, price, rates)
        res = max(feas, cs)
        if res <= opts.tol:
            return rates, nu, it, feas, cs, True
        H = Dn.T @ ((inv_alpha * rates / price)[:, None] * Dn)
        h = H.diagonal()
        held = (grad > 0.0) & (nu * h <= grad)
        free = ~held
        step = grad / h
        if free.any():
            Hf = H[np.ix_(free, free)]
            Hf[np.diag_indices_from(Hf)] *= 1.0 + min(res, 1.0)
            step[free] = np.linalg.solve(Hf, grad[free])
        slope_free = float(grad[free] @ step[free])
        t = 1.0
        for _ in range(64):
            cand = np.maximum(nu - t * step, 0.0)
            c_price = Dn @ cand
            if (c_price > 0.0).all():
                moved = nu - cand
                # f(cand) - f(nu) from log1p of the price change stays
                # accurate where f itself is lost to round-off; a price
                # that vanishes gives log1p(-1) = -inf, the right limit
                with np.errstate(divide="ignore"):
                    log_ratio = np.log1p(-(Dn @ moved) / price)
                terms = rates * price * (log_ratio if k == 0.0
                                         else np.expm1(k * log_ratio) / k)
                df = -float(moved.sum()) - float(terms.sum())
                if df <= -1e-4 * (t * slope_free + float(grad[held] @ moved[held])):
                    break
                # duals decades apart in scale: the change the small ones
                # make is below the round-off of the large ones' terms, so
                # only the KKT residual can tell progress
                if abs(df) <= 1e-12 * float(np.abs(moved).sum() + np.abs(terms).sum()):
                    _, c_feas, c_cs = _kkt(Dn, cand, c_price, g * c_price ** -inv_alpha)
                    if max(c_feas, c_cs) < res:
                        break
            t *= 0.5
        else:
            return rates, nu, it, feas, cs, False
        nu, price = cand, c_price
    return rates, nu, opts.max_iters, feas, cs, False


def _solve_with_caps(instance, q_full, alpha, caps, opts, warm_duals=None):
    """Price-iteration wrapper for arbitrary per-resource capacity vectors.

    Classes that demand any zero-capacity resource are pinned to rate 0.
    Returned duals are on the original capacity scale.
    """
    D = instance.demand_matrix
    caps = np.asarray(caps, float)
    n_cls, n_res = D.shape
    open_res = caps > 0.0
    forced = (D[:, ~open_res] > 0).any(axis=1)
    active = (q_full > 0) & ~forced
    rates = np.zeros(n_cls)
    duals = np.zeros(n_res)
    if not active.any():
        return SolveResult(Allocation(tuple(rates.tolist()), tuple(duals.tolist())),
                           0, Residuals(0.0, 0.0))
    # resources no live class uses keep a zero dual and stay out of the
    # iteration, where their Hessian diagonal would be zero
    cols = open_res & (D[active] > 0).any(axis=0)
    Dn = D[np.ix_(active, cols)] / caps[cols]
    warm = None
    if warm_duals is not None:
        warm = np.asarray(warm_duals, float)[cols] * caps[cols]
    r, nu, iters, feas, cs, ok = _price_iteration(Dn, q_full[active], alpha, opts, warm)
    if not ok:
        raise SolverError(
            f"price iteration did not reach tol={opts.tol} "
            f"(stopped after {iters} of {opts.max_iters} iterations)",
            residuals=Residuals(feas, cs), iterations=iters)
    rates[active] = r
    # converged iterates may overshoot capacity by O(tol); rescale so the
    # returned rates are feasible outright
    usage = rates @ (D / np.where(caps > 0, caps, 1.0))
    peak = usage[open_res].max(initial=0.0)
    if peak > 1.0:
        rates /= peak
        feas = 0.0
    duals[cols] = nu / caps[cols]
    return SolveResult(Allocation(tuple(rates.tolist()), tuple(duals.tolist())),
                       iters, Residuals(feas, cs))


def solve_alpha_scs(instance, weights, alpha, opts=DEFAULT_OPTIONS,
                    warm_duals=None) -> SolveResult:
    """Alpha-fair allocation under per-user share-constrained weights."""
    if not (alpha > 0) or not np.isfinite(alpha):
        raise ValidationError("alpha must be finite and > 0")
    q = _weight_array(weights)
    if not (q > 0).any():
        raise ValidationError("all-zero weights")
    return _solve_with_caps(instance, q, alpha, np.ones(instance.n_resources),
                            opts, warm_duals)


def maxmin_waterfill(instance, weights) -> SolveResult:
    """Exact weighted max-min allocation by progressive filling.

    Raises the common level t (phi_c = q_c * t) until a resource saturates,
    freezes every class using a newly saturated resource, and repeats with
    the survivors.  Ties freeze together.
    """
    q = _weight_array(weights)
    D = instance.demand_matrix
    n_cls, n_res = D.shape
    rates = np.zeros(n_cls)
    active = q > 0
    frozen_usage = np.zeros(n_res)
    rounds = 0
    while active.any():
        rounds += 1
        coef = q[active] @ D[active]
        live = np.flatnonzero(coef > 0)
        levels = (1.0 - frozen_usage[live]) / coef[live]
        t = float(levels.min())
        saturated = np.zeros(n_res, bool)
        saturated[live[levels <= t * (1.0 + 1e-12) + 1e-15]] = True
        froze = active & (D[:, saturated] > 0).any(axis=1)
        assert froze.any(), "a saturated resource must freeze at least one class"
        rates[froze] = q[froze] * t
        frozen_usage = frozen_usage + rates[froze] @ D[froze]
        active = active & ~froze
    feas = max(float((frozen_usage - 1.0).max()), 0.0) if n_res else 0.0
    return SolveResult(Allocation(tuple(rates.tolist())), rounds,
                       Residuals(feasibility=feas))


def static_partition(instance, weights, alpha, opts=DEFAULT_OPTIONS) -> dict[str, SolveResult]:
    """Per-slice solve against a share-scaled copy of every resource.

    Slice v gets capacity share_v of each resource and allocates it to its
    own classes with the same alpha-fair objective.  Returns a SolveResult
    per slice id; rates vectors are full length with zeros off-slice.
    """
    if not (alpha > 0) or not np.isfinite(alpha):
        raise ValidationError("alpha must be finite and > 0")
    q = _weight_array(weights)
    results = {}
    for v, s in enumerate(instance.slices):
        qv = np.zeros_like(q)
        idx = list(instance.slice_classes[v])
        qv[idx] = q[idx]
        if not (qv > 0).any():
            results[s.id] = SolveResult(
                Allocation((0.0,) * len(q), (0.0,) * instance.n_resources),
                0, Residuals(0.0, 0.0))
            continue
        caps = np.full(instance.n_resources, s.share)
        results[s.id] = _solve_with_caps(instance, qv, alpha, caps, opts)
    return results

