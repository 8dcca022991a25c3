"""Slow reference solvers used to cross-check the production engines.

oracle_concave_opt hands the share-constrained program to a general-purpose
NLP library (nothing in common with the engines' price iteration);
oracle_maxmin is a deliberately dumb micro-stepped water-filler.  Both
trade speed for trustworthiness; their tolerances are module constants.
"""

from dataclasses import dataclass

import numpy as np

from .model import Allocation

OPT_TOL = 1e-12         # SLSQP ftol of oracle_concave_opt
OPT_MAX_ITERS = 500     # its SLSQP budget; the trust-region retry gets 10x
MICROSTEP = 1e-5        # level increment of oracle_maxmin
VARIATIONAL_SAMPLES = 200  # candidate points variational_check tries
VARIATIONAL_TOL = 1e-6  # largest first-order improvement variational_check passes


def _utility(phi, q, alpha):
    # sum_c q * (phi/q)^(1-alpha) / (1-alpha); log form at alpha == 1
    if alpha == 1.0:
        return float(np.sum(q * np.log(phi / q)))
    return float(np.sum(q * (phi / q) ** (1.0 - alpha)) / (1.0 - alpha))


def oracle_concave_opt(instance, weights, alpha) -> Allocation:
    """Reference maximizer for the share-constrained alpha-fair program.

    Maximizes sum_c q_c (phi_c/q_c)^(1-alpha)/(1-alpha) (log form at
    alpha=1) over the capacity polytope with a sequential quadratic
    programming solve (analytic gradients, feasible interior start),
    retrying with a trust-region method if that reports failure.
    """
    # imported here: scipy costs about half a second and only this
    # cross-check needs it, not the engines or the simulator
    from scipy import optimize

    q_full = np.asarray(weights.values if hasattr(weights, "values") else weights, float)
    mask = q_full > 0
    if not mask.any():
        raise ValueError("all-zero weights")
    D = instance.demand_matrix[mask]
    q = q_full[mask]

    def neg_utility(phi):
        return -_utility(phi, q, alpha)

    def neg_grad(phi):
        return -((phi / q) ** (-alpha))

    # feasible interior start: the weight vector scaled to half capacity
    x0 = q / (2.0 * max((q @ D).max(), 1e-300))
    constraints = [{"type": "ineq", "fun": lambda p, d=D[:, r]: 1.0 - d @ p,
                    "jac": lambda p, d=D[:, r]: -d}
                   for r in range(D.shape[1])]
    bounds = [(1e-12, None)] * len(q)
    sol = optimize.minimize(neg_utility, x0, jac=neg_grad, method="SLSQP",
                            bounds=bounds, constraints=constraints,
                            options={"maxiter": OPT_MAX_ITERS, "ftol": OPT_TOL})
    if not sol.success:
        lin = optimize.LinearConstraint(D.T, -np.inf, 1.0)
        sol = optimize.minimize(neg_utility, x0, jac=neg_grad, method="trust-constr",
                                bounds=optimize.Bounds(1e-12, np.inf), constraints=[lin],
                                options={"maxiter": 10 * OPT_MAX_ITERS, "gtol": 1e-12,
                                         "xtol": 1e-14})
        if not sol.success:
            raise RuntimeError(f"reference solve failed: {sol.message}")
    rates = np.zeros(len(q_full))
    rates[mask] = np.maximum(sol.x, 0.0)
    return Allocation(rates=tuple(rates))


def oracle_maxmin(instance, weights) -> Allocation:
    """Micro-stepped water-filling reference for the weighted max-min rates.

    Raises the common level t (phi_c = q_c * t) in increments of
    MICROSTEP, freezing a class as soon as any resource it uses has
    residual capacity below MICROSTEP * (sum of active d*q on it).  The
    step search is vectorized but evaluates exactly the microstep grid.
    """
    q_full = np.asarray(weights.values if hasattr(weights, "values") else weights, float)
    D = instance.demand_matrix
    n_cls, n_res = D.shape
    rates = np.zeros(n_cls)
    active = q_full > 0
    frozen_usage = np.zeros(n_res)
    t = 0.0
    while active.any():
        coef = q_full[active] @ D[active]
        live = np.flatnonzero(coef > 0)
        # residual(t + k*mu) < mu*coef first holds at k = floor(resid/(mu*coef) - 1) + 1
        resid = 1.0 - frozen_usage[live] - coef[live] * t
        k = np.floor(resid / (MICROSTEP * coef[live]) - 1.0) + 1.0
        t = t + max(float(k.min()), 1.0) * MICROSTEP
        resid_now = 1.0 - frozen_usage - coef * t
        trigger = np.zeros(n_res, bool)
        trigger[live] = resid_now[live] < MICROSTEP * coef[live]
        froze = active & (D[:, trigger].sum(axis=1) > 0)
        assert froze.any(), "a triggered resource must freeze at least one class"
        rates[froze] = q_full[froze] * t
        frozen_usage = frozen_usage + rates[froze] @ D[froze]
        active = active & ~froze
    return Allocation(rates=tuple(rates))


@dataclass(frozen=True)
class VariationalReport:
    passed: bool
    worst: float


def variational_check(instance, rates, weights, alpha, seed=0) -> VariationalReport:
    """First-order optimality test for a candidate allocation.

    At the maximizer, sum_c (phi_c/q_c)^(-alpha) * (phi'_c - phi_c) <= 0 for
    every feasible phi'.  VARIATIONAL_SAMPLES random candidate points from
    seed are rescaled onto the active constraint surface so the check is
    not vacuous; none may improve by more than VARIATIONAL_TOL.
    """
    q_full = np.asarray(weights.values if hasattr(weights, "values") else weights, float)
    phi_full = np.asarray(rates.rates if hasattr(rates, "rates") else rates, float)
    mask = q_full > 0
    D = instance.demand_matrix[mask]
    q = q_full[mask]
    phi = phi_full[mask]
    grad = (phi / q) ** (-alpha)
    scale = phi.mean()
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(VARIATIONAL_SAMPLES):
        cand = np.maximum(phi + rng.normal(0.0, 0.35 * scale, size=phi.shape), 0.0)
        usage = cand @ D
        m = usage.max()
        if m > 0:
            cand = cand * ((1.0 - 1e-12) / m)
        val = float(grad @ (cand - phi))
        if val > worst:
            worst = val
    return VariationalReport(passed=worst <= VARIATIONAL_TOL, worst=worst)
