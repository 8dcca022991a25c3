"""Property suites over randomly generated instances.

Each suite draws instances from a fixed meta-seed, checks one family of
guarantees (protection, envy-freeness, surrogate gap, utility
factorization, elasticity, first-order optimality), and reports the worst
observed slack so regressions show up as numbers, not just pass/fail.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import scwa_weights, PopulationState, ValidationError
from .engines import SolverOptions, DEFAULT_OPTIONS, solve_alpha_scs
from .analysis import (factorize, protection_report, envy_report,
                       surrogate_report)
from .oracle import variational_check
from .gen import (random_instance, random_scwa_weights,
                  random_parallel_instance, random_feasible_rates)

ALPHAS = (0.5, 1.0, 2.0)
TIGHT = SolverOptions(tol=1e-11, max_iters=300_000)
FIRM = SolverOptions(tol=1e-10, max_iters=200_000)


@dataclass
class SuiteResult:
    name: str
    instances: int
    checks: int = 0
    stats: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def track_min(self, key, value):
        self.checks += 1
        if key not in self.stats or value < self.stats[key]:
            self.stats[key] = value

    def track_max(self, key, value):
        self.checks += 1
        if key not in self.stats or value > self.stats[key]:
            self.stats[key] = value

    def require(self, ok, msg):
        if not ok:
            self.failures.append(msg)

    def lines(self):
        out = [f"{self.name}: {self.instances} instances, {self.checks} checks"]
        for key in sorted(self.stats):
            out.append(f"  {key} = {self.stats[key]:.3e}")
        for msg in self.failures[:10]:
            out.append(f"  FAIL {msg}")
        if len(self.failures) > 10:
            out.append(f"  ... {len(self.failures) - 10} more failures")
        out.append(f"  {'PASS' if self.passed else 'FAIL'}")
        return out


def _opts_for(alpha):
    return TIGHT if abs(alpha - 1.0) < 1e-9 else FIRM


def suite_protection(instances=500, meta_seed=7) -> SuiteResult:
    """Static partitioning never beats full sharing by more than the
    priced-share bound; at alpha=1 the bound collapses to ~0."""
    rng = np.random.default_rng(meta_seed)
    res = SuiteResult("protection", instances)
    for i in range(instances):
        inst = random_instance(rng)
        weights = random_scwa_weights(rng, inst)
        for alpha in ALPHAS:
            for rep in protection_report(inst, weights, alpha, opts=_opts_for(alpha)):
                key = "worst_slack_alpha1" if alpha == 1.0 else "worst_slack"
                res.track_min(key, rep.slack)
                tol = 1e-9 if alpha == 1.0 else 1e-6
                res.require(rep.slack >= -tol,
                            f"instance {i} alpha={alpha} slice={rep.slice_id} "
                            f"slack={rep.slack:.3e}")
    return res


def suite_envy(instances=500, meta_seed=7) -> SuiteResult:
    """No slice prefers another slice's footprint by more than the priced
    weight difference; at alpha=1 the bound equals the share difference."""
    rng = np.random.default_rng(meta_seed)
    res = SuiteResult("envy", instances)
    for i in range(instances):
        inst = random_instance(rng)
        weights = random_scwa_weights(rng, inst)
        shares = {s.id: s.share for s in inst.slices}
        for alpha in ALPHAS:
            opts = _opts_for(alpha)
            full = solve_alpha_scs(inst, weights, alpha, opts=opts)
            for v in inst.slices:
                for w in inst.slices:
                    if v.id == w.id:
                        continue
                    rep = envy_report(inst, weights, alpha, v.id, w.id,
                                      opts=opts, full=full)
                    key = "worst_slack_alpha1" if alpha == 1.0 else "worst_slack"
                    res.track_min(key, rep.slack)
                    res.require(rep.slack >= -1e-6,
                                f"instance {i} alpha={alpha} {v.id}->{w.id} "
                                f"slack={rep.slack:.3e}")
                    if alpha == 1.0:
                        err = abs(rep.bound - (shares[w.id] - shares[v.id]))
                        res.track_max("worst_alpha1_bound_error", err)
                        res.require(err <= 1e-9,
                                    f"instance {i} alpha=1 {v.id}->{w.id} "
                                    f"bound off share difference by {err:.3e}")
    return res


def suite_surrogate(instances=200, meta_seed=7) -> SuiteResult:
    """With all demands >= 1, the log-rate objective under proportional
    fairness exceeds the max-min one by at most the demand-weighted bound."""
    rng = np.random.default_rng(meta_seed)
    res = SuiteResult("surrogate", instances)
    for i in range(instances):
        inst = random_instance(rng, min_demand_one=True)
        weights = random_scwa_weights(rng, inst)
        rep = surrogate_report(inst, weights, opts=FIRM)
        res.track_min("worst_gap", rep.gap)
        res.track_min("worst_slack", rep.slack)
        res.require(rep.gap >= -1e-9,
                    f"instance {i} negative gap {rep.gap:.3e}")
        res.require(rep.slack >= -1e-6,
                    f"instance {i} gap exceeds bound by {-rep.slack:.3e}")
        res.require(rep.bound <= rep.bound_cap + 1e-12,
                    f"instance {i} bound above its cap")
    return res


def suite_factorization(instances=1000, meta_seed=7) -> SuiteResult:
    """Utility of any feasible allocation splits exactly into total-rate
    efficiency times inter- and intra-slice alignment factors."""
    rng = np.random.default_rng(meta_seed)
    res = SuiteResult("factorization", instances)
    alphas = (0.5, 1.0, 2.0, 0.9, 3.5, 1.0 + 5e-7, 1.0 - 5e-7)
    for i in range(instances):
        inst = random_instance(rng)
        weights = random_scwa_weights(rng, inst)
        rates = random_feasible_rates(rng, inst, weights)
        alpha = alphas[i % len(alphas)]
        rep = factorize(inst, rates, weights, alpha)
        res.track_max("worst_rel_error", rep.rel_error)
        res.require(rep.rel_error <= 1e-8,
                    f"instance {i} alpha={alpha} rel error {rep.rel_error:.3e}")
        mix_err = abs(sum(rep.mix_weights.values()) - 1.0)
        res.track_max("worst_mix_sum_error", mix_err)
        res.require(mix_err <= 1e-12,
                    f"instance {i} alpha={alpha} mix weights sum off by {mix_err:.3e}")
    return res


def suite_elasticity(instances=50, meta_seed=7) -> SuiteResult:
    """On parallel unit-demand topologies the solved rate of a class grows
    with its own population and equals its weight's share of the resource."""
    rng = np.random.default_rng(meta_seed)
    res = SuiteResult("elasticity", instances)
    for i in range(instances):
        inst = random_parallel_instance(rng)
        alpha = ALPHAS[i % len(ALPHAS)]
        base = [int(rng.integers(1, 4)) for _ in range(inst.n_classes)]
        c = int(rng.integers(inst.n_classes))
        prev = -np.inf
        for n in range(1, 11):
            counts = list(base)
            counts[c] = n
            weights = scwa_weights(inst, PopulationState(tuple(counts)))
            q = np.asarray(weights.values)
            sol = solve_alpha_scs(inst, weights, alpha, opts=FIRM)
            phi = sol.allocation.array()
            res.require(phi[c] >= prev - 1e-9,
                        f"instance {i} class {c} rate decreased at n={n}")
            res.track_max("worst_monotonicity_dip", max(0.0, prev - phi[c]))
            prev = phi[c]
            # unit demands: each resource splits among its classes by weight
            D = inst.demand_matrix
            for r in range(inst.n_resources):
                on_r = D[:, r] > 0
                if not on_r.any():
                    continue
                expect = q[on_r] / q[on_r].sum()
                err = float(np.abs(phi[on_r] - expect).max())
                res.track_max("worst_proportionality_error", err)
                res.require(err <= 1e-6,
                            f"instance {i} n={n} resource {r} off by {err:.3e}")
    return res


def suite_variational(instances=100, meta_seed=7) -> SuiteResult:
    """Solved allocations admit no feasible first-order improvement."""
    rng = np.random.default_rng(meta_seed)
    res = SuiteResult("variational", instances)
    for i in range(instances):
        inst = random_instance(rng)
        weights = random_scwa_weights(rng, inst)
        alpha = ALPHAS[i % len(ALPHAS)]
        sol = solve_alpha_scs(inst, weights, alpha, opts=FIRM)
        rep = variational_check(inst, sol.allocation, weights, alpha, seed=i)
        res.track_max("worst_improvement", rep.worst)
        res.require(rep.passed,
                    f"instance {i} alpha={alpha} improvable by {rep.worst:.3e}")
    return res


SUITES = {
    "protection": suite_protection,
    "envy": suite_envy,
    "surrogate": suite_surrogate,
    "factorization": suite_factorization,
    "elasticity": suite_elasticity,
    "variational": suite_variational,
}


def run_suite(name, instances=None, meta_seed=7) -> SuiteResult:
    """Run suite name on instances (>= 1, default the suite's own) from meta_seed >= 0."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choices: {', '.join(SUITES)}")
    if instances is not None and instances < 1:
        raise ValidationError(f"instances must be >= 1, got {instances}")
    if meta_seed < 0:
        raise ValidationError(f"meta seed must be >= 0, got {meta_seed}")
    suite = SUITES[name]
    return suite(meta_seed=meta_seed) if instances is None else suite(instances, meta_seed)
