"""Acceptance checklist.

Each test covers one headline guarantee at full scale and prints a single
PASS/FAIL line (bypassing capture) so the whole gate reads as a checklist.
The file is slow by design; the full run takes on the order of ten minutes,
dominated by the throughput comparison and the multi-resource stability
probes.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from sliceshare import (
    ClassWeights, EngineSpec, Scenario, SolverOptions,
    feasibility_report, load_builtin, maxmin_waterfill, oracle_concave_opt,
    oracle_maxmin, replicate, run_simulation, solve_alpha_scs,
    stability_probe, surrogate_report, validate_instance,
)
from sliceshare.gen import (random_instance, random_parallel_instance,
                            random_scwa_weights)
from sliceshare.verify import (suite_elasticity, suite_envy,
                               suite_factorization, suite_protection,
                               suite_surrogate)

FIRM = SolverOptions(tol=1e-10, max_iters=200_000)


def _emit(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def equivalence_pool():
    rng = np.random.default_rng(11)
    pool = []
    for _ in range(200):
        inst = random_instance(rng)
        pool.append((inst, random_scwa_weights(rng, inst)))
    return pool


@pytest.fixture(scope="module")
def protection_suite():
    return suite_protection(instances=500, meta_seed=7)


@pytest.fixture(scope="module")
def envy_suite():
    return suite_envy(instances=500, meta_seed=7)


def test_01_engine_matches_reference_optimizer(equivalence_pool, capsys):
    t0 = time.perf_counter()
    worst_scs = 0.0
    worst_wf = 0.0
    for inst, weights in equivalence_pool:
        for alpha in (0.5, 1.0, 2.0):
            got = solve_alpha_scs(inst, weights, alpha, opts=FIRM)
            ref = oracle_concave_opt(inst, weights, alpha)
            err = float(np.abs(got.allocation.array() - ref.array()).max())
            worst_scs = max(worst_scs, err)
        wf = maxmin_waterfill(inst, weights)
        ref = oracle_maxmin(inst, weights)
        err = float(np.abs(wf.allocation.array() - ref.array()).max())
        worst_wf = max(worst_wf, err)
    dt = time.perf_counter() - t0
    ok = worst_scs <= 1e-3 and worst_wf <= 1e-3 and dt <= 120.0
    _emit(capsys, "01 engine vs reference optimizer", ok,
          f"solver err {worst_scs:.2e}, waterfill err {worst_wf:.2e}, "
          f"{dt:.1f}s")


def test_02_high_alpha_approaches_waterfill(equivalence_pool, capsys):
    worst = 0.0
    for inst, weights in equivalence_pool:
        got = solve_alpha_scs(inst, weights, 50.0, opts=FIRM)
        wf = maxmin_waterfill(inst, weights)
        err = float(np.abs(got.allocation.array() - wf.allocation.array()).max())
        worst = max(worst, err)
    ok = worst <= 0.02
    _emit(capsys, "02 alpha=50 vs waterfill", ok, f"L-inf {worst:.2e}")


def test_03_sharing_protects_every_slice_at_alpha_one(protection_suite, capsys):
    worst = protection_suite.stats["worst_slack_alpha1"]
    ok = worst >= -1e-9
    _emit(capsys, "03 protection at alpha=1", ok,
          f"worst slack {worst:.2e} over {protection_suite.instances} instances")


def test_04_protection_and_envy_bounds_hold(protection_suite, envy_suite, capsys):
    p = protection_suite.stats["worst_slack"]
    e = envy_suite.stats["worst_slack"]
    b = envy_suite.stats["worst_alpha1_bound_error"]
    ok = (protection_suite.passed and envy_suite.passed
          and p >= -1e-6 and e >= -1e-6 and b <= 1e-9)
    _emit(capsys, "04 priced-share bounds", ok,
          f"protection slack {p:.2e}, envy slack {e:.2e}, "
          f"alpha=1 envy bound err {b:.2e}")


def test_05_waterfill_log_utility_gap_bounded(capsys):
    suite = suite_surrogate(instances=200, meta_seed=7)
    worst_gap = suite.stats["worst_gap"]
    worst_slack = suite.stats["worst_slack"]
    # single-resource unit-demand topologies: both optima coincide
    rng = np.random.default_rng(23)
    coincide = 0.0
    for _ in range(50):
        inst = random_parallel_instance(rng, max_resources=1)
        weights = random_scwa_weights(rng, inst)
        rep = surrogate_report(inst, weights, opts=FIRM)
        coincide = max(coincide, abs(rep.gap))
    ok = (suite.passed and worst_gap >= -1e-9 and worst_slack >= -1e-6
          and coincide <= 1e-9)
    _emit(capsys, "05 max-min surrogate gap", ok,
          f"worst gap {worst_gap:.2e}, worst slack {worst_slack:.2e}, "
          f"single-resource |gap| {coincide:.2e}")


def test_06_utility_factorization_identity(capsys):
    suite = suite_factorization(instances=1000, meta_seed=7)
    rel = suite.stats["worst_rel_error"]
    mix = suite.stats["worst_mix_sum_error"]
    ok = suite.passed and rel <= 1e-8 and mix <= 1e-12
    _emit(capsys, "06 utility factorization", ok,
          f"rel err {rel:.2e}, mix sum err {mix:.2e}")


def test_07_parallel_links_split_by_weight(capsys):
    suite = suite_elasticity(instances=50, meta_seed=7)
    prop = suite.stats["worst_proportionality_error"]
    dip = suite.stats["worst_monotonicity_dip"]
    ok = suite.passed and prop <= 1e-6 and dip <= 1e-9
    _emit(capsys, "07 elastic scaling on parallel links", ok,
          f"proportionality err {prop:.2e}, monotonicity dip {dip:.2e}")


def test_08_throughput_gain_over_dps(capsys):
    t0 = time.perf_counter()
    sf = load_builtin("fig2_symmetric")
    base = sf.scenario(sf.run.engines[0], sf.run.seeds[0])
    arrivals = run_simulation(base).metrics.arrivals_total
    res = replicate(base, sf.run.engines, sf.run.seeds)
    scs = res["maxmin-scs"]
    dps = res["dps"]
    ratio = scs["mean_throughput"].mean / dps["mean_throughput"].mean
    disjoint = (scs["mean_throughput"].mean - scs["mean_throughput"].half_width
                > dps["mean_throughput"].mean + dps["mean_throughput"].half_width)
    delay_ratio = scs["mean_delay"].mean / dps["mean_delay"].mean
    dt = time.perf_counter() - t0
    ok = (arrivals >= 200_000 and ratio >= 1.05 and disjoint
          and 0.95 <= delay_ratio <= 1.05 and dt <= 600.0)
    _emit(capsys, "08 throughput vs dps on symmetric traffic", ok,
          f"tput ratio {ratio:.3f}, delay ratio {delay_ratio:.3f}, "
          f"{arrivals} arrivals/run, {dt:.0f}s")


def test_09_busy_overlap_below_dps(capsys):
    sf = load_builtin("fig5_busy")
    below = []
    separated = []
    for value in sf.sweep.values:
        base = sf.scenario(sf.run.engines[0], sf.run.seeds[0], sweep_value=value)
        res = replicate(base, sf.run.engines, sf.run.seeds)
        a = res["maxmin-scs"]["frac_both_busy"]
        b = res["dps"]["frac_both_busy"]
        below.append(a.mean < b.mean)
        separated.append(a.mean + a.half_width < b.mean - b.half_width)
    ok = all(below) and all(separated[-3:])
    _emit(capsys, "09 both-busy fraction vs dps across loads", ok,
          f"below at {sum(below)}/{len(below)} loads, "
          f"top-3 CIs separated: {separated[-3:]}")


def test_10_stability_verdicts_on_multiresource_topology(capsys):
    sf = load_builtin("fig7_multiresource")
    inst = sf.instance
    over = validate_instance(replace(
        inst, classes=tuple(replace(c, arrival_rate=c.arrival_rate * 1.25)
                            for c in inst.classes)))
    # the dual engine costs ~0.6 ms per event (about ten times a
    # water-fill event), so it gets a shorter horizon; growth under
    # overload shows up within 1000
    horizons = {"maxmin-scs": 20000.0, "drf": 20000.0, "dps": 20000.0,
                "scs(1)": 4000.0}
    bad = []
    load_nominal = None
    for name, h in horizons.items():
        sc = Scenario(inst, EngineSpec.from_string(name), horizon=h,
                      warmup=0.1, seed=0)
        rep = stability_probe(sc)
        load_nominal = rep.max_effective_load
        if rep.verdict != "consistent-with-stable":
            bad.append(f"{name} nominal={rep.verdict}")
    for name in horizons:
        sc = Scenario(over, EngineSpec.from_string(name), horizon=1000.0,
                      warmup=0.1, seed=0)
        rep = stability_probe(sc)
        if rep.verdict != "growing":
            bad.append(f"{name} overload={rep.verdict}")
    ok = not bad and abs(load_nominal - 0.9114) <= 5e-4
    _emit(capsys, "10 stability verdicts on the ten-resource topology", ok,
          f"load {load_nominal:.4f}, exceptions: {bad or 'none'}")


def test_11_littles_law(capsys):
    sf = load_builtin("fig2_symmetric")
    sc = Scenario(sf.instance, EngineSpec.from_string("maxmin-scs"),
                  horizon=20000.0, warmup=0.1, seed=3)
    m = run_simulation(sc).metrics
    span = m.window[1] - m.window[0]
    lam = m.departures / span
    rel = abs(m.mean_population - lam * m.mean_delay) / m.mean_population
    ok = rel <= 0.03
    _emit(capsys, "11 Little's law on a long run", ok,
          f"|L - lambda W|/L = {rel:.4f}")


def test_12_three_user_fixture(capsys):
    inst = load_builtin("table1_static").instance
    rep = feasibility_report(inst, (0.4, 0.5, 0.5))
    weights = ClassWeights((0.25, 0.25, 0.5))
    sol = solve_alpha_scs(inst, weights, 1.0, opts=FIRM)
    rates = sol.allocation.array()
    rate_err = float(np.abs(rates - np.array([0.4, 1 / 3, 2 / 3])).max())
    dual_sum = float(sum(sol.allocation.duals))
    ok = (rep.usage["r1"] == 1.0 and rep.feasible
          and rate_err <= 1e-3 and abs(dual_sum - 1.0) <= 1e-6)
    _emit(capsys, "12 three-user worked example", ok,
          f"r1 usage {rep.usage['r1']!r}, rate err {rate_err:.2e}, "
          f"sum duals {dual_sum:.9f}")
