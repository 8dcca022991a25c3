import math
from collections import Counter
from functools import partial
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sliceshare.sim as sim_mod
from sliceshare.gen import random_instance
from sliceshare.model import (ValidationError, PopulationState, scwa_weights,
                              feasibility_report, DETERMINISTIC)
from sliceshare.engines import (SolverOptions, SolverError, solve_alpha_scs,
                                maxmin_waterfill, static_partition)
from sliceshare.sim import (ENGINES, EngineSpec, Scenario, Simulation,
                            run_simulation, busy_fractions, stability_probe,
                            replicate, _class_rng)
from sliceshare.scenario import load_builtin
from conftest import make_instance

SCS1 = EngineSpec.from_string("scs(1)")


def two_slice_line(rate=0.45, workload="exponential"):
    """One unit link shared by one class per slice, equal shares."""
    return make_instance(
        ["r1"],
        [("s1", 0.5), ("s2", 0.5)],
        [("c1", "s1", {"r1": 1.0}, rate, 1.0, workload),
         ("c2", "s2", {"r1": 1.0}, rate, 1.0, workload)])


def test_engine_spec_strings():
    assert EngineSpec.from_string("scs(0.5)").alpha == 0.5
    assert EngineSpec.from_string("dps").key == "dps"
    assert EngineSpec.from_string("scs(1)").key == "scs(1)"
    with pytest.raises(ValidationError):
        EngineSpec.from_string("foo")
    with pytest.raises(ValidationError):
        EngineSpec.from_string("dps(2)")
    with pytest.raises(ValidationError):
        EngineSpec.from_string("scs")
    for bad in ("scs(inf)", "static-partition(inf)", "scs(nan)", "scs(0)"):
        with pytest.raises(ValidationError, match="finite alpha"):
            EngineSpec.from_string(bad)


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("inf"), float("nan")])
def test_scenario_needs_finite_positive_horizon(horizon):
    with pytest.raises(ValidationError, match="horizon"):
        Scenario(two_slice_line(), SCS1, horizon=horizon)


def test_single_deterministic_user():
    inst = two_slice_line(rate=0.0)
    sc = Scenario(inst, SCS1, horizon=10.0, warmup=0.0)
    out = run_simulation(sc, keep_trace=True,
                         arrival_schedule=[(0.0, "c1", 1.0)])
    m = out.metrics
    assert m.departures == 1
    assert m.per_slice["s1"].mean_delay == pytest.approx(1.0, abs=1e-12)
    assert m.per_slice["s1"].mean_throughput == pytest.approx(1.0, abs=1e-12)
    times = [(ev.time, ev.kind) for ev in out.trace.events]
    assert times == [(0.0, "arrival"), (1.0, "departure")]
    assert m.frac_idle == pytest.approx(0.9)
    assert m.mean_population == pytest.approx(0.1)


@pytest.mark.parametrize("entry,needle", [
    ((0.0, "c9", 1.0), "unknown class"),
    ((-1.0, "c1", 1.0), "arrival time"),
    ((math.inf, "c1", 1.0), "arrival time"),
    ((math.nan, "c1", 1.0), "arrival time"),
    ((0.0, "c1", 0.0), "scheduled workload"),
    ((0.0, "c1", -1.0), "scheduled workload"),
    ((0.0, "c1", math.inf), "scheduled workload"),
    ((0.0, "c1", math.nan), "scheduled workload"),
])
def test_schedule_entries_are_validated(entry, needle):
    sc = Scenario(two_slice_line(rate=0.0), SCS1, horizon=10.0)
    with pytest.raises(ValidationError, match=needle):
        Simulation(sc, arrival_schedule=[(0.5, "c2", 1.0), entry])


def test_zero_arrivals_all_idle():
    inst = two_slice_line(rate=0.0)
    m = run_simulation(Scenario(inst, SCS1, horizon=5.0)).metrics
    assert m.departures == 0
    assert m.arrivals_total == 0
    assert m.frac_idle == 1.0
    assert m.stability_verdict == "consistent-with-stable"


def test_next_event_depletion_peek():
    # two users at rate 0.5 with residuals (0.2, 0.9): departure after 0.4
    inst = two_slice_line(rate=0.0)
    sim = Simulation(Scenario(inst, SCS1, horizon=10.0, warmup=0.0),
                     arrival_schedule=[(0.0, "c1", 0.2), (0.0, "c2", 0.9)])
    assert sim.step() and sim.step()
    assert sim.rates == pytest.approx((0.5, 0.5), abs=1e-8)
    te, kind, c, _ = sim.next_event()
    assert kind == "departure"
    assert c == 0
    assert te == pytest.approx(0.4, abs=1e-8)


def test_zero_rate_user_never_departs():
    inst = two_slice_line(rate=0.0)
    sim = Simulation(Scenario(inst, SCS1, horizon=10.0, warmup=0.0),
                     arrival_schedule=[(0.0, "c1", 0.2), (3.0, "c2", 1.0)])
    assert sim.step()
    sim.rates = (0.0, 0.0)   # pin the rate; peek must fall to the arrival
    te, kind, c, _ = sim.next_event()
    assert kind == "arrival"
    assert te == pytest.approx(3.0)


def test_three_event_hand_trace():
    # c1 arrives at 0 with work 0.5, c2 at 0.3 with work 0.9.  c1 runs
    # alone at rate 1, then both at 0.5: c1 departs at 0.3 + 0.2/0.5 = 0.7,
    # c2 finishes its remaining 0.7 alone at 1.4.
    inst = two_slice_line(rate=0.0)
    sc = Scenario(inst, SCS1, horizon=10.0, warmup=0.0)
    out = run_simulation(sc, keep_trace=True,
                         arrival_schedule=[(0.0, "c1", 0.5), (0.3, "c2", 0.9)])
    got = [(ev.time, ev.kind, ev.class_id) for ev in out.trace.events]
    want = [(0.0, "arrival", "c1"), (0.3, "arrival", "c2"),
            (0.7, "departure", "c1"), (1.4, "departure", "c2")]
    assert len(got) == 4
    for (t, k, c), (wt, wk, wc) in zip(got, want):
        assert (k, c) == (wk, wc)
        assert t == pytest.approx(wt, abs=1e-9)
    assert out.metrics.per_slice["s1"].mean_delay == pytest.approx(0.7, abs=1e-9)
    assert out.metrics.per_slice["s2"].mean_delay == pytest.approx(1.1, abs=1e-9)
    assert out.metrics.per_slice["s2"].mean_throughput == pytest.approx(
        0.9 / 1.1, abs=1e-9)


def test_busy_fractions_hand_trace():
    # slice 1 busy on [0,2], slice 2 on [1,3], horizon 4:
    # idle 0.25, exactly-one 0.5, both 0.25
    inst = two_slice_line(rate=0.0)
    sc = Scenario(inst, SCS1, horizon=4.0, warmup=0.0)
    out = run_simulation(sc, keep_trace=True,
                         arrival_schedule=[(0.0, "c1", 1.5), (1.0, "c2", 1.5)])
    m = out.metrics
    assert m.busy_fractions == pytest.approx((0.25, 0.5, 0.25), abs=1e-9)
    assert m.frac_both_busy == pytest.approx(0.25, abs=1e-9)
    assert sum(m.busy_fractions) == pytest.approx(1.0, abs=1e-12)
    # standalone recomputation from the trace agrees
    again = busy_fractions(out.trace, (0.0, 4.0))
    assert again == pytest.approx(m.busy_fractions, abs=1e-12)
    with pytest.raises(ValidationError):
        busy_fractions(out.trace, (2.0, 2.0))


def test_tie_order_departures_by_uid_then_arrivals_by_class():
    # c2 (uid 0) runs alone on [0, 0.5] and keeps 0.5 of its work; c1
    # (uid 1) brings 0.5 at t=0.5, so at rate 0.5 each both deplete at 1.5,
    # exactly when one arrival per class is scheduled
    inst = two_slice_line(rate=0.0)
    sc = Scenario(inst, EngineSpec.from_string("maxmin-scs"), horizon=10.0,
                  warmup=0.0)
    out = run_simulation(sc, keep_trace=True, arrival_schedule=[
        (0.0, "c2", 1.0), (0.5, "c1", 0.5), (1.5, "c2", 2.0), (1.5, "c1", 2.0)])
    got = [(ev.time, ev.kind, ev.class_id) for ev in out.trace.events[2:6]]
    assert got == [(1.5, "departure", "c2"), (1.5, "departure", "c1"),
                   (1.5, "arrival", "c1"), (1.5, "arrival", "c2")]

    # the same order for sampled arrivals, pinned to tie with a departure
    sim = Simulation(Scenario(two_slice_line(), sc.engine, horizon=10.0, seed=1))
    assert sim.step()
    sim.next_arrival = [math.inf, math.inf]
    dep = sim.next_event()
    assert dep[1] == "departure"
    sim.next_arrival = [dep[0], dep[0]]
    assert sim.next_event() == dep
    sim.next_arrival = [math.nextafter(dep[0], 0.0)] * 2
    assert sim.next_event() == (sim.next_arrival[0], "arrival", 0, -1)


def reference_accumulators(trace, window, horizon):
    """mean_population and quarter_means from the trace's piecewise-constant
    population, which runs from each event to the next and from the last
    event to the window end."""
    w0, w1 = window
    times = [0.0] + [ev.time for ev in trace.events] + [w1]
    totals = [0] + [sum(ev.counts) for ev in trace.events]
    spans = [(w0, w1)] + [(q * horizon / 4, (q + 1) * horizon / 4) for q in range(4)]
    integrals = [0.0] * len(spans)
    for a, b, n in zip(times, times[1:], totals):
        for i, (lo, hi) in enumerate(spans):
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                integrals[i] += n * overlap
    return integrals[0] / (w1 - w0), [4 * x / horizon for x in integrals[1:]]


@pytest.mark.parametrize("engine", ["maxmin-scs", "drf", "dps",
                                    "drf_unconstrained", "scs(1)"])
@pytest.mark.parametrize("name,horizon,warmup,cap", [
    ("fig2_symmetric", 301.7, 0.1, None),
    ("fig2_symmetric", 250.0, 0.0, None),
    ("fig2_symmetric", 1000.0, 0.05, 150),
    ("fig7_multiresource", 20.3, 0.1, None),
    ("fig7_multiresource", 60.0, 0.0, 40)])
def test_accumulators_match_trace_recomputation(engine, name, horizon, warmup, cap):
    sc = Scenario(load_builtin(name).instance, EngineSpec.from_string(engine),
                  horizon, warmup, seed=3, max_departures=cap)
    out = run_simulation(sc, keep_trace=True)
    m = out.metrics
    if cap is not None:
        assert m.departures >= cap and m.window[1] < horizon
    assert m.window[1] > m.window[0]
    mean_pop, quarters = reference_accumulators(out.trace, m.window, horizon)
    close = dict(rel=1e-12, abs=1e-12)
    assert m.mean_population == pytest.approx(mean_pop, **close)
    assert m.quarter_means == pytest.approx(quarters, **close)
    assert m.busy_fractions == pytest.approx(busy_fractions(out.trace, m.window),
                                             **close)


def replay_conservation(inst, scenario, trace):
    """Re-derive every departure from the trace: advancing each class's
    service offset through the recorded piecewise-constant rates must hit
    the departing user's workload exactly."""
    n_cls = inst.n_classes
    work_rng = [_class_rng(scenario.seed, c, 1) for c in range(n_cls)]
    offsets = [0.0] * n_cls
    keys = [[] for _ in range(n_cls)]
    counts = [0] * n_cls
    rates = trace.allocations[0]
    t_prev = 0.0
    worst = 0.0
    for ev in trace.events:
        dt = ev.time - t_prev
        for c in range(n_cls):
            if counts[c]:
                offsets[c] += rates[c] / counts[c] * dt
        c = inst.class_index[ev.class_id]
        if ev.kind == "arrival":
            cl = inst.classes[c]
            if cl.workload == "deterministic":
                work = cl.mean_workload
            else:
                work = float(work_rng[c].exponential(cl.mean_workload))
            keys[c].append(work + offsets[c])
            keys[c].sort()
        else:
            worst = max(worst, abs(keys[c][0] - offsets[c]))
            keys[c].pop(0)
        counts = list(ev.counts)
        rates = trace.allocations[ev.alloc_id]
        t_prev = ev.time
    return worst


def engine_strings():
    """Every ENGINES kind, with alpha 1 for the kinds that take one."""
    return [f"{kind}(1)" if takes_alpha else kind
            for kind, (_, _, takes_alpha) in ENGINES.items()]


@pytest.mark.parametrize("engine", engine_strings())
@pytest.mark.parametrize("name,horizon", [("two_slice_line", 200.0),
                                          ("fig7_multiresource", 40.0)])
def test_work_conservation_and_feasibility(name, horizon, engine):
    inst = (two_slice_line() if name == "two_slice_line"
            else load_builtin(name).instance)
    sc = Scenario(inst, EngineSpec.from_string(engine), horizon=horizon,
                  warmup=0.0, seed=3)
    out = run_simulation(sc, keep_trace=True)
    assert out.metrics.departures > 50
    assert replay_conservation(inst, sc, out.trace) <= 1e-9
    for alloc in out.trace.allocations:
        assert not feasibility_report(inst, alloc).violations


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1),
       rates=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
def test_random_instances_stay_feasible_and_conserve_work(seed, rates):
    base = random_instance(np.random.default_rng(seed))
    inst = replace(base, classes=tuple(replace(cl, arrival_rate=r)
                                       for cl, r in zip(base.classes, rates)))
    for engine in engine_strings():
        sc = Scenario(inst, EngineSpec.from_string(engine), horizon=60.0,
                      warmup=0.0, seed=seed)
        out = run_simulation(sc, keep_trace=True)
        assert replay_conservation(inst, sc, out.trace) <= 1e-9
        for alloc in out.trace.allocations:
            assert feasibility_report(inst, alloc).feasible, (engine, alloc)


# the functions each kind reaches through sliceshare.sim's globals when it
# solves a population; perfbench's tracer and call capture patch these names
SOLVE_NAMES = {
    "scs": ("scwa_weights", "solve_alpha_scs"),
    "maxmin-scs": ("scwa_weights", "maxmin_waterfill"),
    "drf": ("drf_weights", "maxmin_waterfill"),
    "dps": ("dps_weights", "maxmin_waterfill"),
    "drf_unconstrained": ("drf_unconstrained_weights", "maxmin_waterfill"),
    "static-partition": ("scwa_weights", "static_partition"),
}


@pytest.mark.parametrize("engine", engine_strings())
def test_engine_table_calls_patched_module_functions(engine, monkeypatch):
    assert SOLVE_NAMES.keys() == ENGINES.keys()
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    spec = EngineSpec.from_string(engine)
    for name in SOLVE_NAMES[spec.kind]:
        monkeypatch.setattr(sim_mod, name, counting(name, getattr(sim_mod, name)))
    run_simulation(Scenario(two_slice_line(), spec, horizon=20.0, seed=1))
    assert set(calls) == set(SOLVE_NAMES[spec.kind])


def test_engine_outputs_are_python_floats():
    # slice s2 is idle, so static_partition also takes its zero-rate path
    inst = load_builtin("fig7_multiresource").instance
    q = scwa_weights(inst, PopulationState((1, 2, 1, 0, 0, 0)))
    for res in (solve_alpha_scs(inst, q, 1.0), maxmin_waterfill(inst, q),
                *static_partition(inst, q, 1.0).values()):
        alloc = res.allocation
        assert all(type(x) is float for x in alloc.rates + (alloc.duals or ()))


@pytest.mark.parametrize("engine", engine_strings())
def test_metrics_and_trace_rates_are_python_floats(engine):
    sc = Scenario(two_slice_line(), EngineSpec.from_string(engine),
                  horizon=100.0, seed=1)
    out = run_simulation(sc, keep_trace=True)
    assert all(type(x) is float for x in out.metrics.numbers(("s1", "s2")).values())
    assert all(type(x) is float for rates in out.trace.allocations for x in rates)


def test_trace_times_nondecreasing_population_consistent():
    inst = two_slice_line()
    out = run_simulation(Scenario(inst, SCS1, horizon=100.0, seed=9),
                         keep_trace=True)
    prev_t, prev_n = 0.0, (0, 0)
    for ev in out.trace.events:
        assert ev.time >= prev_t
        delta = sum(ev.counts) - sum(prev_n)
        assert delta == (1 if ev.kind == "arrival" else -1)
        prev_t, prev_n = ev.time, ev.counts


def test_littles_law():
    inst = two_slice_line()
    m = run_simulation(Scenario(inst, SCS1, horizon=10_000.0, seed=1)).metrics
    w0, w1 = m.window
    lam_eff = m.departures / (w1 - w0)
    assert abs(m.mean_population - lam_eff * m.mean_delay) <= \
        0.03 * m.mean_population


def one_draw_arrivals(seed, c, cl):
    """Class c's arrival stream drawn one value per numpy call."""
    arr, work = _class_rng(seed, c, 0), _class_rng(seed, c, 1)
    t = 0.0
    while True:
        t += arr.exponential(1.0 / cl.arrival_rate)
        yield t, (cl.mean_workload if cl.workload == DETERMINISTIC
                  else work.exponential(cl.mean_workload))


@pytest.mark.parametrize("workload", ["exponential", "deterministic"])
def test_block_arrivals_match_one_draw_at_a_time(workload):
    n = 2 * sim_mod._BLOCK + 37     # crosses two block boundaries
    for c, cl in enumerate(two_slice_line(0.3, workload).classes):
        cl = replace(cl, mean_workload=1.7)
        got = list(islice(sim_mod._poisson_arrivals(11, c, cl), n))
        assert got == list(islice(one_draw_arrivals(11, c, cl), n))
        assert all(type(t) is float and type(w) is float for t, w in got)
        idle = replace(cl, arrival_rate=0.0)
        assert list(sim_mod._poisson_arrivals(11, c, idle)) == []


@pytest.mark.parametrize("name,horizon", [("fig2_symmetric", 4000.0),
                                          ("fig7_multiresource", 300.0)])
def test_each_population_is_solved_once(name, horizon, monkeypatch):
    solved = Counter()

    def counting(inst, pop):
        solved[pop.counts] += 1
        return scwa_weights(inst, pop)
    monkeypatch.setattr(sim_mod, "scwa_weights", counting)
    inst = load_builtin(name).instance
    sim = Simulation(Scenario(inst, EngineSpec("maxmin-scs"), horizon, seed=2))
    sim.run()
    # the empty population is cached without a solve
    assert set(solved) == set(sim._alloc_cache) - {(0,) * inst.n_classes}
    assert set(solved.values()) == {1}
    assert sim.events_done > len(solved)    # so some events hit the cache


def test_determinism_same_seed():
    inst = two_slice_line()
    sc = Scenario(inst, SCS1, horizon=300.0, seed=7)
    a = run_simulation(sc, keep_trace=True)
    b = run_simulation(sc, keep_trace=True)
    assert a.trace.events == b.trace.events
    assert a.metrics == b.metrics
    c = run_simulation(Scenario(inst, SCS1, horizon=300.0, seed=8),
                       keep_trace=True)
    assert c.trace.events != a.trace.events


def test_arrivals_identical_across_engines():
    inst = two_slice_line()
    traces = {}
    for name in ("scs(1)", "dps", "maxmin-scs"):
        sc = Scenario(inst, EngineSpec.from_string(name), horizon=200.0, seed=4)
        traces[name] = run_simulation(sc, keep_trace=True).trace
    def arrivals(tr):
        return [(ev.time, ev.class_id) for ev in tr.events
                if ev.kind == "arrival"]
    base = arrivals(traces["scs(1)"])
    assert arrivals(traces["dps"]) == base
    assert arrivals(traces["maxmin-scs"]) == base


def test_replicate_identical_seeds_and_ci_shrink():
    inst = two_slice_line()
    sc = Scenario(inst, SCS1, horizon=400.0)
    same = replicate(sc, [SCS1], [5, 5])["scs(1)"]
    assert same["mean_delay"].half_width == 0.0
    assert same["mean_delay"].values[0] == same["mean_delay"].values[1]

    few = replicate(sc, [SCS1], range(4))["scs(1)"]["mean_delay"]
    many = replicate(sc, [SCS1], range(16))["scs(1)"]["mean_delay"]
    # half width should fall roughly like 1/sqrt(k); allow wide slack
    ratio = many.half_width / few.half_width
    assert 0.2 <= ratio <= 0.85

    with pytest.raises(ValidationError):
        replicate(sc, [SCS1], [1])


def test_max_departures_stops_early():
    inst = two_slice_line()
    sc = Scenario(inst, SCS1, horizon=100_000.0, warmup=0.0, seed=2,
                  max_departures=50)
    m = run_simulation(sc).metrics
    assert m.departures >= 50
    assert m.departures < 100
    assert m.window[1] < 100_000.0


def test_engine_failure_reports_event(monkeypatch):
    # coupled resources converge geometrically, so a starved iteration
    # budget must surface as an abort naming the failing event
    starved = SolverOptions(tol=1e-16, max_iters=3)
    monkeypatch.setattr(sim_mod, "solve_alpha_scs", partial(solve_alpha_scs, opts=starved))
    monkeypatch.setattr(sim_mod, "static_partition", partial(static_partition, opts=starved))
    inst = make_instance(
        ["r1", "r2"],
        [("s1", 0.5), ("s2", 0.5)],
        [("c1", "s1", {"r1": 1.0}, 0.45),
         ("c2", "s2", {"r1": 0.6, "r2": 1.0}, 0.45)])
    for engine in ("scs(1)", "static-partition(1)"):
        sc = Scenario(inst, EngineSpec.from_string(engine), horizon=50.0, seed=0)
        with pytest.raises(SolverError, match="event"):
            run_simulation(sc)


def test_stability_probe_trivial_and_verdicts():
    idle = two_slice_line(rate=0.0)
    rep = stability_probe(Scenario(idle, SCS1, horizon=40.0))
    assert rep.max_effective_load == 0.0
    assert rep.verdict == "consistent-with-stable"

    # heavy overload on the shared link grows roughly linearly
    hot = two_slice_line(rate=1.0)
    rep = stability_probe(Scenario(hot, SCS1, horizon=2000.0, seed=6))
    assert rep.max_effective_load == pytest.approx(2.0)
    assert rep.verdict == "growing"


def test_metrics_numbers_order():
    inst = two_slice_line()
    m = run_simulation(Scenario(inst, SCS1, horizon=100.0, seed=1)).metrics
    keys = list(m.numbers(("s1", "s2")).keys())
    assert keys == ["delay_s1", "delay_s2", "tput_s1", "tput_s2",
                    "mean_delay", "mean_throughput", "frac_idle",
                    "frac_one_busy", "frac_both_busy", "mean_population",
                    "departures"]
