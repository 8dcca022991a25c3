"""One benchmark workload in one fresh, single-threaded process.

run.py starts this file once per set-up probe (--probe) and once for the
measured run, one process at a time.  It prints one JSON line on stdout.
See README.md for what each workload is for and which layer it isolates.
"""

import os

# pinned before numpy is imported, so no BLAS or OpenMP pool competes for
# the two cores with the process being measured
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402  (sibling module, after the path is set)

# Loop workloads: (built-in scenario, {profile: ((engine, horizon), ...)}).
# horizon None means the scenario's own run horizon.  Every run uses the
# workload seed and warmup 0.1.
SIM_WORKLOADS = {
    "fig2-loop": ("fig2_symmetric", {
        "bench": (("maxmin-scs", None), ("dps", None)),
        "tiny": (("maxmin-scs", 2000.0), ("dps", 2000.0))}),
    "fig7-waterfill": ("fig7_multiresource", {
        "bench": (("maxmin-scs", 6000.0), ("drf", 1000.0), ("dps", 1000.0),
                  ("drf_unconstrained", 1000.0)),
        "tiny": (("maxmin-scs", 40.0), ("drf", 10.0), ("dps", 10.0),
                 ("drf_unconstrained", 10.0))}),
    "fig7-dual": ("fig7_multiresource", {
        "bench": tuple((e, 30.0) for e in
                       ("scs(0.5)", "scs(1)", "scs(2)", "static-partition(1)")),
        "tiny": tuple((e, 2.0) for e in
                      ("scs(0.5)", "scs(1)", "scs(2)", "static-partition(1)"))}),
}
# static-pool: (fig7 populations, random instances, horizon of the seed-0
# maxmin-scs run the fig7 populations are read from)
STATIC_POOL = {"bench": (150, 200, 1000.0), "tiny": (4, 4, 20.0)}
STATIC_ENGINES = ("scs(0.5)", "scs(1)", "scs(2)", "maxmin-scs", "static-partition(1)")
WORKLOADS = tuple(SIM_WORKLOADS) + ("static-pool",)
# engine calls of a loop workload replayed for solve_us_*: between REPLAY_CAP
# and twice that many, evenly spaced over one round
REPLAY_CAP = 1500

# Output tolerances.  Water-fill simulations must print the same CSV bytes
# (%.6g) as the reference; dual-ascent outputs (scs, static-partition) may
# move by DUAL_RTOL relative, water-fill rates in the pool by WATERFILL_RTOL.
DUAL_RTOL = 1e-6
WATERFILL_RTOL = 1e-9
WATERFILL_KINDS = ("maxmin-scs", "drf", "dps", "drf_unconstrained")


def close(a, b, rtol):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(b), 1.0)


def csv_fields(values):
    """Metrics.numbers() values as the CLI writes them."""
    return [f"{x:.6g}" for x in values[:-1]] + [str(int(values[-1]))]


def same_output(kind, new, ref):
    if len(new) != len(ref):
        return False
    if kind in WATERFILL_KINDS:
        return csv_fields(new) == csv_fields(ref)
    return all(close(a, b, DUAL_RTOL) for a, b in zip(new, ref))


class Checker:
    """Counts attempted and failed operations; a failure is never raised."""

    def __init__(self, reference, compare):
        self.reference = reference or {}    # op key -> recorded output
        self.compare = compare              # (kind, new, recorded) -> bool
        self.first = {}                     # op key -> output of its first attempt
        self.attempted = 0
        self.failed = 0
        self.reference_checked = 0
        self.reasons = []

    def record(self, key, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{key}: {reason}")

    def output(self, key, kind, value, problems=()):
        """Check one successful operation; problems were found by the caller."""
        if problems:
            return self.record(key, False, "; ".join(problems))
        first = self.first.setdefault(key, value)
        if not (len(value) == len(first)
                and all(close(a, b, 0.0) for a, b in zip(value, first))):
            return self.record(key, False, "output differs between rounds")
        ref = self.reference.get(key)
        if ref is not None:
            self.reference_checked += 1
            if not self.compare(kind, value, ref):
                return self.record(key, False, "output differs from the reference")
        self.record(key, True)


def sim_invariants(metrics):
    problems = []
    if metrics.departures > metrics.arrivals_total:
        problems.append("more departures than arrivals")
    if sum(s.departures for s in metrics.per_slice.values()) != metrics.departures:
        problems.append("per-slice departures do not add up")
    if abs(sum(metrics.busy_fractions) - 1.0) > 1e-9:
        problems.append("busy fractions do not sum to 1")
    return problems


class SimWorkload:
    """Simulation runs (engine x seed) through the public Simulation API."""

    def __init__(self, ss, name, seed, profile):
        self.ss = ss
        scenario_name, runs = SIM_WORKLOADS[name]
        t0 = time.perf_counter()
        sf = ss.load_builtin(scenario_name)
        self.load_s = time.perf_counter() - t0
        self.inst = sf.instance
        self.scenarios = [
            (engine, ss.Scenario(sf.instance, ss.EngineSpec.from_string(engine),
                                 sf.run.horizon if h is None else h, 0.1, seed))
            for engine, h in runs[profile]]
        # constructing the first run's Simulation is part of set-up
        ss.Simulation(self.scenarios[0][1])
        self.sample = tracing.CallSample(REPLAY_CAP)
        self.residual_problems = []
        self.tol = ss.DEFAULT_OPTIONS.tol

    def check_solve(self, kind, result):
        parts = result.values() if isinstance(result, dict) else (result,)
        for r in parts:
            if r.residuals.worst() > self.tol:
                self.residual_problems.append(
                    f"{kind} residual {r.residuals.worst():.3g} > tol {self.tol:g}")

    def run_round(self, checker, capture=False):
        """Every run once; returns (host seconds, simulated events).

        With capture, the round also samples the engine calls for replay and
        checks every solver residual.
        """
        ss = self.ss
        if capture:
            patches = tracing.capture_engine_calls(ss.sim, self.sample, self.check_solve)
            try:
                return self.run_round(checker)
            finally:
                patches.restore()
        total = 0.0
        events = 0
        for engine, sc in self.scenarios:
            kind = sc.engine.kind
            n_problems = len(self.residual_problems)
            t0 = time.perf_counter()
            try:
                sim = ss.Simulation(sc)
                result = sim.run()
            except ss.SolverError as e:
                total += time.perf_counter() - t0
                checker.record(engine, False, f"SolverError: {e}")
                continue
            total += time.perf_counter() - t0
            events += sim.events_done
            m = result.metrics
            values = list(m.numbers(self.inst.slice_ids).values())
            checker.output(engine, kind, values,
                           sim_invariants(m) + self.residual_problems[n_problems:])
        return total, events


class StaticPool:
    """Cold public engine calls over a fixed pool of (instance, weights)."""

    def __init__(self, ss, seed, profile):
        import numpy as np
        from sliceshare.gen import random_instance, random_scwa_weights
        self.ss = ss
        n_fig7, n_random, horizon = STATIC_POOL[profile]
        t0 = time.perf_counter()
        sf = ss.load_builtin("fig7_multiresource")
        self.load_s = time.perf_counter() - t0
        inst7 = sf.instance
        # the fig7 part is the same for every seed: populations in first-visit
        # order along one seed-0 maxmin-scs run, evenly thinned
        run = ss.run_simulation(ss.Scenario(inst7, ss.EngineSpec("maxmin-scs"),
                                            horizon, 0.1, 0), keep_trace=True)
        seen = {}
        for ev in run.trace.events:
            if any(ev.counts):
                seen.setdefault(ev.counts, None)
        path = list(seen)
        pops = [path[i * len(path) // n_fig7] for i in range(n_fig7)]
        items = [("fig7", i, inst7, ss.scwa_weights(inst7, ss.PopulationState(c)))
                 for i, c in enumerate(pops)]
        # the random part is the acceptance pool
        rng = np.random.default_rng(11)
        for i in range(n_random):
            inst = random_instance(rng)
            items.append(("random", i, inst, random_scwa_weights(rng, inst)))
        self.calls = []
        for part, i, inst, w in items:
            for engine in STATIC_ENGINES:
                spec = ss.EngineSpec.from_string(engine)
                if spec.kind == "scs":
                    fn, args = ss.solve_alpha_scs, (inst, w, spec.alpha)
                elif spec.kind == "static-partition":
                    fn, args = ss.static_partition, (inst, w, spec.alpha)
                else:
                    fn, args = ss.maxmin_waterfill, (inst, w)
                self.calls.append(((part, i, engine), spec.kind, inst, fn, args))
        # the seed sets the call order; the pool itself is fixed, see README.md
        order = np.random.default_rng(seed).permutation(len(self.calls))
        self.calls = [self.calls[j] for j in order]
        self.tol = ss.DEFAULT_OPTIONS.tol

    def run_round(self, checker, wrap=None):
        """Every call once; returns the host time of each call in seconds."""
        ss = self.ss
        clock = time.perf_counter
        times = []
        for key, kind, inst, fn, args in self.calls:
            if wrap is not None:
                fn = wrap(fn)
            t0 = clock()
            try:
                out = fn(*args)
            except ss.SolverError as e:
                times.append(clock() - t0)
                checker.record(key, False, f"SolverError: {e}")
                continue
            times.append(clock() - t0)
            problems = []
            if isinstance(out, dict):       # static_partition: one result per slice
                rates = [0.0] * inst.n_classes
                for r in out.values():
                    rates = [a + b for a, b in zip(rates, r.allocation.rates)]
                residuals = [r.residuals for r in out.values()]
            else:
                rates = list(out.allocation.rates)
                residuals = [out.residuals] if kind == "scs" else []
            for res in residuals:
                if res.worst() > self.tol:
                    problems.append(f"residual {res.worst():.3g} > tol {self.tol:g}")
            if not ss.feasibility_report(inst, rates).feasible:
                problems.append("infeasible allocation")
            checker.output(key, kind, [float(x) for x in rates], problems)
        return times


def pool_same_output(kind, new, ref):
    rtol = WATERFILL_RTOL if kind in WATERFILL_KINDS else DUAL_RTOL
    return len(new) == len(ref) and all(close(a, b, rtol) for a, b in zip(new, ref))


def load_reference(path, profile, workload, seed):
    """Recorded outputs keyed like Checker keys, or None if none were recorded."""
    try:
        with open(path) as fh:
            data = json.load(fh).get(profile, {}).get(workload)
    except FileNotFoundError:
        return None
    if data is None:
        return None
    if workload == "static-pool":    # the same pool for every seed
        return {(part, i, engine): rates
                for part, rows in data.items() for i, row in enumerate(rows)
                for engine, rates in zip(STATIC_ENGINES, row)}
    return data.get(str(seed))


def setup(args):
    """Import, load and construct; returns (workload, package, import seconds)."""
    t0 = time.perf_counter()
    import sliceshare
    import sliceshare.sim
    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(sliceshare.__file__).resolve().parents:
        raise SystemExit(f"imported sliceshare from {sliceshare.__file__}, not from {src}")
    if args.workload == "static-pool":
        w = StaticPool(sliceshare, args.seed, args.profile)
    else:
        w = SimWorkload(sliceshare, args.workload, args.seed, args.profile)
    return w, sliceshare, import_s


def rounds_for(budget, run_round):
    """Repeat run_round while another round of median length fits the budget."""
    results = []
    times = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_round())
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(times) > budget:
            return results, times


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def per_call(rounds):
    """Each call's median host time over rounds that repeat the same calls.

    One disturbed round then cannot move the percentiles.  Rounds of unequal
    length (a failed run) are pooled instead.
    """
    if len({len(r) for r in rounds}) == 1:
        return [statistics.median(ts) for ts in zip(*rounds)]
    return [t for r in rounds for t in r]


def measure(args, w, ss, checker, budget):
    """Untraced rounds; returns the end-to-end numbers."""
    if isinstance(w, StaticPool):
        passes, _ = rounds_for(budget, lambda: w.run_round(checker))
        calls = per_call(passes)
        wall = sum(calls)
        return {"rounds": len(passes), "wall_s": wall,
                "events_per_s": len(calls) / wall,
                "solve_us_p50": percentile(calls, 50) * 1e6,
                "solve_us_p99": percentile(calls, 99) * 1e6,
                "solve_samples": len(calls), "events": len(calls),
                "engine_calls": len(calls)}

    results, _ = rounds_for(0.8 * budget,
                            lambda: w.run_round(checker, capture=not w.sample.seen))
    if not w.sample.calls:
        raise SystemExit("no engine call was captured: "
                         "sliceshare.sim no longer calls the engines by these names")
    # the sampled calls again, back to back: host time per public engine
    # call on the inputs the loop produced, apart from the loop's own noise
    replays, _ = rounds_for(0.2 * budget, lambda: replay(w.sample.calls))
    calls = per_call(replays)
    wall = statistics.median(t for t, _ in results)
    events = results[0][1]
    return {"rounds": len(results), "wall_s": wall,
            "events_per_s": events / wall,
            "solve_us_p50": percentile(calls, 50) * 1e6,
            "solve_us_p99": percentile(calls, 99) * 1e6,
            "solve_samples": len(calls), "events": events,
            "engine_calls": w.sample.seen}


def replay(calls):
    clock = time.perf_counter
    times = []
    for fn, a, kw in calls:
        t0 = clock()
        fn(*a, **kw)
        times.append(clock() - t0)
    return times


def measure_traced(args, w, ss, checker, budget):
    """Half the budget untraced, half traced; returns per-layer numbers."""
    tracer = tracing.Tracer()
    round_span = tracer.wrap("round", lambda f: f())
    if isinstance(w, StaticPool):
        plain, plain_t = rounds_for(budget / 2, lambda: w.run_round(checker))
        # the package exports the engines under the names sim.py binds
        wrapped = {getattr(ss, attr): tracer.wrap(span, getattr(ss, attr), engine=True)
                   for attr, span in tracing.SIM_ENGINES.items()}
        traced, traced_t = rounds_for(
            budget / 2, lambda: round_span(lambda: w.run_round(checker, wrapped.get)))
    else:
        plain, plain_t = rounds_for(budget / 2, lambda: w.run_round(checker))
        tracer.install_sim(ss.sim, ss.Simulation)
        try:
            traced, traced_t = rounds_for(
                budget / 2, lambda: round_span(lambda: w.run_round(checker)))
        finally:
            tracer.restore()
    events = 0 if isinstance(w, StaticPool) else traced[0][1]
    layers = tracing.layer_metrics(tracer, len(traced), events)
    layers["trace.overhead"] = (statistics.median(traced_t) / statistics.median(plain_t) - 1.0,
                                "ratio")
    out = HERE / "out" / f"spans-{args.workload}.npz"
    tracer.save(out)
    return layers, len(plain), len(traced), str(out.relative_to(ROOT))


def record_outputs(args, w, checker):
    """One round's outputs, in the layout reference.json keeps them."""
    w.run_round(checker)
    if isinstance(w, StaticPool):
        # {part: [[rates per engine in STATIC_ENGINES order] per pool entry]}
        rows = {}
        for (part, i, engine), rates in checker.first.items():
            row = rows.setdefault(part, {}).setdefault(i, [None] * len(STATIC_ENGINES))
            row[STATIC_ENGINES.index(engine)] = [float(f"{x:.12g}") for x in rates]
        return {part: [r[i] for i in sorted(r)] for part, r in rows.items()}
    return {str(args.seed): checker.first}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=("bench", "tiny"), default="bench")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=str(HERE / "reference.json"))
    p.add_argument("--probe", action="store_true",
                   help="set up, report the set-up time and exit")
    p.add_argument("--record", action="store_true",
                   help="run one round and print its outputs for reference.json")
    args = p.parse_args(argv)

    w, ss, import_s = setup(args)
    setup_done = time.monotonic()
    result = {"setup_done": setup_done, "import_s": import_s, "load_s": w.load_s}
    if args.probe:
        print(json.dumps(result))
        return 0

    if args.record:
        checker = Checker(None, same_output)
        result["outputs"] = record_outputs(args, w, checker)
        if checker.failed:
            raise SystemExit(f"not recording a failing round: {checker.reasons}")
        print(json.dumps(result))
        return 0

    import numpy
    reference = load_reference(args.reference, args.profile, args.workload, args.seed)
    checker = Checker(reference, pool_same_output if args.workload == "static-pool"
                      else same_output)
    if args.trace:
        layers, n_plain, n_traced, spans = measure_traced(args, w, ss, checker, args.seconds)
        result.update(layers={k: list(v) for k, v in layers.items()},
                      rounds=n_plain, traced_rounds=n_traced, spans=spans)
    else:
        result.update(measure(args, w, ss, checker, args.seconds))
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=checker.attempted, failed=checker.failed, reasons=checker.reasons,
        reference_checked=checker.reference_checked,
        python=platform.python_version(), numpy=numpy.__version__,
        nproc=len(os.sched_getaffinity(0)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
