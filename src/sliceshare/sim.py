"""Event-driven simulator for elastic traffic over the allocation engines.

Users of class c arrive Poisson(arrival_rate), carry a workload drawn per
the class distribution, and are served at phi_c / n_c until the workload
completes.  Rates are piecewise constant between events; depletion times
are exact, so there is no time-stepping error.  Traffic randomness is
engine-independent: each class owns one stream of (arrival time, workload)
pairs, drawn from labeled substreams of the scenario seed (or read from a
fixed `arrival_schedule`), and engines never touch it, so runs that differ
only in the engine share identical arrival/workload sample paths; sampled
streams take `_BLOCK` draws per numpy call, the same values as one at a time.
A user's workload is fixed at arrival and never resampled.

Each event costs O(classes): `step` keeps `n_users == sum(counts)` and
`n_busy` == the number of slices with a user, and calls `_allocate` only for
a population its allocation-cache lookup misses.  Per-user rates are divided
out per event, not cached with the allocations: most fig7 populations are
visited once, so caching them costs memory and saves no measurable time.
"""

import heapq
import math
from dataclasses import dataclass, replace
from itertools import accumulate, repeat

import numpy as np

from .model import (PopulationState, ValidationError, scwa_weights,
                    drf_weights, dps_weights, drf_unconstrained_weights,
                    DETERMINISTIC)
from .engines import (DEFAULT_OPTIONS, SolverError, solve_alpha_scs,
                      maxmin_waterfill, static_partition)


def _waterfill(inst, q, alpha, opts, warm):
    return maxmin_waterfill(inst, q).allocation.rates, None


def _alpha_fair(inst, q, alpha, opts, warm):
    alloc = solve_alpha_scs(inst, q, alpha, opts, warm_duals=warm).allocation
    return alloc.rates, alloc.duals


def _partition(inst, q, alpha, opts, warm):
    total = [0.0] * inst.n_classes
    for r in static_partition(inst, q, alpha, opts).values():
        total = [a + b for a, b in zip(total, r.allocation.rates)]
    return tuple(total), None


# engine kind -> (weight rule, solve, takes alpha); a solve maps (instance,
# weights, alpha, opts, warm duals) to (rates, duals).  Both call this module's
# globals by name, so a function replaced here (by a test or a tracer) is used.
ENGINES = {
    "scs": (lambda inst, pop: scwa_weights(inst, pop), _alpha_fair, True),
    "maxmin-scs": (lambda inst, pop: scwa_weights(inst, pop), _waterfill, False),
    "drf": (lambda inst, pop: drf_weights(inst, pop), _waterfill, False),
    "dps": (lambda inst, pop: dps_weights(inst, pop), _waterfill, False),
    "drf_unconstrained": (lambda inst, pop: drf_unconstrained_weights(inst, pop),
                          _waterfill, False),
    "static-partition": (lambda inst, pop: scwa_weights(inst, pop), _partition, True),
}


@dataclass(frozen=True)
class EngineSpec:
    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ENGINES:
            raise ValidationError(f"unknown engine {self.kind!r}")
        if not ENGINES[self.kind][2]:
            if self.alpha is not None:
                raise ValidationError(f"engine {self.kind} takes no alpha")
        elif self.alpha is None or not (0 < self.alpha < math.inf):
            raise ValidationError(f"engine {self.kind} needs a finite alpha > 0")

    @classmethod
    def from_string(cls, text):
        """Parse 'dps', 'scs(1)', 'static-partition(0.5)' forms."""
        text = text.strip()
        if text.endswith(")") and "(" in text:
            kind, arg = text[:-1].split("(", 1)
            try:
                alpha = float(arg)
            except ValueError as e:
                raise ValidationError(f"bad engine alpha {arg!r}") from e
            return cls(kind.strip(), alpha)
        return cls(text)

    @property
    def key(self) -> str:
        if self.alpha is None:
            return self.kind
        return f"{self.kind}({self.alpha:g})"


@dataclass(frozen=True)
class Scenario:
    instance: object
    engine: EngineSpec
    horizon: float
    warmup: float = 0.1
    seed: int = 0
    max_departures: int | None = None
    label: str = ""

    def __post_init__(self):
        if not (0 < self.horizon < math.inf):
            raise ValidationError("horizon must be finite and > 0")
        if not (0 <= self.warmup < 1):
            raise ValidationError("warmup must be in [0, 1)")


@dataclass(frozen=True)
class SliceStats:
    mean_delay: float
    mean_throughput: float
    departures: int


@dataclass(frozen=True)
class Metrics:
    window: tuple[float, float]
    arrivals_total: int
    departures: int
    per_slice: dict[str, SliceStats]
    mean_delay: float
    mean_throughput: float
    mean_population: float
    busy_fractions: tuple[float, ...]
    quarter_means: tuple[float, float, float, float]

    @property
    def frac_idle(self) -> float:
        return self.busy_fractions[0]

    @property
    def frac_one_busy(self) -> float:
        return self.busy_fractions[1] if len(self.busy_fractions) > 1 else 0.0

    @property
    def frac_both_busy(self) -> float:
        """Fraction of time at least two slices are busy."""
        return float(sum(self.busy_fractions[2:]))

    @property
    def stability_verdict(self) -> str:
        q2, q4 = self.quarter_means[1], self.quarter_means[3]
        if q4 <= 1.2 * q2:
            return "consistent-with-stable"
        if q4 >= 2.0 * q2:
            return "growing"
        return "inconclusive"

    def numbers(self, slice_ids) -> dict[str, float]:
        out = {f"delay_{sid}": self.per_slice[sid].mean_delay for sid in slice_ids}
        out.update((f"tput_{sid}", self.per_slice[sid].mean_throughput)
                   for sid in slice_ids)
        out.update(mean_delay=self.mean_delay, mean_throughput=self.mean_throughput,
                   frac_idle=self.frac_idle, frac_one_busy=self.frac_one_busy,
                   frac_both_busy=self.frac_both_busy,
                   mean_population=self.mean_population,
                   departures=float(self.departures))
        return out


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str
    class_id: str
    counts: tuple[int, ...]
    alloc_id: int


@dataclass(frozen=True)
class Trace:
    events: tuple[TraceEvent, ...]
    allocations: tuple[tuple[float, ...], ...]
    class_slices: tuple[int, ...]
    n_slices: int


@dataclass(frozen=True)
class RunResult:
    metrics: Metrics
    trace: Trace | None


def _class_rng(seed, class_idx, label):
    return np.random.default_rng(np.random.SeedSequence((seed, class_idx, label)))


_BLOCK = 512     # draws per numpy call in a class's arrival stream


def _poisson_arrivals(seed, c, cl):
    """Class c's (arrival time, workload) pairs from its substreams 0 and 1."""
    if not cl.arrival_rate > 0:
        return
    arr, work = _class_rng(seed, c, 0), _class_rng(seed, c, 1)
    scale, t, mean = 1.0 / cl.arrival_rate, 0.0, cl.mean_workload
    while True:
        times = list(accumulate(arr.exponential(scale, _BLOCK).tolist(), initial=t))
        t = times[-1]
        yield from zip(times[1:], repeat(mean) if cl.workload == DETERMINISTIC
                       else work.exponential(mean, _BLOCK).tolist())


_NO_ARRIVAL = (math.inf, 0.0)


class Simulation:
    """One deterministic run.  Mutable; create fresh per run.  A fixed
    arrival_schedule [(time, class_id, workload), ...] replaces every sampled arrival."""

    def __init__(self, scenario, keep_trace=False, arrival_schedule=None,
                 opts=DEFAULT_OPTIONS):
        self.scenario = scenario
        self.inst = scenario.instance
        self.opts = opts
        n_cls = self.inst.n_classes
        self.t = 0.0
        self.horizon = scenario.horizon
        self.class_slice = [int(v) for v in self.inst.class_slice]
        self.counts = [0] * n_cls
        self.slice_counts = [0] * self.inst.n_slices
        self.n_users = self.n_busy = 0
        self.offsets = [0.0] * n_cls
        self.users = [[] for _ in range(n_cls)]   # heaps of (key, uid, t_arr, work)
        self.next_uid = 0
        self.events_done = 0
        self.keep_trace = keep_trace

        if arrival_schedule is None:
            self.arrivals = [_poisson_arrivals(scenario.seed, c, cl)
                             for c, cl in enumerate(self.inst.classes)]
        else:
            idx = self.inst.class_index
            per_class = [[] for _ in range(n_cls)]
            for t, cid, w in arrival_schedule:
                t, w = float(t), float(w)
                if cid not in idx:
                    raise ValidationError(f"scheduled arrival of unknown class {cid!r}")
                if not 0.0 <= t < math.inf:
                    raise ValidationError(f"scheduled arrival time {t!r} is not finite and >= 0")
                if not 0.0 < w < math.inf:
                    raise ValidationError(f"scheduled workload {w!r} is not finite and > 0")
                per_class[idx[cid]].append((t, w))
            self.arrivals = [iter(sorted(p)) for p in per_class]
        # each class's next (arrival time, workload); inf once its stream ends
        heads = [next(stream, _NO_ARRIVAL) for stream in self.arrivals]
        self.next_arrival = [ta for ta, _ in heads]
        self.next_work = [w for _, w in heads]

        self._alloc_cache = {}     # counts -> (rates, alloc_id, duals)
        self._warm = None
        self._allocate()

        # accumulators
        h = scenario.horizon
        self.window = (scenario.warmup * h, h)
        self.quarter_bounds = [q * h / 4.0 for q in range(5)]
        self.quarter = 0    # every earlier quarter ends by self.t
        self.pop_integral = 0.0
        self.busy_time = [0.0] * (self.inst.n_slices + 1)
        self.quarter_integrals = [0.0] * 4
        nv = self.inst.n_slices
        self.dep_count = [0] * nv
        self.delay_sum = [0.0] * nv
        self.tput_sum = [0.0] * nv
        self.trace_events = []

    def _allocate(self):
        """Solve counts, a population not in the cache; set rates, alloc_id
        and the warm duals."""
        key = tuple(self.counts)
        duals = self._warm
        if not any(self.counts):
            rates = (0.0,) * self.inst.n_classes
        else:
            engine = self.scenario.engine
            rule, solve, _ = ENGINES[engine.kind]
            q = rule(self.inst, PopulationState(key))
            try:
                rates, duals = solve(self.inst, q, engine.alpha, self.opts,
                                     self._warm)
            except SolverError as e:
                raise SolverError(
                    f"engine failed at event {self.events_done} "
                    f"(population {key}): {e}",
                    residuals=e.residuals, iterations=e.iterations) from e
        # alloc_id is the insertion index; _trace relies on the cache's order
        entry = self._alloc_cache[key] = (rates, len(self._alloc_cache), duals)
        self.rates, self.alloc_id, self._warm = entry

    def next_event(self):
        """Peek the earliest pending event without applying it.

        Returns (time, kind, class_idx, uid) with kind 'arrival' or
        'departure'; departures win ties, lowest uid first, then arrivals
        in class order.
        """
        t, rates, counts, offsets = self.t, self.rates, self.counts, self.offsets
        when, uid, dep_c = math.inf, -1, -1
        for c, users in enumerate(self.users):
            if users and rates[c] > 0:
                key, u, _, _ = users[0]
                dt = (key - offsets[c]) / (rates[c] / counts[c])
                tc = t + (0.0 if dt < 0.0 else dt)
                if tc < when or (tc == when and u < uid):
                    when, uid, dep_c = tc, u, c
        arr_c = -1
        for c, ta in enumerate(self.next_arrival):
            if ta < when:
                when, arr_c = ta, c
        if arr_c >= 0:
            return (when, "arrival", arr_c, -1)
        if when == math.inf:
            return None
        return (when, "departure", dep_c, uid)

    def _accumulate(self, t0, t1):
        if t1 <= t0:
            return
        total = self.n_users
        w0, w1 = self.window
        a, b = (w0 if w0 > t0 else t0), (w1 if w1 < t1 else t1)
        if b > a:
            self.pop_integral += total * (b - a)
            self.busy_time[self.n_busy] += b - a
        # time only moves forward: quarters that end by t0 are done for good
        bounds, q = self.quarter_bounds, self.quarter
        while q < 3 and bounds[q + 1] <= t0:
            q += 1
        self.quarter = q
        while q < 4 and bounds[q] < t1:
            lo, hi = bounds[q], bounds[q + 1]
            o0, o1 = (lo if lo > t0 else t0), (hi if hi < t1 else t1)
            if o1 > o0:
                self.quarter_integrals[q] += total * (o1 - o0)
            q += 1

    def step(self):
        """Apply the next event; False once the horizon is reached."""
        ev = self.next_event()
        horizon = self.horizon
        if ev is None or ev[0] > horizon:
            self._accumulate(self.t, horizon)
            self.t = horizon
            return False
        te, kind, c, uid = ev
        self._accumulate(self.t, te)
        counts, slice_counts, offsets = self.counts, self.slice_counts, self.offsets
        dt = te - self.t
        if dt > 0:
            rates = self.rates
            for i, n in enumerate(counts):
                if n and rates[i] > 0:
                    offsets[i] += rates[i] / n * dt
        self.t = te
        slice_idx = self.class_slice[c]

        if kind == "departure":
            key, uid, t_arr, work = heapq.heappop(self.users[c])
            counts[c] -= 1
            offsets[c] = key if counts[c] else 0.0
            self.n_users -= 1
            slice_counts[slice_idx] -= 1
            if not slice_counts[slice_idx]:
                self.n_busy -= 1
            w0, w1 = self.window
            if w0 <= te <= w1:
                sojourn = te - t_arr
                self.dep_count[slice_idx] += 1
                self.delay_sum[slice_idx] += sojourn
                self.tput_sum[slice_idx] += work / sojourn
        else:
            work = self.next_work[c]
            self.next_arrival[c], self.next_work[c] = next(self.arrivals[c],
                                                           _NO_ARRIVAL)
            uid = self.next_uid
            self.next_uid += 1
            heapq.heappush(self.users[c], (work + offsets[c], uid, te, work))
            counts[c] += 1
            self.n_users += 1
            if not slice_counts[slice_idx]:
                self.n_busy += 1
            slice_counts[slice_idx] += 1

        hit = self._alloc_cache.get(tuple(counts))
        if hit is None:
            self._allocate()
        else:
            # consecutive events differ by one user, so the duals of the
            # population just revisited are the best warm start available
            self.rates, self.alloc_id, self._warm = hit
        self.events_done += 1
        if self.keep_trace:
            self.trace_events.append(TraceEvent(
                te, kind, self.inst.class_ids[c], tuple(self.counts),
                self.alloc_id))
        return True

    def run(self) -> RunResult:
        cap = self.scenario.max_departures
        while self.step():
            if cap is not None and sum(self.dep_count) >= cap:
                break
        return RunResult(self._metrics(), self._trace())

    def _metrics(self) -> Metrics:
        w0, w1 = self.window
        end = min(self.t, w1) if self.scenario.max_departures else w1
        span = max(end - w0, 0.0)
        per_slice = {}
        for v, s in enumerate(self.inst.slices):
            n = self.dep_count[v]
            per_slice[s.id] = SliceStats(
                self.delay_sum[v] / n if n else math.nan,
                self.tput_sum[v] / n if n else math.nan,
                n)
        total_dep = sum(self.dep_count)
        mean_delay = sum(self.delay_sum) / total_dep if total_dep else math.nan
        mean_tput = sum(self.tput_sum) / total_dep if total_dep else math.nan
        busy = tuple(x / span if span else 0.0 for x in self.busy_time)
        h = self.scenario.horizon
        quarters = tuple(4.0 * q / h for q in self.quarter_integrals)
        return Metrics((w0, end), self.next_uid, total_dep, per_slice,
                       mean_delay, mean_tput,
                       self.pop_integral / span if span else 0.0,
                       busy, quarters)

    def _trace(self):
        if not self.keep_trace:
            return None
        return Trace(tuple(self.trace_events),
                     tuple(rates for rates, _, _ in self._alloc_cache.values()),
                     tuple(int(v) for v in self.inst.class_slice),
                     self.inst.n_slices)


def run_simulation(scenario, keep_trace=False, opts=DEFAULT_OPTIONS,
                   **kwargs) -> RunResult:
    return Simulation(scenario, keep_trace=keep_trace, opts=opts, **kwargs).run()


def busy_fractions(trace, window) -> tuple[float, ...]:
    """Recompute k-slices-busy time fractions from a trace.

    Counts are all-zero before the first event; each event's population
    snapshot applies from its time until the next event (the last one
    extends to the window end).  Entry k of the result is the fraction of
    the window with exactly k busy slices.
    """
    w0, w1 = window
    if not (w1 > w0):
        raise ValidationError("empty busy-fraction window")

    def busy_count(counts):
        per = [0] * trace.n_slices
        for i, n in enumerate(counts):
            per[trace.class_slices[i]] += n
        return sum(1 for x in per if x > 0)

    k_time = [0.0] * (trace.n_slices + 1)
    t_prev, k_prev = 0.0, 0
    for ev in trace.events:
        a, b = max(t_prev, w0), min(ev.time, w1)
        if b > a:
            k_time[k_prev] += b - a
        t_prev, k_prev = ev.time, busy_count(ev.counts)
    if w1 > max(t_prev, w0):
        k_time[k_prev] += w1 - max(t_prev, w0)
    total = w1 - w0
    return tuple(x / total for x in k_time)


def stability_probe(scenario, opts=DEFAULT_OPTIONS):
    """Effective-load arithmetic plus an empirical growth verdict."""
    inst = scenario.instance
    load = np.zeros(inst.n_resources)
    for i, cl in enumerate(inst.classes):
        load += cl.arrival_rate * cl.mean_workload * inst.demand_matrix[i]
    metrics = run_simulation(scenario, opts=opts).metrics
    return StabilityReport(float(load.max()), metrics.stability_verdict,
                           metrics.quarter_means, metrics)


@dataclass(frozen=True)
class StabilityReport:
    max_effective_load: float
    verdict: str
    quarter_means: tuple[float, float, float, float]
    metrics: Metrics


@dataclass(frozen=True)
class Summary:
    mean: float
    half_width: float
    values: tuple[float, ...]


def replicate(scenario, engines, seeds, opts=DEFAULT_OPTIONS):
    """Independent runs per engine x seed; 95% normal CIs per metric."""
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ValidationError("replicate needs at least 2 seeds")
    out = {}
    ids = scenario.instance.slice_ids
    for eng in engines:
        rows = []
        for seed in seeds:
            sc = replace(scenario, engine=eng, seed=seed)
            rows.append(run_simulation(sc, opts=opts).metrics.numbers(ids))
        summ = {}
        for f in rows[0]:
            vals = np.array([r[f] for r in rows], float)
            half = 1.96 * vals.std(ddof=1) / math.sqrt(len(vals))
            summ[f] = Summary(float(vals.mean()), float(half),
                              tuple(float(x) for x in vals))
        out[eng.key] = summ
    return out
