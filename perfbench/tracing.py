"""Spans and call capture around sliceshare's layers, from outside the package.

Everything here wraps public functions by replacing names: the engine and
weight functions that `sliceshare.sim` bound at import, and `run`, `step`
and `next_event` on the `Simulation` class.  Nothing inside the package
changes.

A span is (name, depth, start, end, aux), appended to compact arrays when
the call returns, so children precede their parent; `parents()` rebuilds
the tree afterwards.  aux holds solver iterations (water-fill rounds for
`maxmin_waterfill`) for engine spans, -1 for a failed call and 0 otherwise.
"""

import time
from array import array

NAMES = ("round", "sim.run", "sim.step", "sim.next_event", "engines.scs",
         "engines.static_partition", "engines.waterfill", "weights.scwa",
         "weights.drf", "weights.dps", "weights.drf_unconstrained")
ID = {n: i for i, n in enumerate(NAMES)}
ENGINE_IDS = (ID["engines.scs"], ID["engines.static_partition"],
              ID["engines.waterfill"])
WEIGHT_IDS = tuple(ID[n] for n in NAMES if n.startswith("weights."))

# names bound in sliceshare.sim -> span name
SIM_ENGINES = {"solve_alpha_scs": "engines.scs",
               "static_partition": "engines.static_partition",
               "maxmin_waterfill": "engines.waterfill"}
SIM_WEIGHTS = {"scwa_weights": "weights.scwa", "drf_weights": "weights.drf",
               "dps_weights": "weights.dps",
               "drf_unconstrained_weights": "weights.drf_unconstrained"}


def iterations(result):
    """Solver iterations of one engine call; static_partition sums its slices."""
    if isinstance(result, dict):
        return sum(r.iterations for r in result.values())
    return result.iterations


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class CallSample:
    """An evenly spaced sample of at most 2 * cap calls out of any number.

    Keeps every stride-th call; when the sample fills up, every other kept
    call is dropped and the stride doubles, so memory stays bounded.
    """

    def __init__(self, cap):
        self.cap = cap
        self.stride = 1
        self.seen = 0
        self.calls = []

    def add(self, call):
        if self.seen % self.stride == 0:
            self.calls.append(call)
            if len(self.calls) >= 2 * self.cap:
                self.calls = self.calls[::2]
                self.stride *= 2
        self.seen += 1


def capture_engine_calls(sim_module, sample, check):
    """Record the engine calls the simulator makes, without timing them.

    Adds (function, args, kwargs) of each call to sample, so the calls can be
    replayed and timed back to back, and passes each result to
    check(kind, result).
    """
    patches = Patches()

    def capture(kind, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sample.add((fn, args, kwargs))
            check(kind, out)
            return out
        return wrapper

    for attr, kind in SIM_ENGINES.items():
        patches.set(sim_module, attr, capture(kind, getattr(sim_module, attr)))
    return patches


class Tracer:
    """In-memory span recorder; spans are written out once the run ends."""

    def __init__(self):
        self.name = array("B")
        self.depth = array("B")
        self.start = array("q")
        self.end = array("q")
        self.aux = array("q")
        self.level = 0
        self.patches = Patches()

    def wrap(self, span_name, fn, engine=False):
        nid = ID[span_name]
        clock = time.perf_counter_ns
        names, depths, starts, ends, auxs = (self.name, self.depth, self.start,
                                             self.end, self.aux)
        tracer = self

        def wrapper(*args, **kwargs):
            d = tracer.level
            tracer.level = d + 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.level = d
                names.append(nid)
                depths.append(d)
                starts.append(t0)
                ends.append(t1)
                auxs.append(-1)     # stays -1 if the call raised
            auxs[-1] = iterations(out) if engine else 0
            return out
        return wrapper

    def install_sim(self, sim_module, simulation_cls):
        """Span every engine, weight, run, step and next_event call of the loop."""
        for attr, span in SIM_ENGINES.items():
            self.patches.set(sim_module, attr,
                             self.wrap(span, getattr(sim_module, attr), engine=True))
        for attr, span in SIM_WEIGHTS.items():
            self.patches.set(sim_module, attr, self.wrap(span, getattr(sim_module, attr)))
        for attr, span in (("run", "sim.run"), ("step", "sim.step"),
                           ("next_event", "sim.next_event")):
            self.patches.set(simulation_cls, attr,
                             self.wrap(span, getattr(simulation_cls, attr)))

    def restore(self):
        self.patches.restore()

    def parents(self):
        """Parent index of every span (-1 for roots), from completion order.

        A span's parent is the first span completed after it one level up.
        """
        depth = self.depth.tolist()
        parent = [-1] * len(depth)
        last = [-1] * 257
        for i in range(len(depth) - 1, -1, -1):
            d = depth[i]
            if d:
                parent[i] = last[d - 1]
            last[d] = i
        return parent

    def save(self, path):
        import numpy as np
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(NAMES),
                 name=np.frombuffer(self.name, np.uint8),
                 parent=np.array(self.parents(), np.int64),
                 start_ns=np.frombuffer(self.start, np.int64),
                 end_ns=np.frombuffer(self.end, np.int64),
                 aux=np.frombuffer(self.aux, np.int64))


def layer_metrics(tracer, rounds, events):
    """Per-layer numbers from the spans of `rounds` traced rounds.

    events is the number of simulated events in one round.  Counts and busy
    times are per round, so they do not depend on how many rounds fit into
    the run.  Times are in microseconds unless named _s.
    """
    import numpy as np
    name = np.frombuffer(tracer.name, np.uint8)
    dur = (np.frombuffer(tracer.end, np.int64)
           - np.frombuffer(tracer.start, np.int64)) / 1e3
    aux = np.frombuffer(tracer.aux, np.int64)
    parent = np.array(tracer.parents(), np.int64)
    nested = parent >= 0
    child_us = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))

    def sel(span):
        return name == ID[span]

    def pct(values, q):
        return float(np.percentile(values, q)) if len(values) else 0.0

    def mean(values):
        return float(values.mean()) if len(values) else 0.0

    out = {}
    for span, keys in (("engines.scs", ("us_p50", "us_p99", "iters_p50", "iters_p99", "iters_max")),
                       ("engines.static_partition", ("us_p50", "us_p99", "iters_p99", "iters_max")),
                       ("engines.waterfill", ("us_p50", "us_p99", "rounds_mean"))):
        m = sel(span)
        ok = m & (aux >= 0)
        out[f"{span}.calls"] = (m.sum() / rounds, "count")
        stats = {"us_p50": (pct(dur[m], 50), "us"), "us_p99": (pct(dur[m], 99), "us"),
                 "iters_p50": (pct(aux[ok], 50), "count"),
                 "iters_p99": (pct(aux[ok], 99), "count"),
                 "iters_max": (float(aux[ok].max()) if ok.any() else 0.0, "count"),
                 "rounds_mean": (mean(aux[ok]), "count")}
        for k in keys:
            out[f"{span}.{k}"] = stats[k]
    engine = np.isin(name, ENGINE_IDS)
    weight = np.isin(name, WEIGHT_IDS)
    round_us = dur[sel("round")].sum()
    out["engines.errors"] = ((engine & (aux < 0)).sum() / rounds, "count")
    out["engines.busy_s"] = (dur[engine].sum() / 1e6 / rounds, "s")
    out["engines.share"] = (dur[engine].sum() / round_us if round_us else 0.0, "ratio")
    for span in NAMES:
        if span.startswith("weights."):
            out[f"{span}.us_mean"] = (mean(dur[sel(span)]), "us")
    out["weights.busy_s"] = (dur[weight].sum() / 1e6 / rounds, "s")
    step = sel("sim.step")
    # in a loop workload every engine call is a solve the allocation cache missed
    solves = engine.sum() / rounds if events else 0.0
    out["sim.events"] = (events, "count")
    out["sim.alloc.solves"] = (solves, "count")
    out["sim.alloc.solve_ratio"] = (solves / events if events else 0.0, "ratio")
    out["sim.next_event.us_mean"] = (mean(dur[sel("sim.next_event")]), "us")
    out["sim.step.self_us"] = (mean(dur[step] - child_us[step]), "us")
    return {k: (float(v), u) for k, (v, u) in out.items()}
