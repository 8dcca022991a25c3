"""Line-oriented scenario files.

Grammar (one record per line; blank lines and '#' comments ignored):

    schema 1
    resource <id> [capacity=<float>]
    slice <id> share=<float>
    class <id> slice=<id> demand=<res>:<float>[,<res>:<float>...]
          [arrival_rate=<float>] [mean_workload=<float>] [workload=exp|det]
    run engines=<engine>[,<engine>...] horizon=<float> [warmup=<float>]
        [seeds=<a>..<b>|<list>] [max_departures=<int>]
    sweep key=share:<slice_id>|arrival_rate:*|arrival_rate:<class_id>
          values=<float>[,<float>...]

Engines are the kinds of sliceshare.sim.ENGINES: 'scs(<alpha>)',
'static-partition(<alpha>)', 'maxmin-scs', 'dps', 'drf', 'drf_unconstrained';
the table says which take an alpha (finite, > 0).  Seeds are integers >= 0,
a range names at most _MAX_SEEDS (10,000) of them, and sweep values are
finite.  Each record the parser builds checks its own values: capacities,
shares and mean workloads finite and > 0, demands and arrival rates finite
and >= 0 with some demand > 0.  validate_instance checks unique ids and
declared slices and resources, and the values again on the canonical scale
(unit capacities, shares summing to 1).  The Scenario of the run record,
and of each sweep value, checks horizon (finite, > 0), warmup (in [0, 1))
and the arrivals a run expects.  Exactly one run record is required; the
sweep record is optional.  Every rejected record names its line.
"""

import math
from dataclasses import dataclass, replace

from importlib import resources

from .model import (Instance, Resource, SliceSpec, UserClass, ValidationError,
                    validate_instance, EXPONENTIAL, DETERMINISTIC)
from .sim import EngineSpec, Scenario

_MAX_SEEDS = 10_000     # seeds one range may name; the built-ins use at most 20
_WORKLOADS = {"exp": EXPONENTIAL, "det": DETERMINISTIC}
_FLOATS = {"capacity", "share", "arrival_rate", "mean_workload", "horizon", "warmup"}


class ScenarioParseError(ValidationError):
    pass


@dataclass(frozen=True)
class RunBlock:
    engines: tuple[EngineSpec, ...]
    horizon: float
    warmup: float = 0.1
    seeds: tuple[int, ...] = (0,)
    max_departures: int | None = None


@dataclass(frozen=True)
class SweepSpec:
    kind: str          # "share" or "arrival_rate"
    target: str        # slice id, class id, or "*"
    values: tuple[float, ...]


@dataclass(frozen=True)
class ScenarioFile:
    label: str
    instance: Instance
    run: RunBlock
    sweep: SweepSpec | None = None

    def scenario(self, engine, seed, sweep_value=None) -> Scenario:
        inst = self.instance if sweep_value is None else apply_sweep(self, sweep_value)
        return Scenario(inst, engine, self.run.horizon, self.run.warmup,
                        seed, self.run.max_departures, self.label)


def _fail(lineno, msg):
    raise ScenarioParseError(f"line {lineno}: {msg}")


def _fields(lineno, rest, allowed, required):
    """The key=value tokens as a dict, the values of _FLOATS keys as floats."""
    out = {}
    for tok in rest:
        if "=" not in tok:
            _fail(lineno, f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k not in allowed:
            _fail(lineno, f"unknown key {k!r}")
        if k in out:
            _fail(lineno, f"duplicate key {k!r}")
        out[k] = _float(lineno, k, v) if k in _FLOATS else v
    for k in required:
        if k not in out:
            _fail(lineno, f"missing key {k!r}")
    return out


def _float(lineno, key, v):
    try:
        return float(v)
    except ValueError:
        _fail(lineno, f"bad number for {key}: {v!r}")


def _record(lineno, build, *args, **kwargs):
    """build(*args, **kwargs), its ValidationError re-raised naming lineno."""
    try:
        return build(*args, **kwargs)
    except ValidationError as e:
        _fail(lineno, str(e))


def _record_id(lineno, kind, rest, seen):
    """The record's id, entered in seen (id -> line number)."""
    if not rest or "=" in rest[0]:
        _fail(lineno, f"{kind} needs an id")
    if rest[0] in seen:
        _fail(lineno, f"duplicate {kind} id {rest[0]!r} (first on line {seen[rest[0]]})")
    seen[rest[0]] = lineno
    return rest[0]


def _positive_int(lineno, key, v):
    try:
        n = int(v)
    except ValueError:
        _fail(lineno, f"bad integer for {key}: {v!r}")
    if n < 1:
        _fail(lineno, f"{key} must be >= 1, got {n}")
    return n


def _parse_seeds(lineno, v):
    if ".." in v:
        a, _, b = v.partition("..")
        try:
            lo, hi = int(a), int(b)
        except ValueError:
            _fail(lineno, f"bad seed range {v!r}")
        if hi < lo:
            _fail(lineno, f"empty seed range {v!r}")
        if hi - lo >= _MAX_SEEDS:
            _fail(lineno, f"seed range {v!r} names more than {_MAX_SEEDS} seeds")
        seeds = tuple(range(lo, hi + 1))
    else:
        try:
            seeds = tuple(int(x) for x in v.split(","))
        except ValueError:
            _fail(lineno, f"bad seed list {v!r}")
    if min(seeds) < 0:
        _fail(lineno, f"seeds must be >= 0, got {v!r}")
    return seeds


def parse_scenario_text(text, label="") -> ScenarioFile:
    resources_ = []
    slices = []
    classes = []
    run = None
    sweep = None
    schema_seen = False
    declared = {"resource": {}, "slice": {}, "class": {}}   # id -> line, per kind

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        record, rest = tok[0], tok[1:]

        if not schema_seen:
            if record != "schema" or rest != ["1"]:
                _fail(lineno, "first record must be 'schema 1'")
            schema_seen = True
            continue

        if record in declared:
            ident = _record_id(lineno, record, rest, declared[record])
        if record == "resource":
            kv = _fields(lineno, rest[1:], {"capacity"}, ())
            resources_.append(_record(lineno, Resource, ident, **kv))
        elif record == "slice":
            kv = _fields(lineno, rest[1:], {"share"}, ("share",))
            slices.append(_record(lineno, SliceSpec, ident, **kv))
        elif record == "class":
            kv = _fields(lineno, rest[1:],
                         {"slice", "demand", "arrival_rate", "mean_workload",
                          "workload"},
                         ("slice", "demand"))
            demand = {}
            for part in kv.pop("demand").split(","):
                rid, colon, val = part.partition(":")
                if not colon:
                    _fail(lineno, f"demand entries are <resource>:<value>, got {part!r}")
                if rid in demand:
                    _fail(lineno, f"duplicate demand resource {rid!r}")
                demand[rid] = _float(lineno, "demand", val)
            wl = kv.pop("workload", "exp")
            if wl not in _WORKLOADS:
                _fail(lineno, f"workload must be exp or det, got {wl!r}")
            classes.append(_record(lineno, UserClass, ident, kv.pop("slice"), demand,
                                   workload=_WORKLOADS[wl], **kv))
        elif record == "run":
            if run is not None:
                _fail(lineno, "duplicate run record")
            kv = _fields(lineno, rest,
                         {"engines", "horizon", "warmup", "seeds",
                          "max_departures"},
                         ("engines", "horizon"))
            engines = []
            for e in kv.pop("engines").split(","):
                try:
                    engines.append(EngineSpec.from_string(e))
                except ValidationError as exc:
                    _fail(lineno, f"{exc} at run.engine")
            seeds = _parse_seeds(lineno, kv.pop("seeds")) if "seeds" in kv else (0,)
            cap = (_positive_int(lineno, "max_departures", kv.pop("max_departures"))
                   if "max_departures" in kv else None)
            run = RunBlock(tuple(engines), seeds=seeds, max_departures=cap, **kv)
            run_line = lineno
        elif record == "sweep":
            if sweep is not None:
                _fail(lineno, "duplicate sweep record")
            kv = _fields(lineno, rest, {"key", "values"}, ("key", "values"))
            kind, colon, target = kv["key"].partition(":")
            if not colon or kind not in ("share", "arrival_rate"):
                _fail(lineno, f"sweep key must be share:<slice> or "
                              f"arrival_rate:<class|*>, got {kv['key']!r}")
            values = tuple(_float(lineno, "values", x)
                           for x in kv["values"].split(","))
            if not all(math.isfinite(v) for v in values):
                _fail(lineno, f"sweep values must be finite, got {kv['values']!r}")
            sweep, sweep_line = SweepSpec(kind, target, values), lineno
        else:
            _fail(lineno, f"unknown record type {record!r}")

    if not schema_seen:
        raise ScenarioParseError("empty scenario file")
    if run is None:
        raise ScenarioParseError("missing run record")
    for kind, ids in declared.items():
        if not ids:
            _fail(run_line, f"run needs at least one {kind} record")
    try:
        inst = validate_instance(Instance(tuple(resources_), tuple(slices),
                                          tuple(classes)))
    except ValidationError as e:
        kind, ident = e.record
        _fail(declared[kind][ident], str(e))
    sf = ScenarioFile(label, inst, run, sweep)
    _record(run_line, sf.scenario, run.engines[0], run.seeds[0])
    if sweep is not None:
        _check_sweep(sf, sweep_line)
        for v in sweep.values:
            _record(sweep_line, sf.scenario, run.engines[0], run.seeds[0], v)
    return sf


def _check_sweep(sf, lineno):
    sw = sf.sweep
    if sw.kind == "share":
        if sf.instance.n_slices != 2:
            _fail(lineno, "share sweeps need exactly two slices (sweep.key)")
        if sw.target not in sf.instance.slice_index:
            _fail(lineno, f"unknown slice {sw.target!r} (sweep.key)")
        for v in sw.values:
            if not (0.0 < v < 1.0):
                _fail(lineno, f"swept share {v:g} outside (0, 1) (sweep.values)")
    elif sw.target != "*" and sw.target not in sf.instance.class_index:
        _fail(lineno, f"unknown class {sw.target!r} (sweep.key)")


def apply_sweep(sf, value) -> Instance:
    """Instance with the swept parameter set to value."""
    sw = sf.sweep
    inst = sf.instance
    if sw is None:
        raise ValidationError("scenario has no sweep")
    if sw.kind == "share":
        tgt = sf.instance.slice_index[sw.target]
        new_slices = tuple(
            replace(s, share=value if v == tgt else 1.0 - value)
            for v, s in enumerate(inst.slices))
        return validate_instance(replace(inst, slices=new_slices))
    new_classes = tuple(
        replace(c, arrival_rate=value)
        if sw.target in ("*", c.id) else c
        for c in inst.classes)
    return validate_instance(replace(inst, classes=new_classes))


def builtin_names() -> tuple[str, ...]:
    root = resources.files("sliceshare") / "scenarios"
    return tuple(sorted(p.name[:-4] for p in root.iterdir()
                        if p.name.endswith(".txt")))


def load_builtin(name) -> ScenarioFile:
    path = resources.files("sliceshare") / "scenarios" / f"{name}.txt"
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ValidationError(
            f"unknown scenario {name!r}; built-ins: {', '.join(builtin_names())}")
    return parse_scenario_text(text, label=name)
