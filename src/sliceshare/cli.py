"""Command line front end: run, sweep, verify.

Exit codes: 0 success, 1 usage, parse or I/O error, 2 solver failure,
3 verification failure.
"""

import argparse
import os
import sys

from .model import ValidationError
from .engines import SolverError
from .sim import run_simulation
from .scenario import parse_scenario_text, load_builtin, builtin_names
from .verify import run_suite, SUITES


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for solver
    # failures, so route usage problems through exit code 1 instead.
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    p = _Parser(prog="sliceshare",
                description="Network-slice allocation engines and traffic "
                            "simulator.")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario's run block")
    run.add_argument("scenario", help="scenario file path or built-in name")
    run.add_argument("-o", "--output", required=True, help="CSV output path")
    run.add_argument("--trace", help="event-trace output path (needs a "
                                     "single-engine, single-seed run block)")

    sweep = sub.add_parser("sweep", help="execute a scenario across its "
                                         "sweep values")
    sweep.add_argument("scenario", help="scenario file path or built-in name")
    sweep.add_argument("-o", "--output", required=True, help="CSV output path")

    ver = sub.add_parser("verify", help="run a property suite")
    ver.add_argument("suite", choices=sorted(SUITES),
                     help="which guarantee family to check")
    ver.add_argument("--instances", type=int, default=None,
                     help="override the suite's instance count")
    ver.add_argument("--meta-seed", type=int, default=7,
                     help="seed for the instance generator")
    return p


def _load(arg):
    if os.path.isfile(arg):
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as e:
            raise ValidationError(f"scenario file {arg!r} is not UTF-8 text "
                                  f"(byte {e.start}: {e.reason})") from e
        label = os.path.splitext(os.path.basename(arg))[0]
        return parse_scenario_text(text, label=label)
    if arg in builtin_names():
        return load_builtin(arg)
    raise ValidationError(
        f"no scenario file {arg!r}; built-ins: {', '.join(builtin_names())}")


def _fmt(x):
    return f"{x:.6g}"


def _rows(sf, sweep_values, trace=None):
    """Yield CSV lines in (sweep value, engine, seed) order; given an open
    file trace, each run also writes its event trace there."""
    ids = sf.instance.slice_ids
    header = ["scenario", "engine", "alpha", "seed", "sweep_value"]
    header += [f"delay_{sid}" for sid in ids]
    header += [f"tput_{sid}" for sid in ids]
    header += ["mean_delay", "mean_throughput", "frac_idle", "frac_one_busy",
               "frac_both_busy", "mean_population", "departures"]
    yield ",".join(header)
    for value in sweep_values:
        for eng in sf.run.engines:
            for seed in sf.run.seeds:
                sc = sf.scenario(eng, seed, sweep_value=value)
                try:
                    result = run_simulation(sc, keep_trace=trace is not None)
                except SolverError as e:
                    where = "" if value is None else f"sweep value {_fmt(value)}, "
                    raise SolverError(f"{where}engine {eng.key}, seed {seed}: {e}",
                                      residuals=e.residuals,
                                      iterations=e.iterations) from e
                if trace is not None:
                    _write_trace(trace, result.trace)
                nums = result.metrics.numbers(ids)
                row = [sf.label or "scenario", eng.key,
                       "" if eng.alpha is None else _fmt(eng.alpha),
                       str(seed),
                       "" if value is None else _fmt(value)]
                row += [_fmt(nums[k]) for k in list(nums)[:-1]]
                row.append(str(int(nums["departures"])))
                yield ",".join(row)


def _write_csv(path, lines):
    n = -1  # header does not count
    with open(path, "w") as fh:
        for n, line in enumerate(lines):
            fh.write(line + "\n")
    return n


def _write_trace(fh, trace):
    for ev in trace.events:
        counts = ";".join(str(c) for c in ev.counts)
        fh.write(f"{ev.time:.9f},{ev.kind},{ev.class_id},{counts},"
                 f"{ev.alloc_id}\n")


def cmd_run(args):
    sf = _load(args.scenario)
    if args.trace is None:
        n = _write_csv(args.output, _rows(sf, [None]))
    elif len(sf.run.engines) != 1 or len(sf.run.seeds) != 1:
        raise _UsageError("--trace needs a run block with exactly one "
                          "engine and one seed")
    else:
        with open(args.trace, "w") as trace:
            n = _write_csv(args.output, _rows(sf, [None], trace))
    print(f"wrote {n} rows to {args.output}")
    return 0


def cmd_sweep(args):
    sf = _load(args.scenario)
    if sf.sweep is None:
        raise ValidationError(f"scenario {args.scenario!r} has no sweep record")
    n = _write_csv(args.output, _rows(sf, sf.sweep.values))
    print(f"wrote {n} rows to {args.output}")
    return 0


def cmd_verify(args):
    res = run_suite(args.suite, instances=args.instances,
                    meta_seed=args.meta_seed)
    for line in res.lines():
        print(line)
    return 0 if res.passed else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_verify(args)
    except (_UsageError, ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
