"""Benchmark entry point: one workload, every metric, one JSON line last.

    python3 perfbench/run.py --workload fig2-loop --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload fig2-loop --seed 0 --seconds 25 --trace 1

Run from anywhere inside a checkout of the repository; the package is
imported from its src/ directory.  --trace 0 prints the end-to-end metrics
of BENCHMARK.json, --trace 1 the per-layer ones.  Each workload run and
each set-up probe is a fresh process started by this script, one at a
time.  The last stdout line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (stdlib-only import, no numpy)

DEADLINE_S = 170.0
# set-up probes per untraced run: the first one only warms the bytecode cache
PROBES = {"bench": 4, "tiny": 0}

END_TO_END_UNITS = {"wall_s": "s", "events_per_s": "1/s", "solve_us_p50": "us",
                    "solve_us_p99": "us", "setup_s": "s", "peak_rss_mb": "MB"}


def child(args, deadline, *extra):
    """Run workloads.py in a fresh process; returns (its JSON, spawn time)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--profile", args.profile,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", args.reference, *extra]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1.0), text=True)
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def record(args, deadline):
    out, _ = child(args, deadline, "--record")
    path = Path(args.reference)
    data = json.loads(path.read_text()) if path.exists() else {}
    mine = data.setdefault(args.profile, {}).setdefault(args.workload, {})
    mine.update(out["outputs"])
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"recorded {args.profile}/{args.workload}/seed {args.seed} in {path}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measuring time; whole rounds are repeated within it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("bench", "tiny"), default="bench",
                   help="tiny: short runs for the benchmark's own tests")
    p.add_argument("--reference", default=str(HERE / "reference.json"),
                   help="recorded outputs to check against")
    p.add_argument("--record", action="store_true",
                   help="record this workload and seed's outputs in --reference")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "sliceshare" / "__init__.py").is_file():
        print(f"no sliceshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    if args.record:
        record(args, deadline)
        return 0

    setups = []
    probes = 0 if args.trace else PROBES[args.profile]
    for i in range(probes + 1 if probes else 0):
        out, spawned = child(args, deadline, "--probe")
        if i:
            setups.append(out["setup_done"] - spawned)
    res, spawned = child(args, deadline)
    setups.append(res["setup_done"] - spawned)

    print(f"perfbench {args.workload} seed={args.seed} profile={args.profile} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: nproc={res['nproc']} python={res['python']} numpy={res['numpy']} "
          f"OMP/OPENBLAS/MKL threads=1")
    if args.trace:
        print(f"rounds: {res['rounds']} untraced, {res['traced_rounds']} traced; "
              f"spans in {res['spans']}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
        metrics["setup.import_s"] = {"value": res["import_s"], "unit": "s"}
        metrics["scenario.load_ms"] = {"value": res["load_s"] * 1e3, "unit": "ms"}
    else:
        print(f"rounds: {res['rounds']}; events per round {res['events']}; "
              f"engine calls per round {res['engine_calls']:.0f}; "
              f"solve samples {res['solve_samples']}; setup samples {len(setups)}")
        values = dict(res, setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']}); "
          f"{res['reference_checked']} outputs checked against the reference")
    for reason in res["reasons"]:
        print(f"failed: {reason}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
