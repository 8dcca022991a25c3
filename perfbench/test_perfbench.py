"""The benchmark's own tests: every workload at tiny length, metric names
against BENCHMARK.json, a check that can fail, and the no-sources exit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--profile", "tiny",
           "--seconds", "0.3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_passes_its_checks(workload):
    proc = bench("--workload", workload, "--trace", "0")
    out = result(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0
    checked = int(proc.stdout.split(" outputs checked against the reference")[0].split()[-1])
    assert checked > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    out = result(bench("--workload", workload, "--trace", "1"))
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", ["fig2-loop", "static-pool"])
def test_corrupted_reference_raises_fail_ratio(workload, tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    recorded = ref["tiny"][workload]
    if workload == "static-pool":
        rates = recorded["fig7"][0][0]
    else:
        rates = recorded["0"]["maxmin-scs"]
    rates[0] = rates[0] * 1.01 + 1e-3
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    out = result(bench("--workload", workload, "--trace", "0", "--reference", str(path)))
    assert out["failed"] > 0 and not out["correct"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", "fig2-loop", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
