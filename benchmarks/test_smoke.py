"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q benchmarks/test_smoke.py

Each workload, untraced and traced, must pass its output checks and print
every metric that BENCHMARK.json names, with its unit.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in SPEC["end_to_end"] if not trace else ():
        assert result["metrics"][m["name"]]["value"] > 0


def test_trace_counts_refresh_passes():
    # combine refreshes rank classes on enrolment data; dropclass training
    # without enrolment data never computes an average probability
    adapt = run_bench("adapt-combine", 1)["metrics"]
    assert adapt["schedule.enrol_passes_per_refresh"]["value"] >= 1.0
    train = run_bench("train-dropclass", 1)["metrics"]
    assert train["schedule.DropState.refresh.calls"]["value"] > 0
    assert train["schedule.enrol_passes_per_refresh"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "score-diagnose",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
