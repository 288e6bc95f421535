"""Self-test of the benchmark: each workload for a few operations, traced and untraced.

    python3 -m pytest bench/test_bench.py

Each run uses ``--seconds 1``, so it performs the set-up plus one or two
operations (for mc-paper, one run_mc call of four replicates at n=50000);
the whole module takes about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# estimate-discrete is not timed by BENCHMARK.json (see README.md) but stays
# runnable, so its correctness gates are still checked here
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["estimate-discrete"]


def run_bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run_bench(workload, 7, 0)
    result = result_of(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        value = result["metrics"][name]["value"]
        assert value > 0, name
        assert f"{name} = " in proc.stdout
    assert "failed_frac = 0.0 " in proc.stdout
    assert "latency_p90_ms" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_repeats_counts(workload):
    first, second = (result_of(run_bench(workload, seed, 1)) for seed in (7, 8))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    for name in ("quadrature.expect_z.grid_elements", "fitting.component.elements"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["quadrature.expect_z.calls"]["value"] > 0


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
