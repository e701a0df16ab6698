"""Smoke test of the benchmark itself: every workload at a tiny size, in both
modes, must emit exactly the metrics BENCHMARK.json declares, with their
units, and pass its own output checks.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workload_names_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_emitted_with_its_unit(workload, trace, capsys):
    result = run.benchmark(workload, seed=0, seconds=0.0, trace=trace, tiny=True, setup_probes=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = capsys.readouterr().out
    for name, unit in run.SUMMARY_UNITS.items():
        assert f"{name} " in printed and f" {unit}\n" in printed


def test_output_checks_flag_bad_results():
    import numpy as np
    from sgevp import ProblemInstance, SolveTrace, objective

    problem = ProblemInstance(A=-np.eye(3), C=np.eye(3), s=1)
    inst = SimpleNamespace(problem=problem)
    good = SolveTrace(objectives=[-1.0, -1.0], x=np.array([0.0, 2.0, 0.0]), reason="max_iters")
    assert run.check_output(inst, good, objective) == []
    x = np.array([1.0, 1.0, 0.0])
    bad = SolveTrace(objectives=[-1.0, -0.5, -0.9], x=x, reason="stalled")
    issues = run.check_output(inst, bad, objective)
    # sparsity, objective(x) != final objective, rising objective, unknown reason
    assert len(issues) == 4


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "pca-enum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
