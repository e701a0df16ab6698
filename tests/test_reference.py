"""Benchmark workloads reproduce perfbench/reference.json: the same support
and a final objective within 1e-12 relative on each instance.  Seed 0 of
every workload is checked, and seeds 1 and 2 of pca-bounded, whose
coordinate-descent supports are ranked by their face infima over y >= 0.
The workloads come from perfbench/workloads.py, imported as is.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sgevp.decomposition import solve

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())["workloads"]


def check_reference(name, seed):
    expected = REFERENCE[name][str(seed)]
    instances = workloads.build(name, seed)
    assert [inst.label for inst in instances] == [ref["label"] for ref in expected]
    for inst, ref in zip(instances, expected):
        trace = solve(inst.problem, inst.config)
        assert np.flatnonzero(trace.x).tolist() == ref["support"], inst.label
        objective = pytest.approx(ref["objective"], rel=1e-12, abs=0.0)
        assert trace.final_objective == objective, inst.label


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_0_matches_the_reference(name):
    check_reference(name, 0)


@pytest.mark.parametrize("seed", [1, 2])
def test_bounded_seed_matches_the_reference(seed):
    check_reference("pca-bounded", seed)
