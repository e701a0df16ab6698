"""Seed 0 of every benchmark workload reproduces perfbench/reference.json:
the same support and a final objective within 1e-12 relative on each
instance.  The workloads come from perfbench/workloads.py, imported as is.
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


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_0_matches_the_reference(name):
    expected = REFERENCE[name]["0"]
    instances = workloads.build(name, 0)
    assert [inst.label for inst in instances] == [ref["label"] for ref in expected]
    for inst, ref in zip(instances, expected):
        trace = solve(inst.problem, inst.config)
        assert np.flatnonzero(trace.x).tolist() == ref["support"], inst.label
        objective = pytest.approx(ref["objective"], rel=1e-12, abs=0.0)
        assert trace.final_objective == objective, inst.label
