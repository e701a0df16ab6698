"""tools/fingerprint.py: one line per benchmark instance, and a digest that
moves with any bit of the final x, the trace arrays or the working sets."""

import sys
from pathlib import Path

import numpy as np
import pytest

from sgevp.decomposition import SolveTrace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import fingerprint  # noqa: E402


def small_trace():
    trace = SolveTrace(x=np.array([0.0, 0.5, -0.25]), reason="max_iters")
    trace.objectives[:] = [1.0, 0.75]
    trace.rel_decreases[:] = [0.25]
    trace.denominators[:] = [0.5]
    trace.step_norms[:] = [0.1]
    trace.working_sets[:] = [np.array([0, 2])]
    return trace


def nudge(values, i, toward):
    values[i] = np.nextafter(values[i], toward)


CHANGES = [
    lambda t: nudge(t.x, 1, 1.0),
    lambda t: nudge(t.objectives, 1, 1.0),
    lambda t: t.rel_decreases.append(0.0),
    lambda t: nudge(t.denominators, 0, 0.0),
    lambda t: nudge(t.step_norms, 0, 1.0),
    lambda t: t.working_sets.__setitem__(0, np.array([0, 1])),
    # The same entries, split differently between two working sets.
    lambda t: t.working_sets.__setitem__(slice(None), [np.array([0]), np.array([2])]),
]


@pytest.mark.parametrize("change", range(len(CHANGES)))
def test_digest_moves_with_every_recorded_bit(change):
    base = fingerprint.digest(small_trace())
    assert fingerprint.digest(small_trace()) == base
    trace = small_trace()
    CHANGES[change](trace)
    assert fingerprint.digest(trace) != base


def test_one_line_per_instance(capsys):
    assert fingerprint.main(["--seeds", "1", "--workload", "pca-enum"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    for line in lines:
        name, seed, *label, sha, steps, support, obj, reason, cert = line.split()
        assert (name, seed) == ("pca-enum", "0") and len(sha) == 40
        assert int(steps) >= 1 and float(obj) < 0.0
        indices = [int(i) for i in support.split(",")]
        assert indices == sorted(set(indices)) and 1 <= len(indices) <= 12
        assert reason in ("tolerance", "max_iters", "time_limit")
        assert cert in ("True", "False") or cert.isidentifier()


def test_unknown_workload_is_refused():
    with pytest.raises(SystemExit):
        fingerprint.main(["--seeds", "1", "--workload", "no-such-workload"])
