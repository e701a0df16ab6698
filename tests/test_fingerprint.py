"""tools/fingerprint.py: one line per benchmark instance, and a digest that
moves with any bit of the final x, the trace arrays, the working sets or
the run's counters."""

import sys
from pathlib import Path

import numpy as np
import pytest

from sgevp.decomposition import PolishSummary, SolveTrace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import fingerprint  # noqa: E402


def small_trace():
    trace = SolveTrace(x=np.array([0.0, 0.5, -0.25]), reason="max_iters")
    trace.objectives[:] = [1.0, 0.75]
    trace.rel_decreases[:] = [0.25]
    trace.denominators[:] = [0.5]
    trace.step_norms[:] = [0.1]
    trace.working_sets[:] = [np.array([0, 2])]
    trace.polish = PolishSummary(start=1, rounds=2, screened=[1, 0], solved=[2, 1], accepted=[1, 1])
    trace.supports = [4, 3, 2]
    trace.rejected = [0, 1]
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
    lambda t: setattr(t.polish, "start", 0),
    lambda t: setattr(t.polish, "rounds", 3),
    lambda t: setattr(t.polish, "capped", True),
    lambda t: t.polish.screened.__setitem__(1, 1),
    lambda t: t.polish.solved.__setitem__(0, 3),
    lambda t: t.polish.accepted.__setitem__(0, 2),
    lambda t: t.supports.__setitem__(1, 2),
    lambda t: t.rejected.__setitem__(0, 1),
    # A baseline's trace: no counters at all.
    lambda t: [setattr(t, name, None) for name in ("polish", "supports", "rejected")],
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


def test_compare_reports_each_differing_instance(tmp_path, capsys, monkeypatch):
    def canned(name, seed):
        for label in ("'a b'", "'c'"):
            yield f"{name} {seed} {label} {'0' * 40} 3 1,2 -0.5 tolerance True"

    monkeypatch.setattr(fingerprint, "fingerprint", canned)
    argv = ["--seeds", "2", "--workload", "pca-enum", "--workload", "fda-cca"]
    assert fingerprint.main(argv) == 0
    saved = capsys.readouterr().out.splitlines()
    assert len(saved) == 8
    path = tmp_path / "saved.txt"
    # A longer saved run: only the workloads and seeds of this run count.
    path.write_text("\n".join(saved + ["pca-large 0 'c' sha 1 0 -1.0 tolerance True"]) + "\n")
    assert fingerprint.main(argv + ["--compare", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pca-enum: 0 of 4 instances differ", "fda-cca: 0 of 4 instances differ",
    ]

    # One certificate changed, one instance missing from the saved file.
    changed = [line.replace("True", "False") if line.startswith("fda-cca 1 'a b'") else line
               for line in saved if not line.startswith("pca-enum 0 'c'")]
    path.write_text("\n".join(changed) + "\n")
    assert fingerprint.main(argv + ["--compare", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "pca-enum: 1 of 4 instances differ",
        "  0 of 1 keep steps, support, stop reason and certificate", "  0 'c'",
        "fda-cca: 1 of 4 instances differ",
        "  0 of 1 keep steps, support, stop reason and certificate", "  1 'a b'",
    ]

    # Two digests and objectives moved on the same path, one of them by
    # 2^-52 relative; one step count changed.
    def moved(line):
        if line.startswith(("pca-enum 1 'c'", "fda-cca 0 'c'")):
            return line.replace("0" * 40, "1" * 40).replace(" -0.5 ", " -0.5000000000000002 ")
        if line.startswith("fda-cca 1 'c'"):
            return line.replace(" 3 1,2 ", " 4 1,2 ")
        return line

    path.write_text("\n".join(map(moved, saved)) + "\n")
    assert fingerprint.main(argv + ["--compare", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "pca-enum: 1 of 4 instances differ",
        "  1 of 1 keep steps, support, stop reason and certificate; "
        "largest relative objective change 4.4e-16",
        "  1 'c'",
        "fda-cca: 2 of 4 instances differ",
        "  1 of 2 keep steps, support, stop reason and certificate; "
        "largest relative objective change 4.4e-16",
        "  0 'c'", "  1 'c'",
    ]


def test_compare_against_a_real_run(tmp_path, capsys):
    argv = ["--seeds", "1", "--workload", "pca-large"]
    assert fingerprint.main(argv) == 0
    path = tmp_path / "saved.txt"
    path.write_text(capsys.readouterr().out)
    assert fingerprint.main(argv + ["--compare", str(path)]) == 0
    assert capsys.readouterr().out == "pca-large: 0 of 6 instances differ\n"


def test_compare_refuses_a_missing_file(tmp_path):
    with pytest.raises(SystemExit):
        fingerprint.main(["--seeds", "1", "--compare", str(tmp_path / "none.txt")])
