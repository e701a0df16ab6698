"""tools/pairs.py: the alternating order and the aggregation, on a stub
runner, so no benchmark runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import pairs  # noqa: E402


def line(solve_rel, ratio, failed=0):
    """A run's JSON line, as perfbench/run.py prints it."""
    return {
        "correct": failed == 0, "attempted": 4, "failed": failed,
        "metrics": {
            "solve_rel": {"value": solve_rel, "unit": "probe"},
            "objective_ratio_mean": {"value": ratio, "unit": "ratio"},
        },
    }


def stub(values):
    """A runner that returns the next line of each side and records the
    order of its calls."""
    calls, left = [], {side: list(lines) for side, lines in values.items()}

    def run(side):
        calls.append(side)
        return left[side].pop(0)

    return run, calls


def test_pairs_alternate_which_side_runs_first():
    run, calls = stub({"base": [line(3.0, 0.5)] * 4, "change": [line(2.0, 0.5)] * 4})
    results = pairs.run_pairs(run, 4)
    assert calls == ["base", "change", "change", "base"] * 2
    assert len(results) == 4 and all(set(pair) == {"base", "change"} for pair in results)


def test_summary_gives_medians_and_pairs_in_which_the_change_read_lower():
    run, _ = stub({
        "base": [line(3.0, 0.5), line(3.5, 0.5), line(2.0, 0.5)],
        "change": [line(2.5, 0.5), line(3.0, 0.5), line(2.2, 0.5)],
    })
    rows = pairs.summarize(pairs.run_pairs(run, 3))
    assert rows == [("solve_rel", 3.0, 2.5, 2), ("objective_ratio_mean", 0.5, 0.5, 0)]


def test_report_prints_every_pair_and_the_summary():
    run, _ = stub({"base": [line(4.0, 0.5), line(2.0, 0.5)], "change": [line(3.0, 0.5), line(1.0, 0.5)]})
    lines = pairs.report(pairs.run_pairs(run, 2))
    assert lines[0] == "pair 0 base   solve_rel=4 objective_ratio_mean=0.5 (ran first)"
    assert lines[3] == "pair 1 change solve_rel=1 objective_ratio_mean=0.5 (ran first)"
    assert lines[5].split() == ["solve_rel", "3", "2", "0.6667", "2", "of", "2"]
    assert lines[6].split() == ["objective_ratio_mean", "0.5", "0.5", "1.0000", "0", "of", "2"]


def test_main_refuses_a_directory_without_the_benchmark(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit:
        pairs.main(["--base", str(tmp_path), "--change", str(tmp_path), "--workload", "pca-enum"])
    assert exit.value.code == 2
    assert "no perfbench/run.py" in capsys.readouterr().err
