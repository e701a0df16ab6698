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


BETTER = {"solve_rel": "lower", "objective_ratio_mean": "higher"}


def ten_pairs():
    """Ten pairs: solve_rel 1.0 lower on the change in nine and tied in
    the tenth; objective_ratio_mean higher in five and lower in five."""
    base = [10.0 + 0.2 * i for i in range(10)]
    change = [b - 1.0 for b in base[:9]] + [base[9]]
    ratios = [0.6] * 5 + [0.4] * 5
    run, _ = stub({
        "base": [line(b, 0.5) for b in base],
        "change": [line(c, r) for c, r in zip(change, ratios)],
    })
    return pairs.run_pairs(run, 10)


def test_verdict_counts_pairs_won_in_the_better_direction_and_ties_for_neither():
    rows = pairs.verdict(ten_pairs(), BETTER)
    assert [row[:2] for row in rows] == [("solve_rel", "lower"), ("objective_ratio_mean", "higher")]
    (_, _, q_base, q_change, won, beyond, gain), ratio = rows
    assert q_base == pytest.approx((10.45, 10.9, 11.35))
    assert q_change == pytest.approx((9.45, 9.9, 10.35))
    # Nine of ten won, the tie for neither; the medians lie 1.0 apart,
    # beyond the base's interquartile distance of 0.9.
    assert (won, beyond, gain) == (9, True, True)
    assert ratio[2:] == ((0.5, 0.5, 0.5), (0.4, 0.5, 0.6), 5, False, False)


def test_verdict_needs_nine_of_ten_and_a_gap_beyond_the_spread():
    results = ten_pairs()
    # Eight of ten won: no gain, however far apart the medians.
    results[8]["change"] = line(12.0, 0.5)
    assert pairs.verdict(results, BETTER)[0][4:] == (8, True, False)
    # Ten of ten won by 0.1, inside the base's spread: no gain.
    run, _ = stub({
        "base": [line(10.0 + 0.2 * i, 0.5) for i in range(10)],
        "change": [line(9.9 + 0.2 * i, 0.5) for i in range(10)],
    })
    assert pairs.verdict(pairs.run_pairs(run, 10), BETTER)[0][4:] == (10, False, False)
    # Higher is better: the change wins only pair 8, where it read higher.
    assert pairs.verdict(results, {"solve_rel": "higher"})[0][4:] == (1, True, False)
    # A metric without a direction gets no verdict.
    assert pairs.verdict(results, {}) == []


def test_report_prints_the_verdict_per_metric_with_a_direction():
    lines = pairs.report(ten_pairs(), {"solve_rel": "lower"})
    assert lines[23].split()[:3] == ["metric", "better", "base"]
    assert lines[24].split() == [
        "solve_rel", "lower", "10.45,", "10.9,", "11.35", "9.45,", "9.9,", "10.35",
        "9", "of", "10", "yes", "yes",
    ]
    assert len(lines) == 25
    assert len(pairs.report(ten_pairs())) == 23


def test_better_directions_read_the_checkout_benchmark(tmp_path):
    assert pairs.better_directions(tmp_path) == {}
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "solve_rel", "unit": "probe", "better": "lower", "bound": 0.24}]}'
    )
    assert pairs.better_directions(tmp_path) == {"solve_rel": "lower"}


BOUND = {"solve_rel": 0.1, "objective_ratio_mean": 0.2}


def paired(base, change, ratio_base=0.5, ratio_change=0.5):
    """Pairs of the given solve_rel values, objective_ratio_mean fixed."""
    run, _ = stub({
        "base": [line(b, ratio_base) for b in base],
        "change": [line(c, ratio_change) for c in change],
    })
    return pairs.run_pairs(run, len(base))


def test_regression_reads_worse_beyond_the_bound_of_the_base_median():
    # Base median 10.0, bound 0.1: up to 11.0 is allowed.
    rows = pairs.regression(paired([9.9, 10.0, 10.1], [11.1, 11.2, 11.3]), BETTER, BOUND)
    name, bound, allowed, spread, worse_by, state = rows[0]
    assert (name, bound, state) == ("solve_rel", 0.1, "worse")
    assert allowed == pytest.approx(1.0) and spread == pytest.approx(0.1)
    assert worse_by == pytest.approx(1.2)
    assert pairs.regression(paired([9.9, 10.0, 10.1], [10.8, 10.9, 11.0]), BETTER, BOUND)[0][5] == "ok"
    # Higher is better: objective_ratio_mean 0.5 -> 0.35 is worse by more
    # than 0.2 x 0.5, 0.5 -> 0.45 is not, and 0.5 -> 0.9 is better.
    for ratio, state in [(0.35, "worse"), (0.45, "ok"), (0.9, "ok")]:
        rows = pairs.regression(paired([10.0] * 3, [10.0] * 3, 0.5, ratio), BETTER, BOUND)
        assert rows[1][0] == "objective_ratio_mean" and rows[1][5] == state


def test_regression_is_unresolved_where_the_base_spreads_wider_than_the_bound():
    # Base quartiles 8.5 and 11.5 around a median of 10: an interquartile
    # distance of 3 exceeds the allowed 1.0, however close the change reads.
    base = [7.0, 10.0, 13.0]
    assert pairs.regression(paired(base, [7.0, 10.0, 13.0]), BETTER, BOUND)[0][5] == "unresolved"
    # Unless every change run reads better than every base run.
    assert pairs.regression(paired(base, [6.0, 6.5, 6.9]), BETTER, BOUND)[0][5] == "ok"
    # Worse by more than the bound stays worse, spread or not.
    assert pairs.regression(paired(base, [12.0, 12.0, 12.0]), BETTER, BOUND)[0][5] == "worse"


def test_regression_needs_a_direction_and_a_bound():
    results = paired([10.0] * 3, [10.0] * 3)
    assert [row[0] for row in pairs.regression(results, BETTER, {"solve_rel": 0.1})] == ["solve_rel"]
    assert pairs.regression(results, {"objective_ratio_mean": "higher"}, {"solve_rel": 0.1}) == []


def test_report_prints_the_no_regression_verdict():
    lines = pairs.report(paired([9.9, 10.0, 10.1], [11.1, 11.2, 11.3]), BETTER, BOUND)
    assert lines[-3].split() == ["metric", "bound", "allowed", "base", "IQR", "worse", "by", "no-regression"]
    assert lines[-2].split() == ["solve_rel", "0.1", "1", "0.1", "1.2", "worse"]
    assert lines[-1].split() == ["objective_ratio_mean", "0.2", "0.1", "0", "0", "ok"]


def test_bounds_read_the_checkout_benchmark(tmp_path):
    assert pairs.end_to_end(tmp_path, "bound") == {}
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "solve_rel", "better": "lower", "bound": 0.24},'
        ' {"name": "probe_s", "better": "lower"}]}'
    )
    assert pairs.end_to_end(tmp_path, "bound") == {"solve_rel": 0.24}
    assert pairs.better_directions(tmp_path) == {"solve_rel": "lower", "probe_s": "lower"}
