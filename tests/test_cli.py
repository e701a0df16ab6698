import json

import numpy as np
import pytest

from sgevp.cli import DEFAULTS, main, render_svg
from sgevp.problems import build_cca, load_csv, objective


def run(argv):
    return main(argv)


def gen_dataset(tmp_path, m=40, d=12, seed=1):
    out = tmp_path / "data.csv"
    assert run(["gen-data", "--m", str(m), "--d", str(d), "--seed", str(seed),
                "--out", str(out)]) == 0
    return out


def test_gen_data_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["gen-data", "--m", "10", "--d", "4", "--seed", "7", "--out", str(a)]) == 0
    assert run(["gen-data", "--m", "10", "--d", "4", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "f0,f1,f2,f3,label"
    assert len(lines) == 11
    # values round-trip exactly through repr
    row = lines[1].split(",")
    assert float(row[-1]) in (-1.0, 1.0)


def test_gen_data_bad_dims():
    assert run(["gen-data", "--m", "1", "--d", "4", "--out", "/tmp/x.csv"]) == 2


def test_solve_json_schema(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "trace.json"
    code = run(["solve", "--data", str(data), "--labeled", "--app", "pca",
                "--solver", "dec-b", "--s", "3", "--k", "6", "--random", "4",
                "--swap", "2", "--out", str(out), "--fixed-timing"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["solver"] == "dec-b"
    assert payload["config"]["s"] == 3
    objs = [it["f"] for it in payload["iterations"]]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    assert all(it["secs"] == 0.0 for it in payload["iterations"])
    x = np.asarray(payload["final"]["x"])
    assert np.count_nonzero(x) <= 3
    assert payload["final"]["reason"] in ("tolerance", "max_iters", "time_limit")


def test_solve_reports_how_polish_ended(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert run(["solve", "--randn", "150x50", "--seed", "1000", "--app", "pca",
                "--solver", "dec-b", "--s", "12", "--max-iters", "5",
                "--out", str(out), "--fixed-timing"]) == 0
    payload = json.loads(out.read_text())
    polish = payload["final"]["polish"]
    assert payload["schema"] == 1
    assert set(polish) == {"start", "rounds", "capped", "screened", "solved", "accepted"}
    # Every step from polish's start on is an accepted polish block.
    assert polish["start"] == 5 and not polish["capped"]
    assert sum(polish["accepted"]) == len(payload["iterations"]) - polish["start"]
    assert all(len(polish[key]) == 2 for key in ("screened", "solved", "accepted"))
    # The main loop's rejected steps, [zero vector, insufficient decrease].
    assert payload["final"]["rejected"] == [0, 0]
    # The block supports, [enumerated, keyed, solved], summed over the run.
    supports = payload["final"]["supports"]
    assert len(supports) == 3 and supports[0] > supports[1] > 0 and supports[2] > 0
    counted, rejected, line = capsys.readouterr().out.splitlines()[-3:]
    assert counted.startswith(f"supports={supports} ")
    assert rejected.startswith("rejected=[0, 0] ")
    assert line.startswith(f"polish: start=5 rounds={polish['rounds']} capped=False ")
    assert f"screened={polish['screened']}" in line
    # The baselines have no polish phase and no rejected steps.
    assert run(["solve", "--randn", "150x50", "--seed", "1000", "--app", "pca",
                "--solver", "tpm", "--s", "12", "--out", str(out)]) == 0
    final = json.loads(out.read_text())["final"]
    assert final["polish"] is None and final["rejected"] is None and final["supports"] is None
    printed = capsys.readouterr().out
    assert "polish" not in printed and "rejected" not in printed and "supports" not in printed


def test_solve_missing_data_source():
    assert run(["solve", "--app", "pca", "--solver", "dec-b", "--s", "2"]) == 2


def test_solve_nonexistent_file(tmp_path):
    missing = tmp_path / "no_such.csv"
    assert run(["solve", "--data", str(missing), "--app", "pca",
                "--solver", "dec-b", "--s", "2"]) == 3


def test_solve_malformed_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("f0,f1\n1.0,oops\n")
    assert run(["solve", "--data", str(bad), "--app", "pca",
                "--solver", "dec-b", "--s", "1"]) == 3


def test_solve_tpm_fda_incompatible(tmp_path):
    data = gen_dataset(tmp_path)
    # FDA builds a non-identity denominator; TPM must refuse with a config error
    assert run(["solve", "--data", str(data), "--labeled", "--app", "fda",
                "--solver", "tpm", "--s", "2"]) == 2


def test_solve_odd_swap_count(tmp_path):
    data = gen_dataset(tmp_path)
    assert run(["solve", "--data", str(data), "--labeled", "--app", "pca",
                "--solver", "dec-b", "--s", "2", "--k", "6", "--random", "3",
                "--swap", "3"]) == 2


def test_solve_s_out_of_range(tmp_path):
    data = gen_dataset(tmp_path)
    assert run(["solve", "--data", str(data), "--labeled", "--app", "pca",
                "--solver", "dec-b", "--s", "99"]) == 2


def test_solve_randn_source(tmp_path):
    out = tmp_path / "trace.json"
    assert run(["solve", "--randn", "30x8", "--seed", "3", "--app", "pca",
                "--solver", "tpm", "--s", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["solver"] == "tpm"


def test_solve_nan_theta_is_a_configuration_error(tmp_path, capsys):
    # A NaN theta used to pass validation and end in a numerical error
    # (exit 4) deep inside a block solve.
    data = gen_dataset(tmp_path, d=10)
    assert run(["solve", "--data", str(data), "--labeled", "--app", "pca", "--solver", "dec-b",
                "--s", "3", "--k", "4", "--random", "2", "--swap", "2", "--theta", "nan"]) == 2
    assert "theta" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--s-list", "3,x"), ("--s-list", ","), ("--s-list", "2,3,13"), ("--solvers", ","),
    ("--solvers", "dec-b,foo"),
])
def test_bench_malformed_list_is_a_configuration_error(tmp_path, monkeypatch, capsys, option, value):
    # Both lists, and every sparsity against the problem's 12 features, are
    # checked before the first job runs: no job runs and nothing is written.
    from sgevp import cli

    data = gen_dataset(tmp_path)
    jobs = []
    monkeypatch.setattr(cli, "_bench_one", lambda payload: jobs.append(payload))
    lists = {"--solvers": "dec-b", "--s-list": "2,4", option: value}
    outdir = tmp_path / "out"
    args = ["bench", "--data", str(data), "--labeled", "--app", "pca", "--k", "6",
            "--random", "4", "--swap", "2", "--outdir", str(outdir)]
    for name, text in lists.items():
        args += [name, text]
    assert run(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert jobs == [] and not outdir.exists()


def test_bench_outputs_and_determinism(tmp_path):
    data = gen_dataset(tmp_path)
    args = ["bench", "--data", str(data), "--labeled", "--app", "pca",
            "--solvers", "dec-b,tpm", "--s-list", "2,4", "--k", "6",
            "--random", "4", "--swap", "2", "--fixed-timing", "--svg"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run(args + ["--outdir", str(out1)]) == 0
    assert run(args + ["--outdir", str(out2)]) == 0
    summary = (out1 / "objective_vs_s.csv").read_text().splitlines()
    assert summary[0] == "solver,s,objective,iterations,seconds"
    assert len(summary) == 5  # 2 solvers x 2 sparsity levels
    for solver in ("dec-b", "tpm"):
        for s in (2, 4):
            trace = (out1 / f"trace_{solver}_{s}.csv").read_text().splitlines()
            assert trace[0] == "iter,seconds,objective"
            assert len(trace) >= 2
    # byte-identical re-run with fixed timing
    for name in ("objective_vs_s.csv", "trace_dec-b_2.csv", "trace_tpm_4.csv",
                 "objective_vs_s.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    svg = (out1 / "objective_vs_s.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_certify_round_trip(tmp_path):
    data = gen_dataset(tmp_path)
    trace = tmp_path / "trace.json"
    assert run(["solve", "--data", str(data), "--labeled", "--app", "pca",
                "--solver", "dec-b", "--s", "3", "--k", "6", "--random", "2",
                "--swap", "4", "--out", str(trace)]) == 0
    assert run(["certify", "--data", str(data), "--labeled", "--app", "pca",
                "--s", "3", "--trace", str(trace), "--k", "2"]) == 0


def test_certify_fails_for_non_stationary_point(tmp_path):
    data = gen_dataset(tmp_path)
    trace = tmp_path / "trace.json"
    assert run(["solve", "--data", str(data), "--labeled", "--app", "pca",
                "--solver", "dec-b", "--s", "3", "--out", str(trace)]) == 0
    payload = json.loads(trace.read_text())
    x = np.zeros(len(payload["final"]["x"]))
    x[:3] = [0.4, -1.2, 0.7]  # arbitrary point, not stationary
    payload["final"]["x"] = x.tolist()
    trace.write_text(json.dumps(payload))
    assert run(["certify", "--data", str(data), "--labeled", "--app", "pca",
                "--s", "3", "--trace", str(trace), "--k", "2"]) == 1


def test_certify_zero_vector_is_a_numerical_error(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"final": {"x": [0.0] * 12}}))
    assert run(["certify", "--data", str(data), "--labeled", "--app", "pca",
                "--s", "3", "--trace", str(trace), "--k", "2"]) == 4
    assert "objective undefined at x = 0" in capsys.readouterr().err


def test_certify_k_out_of_range_is_a_configuration_error(tmp_path, capsys):
    data = gen_dataset(tmp_path, d=10)
    trace = tmp_path / "trace.json"
    assert run(["solve", "--data", str(data), "--labeled", "--app", "pca",
                "--solver", "dec-b", "--s", "3", "--k", "4", "--random", "2",
                "--swap", "2", "--out", str(trace)]) == 0
    capsys.readouterr()
    for k in ("11", "-1", "0"):
        assert run(["certify", "--data", str(data), "--labeled", "--app", "pca",
                    "--s", "3", "--trace", str(trace), "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --k {k} outside [1, 10]")


def test_certify_k_above_the_block_cap_is_a_configuration_error(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    problem = ["--randn", "60x21", "--app", "pca", "--s", "3"]
    assert run(["solve", *problem, "--solver", "dec-b", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert run(["certify", *problem, "--trace", str(trace), "--k", "21"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --k 21 outside [1, 20]")


def test_certify_block_k_measure_is_informational(tmp_path, capsys):
    # The block-2 certificate passes and the block-5 measure fails: the
    # measure is printed, and the exit status is the certificate's.
    data = gen_dataset(tmp_path, d=10)
    trace = tmp_path / "trace.json"
    assert run(["solve", "--data", str(data), "--labeled", "--app", "pca",
                "--solver", "dec-b", "--s", "3", "--k", "2", "--random", "2",
                "--swap", "0", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert run(["certify", "--data", str(data), "--labeled", "--app", "pca",
                "--s", "3", "--trace", str(trace), "--k", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "block-2: PASS"
    assert lines[1].startswith("block-5 measure: ") and lines[1].endswith("(FAIL)")


def test_certify_skips_a_measure_over_the_cap(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    trace = tmp_path / "trace.json"
    assert run(["solve", "--data", str(data), "--labeled", "--app", "pca",
                "--solver", "dec-b", "--s", "3", "--k", "6", "--random", "2",
                "--swap", "4", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert run(["certify", "--data", str(data), "--labeled", "--app", "pca",
                "--s", "3", "--trace", str(trace), "--k", "2", "--measure-cap", "65"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == \
        "block-2 measure: skipped (C(12,2) exceeds cap 65)"


MALFORMED_TRACES = {
    "not-json": "final: x",
    "no-final": json.dumps({"x": [1.0] * 12}),
    "no-final-x": json.dumps({"final": {"f": -1.0}}),
    "non-numeric": json.dumps({"final": {"x": ["a"] + [0.0] * 11}}),
    "wrong-length": json.dumps({"final": {"x": [1.0] * 11}}),
    "too-many-nonzeros": json.dumps({"final": {"x": [1.0] * 4 + [0.0] * 8}}),
    "nan-entry": json.dumps({"final": {"x": [float("nan"), 1.0] + [0.0] * 10}}),
}


@pytest.mark.parametrize("name", MALFORMED_TRACES)
def test_certify_refuses_a_malformed_trace_as_a_data_error(tmp_path, capsys, name):
    # Each ended in a traceback and exit 1, a failed certificate's status,
    # or (the NaN entry) exit 4; too many nonzeros printed "block-2: FAIL"
    # first.  final.x must hold n = 12 finite numbers with at most s = 3
    # nonzeros, checked before any output.
    data = gen_dataset(tmp_path)
    trace = tmp_path / "trace.json"
    trace.write_text(MALFORMED_TRACES[name])
    capsys.readouterr()
    assert run(["certify", "--data", str(data), "--labeled", "--app", "pca",
                "--s", "3", "--trace", str(trace), "--k", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {trace}: ")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
def test_certify_tolerance_outside_finite_nonnegative_is_a_configuration_error(
    tmp_path, capsys, tol,
):
    # --tol nan printed "block-2: PASS" beside a failing measure and exited 0.
    data = gen_dataset(tmp_path)
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"final": {"x": [0.4, -1.2, 0.7] + [0.0] * 9}}))
    capsys.readouterr()
    assert run(["certify", "--data", str(data), "--labeled", "--app", "pca",
                "--s", "3", "--trace", str(trace), "--k", "2", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tol must be finite and nonnegative\n"


@pytest.mark.parametrize("argv", [
    ["gen-data", "--m", "2", "--d", "1", "--seed", "-3"],
    ["solve", "--randn", "40x10", "--seed", "-1", "--app", "pca", "--solver", "dec-b", "--s", "3"],
    ["solve", "--data", "DATA", "--labeled", "--seed", "-1", "--app", "pca", "--solver", "dec-c",
     "--s", "3"],
])
def test_negative_seed_is_a_configuration_error(tmp_path, capsys, argv):
    # Each exited 1 with numpy's "expected non-negative integer".
    data = gen_dataset(tmp_path)
    argv = [str(data) if a == "DATA" else a for a in argv]
    if argv[0] == "gen-data":
        argv += ["--out", str(tmp_path / "out.csv")]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"


@pytest.mark.parametrize("labeled", [True, False])
def test_solve_cca_splits_the_rows_into_two_views(tmp_path, labeled):
    # Labeled rows split by sign of the label, view 1 the positive ones;
    # unlabeled rows (here the label is a 13th feature) split into halves.
    # The final x is scored under the expected split's problem.
    path = gen_dataset(tmp_path)
    out = tmp_path / "trace.json"
    assert run(["solve", "--data", str(path), *(["--labeled"] if labeled else []),
                "--app", "cca", "--solver", "dec-b", "--s", "3", "--k", "6", "--random", "4",
                "--swap", "2", "--out", str(out)]) == 0
    data = load_csv(path, labeled=labeled)
    if labeled:
        view1, view2 = data.X[data.y > 0], data.X[data.y <= 0]
    else:
        view1, view2 = data.X[:20], data.X[20:]
    final = json.loads(out.read_text())["final"]
    x = np.asarray(final["x"])
    assert x.size == 40
    assert objective(build_cca(view1, view2), x) == pytest.approx(final["f"], rel=1e-12)


def test_solve_libsvm_source(tmp_path):
    data = tmp_path / "data.libsvm"
    rng = np.random.default_rng(5)
    data.write_text("".join(
        f"{1 if i % 2 else -1} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row) if j != i % 6)
        + "\n"
        for i, row in enumerate(rng.standard_normal((20, 6)).tolist())
    ))
    out = tmp_path / "trace.json"
    assert run(["solve", "--data", str(data), "--format", "libsvm", "--app", "pca",
                "--solver", "dec-b", "--s", "2", "--k", "4", "--random", "2", "--swap", "2",
                "--out", str(out)]) == 0
    x = np.asarray(json.loads(out.read_text())["final"]["x"])
    assert x.size == 6 and 1 <= np.count_nonzero(x) <= 2


def test_solve_trf_baseline(tmp_path):
    out = tmp_path / "trace.json"
    assert run(["solve", "--randn", "30x8", "--seed", "3", "--app", "fda",
                "--solver", "trf", "--s", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["solver"] == "trf"
    assert 1 <= np.count_nonzero(payload["final"]["x"]) <= 2


def test_solve_malformed_randn_is_a_configuration_error(capsys):
    assert run(["solve", "--randn", "30by8", "--app", "pca", "--solver", "tpm", "--s", "2"]) == 2
    assert capsys.readouterr().err == "error: --randn expects MxD, got '30by8'\n"


def test_defaults_golden(capsys):
    assert run(["defaults"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == DEFAULTS
    assert payload["theta"] == 1e-5
    assert payload["epsilon"] == 1e-5
    assert payload["window"] == 50
    assert payload["max_iters"] == 1000


def test_render_svg_empty():
    assert render_svg({}).startswith("<svg")


def test_bench_parallel_matches_serial(tmp_path, monkeypatch):
    data = gen_dataset(tmp_path, m=30, d=8)
    args = ["bench", "--data", str(data), "--labeled", "--app", "pca",
            "--solvers", "dec-b", "--s-list", "2,3", "--k", "4",
            "--random", "2", "--swap", "2", "--fixed-timing"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    monkeypatch.setenv("SGEVP_THREADS", "1")
    assert run(args + ["--outdir", str(serial)]) == 0
    monkeypatch.setenv("SGEVP_THREADS", "2")
    assert run(args + ["--outdir", str(parallel)]) == 0
    assert (serial / "objective_vs_s.csv").read_bytes() == \
        (parallel / "objective_vs_s.csv").read_bytes()
