"""Command-line experiment harness.

Subcommands: gen-data, solve, bench, certify, defaults.  Exit codes:
0 success, 2 configuration error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from math import comb
from pathlib import Path

import numpy as np

from . import baselines, decomposition, problems
from .errors import (
    ConfigError,
    DegenerateData,
    DimensionMismatch,
    EmptyFile,
    InsufficientCoordinates,
    InvalidK,
    ParseError,
    RequiresIdentityC,
    SgevpError,
    SingleClass,
)

TRACE_SCHEMA = 1

# CLI option -> DecompositionConfig field
_CONFIG_FIELDS = {
    "theta": "theta",
    "epsilon": "epsilon",
    "window": "window",
    "max_iters": "max_iters",
    "k": "k",
    "random": "random_count",
    "swap": "swap_count",
}
DEFAULTS = {
    option: getattr(decomposition.DecompositionConfig(), name)
    for option, name in _CONFIG_FIELDS.items()
}

_SOLVERS = ("dec-b", "dec-c", "tpm", "trf")
_CONFIG_ERRORS = (ConfigError, InvalidK, InsufficientCoordinates, RequiresIdentityC)
_DATA_ERRORS = (
    ParseError, EmptyFile, DegenerateData, SingleClass, DimensionMismatch, OSError,
)


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", type=Path, help="dataset file (CSV or LIBSVM)")
    parser.add_argument("--format", choices=("csv", "libsvm"), default="csv")
    parser.add_argument("--labeled", action="store_true",
                        help="CSV: last column is the label")
    parser.add_argument("--randn", metavar="MxD",
                        help="synthetic standard-normal dataset, e.g. 300x100")
    parser.add_argument("--seed", type=int, default=1)


def _parse_randn(spec: str) -> tuple[int, int]:
    try:
        m_str, d_str = spec.lower().split("x")
        m, d = int(m_str), int(d_str)
    except ValueError:
        raise ConfigError(f"--randn expects MxD, got {spec!r}") from None
    if m < 1 or d < 1:
        raise ConfigError("--randn dimensions must be positive")
    return m, d


def load_dataset(args) -> problems.Dataset:
    if args.randn:
        m, d = _parse_randn(args.randn)
        return problems.gen_randn(m, d, args.seed)
    if args.data is None:
        raise ConfigError("provide either --data or --randn")
    if args.format == "libsvm":
        return problems.load_libsvm(args.data)
    return problems.load_csv(args.data, labeled=args.labeled)


def build_problem(app: str, data: problems.Dataset, s: int) -> decomposition.ProblemInstance:
    if app == "pca":
        base = problems.build_pca(data)
    elif app == "fda":
        base = problems.build_fda(data)
    elif app == "cca":
        if data.y is not None and np.any(data.y > 0) and np.any(data.y <= 0):
            view1, view2 = data.X[data.y > 0], data.X[data.y <= 0]
        else:
            half = data.X.shape[0] // 2
            view1, view2 = data.X[:half], data.X[half:]
        base = problems.build_cca(view1, view2)
    else:
        raise ConfigError(f"unknown application {app!r}")
    if not 1 <= s <= base.dim:
        raise ConfigError(f"sparsity {s} outside [1, {base.dim}]")
    return dataclasses.replace(base, s=s)


def run_solver(problem, solver: str, args) -> decomposition.SolveTrace:
    if solver in ("dec-b", "dec-c"):
        config = decomposition.DecompositionConfig(
            **{name: getattr(args, option) for option, name in _CONFIG_FIELDS.items()},
            subsolver="bisection" if solver == "dec-b" else "coordinate-descent",
            seed=args.seed,
        )
        return decomposition.solve(problem, config)
    cfg = baselines.BaselineConfig(max_iters=args.max_iters)
    if solver == "tpm":
        return baselines.truncated_power_method(problem, problem.s, cfg)
    if solver == "trf":
        return baselines.truncated_rayleigh_flow(problem, problem.s, cfg)
    raise ConfigError(f"unknown solver {solver!r}")


def trace_to_json(trace, solver: str, args, dataset_name: str, fixed_timing: bool) -> dict:
    iterations = []
    for t in range(trace.iterations):
        B = trace.working_sets[t].tolist() if t < len(trace.working_sets) else []
        iterations.append({
            "t": t,
            "f": trace.objectives[t + 1],
            "r_t": trace.rel_decreases[t],
            "denom": trace.denominators[t],
            "secs": 0.0 if fixed_timing else trace.seconds[t],
            "B": B,
        })
    config = {option: getattr(args, option) for option in _CONFIG_FIELDS}
    config.update(solver=solver, s=args.s, seed=args.seed)
    return {
        "schema": TRACE_SCHEMA,
        "solver": solver,
        "config": config,
        "dataset": dataset_name,
        "iterations": iterations,
        "final": {
            "x": trace.x.tolist(),
            "f": trace.final_objective,
            "reason": trace.reason,
            "polish": None if trace.polish is None else dataclasses.asdict(trace.polish),
            "rejected": trace.rejected,
            "supports": trace.supports,
        },
    }


def cmd_gen_data(args) -> int:
    if args.m < 2 or args.d < 1:
        raise ConfigError("need m >= 2 and d >= 1")
    data = problems.gen_randn(args.m, args.d, args.seed)
    header = ",".join([f"f{j}" for j in range(args.d)] + ["label"])
    lines = [header]
    for row, label in zip(data.X, data.y):
        lines.append(",".join([repr(float(v)) for v in row] + [repr(float(label))]))
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} sha256={problems.dataset_checksum(args.out)}")
    return 0


def cmd_solve(args) -> int:
    data = load_dataset(args)
    problem = build_problem(args.app, data, args.s)
    trace = run_solver(problem, args.solver, args)
    payload = trace_to_json(trace, args.solver, args, data.name, args.fixed_timing)
    if args.out:
        atomic_write_text(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(
        f"solver={args.solver} s={args.s} objective={trace.final_objective!r} "
        f"iterations={trace.iterations} seconds={trace.seconds[-1] if trace.seconds else 0.0:.3f}"
    )
    if trace.supports is not None:
        print(f"supports={trace.supports} (block supports: [enumerated, keyed, solved])")
    if trace.rejected is not None:
        print(f"rejected={trace.rejected} (main-loop steps: [zero vector, insufficient decrease])")
    if trace.polish is not None:
        polish = trace.polish
        print(
            f"polish: start={polish.start} rounds={polish.rounds} capped={polish.capped} "
            f"screened={polish.screened} solved={polish.solved} accepted={polish.accepted} "
            "(blocks of [one coordinate, a swap pair])"
        )
    return 0


def _bench_one(payload):
    (problem, solver, params) = payload
    trace = run_solver(problem, solver, argparse.Namespace(**params))
    return solver, problem.s, trace


def cmd_bench(args) -> int:
    # Both lists, and every sparsity against the problem, are checked before
    # the first job runs.
    solvers = [token.strip() for token in args.solvers.split(",") if token.strip()]
    if not solvers or not set(solvers) <= set(_SOLVERS):
        raise ConfigError(f"--solvers expects a comma-separated list of {', '.join(_SOLVERS)}, "
                          f"got {args.solvers!r}")
    try:
        s_list = [int(token) for token in args.s_list.split(",")]
    except ValueError:
        raise ConfigError(f"--s-list expects comma-separated integers, got {args.s_list!r}") from None
    data = load_dataset(args)
    instances = {s: build_problem(args.app, data, s) for s in s_list}
    params = {option: getattr(args, option) for option in _CONFIG_FIELDS}
    params["seed"] = args.seed
    jobs = [(instances[s], solver, params) for solver in solvers for s in s_list]
    threads = int(os.environ.get("SGEVP_THREADS", "1"))
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_bench_one, jobs))
    else:
        results = [_bench_one(job) for job in jobs]

    outdir = Path(args.outdir)
    rows = ["solver,s,objective,iterations,seconds"]
    series: dict[str, list[tuple[int, float]]] = {}
    for solver, s, trace in results:
        secs = 0.0 if args.fixed_timing else (trace.seconds[-1] if trace.seconds else 0.0)
        rows.append(f"{solver},{s},{trace.final_objective!r},{trace.iterations},{secs!r}")
        series.setdefault(solver, []).append((s, trace.final_objective))
        trace_rows = ["iter,seconds,objective"]
        for t in range(trace.iterations):
            t_secs = 0.0 if args.fixed_timing else trace.seconds[t]
            trace_rows.append(f"{t + 1},{t_secs!r},{trace.objectives[t + 1]!r}")
        atomic_write_text(outdir / f"trace_{solver}_{s}.csv", "\n".join(trace_rows) + "\n")
    atomic_write_text(outdir / "objective_vs_s.csv", "\n".join(rows) + "\n")
    if args.svg:
        atomic_write_text(outdir / "objective_vs_s.svg", render_svg(series))
    print(f"wrote {len(results)} runs to {outdir}")
    return 0


def _trace_x(path: Path, n: int, s: int) -> np.ndarray:
    """final.x of a saved trace, checked to be n finite numbers, at most s nonzero."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            x = np.asarray(json.load(handle)["final"]["x"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
        raise ParseError(f"{path}: no final.x of numbers ({exc})") from None
    if x.shape != (n,):
        raise DimensionMismatch(f"{path}: final.x has shape {x.shape}, expected ({n},)")
    if not np.all(np.isfinite(x)) or np.count_nonzero(x) > s:
        raise ParseError(f"{path}: final.x needs finite entries, at most s = {s} of them nonzero")
    return x


def cmd_certify(args) -> int:
    data = load_dataset(args)
    problem = build_problem(args.app, data, args.s)
    n = problem.dim
    x = _trace_x(args.trace, n, args.s)
    k_max = min(n, decomposition.MAX_BLOCK_SIZE)
    if not 1 <= args.k <= k_max:
        raise InvalidK(f"--k {args.k} outside [1, {k_max}]")
    ok = decomposition.certify_block2_stationary(problem, x, tol=args.tol)
    print(f"block-2: {'PASS' if ok else 'FAIL'}")
    if comb(n, args.k) <= args.measure_cap:
        measure = decomposition.block_k_measure(problem, x, args.k)
        verdict = "PASS" if measure <= args.tol else "FAIL"
        print(f"block-{args.k} measure: {measure:.3e} ({verdict})")
    else:
        print(f"block-{args.k} measure: skipped (C({n},{args.k}) exceeds cap {args.measure_cap})")
    return 0 if ok else 1


def cmd_defaults(_args) -> int:
    print(json.dumps(DEFAULTS, sort_keys=True, indent=2))
    return 0


def render_svg(series: dict[str, list[tuple[int, float]]]) -> str:
    """Minimal polyline plot of objective versus sparsity, one line per solver."""
    width, height, margin = 640, 420, 50
    points = [pt for pts in series.values() for pt in pts]
    if not points:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>\n"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        f"<line x1='{margin}' y1='{height - margin}' x2='{width - margin}' "
        f"y2='{height - margin}' stroke='black'/>",
        f"<line x1='{margin}' y1='{margin}' x2='{margin}' y2='{height - margin}' "
        f"stroke='black'/>",
    ]
    for idx, (solver, pts) in enumerate(sorted(series.items())):
        pts = sorted(pts)
        path = " ".join(f"{sx(s):.2f},{sy(f):.2f}" for s, f in pts)
        color = colors[idx % len(colors)]
        parts.append(f"<polyline points='{path}' fill='none' stroke='{color}' stroke-width='2'/>")
        parts.append(
            f"<text x='{width - margin + 4}' y='{margin + 16 * idx}' font-size='12' "
            f"fill='{color}'>{solver}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=DEFAULTS["k"])
    parser.add_argument("--random", type=int, default=DEFAULTS["random"])
    parser.add_argument("--swap", type=int, default=DEFAULTS["swap"])
    parser.add_argument("--theta", type=float, default=DEFAULTS["theta"])
    parser.add_argument("--epsilon", type=float, default=DEFAULTS["epsilon"])
    parser.add_argument("--window", type=int, default=DEFAULTS["window"])
    parser.add_argument("--max-iters", type=int, default=DEFAULTS["max_iters"])
    parser.add_argument("--fixed-timing", action="store_true",
                        help="write zero timings for byte-reproducible outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgevp")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic labeled CSV dataset")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--out", type=Path, required=True)
    gen.set_defaults(func=cmd_gen_data)

    solve = sub.add_parser("solve", help="run one solver on one problem")
    _add_data_args(solve)
    solve.add_argument("--app", choices=("pca", "fda", "cca"), required=True)
    solve.add_argument("--solver", choices=_SOLVERS, required=True)
    solve.add_argument("--s", type=int, required=True)
    _add_solver_args(solve)
    solve.add_argument("--out", type=Path)
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="sweep solvers over sparsity levels")
    _add_data_args(bench)
    bench.add_argument("--app", choices=("pca", "fda", "cca"), required=True)
    bench.add_argument("--solvers", required=True, help="comma-separated, e.g. dec-b,tpm,trf")
    bench.add_argument("--s-list", required=True, help="comma-separated sparsity values")
    _add_solver_args(bench)
    bench.add_argument("--outdir", type=Path, required=True)
    bench.add_argument("--svg", action="store_true")
    bench.set_defaults(func=cmd_bench)

    certify = sub.add_parser("certify", help="check stationarity certificates of a saved run")
    _add_data_args(certify)
    certify.add_argument("--app", choices=("pca", "fda", "cca"), required=True)
    certify.add_argument("--s", type=int, required=True)
    certify.add_argument("--trace", type=Path, required=True)
    certify.add_argument("--k", type=int, default=4, help="block size of the informational "
                         "block-k measure; the exit status is the block-2 certificate's (default 4)")
    certify.add_argument(
        "--tol", type=float, default=1e-6,
        help="absolute tolerance on the objective descent of any swap or 1-D move, and on "
        "the block-k measure; polish stops at the relative 1e-9 (1 + |f|) (default 1e-6)",
    )
    certify.add_argument("--measure-cap", type=int, default=5000)
    certify.set_defaults(func=cmd_certify)

    defaults = sub.add_parser("defaults", help="print the default solver parameters")
    defaults.set_defaults(func=cmd_defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SgevpError as exc:  # every other library error is numerical
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
