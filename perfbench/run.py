#!/usr/bin/env python3
"""Benchmark of the sgevp decomposition solver.

    python3 perfbench/run.py --workload pca-enum --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One workload (see workloads.py and
README.md) goes through the public API: ``sgevp.problems`` builders, then
``sgevp.decomposition.solve``, then
``sgevp.decomposition.certify_block2_stationary(tol=1e-6)``.  Everything
runs in this one process with BLAS pinned to one thread, in a closed loop:
each instance is solved after the previous one finished, and the pass over
all instances repeats until ``--seconds`` is used up.  Times are the
per-instance median over the passes, summed over the instances.  A fixed
probe (probe.py) is timed before and after every solve; the JSON reports
solve times as multiples of it, which takes out most of the machine's
speed drift, and prints the wall seconds beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, in which the calls into each module are
wrapped from outside (see tracer.py), and reports the per-layer metrics;
its spans are written to ``perfbench/out/``.

Each solver output is checked (sparsity, finiteness, objective, monotone
trace, stop reason, same result on every pass); an instance that raises or
fails a check counts as failed and the run goes on.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from probe import Probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SGEVP_THREADS")
SETUP_PROBES = 5
CERT_TOL = 1e-6
STOP_REASONS = ("tolerance", "max_iters", "time_limit")

# Every metric a run prints, with its unit.
SUMMARY_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "certify_s": "s",
    "solve_certify_s": "s",
    "solve_rel": "probe",
    "solve_certify_rel": "probe",
    "probe_s": "s",
    "objective_mean": "ratio",
    "objective_ratio_mean": "ratio",
    "cert_pass_frac": "ratio",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}

# The subset in the JSON line of a --trace 0 run, each positive and steady
# across seeds.  Solve times enter as multiples of the probe's time (see
# probe.py), which takes out most of the machine's speed drift.  certify_s
# is left out because the certificate stops at the first improving pair, so
# where it fails (pca-bounded) its time depends on where that pair sits.
# objective_mean is negative and varies with the draw; its ratio to the
# dense optimum stands in for it.
END_TO_END = ("setup_s", "solve_rel", "solve_certify_rel", "objective_ratio_mean", "peak_rss_mb")

PER_LAYER_UNITS = {
    "qfp.solve_bisection.calls": "count",
    "qfp.solve_bisection.s": "s",
    "qfp.solve_bisection.us_per_call": "us",
    "qfp.solve_bisection.iterations": "count",
    "qfp.cert.bisection_root": "count",
    "qfp.cert.boundary_lower": "count",
    "qfp.cert.boundary_upper": "count",
    "qfp.cert.coordinate_wise_min": "count",
    "qfp.cert.fallback_frac": "ratio",
    "subproblem.supports": "count",
    "subproblem.solve_exact.calls": "count",
    "subproblem.solve_exact.s": "s",
    "subproblem.solve_exact.self_s": "s",
    "subproblem.build_block_subproblem.calls": "count",
    "subproblem.build_block_subproblem.s": "s",
    "qfp.solve_coordinate_descent.calls": "count",
    "qfp.solve_coordinate_descent.s": "s",
    "qfp.solve_coordinate_descent.sweeps": "count",
    "fractional1d.solve_1d_core.calls": "count",
    "working_set.select.calls": "count",
    "working_set.select.s": "s",
    "working_set.descent_matrix.calls": "count",
    "working_set.descent_matrix.s": "s",
    "working_set.swap_descent.calls": "count",
    "working_set.swap_descent.s": "s",
    "fractional1d.solve_1d.calls": "count",
    "decomposition.polish.s": "s",
    "linalg.inv_sqrt.calls": "count",
    "linalg.inv_sqrt.s": "s",
    "linalg.sym_eig.calls": "count",
    "linalg.sym_eig.s": "s",
    "decomposition.iterations": "count",
    "decomposition.accept_ratio": "ratio",
    "decomposition.supports_per_accepted_step": "ratio",
    "decomposition.objective_mean": "ratio",
    "decomposition.cert_pass_frac": "ratio",
    "decomposition.cert_error_frac": "ratio",
    "decomposition.failed_frac": "ratio",
    "problems.build.s": "s",
    "trace.overhead_s": "s",
}


# Per-layer metrics taken from the whole run rather than from a traced pass.
RUN_LEVEL = (
    "decomposition.objective_mean",
    "decomposition.cert_pass_frac",
    "decomposition.cert_error_frac",
    "decomposition.failed_frac",
    "problems.build.s",
    "trace.overhead_s",
)


def pin_threads() -> None:
    """One BLAS thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


@dataclass
class Outcome:
    """One solve and certify of one instance."""

    solve_s: float
    certify_s: float = 0.0
    trace: object = None
    certified: bool = False
    cert_error: str | None = None
    issues: list[str] = field(default_factory=list)
    probe_s: float = 0.0  # probe time around this solve, see probe.py

    @property
    def solve_rel(self) -> float:
        return self.solve_s / self.probe_s

    @property
    def solve_certify_rel(self) -> float:
        return (self.solve_s + self.certify_s) / self.probe_s


def check_output(inst, trace, objective) -> list[str]:
    """Invariants every solver output must satisfy; returns what failed."""
    import numpy as np

    x = trace.x
    if x is None or not np.all(np.isfinite(x)):
        return ["x is missing or not finite"]
    if not np.any(x):
        return ["x is the zero vector"]
    issues = []
    nnz = int(np.count_nonzero(x))
    if nnz > inst.problem.s:
        issues.append(f"||x||_0 = {nnz} exceeds s = {inst.problem.s}")
    f, f_final = objective(inst.problem, x), trace.final_objective
    if abs(f - f_final) > 1e-12 * abs(f_final):
        issues.append(f"objective(x) = {f!r} but trace ends at {f_final!r}")
    f_seq = np.asarray(trace.objectives)
    rises = np.flatnonzero(np.diff(f_seq) > 1e-12 * (1.0 + np.abs(f_seq[:-1])))
    if rises.size:
        issues.append(f"objective rises at step {int(rises[0]) + 1}")
    if trace.reason not in STOP_REASONS:
        issues.append(f"unknown stop reason {trace.reason!r}")
    return issues


def run_instance(inst, sgevp) -> Outcome:
    dec = sgevp.decomposition
    start = time.perf_counter()
    try:
        trace = dec.solve(inst.problem, inst.config)
    except Exception as exc:  # a failed solve is counted; the run goes on
        traceback.print_exc()
        return Outcome(time.perf_counter() - start, issues=[f"solve raised {exc!r}"])
    out = Outcome(time.perf_counter() - start, trace=trace)
    out.issues = check_output(inst, trace, dec.objective)
    start = time.perf_counter()
    try:
        out.certified = dec.certify_block2_stationary(inst.problem, trace.x, tol=CERT_TOL)
    except sgevp.SgevpError as exc:
        # The output passed its checks but the certificate routine cannot
        # evaluate it: the certificate fails, the solve does not.
        out.cert_error = repr(exc)
    except Exception as exc:  # any other exception is a defect: counted as failed
        traceback.print_exc()
        out.issues.append(f"certify raised {exc!r}")
    out.certify_s = time.perf_counter() - start
    return out


def run_pass(instances, sgevp, probe, first: list[Outcome] | None) -> list[Outcome]:
    """Solve every instance once, timing the probe between solves; flag
    results that differ from pass one."""
    import numpy as np

    probe_s = [probe.seconds()]
    outcomes = []
    for inst in instances:
        outcomes.append(run_instance(inst, sgevp))
        probe_s.append(probe.seconds())
    for i, out in enumerate(outcomes):
        out.probe_s = 0.5 * (probe_s[i] + probe_s[i + 1])
    for out, ref in zip(outcomes, first or ()):
        if out.trace is not None and ref.trace is not None and not np.array_equal(
            out.trace.x, ref.trace.x
        ):
            out.issues.append("x differs from the first pass")
    return outcomes


def median_sum(passes: list[list[Outcome]], attr: str) -> float:
    """Sum over instances of each instance's median over the passes."""
    return sum(
        statistics.median(getattr(p[i], attr) for p in passes) for i in range(len(passes[0]))
    )


def layer_metrics(tracer, outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = tracer.summary()
    counts = tracer.counts

    def span(name: str, key: str = "s") -> float:
        return spans.get(name, {}).get(key, 0)

    bisection = span("qfp.solve_bisection", "calls")
    supports = bisection + span("qfp.solve_coordinate_descent", "calls")
    fallback = counts["qfp.cert.bisection_root"] + counts["qfp.cert.boundary_upper"]
    traces = [o.trace for o in outcomes if o.trace is not None]
    steps = sum(len(t.step_norms) for t in traces)
    accepted = sum(sum(1 for norm in t.step_norms if norm > 0.0) for t in traces)
    metrics = {
        "qfp.solve_bisection.us_per_call": 1e6 * span("qfp.solve_bisection") / bisection if bisection else 0.0,
        "qfp.cert.fallback_frac": fallback / bisection if bisection else 0.0,
        "subproblem.supports": supports,
        "subproblem.solve_exact.self_s": span("subproblem.solve_exact", "self_s"),
        "decomposition.polish.s": span("decomposition.polish"),
        "decomposition.iterations": sum(t.iterations for t in traces),
        "decomposition.accept_ratio": accepted / steps if steps else 0.0,
        "decomposition.supports_per_accepted_step": supports / accepted if accepted else 0.0,
    }
    for name in PER_LAYER_UNITS:
        if name in metrics or name in RUN_LEVEL:
            continue
        if name.startswith("qfp.cert.") or name.endswith((".iterations", ".sweeps")):
            metrics[name] = counts[name]
        else:
            layer, _, key = name.rpartition(".")
            metrics[name] = span(layer, key)
    return metrics


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def setup_seconds(workload: str, seed: int, tiny: bool, probes: int) -> float:
    """Median over fresh interpreters of import + data + ProblemInstances."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    if tiny:
        cmd.append("tiny")
    samples = []
    for _ in range(probes):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def dense_optimum(problem) -> float:
    """Smallest generalized eigenvalue of (A, C): the optimum without the
    sparsity budget, a lower bound on every feasible objective."""
    import scipy.linalg

    return float(scipy.linalg.eigh(problem.A, problem.C, eigvals_only=True,
                                   subset_by_index=[0, 0])[0])


def reference_line(workload: str, seed: int, instances, outcomes: list[Outcome]) -> str:
    """Deviation of this run's results from those stored in reference.json."""
    import numpy as np

    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    expected = stored.get("workloads", {}).get(workload, {}).get(str(seed))
    if expected is None:
        return f"reference: none stored for seed {seed}"
    worst, mismatched = 0.0, []
    for inst, out, ref in zip(instances, outcomes, expected):
        if out.trace is None:
            mismatched.append(inst.label)
            continue
        f = out.trace.final_objective
        worst = max(worst, abs(f - ref["objective"]) / abs(ref["objective"]))
        if np.flatnonzero(out.trace.x).tolist() != ref["support"]:
            mismatched.append(inst.label)
    return (
        f"reference: max rel objective deviation {worst:.3e}, "
        f"supports differ on {len(mismatched)}/{len(expected)} {mismatched}"
    )


def benchmark(
    workload: str, seed: int, seconds: float, trace: bool,
    tiny: bool = False, setup_probes: int = SETUP_PROBES,
) -> dict:
    """Run one workload; print a summary and return the result object."""
    setup_s = setup_seconds(workload, seed, tiny, setup_probes)
    import numpy as np
    import sgevp
    import tracer as tracing

    env = environment(workload, seed)
    instances = workloads.build(workload, seed, tiny)
    build_tracer = tracing.Tracer()
    if trace:
        with tracing.installed(build_tracer, tracing.build_targets(sgevp)):
            instances = workloads.build(workload, seed, tiny)

    probe = Probe()
    untraced: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    tracers = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        untraced.append(run_pass(instances, sgevp, probe, untraced[0] if untraced else None))
        if trace:
            tracers.append(tracing.Tracer())
            with tracing.installed(tracers[-1], tracing.solve_targets(sgevp)):
                traced.append(run_pass(instances, sgevp, probe, untraced[0]))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break

    every = [out for p in untraced + traced for out in p]
    attempted, failed = len(every), sum(1 for out in every if out.issues)
    first = untraced[0]
    finals = [out.trace.final_objective for out in first if out.trace is not None]
    objective_mean = float(np.mean(finals)) if finals else float("nan")
    ratios = [out.trace.final_objective / dense_optimum(inst.problem)
              for inst, out in zip(instances, first) if out.trace is not None]
    cert_pass_frac = sum(out.certified for out in first) / len(first)
    cert_error_frac = sum(out.cert_error is not None for out in first) / len(first)
    solve_s, certify_s = median_sum(untraced, "solve_s"), median_sum(untraced, "certify_s")
    summary = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "certify_s": certify_s,
        "solve_certify_s": solve_s + certify_s,
        "solve_rel": median_sum(untraced, "solve_rel"),
        "solve_certify_rel": median_sum(untraced, "solve_certify_rel"),
        "probe_s": statistics.median(out.probe_s for p in untraced for out in p),
        "objective_mean": objective_mean,
        "objective_ratio_mean": float(np.mean(ratios)) if ratios else float("nan"),
        "cert_pass_frac": cert_pass_frac,
        "failed_frac": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"{workload} seed {seed}: {len(instances)} instances x {len(untraced)} passes"
        f"{f' (+{len(traced)} traced)' if trace else ''}, closed loop, 1 process, 1 BLAS thread"
    )
    pass_s = [round(sum(out.solve_s for out in p), 3) for p in untraced]
    print(f"  solve seconds per pass: {pass_s}")
    for name, value in summary.items():
        print(f"  {name:<20} {value:.6g} {SUMMARY_UNITS[name]}")
    for i, (inst, out) in enumerate(zip(instances, first)):
        f = f"{out.trace.final_objective:.12g}" if out.trace is not None else "-"
        median_s = statistics.median(p[i].solve_s for p in untraced)
        note = f" ({out.cert_error})" if out.cert_error else ""
        print(f"  {inst.label:<14} f={f} certified={out.certified}{note} solve_s={median_s:.4f}")
    print("  " + reference_line(workload, seed, instances, first))
    for i, out in enumerate(every):
        for issue in out.issues:
            print(f"  FAILED {instances[i % len(instances)].label}: {issue}")

    if trace:
        per_pass = [layer_metrics(t, outs) for t, outs in zip(tracers, traced)]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["decomposition.objective_mean"] = objective_mean
        metrics["decomposition.cert_pass_frac"] = cert_pass_frac
        metrics["decomposition.cert_error_frac"] = cert_error_frac
        metrics["decomposition.failed_frac"] = failed / attempted
        metrics["problems.build.s"] = build_tracer.summary().get("problems.build", {}).get("s", 0.0)
        # Compared in probe units, so a speed drift between the untraced and
        # the traced passes does not read as tracing cost.
        traced_rel = median_sum(traced, "solve_rel")
        metrics["trace.overhead_s"] = (traced_rel - summary["solve_rel"]) * summary["probe_s"]
        write_spans(workload, seed, build_tracer, tracers)
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in PER_LAYER_UNITS.items()}
    else:
        reported = {name: {"value": summary[name], "unit": SUMMARY_UNITS[name]}
                    for name in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}


def write_spans(workload: str, seed: int, build_tracer, tracers) -> None:
    import numpy as np

    arrays = {}
    for label, tr in [("build", build_tracer)] + [(f"pass{i}", t) for i, t in enumerate(tracers)]:
        arrays[f"{label}.names"] = np.asarray(tr.names)
        arrays.update({f"{label}.{key}": value for key, value in tr.arrays().items()})
    OUT_DIR.mkdir(exist_ok=True)
    np.savez_compressed(OUT_DIR / f"spans-{workload}-seed{seed}.npz", **arrays)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sgevp" / "__init__.py").is_file():
        print(f"error: no sgevp sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
