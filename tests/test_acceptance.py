"""Acceptance gate: ten end-to-end correctness and performance criteria.

Each test prints exactly one `[criterion N] PASS/FAIL` line with the
measured quantities, and fails the build if its bound is violated.
"""

import time
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

from sgevp.baselines import truncated_power_method, truncated_rayleigh_flow
from sgevp.cli import DEFAULTS, main
from sgevp.decomposition import (
    DecompositionConfig,
    ProblemInstance,
    block_k_measure,
    certify_block2_stationary,
    refine_block_k,
    solve,
)
from sgevp.errors import DegenerateDenominator, UnboundedBelow
from sgevp.fractional1d import OneDimCoefficients, solve_1d
from sgevp.problems import build_cca, build_fda, build_pca, gen_randn
from sgevp.qfp import (
    Certificate,
    QfpSubproblem,
    assemble_reduced,
    projected_gradient,
    solve_bisection,
    solve_coordinate_descent,
)
from sgevp.subproblem import build_block_subproblem, solve_exact

from _util import random_problem, random_qfp, random_spd  # noqa: F401


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# --------------------------------------------------------------------------
# criterion 1: 1-D closed form vs dense grid oracle, 1000 instances, < 10 s


def _grid_value(coeff, lo=-100.0, hi=100.0, step=1e-2):
    """Grid minimum of psi over [lo, hi], refined down to step 1e-8.

    Each discrete local minimum of the grid (window edges included)
    brackets a local minimum of psi within one step on either side, and psi
    has at most one interior local minimum; the grid is refined 100-fold
    around every discrete local minimum, not only around the best one.
    """
    grid = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    den = 0.5 * coeff.r * grid * grid + coeff.s * grid + coeff.t
    num = 0.5 * coeff.a * grid * grid + coeff.b * grid + coeff.c
    vals = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
    if step <= 1e-8:
        return float(vals.min())
    # A run of equal values counts once, at its right end.
    left = np.concatenate(([np.inf], vals[:-1]))
    right = np.concatenate((vals[1:], [np.inf]))
    minima = np.flatnonzero((vals <= left) & (vals < right))
    return min(
        _grid_value(coeff, max(grid[m] - step, -100.0), min(grid[m] + step, 100.0), step / 100)
        for m in minima
    )


def test_criterion_01_one_dim_global_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    count = 0
    while count < 1000:
        a, b = rng.standard_normal(2)
        c = rng.standard_normal()
        r = abs(rng.standard_normal()) + 0.5
        s = rng.standard_normal() * 0.3
        t = s * s / (2.0 * r) + abs(rng.standard_normal()) + 0.1
        coeff = OneDimCoefficients(a=a, b=b, c=c, r=r, s=s, t=t)
        try:
            sol = solve_1d(coeff)
        except UnboundedBelow:
            continue
        if abs(sol.beta) > 90.0:
            continue  # optimum outside the oracle window: not bounded-in-window
        val = _grid_value(coeff)
        worst = max(worst, abs(sol.value - val))
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, ok, f"1000 instances, max |value - grid| = {worst:.3e} "
                  f"(tol 1e-6), runtime {elapsed:.1f}s (< 10s)")


# --------------------------------------------------------------------------
# criterion 2: bisection sandwich + root accuracy + CD cross-check, < 30 s


def _random_qfp_gram(rng, m):
    # mildly indefinite numerator and well-conditioned denominator
    R = random_spd(rng, m, ridge=1.0)
    c = rng.standard_normal(m)
    gamma = 0.1 + abs(rng.standard_normal())
    v = 0.5 * (float(c @ np.linalg.solve(R, c)) + gamma)
    G = rng.standard_normal((m, m))
    Q = G @ G.T / m - 0.3 * np.eye(m)
    return QfpSubproblem(Q=Q, p=rng.standard_normal(m), w=rng.standard_normal(),
                         R=R, c=c, v=v)


def test_criterion_02_bisection_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2027)
    restart_rng = np.random.default_rng(11)
    agree = 0
    worst_root = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 7))
        q = _random_qfp_gram(rng, m)
        sol = solve_bisection(q, tol=1e-12)
        red = assemble_reduced(q)
        d, V = np.linalg.eigh(red.O)
        lam_O = float(d[0])
        lam_Z = float(np.linalg.eigvalsh(red.Z)[0])
        assert lam_Z - 1e-8 <= sol.value < lam_O
        if sol.certificate is Certificate.BISECTION_ROOT:
            # interior root found by bisection: check the residual of J
            a = V.T @ red.g
            J = float(0.5 * red.delta - 0.5 * sol.alpha_star * red.gamma
                      - 0.5 * np.sum(a * a / (d - sol.alpha_star)))
            worst_root = max(worst_root, abs(J) / (1.0 + abs(red.delta)))
            assert abs(J) <= 1e-8 * (1.0 + abs(red.delta))
        else:
            # the root coincides with lambda_min(Z); the value must match it
            assert abs(sol.value - lam_Z) <= 1e-8 * (1.0 + abs(lam_Z))
        best_cd = np.inf
        for _ in range(10):
            y0 = restart_rng.standard_normal(m)
            if q.denominator(y0) <= 0:
                continue
            try:
                best_cd = min(best_cd, solve_coordinate_descent(
                    q, y0=y0, max_sweeps=300, obj_tol=1e-15).value)
            except DegenerateDenominator:
                continue
        agree += abs(best_cd - sol.value) <= 1e-6
    elapsed = time.perf_counter() - start
    ok = agree >= 495 and elapsed < 30.0
    report(2, ok, f"500 instances, sandwich holds, root residual max "
                  f"{worst_root:.2e}, CD agreement {agree}/500 (>= 495), "
                  f"runtime {elapsed:.1f}s (< 30s)")


# --------------------------------------------------------------------------
# criterion 3: block subproblem exactness vs enumeration oracles, < 60 s


def _subproblem_oracle(sub, rng, sizes, restarts):
    qfp = sub.qfp
    k = qfp.dim
    best = np.inf
    for size in sizes:
        for support in combinations(range(k), size):
            idx = np.asarray(support, dtype=int)
            if size == 0:
                if qfp.v > 0:
                    best = min(best, qfp.w / qfp.v)
                continue
            restricted = QfpSubproblem(
                Q=qfp.Q[np.ix_(idx, idx)], p=qfp.p[idx], w=qfp.w,
                R=qfp.R[np.ix_(idx, idx)], c=qfp.c[idx], v=qfp.v,
            )
            best = min(best, solve_bisection(restricted).value)
            for _ in range(restarts):
                y0 = rng.standard_normal(size)
                if restricted.denominator(y0) <= 0:
                    continue
                try:
                    best = min(best, solve_coordinate_descent(restricted, y0=y0).value)
                except DegenerateDenominator:
                    continue
    return best


def test_criterion_03_subproblem_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(2028)
    done = 0
    worst = 0.0
    while done < 200:
        n = 10
        s = int(rng.integers(2, 6))
        problem = random_problem(rng, n, s)
        x = np.zeros(n)
        x[rng.choice(n, size=s, replace=False)] = rng.standard_normal(s)
        B = np.sort(rng.choice(n, size=5, replace=False))
        sub = build_block_subproblem(problem, x, B, 1e-3)
        q = min(sub.budget, 5)
        if not 1 <= q <= 4:
            continue
        _, value = solve_exact(sub)
        full = _subproblem_oracle(sub, rng, range(q + 1), restarts=0)
        dense = _subproblem_oracle(sub, rng, range(q + 1), restarts=3)
        worst = max(worst, abs(value - full), abs(value - dense))
        assert abs(value - full) <= 1e-6 and abs(value - dense) <= 1e-6
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    report(3, ok, f"200 instances (k=5, q in 1..4), max oracle gap {worst:.2e} "
                  f"(tol 1e-6), runtime {elapsed:.1f}s (< 60s)")


# --------------------------------------------------------------------------
# criterion 4: per-iteration sufficient decrease across a suite of runs


def test_criterion_04_sufficient_decrease():
    rng = np.random.default_rng(2029)
    steps = 0
    worst = -np.inf
    for trial in range(10):
        n = 12
        problem = random_problem(rng, n, 4)
        theta = (1e-5, 1e-3)[trial % 2]
        subsolver = ("bisection", "coordinate-descent")[trial % 2]
        cfg = DecompositionConfig(k=6, random_count=4, swap_count=2,
                                  theta=theta, subsolver=subsolver, seed=trial)
        trace = solve(problem, cfg)
        for t in range(trace.iterations):
            rise = trace.objectives[t + 1] - trace.objectives[t]
            bound = -theta * trace.step_norms[t] ** 2 / trace.denominators[t]
            worst = max(worst, rise - bound)
            assert rise <= bound + 1e-10
            steps += 1
    ok = worst <= 1e-10
    report(4, ok, f"{steps} iterations over 10 runs, max violation "
                  f"{worst:.2e} (tol 1e-10)")


# --------------------------------------------------------------------------
# criterion 5: stationarity certificates, < 5 min


def test_criterion_05_stationarity_certificates():
    start = time.perf_counter()
    rng = np.random.default_rng(2030)
    certified = 0
    for _ in range(20):
        problem = random_problem(rng, 30, 8)
        cfg = DecompositionConfig(k=4, random_count=0, swap_count=4,
                                  epsilon=1e-10, seed=0)
        trace = solve(problem, cfg)
        certified += certify_block2_stationary(problem, trace.x, tol=1e-6)
    worst_measure = 0.0
    for _ in range(10):
        problem = random_problem(rng, 12, 4)
        cfg = DecompositionConfig(k=4, random_count=2, swap_count=2,
                                  epsilon=1e-10, seed=0)
        trace = solve(problem, cfg)
        x, _ = refine_block_k(problem, trace.x, k=4)
        worst_measure = max(worst_measure, block_k_measure(problem, x, k=4))
    elapsed = time.perf_counter() - start
    ok = certified == 20 and worst_measure <= 1e-6 and elapsed < 300.0
    report(5, ok, f"block-2 certified {certified}/20, max block-4 measure "
                  f"{worst_measure:.2e} (tol 1e-6), runtime {elapsed:.1f}s (< 300s)")


# --------------------------------------------------------------------------
# criterion 6: tiny-scale global optimum in one full-block iteration, < 2 min


def test_criterion_06_global_recovery_tiny():
    start = time.perf_counter()
    rng = np.random.default_rng(2031)
    worst = 0.0
    for _ in range(50):
        problem = random_problem(rng, 8, 3)
        cfg = DecompositionConfig(k=8, random_count=8, swap_count=0,
                                  theta=0.0, max_iters=1, seed=0)
        trace = solve(problem, cfg)
        best = np.inf
        for support in combinations(range(8), 3):
            idx = np.asarray(support)
            A = problem.A[np.ix_(idx, idx)]
            C = problem.C[np.ix_(idx, idx)]
            best = min(best, float(scipy.linalg.eigh(A, C, eigvals_only=True)[0]))
        worst = max(worst, abs(trace.final_objective - best))
        assert abs(trace.final_objective - best) <= 1e-8
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 120.0
    report(6, ok, f"50 instances, max gap to exhaustive enumeration "
                  f"{worst:.2e} (tol 1e-8), runtime {elapsed:.1f}s (< 120s)")


# --------------------------------------------------------------------------
# criterion 7: desk-scale sweep on synthetic data, dominance 9/10, < 10 min


def test_criterion_07_sweep_protocol():
    import dataclasses

    start = time.perf_counter()
    data = gen_randn(300, 100, 2)
    base = build_pca(data)
    wins = 0
    for s in range(4, 41, 4):
        problem = dataclasses.replace(base, s=s)
        dec = solve(problem, DecompositionConfig(seed=0)).final_objective
        tpm = truncated_power_method(problem, s).final_objective
        trf = truncated_rayleigh_flow(problem, s).final_objective
        wins += dec <= tpm + 1e-12 and dec <= trf + 1e-12
    # analogous FDA / CCA runs must complete with monotone traces
    monotone = True
    fda_base = build_fda(data)
    pos, neg = data.X[data.y > 0], data.X[data.y <= 0]
    cca_base = build_cca(pos, neg)
    for prob_base, s in ((fda_base, 8), (fda_base, 16), (cca_base, 8)):
        problem = dataclasses.replace(prob_base, s=s)
        trace = solve(problem, DecompositionConfig(seed=0))
        f = np.asarray(trace.objectives)
        monotone &= bool(np.all(np.diff(f) <= 1e-12))
    elapsed = time.perf_counter() - start
    ok = wins >= 9 and monotone and elapsed < 600.0
    report(7, ok, f"PCA sweep wins {wins}/10 (>= 9), FDA/CCA traces monotone: "
                  f"{monotone}, runtime {elapsed:.1f}s (< 600s)")


# --------------------------------------------------------------------------
# criterion 8: default parameters golden


def test_criterion_08_default_parameters():
    expected = {"theta": 1e-5, "epsilon": 1e-5, "window": 50, "max_iters": 1000}
    actual = {key: DEFAULTS[key] for key in expected}
    cfg = DecompositionConfig()
    runtime_defaults = {"theta": cfg.theta, "epsilon": cfg.epsilon,
                        "window": cfg.window, "max_iters": cfg.max_iters}
    ok = actual == expected and runtime_defaults == expected
    report(8, ok, f"(theta, epsilon, window, max_iters) = "
                  f"{tuple(actual.values())} == {tuple(expected.values())}")


# --------------------------------------------------------------------------
# criterion 9: projected gradient vs central finite differences


def test_criterion_09_gradient_check():
    rng = np.random.default_rng(2032)
    worst = 0.0
    h = 1e-6
    for _ in range(200):
        m = int(rng.integers(2, 7))
        lower = None if rng.random() < 0.5 else float(-abs(rng.standard_normal()) - 1.0)
        q = random_qfp(rng, m, lower_bound=lower)
        y = 0.3 * rng.standard_normal(m)
        if lower is not None:
            y = np.maximum(y, lower + 0.1)  # strictly interior
        if q.denominator(y) <= 0:
            continue
        grad = projected_gradient(q, y)
        for i in range(m):
            e = np.zeros(m)
            e[i] = h
            fd = (q.value(y + e) - q.value(y - e)) / (2.0 * h)
            worst = max(worst, abs(fd - grad[i]))
    ok = worst <= 1e-5
    report(9, ok, f"200 pairs, max |grad - central diff| = {worst:.2e} (tol 1e-5)")


# --------------------------------------------------------------------------
# criterion 10: byte-identical bench outputs under identical seeds/configs


def test_criterion_10_determinism(tmp_path):
    data = tmp_path / "data.csv"
    assert main(["gen-data", "--m", "40", "--d", "12", "--seed", "1",
                 "--out", str(data)]) == 0
    args = ["bench", "--data", str(data), "--labeled", "--app", "pca",
            "--solvers", "dec-b,tpm", "--s-list", "2,4", "--k", "6",
            "--random", "4", "--swap", "2", "--fixed-timing", "--svg"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(args + ["--outdir", str(out1)]) == 0
    assert main(args + ["--outdir", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    identical = names == sorted(p.name for p in out2.iterdir()) and all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in names
    )
    report(10, identical, f"{len(names)} output files byte-identical across re-run")
