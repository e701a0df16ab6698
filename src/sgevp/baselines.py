"""Reference solvers: truncated power method and truncated Rayleigh flow."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .decomposition import ProblemInstance, SolveTrace, initial_point, objective
from .errors import ConfigError, RequiresIdentityC


@dataclass
class BaselineConfig:
    step_size: float | None = None  # TRF only; default 1/(2*||A||_F)
    max_iters: int = 1000
    tol: float = 1e-8

    def validate(self) -> None:
        # Written as what is valid, so that a NaN, which fails every
        # comparison, is rejected.
        if self.step_size is not None and not 0.0 < self.step_size < math.inf:
            raise ConfigError("step_size must be finite and positive")
        if math.isnan(self.tol):
            raise ConfigError("tol must not be NaN")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")


def hard_threshold(x: np.ndarray, s: int) -> np.ndarray:
    """Keep the s largest-magnitude entries, ties resolved to lower indices."""
    x = np.asarray(x, dtype=float)
    if s >= x.size:
        return x.copy()
    order = np.argsort(-np.abs(x), kind="stable")
    out = np.zeros_like(x)
    keep = order[:s]
    out[keep] = x[keep]
    return out


def _finish(trace: SolveTrace, x: np.ndarray, reason: str) -> SolveTrace:
    trace.x = x
    trace.reason = reason
    return trace


def truncated_power_method(
    problem: ProblemInstance, s: int, cfg: BaselineConfig | None = None
) -> SolveTrace:
    """Shifted power iteration with hard thresholding; requires C == I."""
    cfg = cfg or BaselineConfig()
    cfg.validate()
    n = problem.dim
    if not np.allclose(problem.C, np.eye(n), atol=1e-12):
        raise RequiresIdentityC("truncated power method assumes C = I")
    M = -problem.A
    shift = max(0.0, -linalg.min_eigenvalue(M))
    start = time.perf_counter()

    x = initial_point(problem)
    f = objective(problem, x)
    trace = SolveTrace()
    trace.objectives.append(f)
    reason = "max_iters"
    for _ in range(cfg.max_iters):
        y = M @ x + shift * x
        y = hard_threshold(y, s)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            reason = "fixed_point"
            break
        x_new = y / norm
        f_new = objective(problem, x_new)
        trace.record(x, x_new, f, f_new, float(x_new @ problem.C @ x_new), start)
        converged = abs(f - f_new) <= cfg.tol * (1.0 + abs(f))
        x, f = x_new, f_new
        if converged:
            reason = "tolerance"
            break
    return _finish(trace, x, reason)


def truncated_rayleigh_flow(
    problem: ProblemInstance, s: int, cfg: BaselineConfig | None = None
) -> SolveTrace:
    """Projected gradient flow on the generalized Rayleigh quotient with
    hard-threshold truncation; monotonicity is not guaranteed, so the trace
    records the actual values."""
    cfg = cfg or BaselineConfig()
    cfg.validate()
    eta0 = cfg.step_size
    if eta0 is None:
        eta0 = 1.0 / (2.0 * float(np.linalg.norm(problem.A, "fro")))
    start = time.perf_counter()

    x = hard_threshold(initial_point(problem), s)
    x = x / np.sqrt(float(x @ problem.C @ x))
    f = objective(problem, x)
    trace = SolveTrace()
    trace.objectives.append(f)
    reason = "max_iters"
    for _ in range(cfg.max_iters):
        denom = float(x @ problem.C @ x)
        grad = 2.0 * (problem.A @ x - f * (problem.C @ x)) / denom
        eta = eta0
        x_new, f_new = x, f
        for _ in range(10):
            trial = hard_threshold(x - eta * grad, s)
            if not np.any(trial):
                eta *= 0.5
                continue
            trial = trial / np.sqrt(float(trial @ problem.C @ trial))
            f_trial = objective(problem, trial)
            if f_trial <= f:
                x_new, f_new = trial, f_trial
                break
            eta *= 0.5
        trace.record(x, x_new, f, f_new, float(x_new @ problem.C @ x_new), start)
        converged = abs(f - f_new) <= cfg.tol * (1.0 + abs(f))
        x, f = x_new, f_new
        if converged:
            reason = "tolerance"
            break
    return _finish(trace, x, reason)
