"""Decomposition driver for min x'Ax / x'Cx subject to ||x||_0 <= s.

Each iteration selects a working set (random and/or swapping coordinates),
solves the proximal block subproblem exactly by combinatorial search, and
updates the block.  The stopping rule averages the relative decrease over a
trailing window.  Block-k / block-2 stationarity diagnostics live here too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .errors import (
    ConfigError,
    DenominatorCollapse,
    NonFinite,
    TooLarge,
    ZeroVector,
)
from .fractional1d import OneDimCoefficients, solve_1d
from .subproblem import MAX_BLOCK_SIZE, build_block_subproblem, solve_exact
from .working_set import (
    WorkingSetSelection,
    descent_matrix,
    select_hybrid,
    select_random,
    support_and_zero,
    swap_descent,  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
    swap_row,
)

DENOMINATOR_FLOOR = 1e-14
MEASURE_GUARD = 10**6


@dataclass
class ProblemInstance:
    """Symmetric pair (A, C) with C positive definite and a sparsity budget."""

    A: np.ndarray
    C: np.ndarray
    s: int
    lower_bound: float | None = None

    def __post_init__(self):
        self.A = linalg.symmetrize(self.A)
        self.C = linalg.symmetrize(self.C)
        self.s = int(self.s)
        if self.A.shape != self.C.shape:
            raise ConfigError("A and C must have the same shape")
        if not np.all(np.isfinite(self.A)):
            raise NonFinite("A contains NaN or Inf")
        n = self.A.shape[0]
        if not 1 <= self.s <= n:
            raise ConfigError(f"sparsity budget {self.s} outside [1, {n}]")
        if linalg.min_eigenvalue(self.C) <= linalg.pd_tol(self.C):
            raise linalg.NotPositiveDefinite(linalg.min_eigenvalue(self.C))
        if self.lower_bound is not None and not (
            math.isfinite(self.lower_bound) and self.lower_bound <= 0.0
        ):
            # The bound applies to support entries; a positive one would be
            # violated by every off-support zero.
            raise ConfigError(f"lower_bound {self.lower_bound} must be finite and <= 0")

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass
class DecompositionConfig:
    k: int = 12
    theta: float = 1e-5
    random_count: int = 6
    swap_count: int = 6
    subsolver: str = "bisection"
    epsilon: float = 1e-5
    window: int = 50
    max_iters: int = 1000
    seed: int = 0
    time_limit: float | None = None
    polish: bool = True

    def validate(self, problem: ProblemInstance) -> None:
        if self.k > min(problem.dim, MAX_BLOCK_SIZE):
            raise ConfigError(
                f"k={self.k} exceeds min(n, {MAX_BLOCK_SIZE}) = "
                f"{min(problem.dim, MAX_BLOCK_SIZE)}"
            )
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.random_count + self.swap_count != self.k:
            raise ConfigError("random_count + swap_count must equal k")
        if self.swap_count % 2 != 0:
            raise ConfigError("swap count must be even")
        if self.theta < 0:
            raise ConfigError("theta must be nonnegative")
        if self.subsolver not in ("bisection", "coordinate-descent"):
            raise ConfigError(f"unknown subsolver {self.subsolver!r}")


@dataclass
class SolveTrace:
    objectives: list[float] = field(default_factory=list)  # f(x^0), f(x^1), ...
    rel_decreases: list[float] = field(default_factory=list)
    working_sets: list[np.ndarray] = field(default_factory=list)
    denominators: list[float] = field(default_factory=list)  # x'Cx after each update
    step_norms: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    x: np.ndarray | None = None
    reason: str = ""

    def record(self, x_old, x_new, f_old, f_new, denominator, start, working_set=None):
        """Append one step; ``denominator`` is x_new'C x_new."""
        self.objectives.append(f_new)
        self.rel_decreases.append(relative_decrease(f_old, f_new))
        if working_set is not None:
            self.working_sets.append(np.asarray(working_set))
        self.denominators.append(denominator)
        self.step_norms.append(float(np.linalg.norm(x_new - x_old)))
        self.seconds.append(time.perf_counter() - start)

    @property
    def iterations(self) -> int:
        return len(self.rel_decreases)

    @property
    def final_objective(self) -> float:
        return self.objectives[-1]


def objective(problem: ProblemInstance, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ZeroVector("objective undefined at x = 0")
    return float(x @ problem.A @ x) / float(x @ problem.C @ x)


def initial_point(problem: ProblemInstance) -> np.ndarray:
    """Unit vector on the coordinate with the smallest diagonal ratio."""
    ratios = np.diag(problem.A) / np.diag(problem.C)
    x = np.zeros(problem.dim)
    x[int(np.argmin(ratios))] = 1.0
    return x


def relative_decrease(f_old: float, f_new: float) -> float:
    """Stopping-rule ratio; uses |f| in the denominator so negative
    objectives (PCA/CCA) behave, clamped at zero."""
    drop = f_old - f_new
    if f_old == 0.0:
        return max(drop, 0.0)
    return max(drop / abs(f_old), 0.0)


def sufficient_decrease(problem, theta, x_old, f_old, x_new, f_new) -> bool:
    """Accept test of a step: f_new plus the proximal term
    theta ||x_new - x_old||^2 / x_new'C x_new must not exceed f_old."""
    den_new = float(x_new @ problem.C @ x_new)
    prox = theta * float((x_new - x_old) @ (x_new - x_old)) / den_new
    return f_new + prox <= f_old + 1e-12 * (1.0 + abs(f_old))


def _select_working_set(problem, x, config: DecompositionConfig, rng) -> WorkingSetSelection:
    S, Z = support_and_zero(x)
    w = config.swap_count
    # Not enough support/zero coordinates for the requested pair count early
    # in a run; shrink the swap share and backfill with random picks.
    w_eff = min(w, 2 * min(S.size, Z.size))
    w_eff -= w_eff % 2
    r_eff = config.k - w_eff
    if w_eff == 0:
        return select_random(problem.dim, config.k, rng)
    return select_hybrid(problem, x, r_eff, w_eff, rng)


def solve(problem: ProblemInstance, config: DecompositionConfig) -> SolveTrace:
    config.validate(problem)
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()

    x = initial_point(problem)
    f = objective(problem, x)
    trace = SolveTrace()
    trace.objectives.append(f)

    def denominator(vec) -> float:
        value = float(vec @ problem.C @ vec)
        if value <= DENOMINATOR_FLOOR:
            raise DenominatorCollapse(f"x'Cx = {value:.6g}")
        return value

    denominator(x)
    reason = "max_iters"
    for t in range(config.max_iters):
        selection = _select_working_set(problem, x, config, rng)
        B = selection.indices
        sub = build_block_subproblem(problem, x, B, config.theta)
        z, _ = solve_exact(sub, method=config.subsolver)
        x_new = x.copy()
        x_new[B] = z
        if not np.any(x_new):
            f_new, x_new = f, x  # reject a collapse to the zero vector
        else:
            f_new = objective(problem, x_new)
            # The exact subsolver satisfies sufficient decrease by
            # construction; coordinate descent may return an improving but
            # insufficient point, which would break the per-step decrease
            # guarantee the certificates rely on.
            if not sufficient_decrease(problem, config.theta, x, f, x_new, f_new):
                f_new, x_new = f, x
        trace.record(x, x_new, f, f_new, denominator(x_new), start, B)
        x, f = x_new, f_new
        window = trace.rel_decreases[-min(t + 1, config.window):]
        if sum(window) / len(window) <= config.epsilon:
            reason = "tolerance"
            break
        if config.time_limit is not None and trace.seconds[-1] > config.time_limit:
            reason = "time_limit"
            break

    if config.polish and config.swap_count >= 2:
        x, f, out_of_time = _polish(problem, config, x, f, trace, start, denominator)
        if out_of_time:
            reason = "time_limit"
    trace.x = x
    trace.reason = reason
    return trace


def _polish(problem, config, x, f, trace, start, denominator):
    """Drive the iterate to a block-2 stationary point after the stopping
    rule fires.

    Deterministic swapping can stall on a fixed working set while support
    coordinates outside it are still 1-D improvable, so the convergence
    certificate is enforced explicitly: cyclic exact single-coordinate
    blocks over the support, then a resweep of all swap pairs, repeated
    until neither moves.  Every move is an exact proximal block solve, so
    the sufficient-decrease invariant is preserved.  Returns (x, f,
    out_of_time); time_limit is checked before every block solve.
    """
    tol = 1e-9 * (1.0 + abs(f))

    def out_of_time() -> bool:
        return config.time_limit is not None and time.perf_counter() - start > config.time_limit

    def try_block(B):
        """Solve block B exactly; the improved (x, f), or None."""
        sub = build_block_subproblem(problem, x, B, config.theta)
        z, _ = solve_exact(sub, method=config.subsolver)
        x_new = x.copy()
        x_new[B] = z
        if not np.any(x_new):
            return None
        f_new = objective(problem, x_new)
        if f_new < f - tol and sufficient_decrease(problem, config.theta, x, f, x_new, f_new):
            trace.record(x, x_new, f, f_new, denominator(x_new), start, B)
            return x_new, f_new
        return None

    for _ in range(50):
        moved = False
        for i in sorted(np.flatnonzero(x != 0.0)):
            if out_of_time():
                return x, f, True
            step = try_block(np.array([i]))
            if step is not None:
                x, f = step
                moved = True
        # Swap pairs in the order (support, zero) as they stood at the start
        # of the sweep; products and scores go stale only on an accepted move.
        S, Z = support_and_zero(x)
        Ax, Cx = problem.A @ x, problem.C @ x
        for i in S:
            row = swap_row(problem, x, Ax, Cx, f, i, Z)
            for col, j in enumerate(Z):
                if row[col] < -tol:
                    if out_of_time():
                        return x, f, True
                    step = try_block(np.array(sorted((int(i), int(j)))))
                    if step is not None:
                        x, f = step
                        moved = True
                        Ax, Cx = problem.A @ x, problem.C @ x
                        row = swap_row(problem, x, Ax, Cx, f, i, Z)
        if not moved:
            break
    return x, f, False


def refine_block_k(
    problem: ProblemInstance,
    x: np.ndarray,
    k: int,
    theta: float = 0.0,
    max_rounds: int = 100,
    tol: float | None = None,
) -> tuple[np.ndarray, float]:
    """Exhaustive-block refinement: cycle every C(n, k) block with exact
    proximal solves until a full pass makes no move.

    This is the deterministic working-set rule that enumerates all blocks,
    feasible only at desk scale; it drives the iterate to a block-k
    stationary point (up to tol), where block_k_measure vanishes.
    """
    n = problem.dim
    total_blocks = comb(n, k)
    if total_blocks > MEASURE_GUARD:
        raise TooLarge(f"C({n},{k}) = {total_blocks} exceeds {MEASURE_GUARD}")
    x = np.asarray(x, dtype=float).copy()
    f = objective(problem, x)
    if tol is None:
        tol = 1e-10 * (1.0 + abs(f))
    for _ in range(max_rounds):
        moved = False
        for block in combinations(range(n), k):
            B = np.asarray(block, dtype=int)
            sub = build_block_subproblem(problem, x, B, theta)
            z, _ = solve_exact(sub)
            x_new = x.copy()
            x_new[B] = z
            if not np.any(x_new):
                continue
            f_new = objective(problem, x_new)
            if f_new < f - tol:
                x, f, moved = x_new, f_new, True
        if not moved:
            break
    return x, f


def block_k_measure(
    problem: ProblemInstance, x: np.ndarray, k: int, theta0: float = 0.0
) -> float:
    """Mean squared distance from x_B to the exact block optimizer over all
    C(n, k) blocks; zero iff x is block-k optimal."""
    n = problem.dim
    total_blocks = comb(n, k)
    if total_blocks > MEASURE_GUARD:
        raise TooLarge(f"C({n},{k}) = {total_blocks} exceeds {MEASURE_GUARD}")
    x = np.asarray(x, dtype=float)
    total = 0.0
    mask = np.empty(n, dtype=bool)
    for block in combinations(range(n), k):
        B = np.asarray(block, dtype=int)
        sub = build_block_subproblem(problem, x, B, theta0)
        z, _ = solve_exact(sub)
        xB = x[B]
        mask[:] = True
        mask[B] = False
        if theta0 == 0.0 and not np.any(x[mask]) and np.any(z):
            # The fixed part is zero, so the block objective is scale
            # invariant and its optimum is a ray; measure the distance to
            # the nearest point on that ray.
            scale = float(z @ xB) / float(z @ z)
            if scale != 0.0:
                z = scale * z
        total += float(np.sum((z - xB) ** 2))
    return total / total_blocks


def certify_block2_stationary(
    problem: ProblemInstance, x: np.ndarray, tol: float
) -> bool:
    """True iff no swap pair improves by more than tol and every support
    coordinate is 1-D optimal with the support fixed."""
    x = np.asarray(x, dtype=float)
    f_x = objective(problem, x)
    Ax = problem.A @ x
    Cx = problem.C @ x
    S, Z = support_and_zero(x)
    for i in S:
        coeffs = OneDimCoefficients(
            a=float(problem.A[i, i]), b=float(Ax[i]), c=0.5 * float(x @ Ax),
            r=float(problem.C[i, i]), s=float(Cx[i]), t=0.5 * float(x @ Cx),
            lower=-math.inf if problem.lower_bound is None else problem.lower_bound - float(x[i]),
        )
        if solve_1d(coeffs).value < f_x - tol:
            return False
    _, _, D = descent_matrix(problem, x)
    return not np.any(D < -tol)
