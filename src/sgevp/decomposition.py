"""Decomposition driver for min x'Ax / x'Cx subject to ||x||_0 <= s.

Each iteration selects a working set (random and/or swapping coordinates),
solves the proximal block subproblem exactly by combinatorial search, and
updates the block.  The stopping rule averages the relative decrease over a
trailing window.  Block-k / block-2 stationarity diagnostics live here too.

No step costs an n x n product: a candidate's objective and its x'Cx come
from one quadratic_forms call over its support, and that x'Cx serves the
accept test, the denominator floor and the trace; polish and the
certificate score swaps from problems.products, and polish solves its
one-coordinate blocks and budget-1 swap pairs on lines read from them
(subproblem.line_solution), with no block assembled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, inf, isnan
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDenominator,
    DenominatorCollapse,
    InvalidK,
    TooLarge,
    UnboundedBelow,
)
from .fractional1d import solve_1d  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
from .fractional1d import solve_1d_core, solve_1d_values
from .problems import ProblemInstance, checked_iterate, objective, products, quadratic_forms
from .subproblem import MAX_BLOCK_SIZE, build_block_subproblem, line_solution, solve_exact
from .working_set import (
    select_hybrid,
    select_random,
    support_and_zero,
    swap_descent,  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
    swap_scores,
)

DENOMINATOR_FLOOR = 1e-14
POLISH_ROUNDS = 50
MEASURE_GUARD = 10**6


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

    def validate(self, problem: ProblemInstance) -> None:
        if self.k > min(problem.dim, MAX_BLOCK_SIZE):
            raise ConfigError(
                f"k={self.k} exceeds min(n, {MAX_BLOCK_SIZE}) = "
                f"{min(problem.dim, MAX_BLOCK_SIZE)}"
            )
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.random_count < 0 or self.swap_count < 0:
            raise ConfigError("random_count and swap_count must be nonnegative")
        if self.random_count + self.swap_count != self.k:
            raise ConfigError("random_count + swap_count must equal k")
        if self.swap_count % 2 != 0:
            raise ConfigError("swap count must be even")
        # Written as what is valid, so that a NaN, which fails every
        # comparison, is rejected.
        if not 0.0 <= self.theta < inf:
            raise ConfigError("theta must be finite and nonnegative")
        if isnan(self.epsilon):
            raise ConfigError("epsilon must not be NaN")
        if self.max_iters < 0:
            raise ConfigError("max_iters must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.time_limit is not None and not self.time_limit >= 0.0:
            raise ConfigError("time_limit must be nonnegative")
        if self.window < 1:
            raise ConfigError("window must be at least 1")
        if self.subsolver not in ("bisection", "coordinate-descent"):
            raise ConfigError(f"unknown subsolver {self.subsolver!r}")


@dataclass
class PolishSummary:
    """How polish ended.  ``start`` is the index in the trace's step lists
    (working_sets, rel_decreases, ...) of polish's first step; ``capped``
    says polish still moved in its last allowed round.  The block counts
    are [one-coordinate blocks, swap pairs]: blocks the floor screened
    out, blocks solved and solved blocks accepted as steps."""

    start: int
    rounds: int = 0
    capped: bool = False
    screened: list[int] = field(default_factory=lambda: [0, 0])
    solved: list[int] = field(default_factory=lambda: [0, 0])
    accepted: list[int] = field(default_factory=lambda: [0, 0])


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
    polish: PolishSummary | None = None  # set by solve, not by the baselines
    # Main-loop steps solve rejected, [zero vector, insufficient decrease];
    # set by solve, not by the baselines.
    rejected: list[int] | None = None
    # Supports of the run's block solves, polish included, [enumerated,
    # keyed, solved] (subproblem.solve_exact's tally); set by solve, not by
    # the baselines.
    supports: list[int] | None = None

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


def sufficient_decrease(theta, x_old, f_old, x_new, f_new, den_new) -> bool:
    """Accept test of a step: f_new plus the proximal term
    theta ||x_new - x_old||^2 / den_new must not exceed f_old, where den_new
    is x_new'C x_new."""
    prox = theta * float((x_new - x_old) @ (x_new - x_old)) / den_new
    return f_new + prox <= f_old + 1e-12 * (1.0 + abs(f_old))


def _checked_denominator(den: float) -> float:
    """den, the x'Cx of an iterate, or DenominatorCollapse at the floor."""
    if den <= DENOMINATOR_FLOOR:
        raise DenominatorCollapse(f"x'Cx = {den:.6g}")
    return den


def _block_move(problem, x, B, theta, method="bisection", tally=None):
    """(x_new, f_new, den_new): x with block B replaced by its exact
    proximal block solution, its objective and its x'Cx, both from one
    quadratic_forms call over supp(x_new); None where the move collapses x
    to the zero vector.  tally gains the block's support counts."""
    z, _ = solve_exact(build_block_subproblem(problem, x, B, theta), method, tally)
    x_new = x.copy()
    x_new[B] = z
    if not np.any(x_new):
        return None
    num, den = quadratic_forms(problem, x_new)
    return x_new, num / den, den


def _select_working_set(problem, x, config: DecompositionConfig, rng) -> np.ndarray:
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
    num, den = quadratic_forms(problem, x)
    f = num / den
    trace = SolveTrace(rejected=[0, 0], supports=[0, 0, 0])
    trace.objectives.append(f)
    _checked_denominator(den)
    reason = "max_iters"
    for _ in range(config.max_iters):
        B = _select_working_set(problem, x, config, rng)
        # A collapse to the zero vector is rejected.  The exact subsolver
        # satisfies sufficient decrease by construction; coordinate descent
        # may return an improving but insufficient point, which would break
        # the per-step decrease guarantee the certificates rely on.
        step = _block_move(problem, x, B, config.theta, config.subsolver, trace.supports)
        x_new, f_new, den_new = x, f, den
        if step is None:
            trace.rejected[0] += 1
        elif sufficient_decrease(config.theta, x, f, *step):
            x_new, f_new, den_new = step
        else:
            trace.rejected[1] += 1
        trace.record(x, x_new, f, f_new, _checked_denominator(den_new), start, B)
        x, f, den = x_new, f_new, den_new
        window = trace.rel_decreases[-config.window:]
        if sum(window) / len(window) <= config.epsilon:
            reason = "tolerance"
            break
        if config.time_limit is not None and trace.seconds[-1] > config.time_limit:
            reason = "time_limit"
            break

    x, f, out_of_time = _polish(problem, config, x, f, trace, start)
    if out_of_time:
        reason = "time_limit"
    trace.x = x
    trace.reason = reason
    return trace


def _polish(problem, config, x, f, trace, start):
    """Drive the iterate to a block-2 stationary point after the stopping
    rule fires.

    Deterministic swapping can stall on a fixed working set while support
    coordinates outside it are still 1-D improvable, so the convergence
    certificate is enforced explicitly: cyclic exact single-coordinate
    blocks over the support, then a resweep of all swap pairs, repeated
    until neither moves, for at most POLISH_ROUNDS rounds.  Every move is
    an exact proximal block solve, so the sufficient-decrease invariant is
    preserved.  A swap pair {i, j} with x_i = x_j = 0 and ||x||_0 = s is
    skipped: its budget is 0, so the move is the identity and would be
    rejected.

    Where a block's feasible points form lines (_lines: a one-coordinate
    block, and a swap pair with x_j = 0 and budget 1), the block is read
    from A@x, C@x, x'Ax, x'Cx and ||x||_0, computed once per iterate
    (_iterate) and refreshed after every accepted move, in O(1) reads of A
    and C.  Such a block is screened first: _block_floor bounds f on its
    lines from below, and a block whose floor lies above f - tol (by a
    rounding margin) is not solved.  Its solution is one of those points,
    so the move would have been rejected anyway, and the screen changes no
    result.  A block that is not screened out is solved on the same lines
    (_line_move), or, where they do not decide it, assembled and solved by
    _block_move.  trace.polish records the rounds and the block counts.
    Returns (x, f, out_of_time); time_limit is checked before every block
    solve.
    """
    tol = 1e-9 * (1.0 + abs(f))
    summary = trace.polish = PolishSummary(start=trace.iterations)
    it = _iterate(problem, x)

    def out_of_time() -> bool:
        return config.time_limit is not None and time.perf_counter() - start > config.time_limit

    def try_block(i, j=None):
        """Solve block {i}, or the pair {i, j}, exactly unless its floor
        shows that no solution can be accepted; the improved (x, f), or
        None."""
        size = 0 if j is None else 1
        if _block_floor(problem, it, i, j) >= f - tol + 1e-12 * (1.0 + abs(f)):
            summary.screened[size] += 1
            return None
        summary.solved[size] += 1
        B = np.array([i]) if j is None else np.array(sorted((int(i), int(j))))
        step = _line_move(problem, it, i, j, config.theta, config.subsolver, trace.supports)
        if step is None:
            step = _block_move(problem, it.x, B, config.theta, config.subsolver, trace.supports)
        if step is None:
            return None
        x_new, f_new, den_new = step
        if f_new < f - tol and sufficient_decrease(config.theta, it.x, f, x_new, f_new, den_new):
            trace.record(it.x, x_new, f, f_new, _checked_denominator(den_new), start, B)
            summary.accepted[size] += 1
            return x_new, f_new
        return None

    for _ in range(POLISH_ROUNDS):
        summary.rounds += 1
        moved = False
        for i in sorted(np.flatnonzero(it.x != 0.0)):
            if out_of_time():
                return it.x, f, True
            step = try_block(i)
            if step is not None:
                x, f = step
                moved = True
                it = _iterate(problem, x)
        # Swap pairs in the order (support, zero) as they stood at the start
        # of the sweep, all scored in one pass; the scores go stale only on
        # an accepted move, which rescores this row and the rows after it.
        S, Z = support_and_zero(it.x)
        D = swap_scores(problem, it.x, it.Ax, it.Cx, f, S, Z)
        for a, i in enumerate(S):
            col = -1
            # The next improving pair of this row, read from the current scores.
            while (ahead := np.flatnonzero(D[a, col + 1:] < -tol)).size:
                col += 1 + int(ahead[0])
                j = Z[col]
                if it.x[i] == 0.0 and it.x[j] == 0.0 and it.nnz == problem.s:
                    continue  # budget 0 and x_B = 0: the move is the identity
                if out_of_time():
                    return it.x, f, True
                step = try_block(i, j)
                if step is not None:
                    x, f = step
                    moved = True
                    it = _iterate(problem, x)
                    D[a:] = swap_scores(problem, it.x, it.Ax, it.Cx, f, S[a:], Z)
        if not moved:
            break
    else:
        summary.capped = True
    return it.x, f, False


class _Iterate(NamedTuple):
    """An iterate x with what polish's lines read of it."""

    x: np.ndarray
    Ax: np.ndarray
    Cx: np.ndarray
    xAx: float
    xCx: float
    nnz: int  # ||x||_0


def _iterate(problem, x) -> _Iterate:
    Ax, Cx = products(problem, x)
    return _Iterate(x, Ax, Cx, float(x @ Ax), float(x @ Cx), int(np.count_nonzero(x)))


def _dropped(problem, it, i, theta):
    """(c, t), the constants of the line along e_j from x - x_i e_i: half
    its x'Ax plus theta x_i^2 / 2, the proximal term of setting x_i to 0,
    and half its x'Cx, from A@x and C@x."""
    xi = float(it.x[i])
    num = it.xAx - 2.0 * xi * float(it.Ax[i]) + xi * xi * float(problem.A[i, i])
    den = it.xCx - 2.0 * xi * float(it.Cx[i]) + xi * xi * float(problem.C[i, i])
    return 0.5 * num + 0.5 * theta * xi * xi, 0.5 * den


def _lines(problem, it, i, j=None, theta=0.0):
    """The lines that make up the feasible points of polish's block {i},
    or of the swap pair {i, j}, at the iterate it, each as
    (m, offset, a, b, c, r, s, t, lower): the points with x_m =
    offset + beta, beta >= lower, on which the block objective with
    proximal weight theta is the 1-D program of solve_1d_core and
    subproblem.line_solution; theta = 0 gives f itself.

    For {i}: the line x + beta e_i with x_i + beta >= lower_bound, whose
    coefficients are A_ii + theta, (Ax)_i, x'Ax/2, C_ii, (Cx)_i and
    x'Cx/2.  For {i, j} with x_j = 0 and budget 1: that line and the line
    along e_j from x - x_i e_i (_dropped).  None where the block's
    feasible points are not such lines: x zero outside the block (the
    lines pass through 0, where the ratio is 0/0, as in swap_scores' axis
    case), a pair with x_j != 0 (a 2-D block) or a budget of 2 or more.
    """
    xi = float(it.x[i])
    outside = it.nnz - (xi != 0.0)
    if outside == 0:
        return None
    A, C = problem.A, problem.C
    lb = -inf if problem.lower_bound is None else problem.lower_bound
    lines = [(
        i, xi, float(A[i, i]) + theta, float(it.Ax[i]), 0.5 * it.xAx,
        float(C[i, i]), float(it.Cx[i]), 0.5 * it.xCx, lb - xi,
    )]
    if j is not None:
        # The pair's budget is s - outside; x_j != 0 leaves a 2-D block.
        if it.x[j] != 0.0 or outside != problem.s - 1:
            return None
        c, t = _dropped(problem, it, i, theta)
        lines.append((
            j, 0.0, float(A[j, j]) + theta, float(it.Ax[j]) - xi * float(A[j, i]), c,
            float(C[j, j]), float(it.Cx[j]) - xi * float(C[j, i]), t, lb,
        ))
    return lines


def _block_floor(problem, it, i, j=None) -> float:
    """A lower bound on f over the feasible points of polish's block {i},
    or of the swap pair {i, j}, at the iterate it: the infimum of f over
    the block's lines (_lines, theta = 0).

    On a line beta >= lower, f is the 1-D program of solve_1d_core, whose
    value covers the stationary points and the bound (both roots are
    clamped to it); min with the limit a/r at infinity covers a ray that
    falls towards that limit.  -inf (no bound, so the block is solved)
    where the block is not made of lines and where the kernel raises.
    """
    lines = _lines(problem, it, i, j)
    if lines is None:
        return -inf
    floor = inf
    for _, _, a, b, c, r, s, t, lower in lines:
        try:
            _, value = solve_1d_core(a, b, c, r, s, t, lower)
        except (DegenerateDenominator, UnboundedBelow):
            return -inf
        floor = min(floor, value, a / r)
    return floor


def _line_move(problem, it, i, j, theta, method="bisection", tally=None):
    """_block_move of polish's block {i}, or of the swap pair {i, j},
    solved on its lines (_lines) with no block assembled:
    (x_new, f_new, den_new), or None where the lines do not decide the
    block and _block_move must.

    Each line is one support of the block, {i} or {j}, solved by
    subproblem.line_solution, whose x_m = 0 is x - x_i e_i; of equal values
    the lower index wins.  f_new and den_new = x_new'C x_new come from one
    quadratic_forms call; tally gains what solve_exact would count.
    """
    lines = _lines(problem, it, i, j, theta)
    if lines is None:
        return None
    bisection = method == "bisection" and problem.lower_bound is None
    lb = -inf if problem.lower_bound is None else problem.lower_bound
    zero = None
    if not bisection:
        c0, t0 = _dropped(problem, it, i, theta)
        if not t0 > 0.0:
            return None
        zero = c0 / t0
    moves = []
    for m, offset, *line in sorted(lines):
        move = line_solution(*line, offset, lb, zero, bisection)
        if move is None:
            return None
        moves.append((m, *move))
    # The first of equal values wins; nan ranks last.
    m, z, _ = min(moves, key=lambda move: (isnan(move[2]), move[2]))
    x_new = it.x.copy()
    x_new[i] = 0.0
    x_new[m] = z
    if tally is not None:
        tally[0] += len(lines)
        tally[2] += len(lines)
    num, den = quadratic_forms(problem, x_new)
    return x_new, num / den, den


def _blocks(n: int, k: int):
    """Every block of k of the n coordinates, as an index array, in
    combination order; InvalidK unless 1 <= k <= min(n, MAX_BLOCK_SIZE),
    and TooLarge beyond MEASURE_GUARD blocks, both raised before the first
    block."""
    k_max = min(n, MAX_BLOCK_SIZE)
    if not 1 <= k <= k_max:
        raise InvalidK(f"k={k} outside [1, {k_max}]")
    total = comb(n, k)
    if total > MEASURE_GUARD:
        raise TooLarge(f"C({n},{k}) = {total} exceeds {MEASURE_GUARD}")
    for block in combinations(range(n), k):
        yield np.asarray(block, dtype=int)


def refine_block_k(problem: ProblemInstance, x: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Exhaustive-block refinement: cycle every C(n, k) block with exact
    block solves (theta = 0) until a full pass, of at most 100, makes no
    move that lowers the objective by more than 1e-10 (1 + |f|).

    This is the deterministic working-set rule that enumerates all blocks,
    feasible only at desk scale; it drives the iterate to a block-k
    stationary point (up to that threshold), where block_k_measure vanishes.
    DimensionMismatch unless x has shape (n,).
    """
    x = checked_iterate(problem, x).copy()
    f = objective(problem, x)
    tol = 1e-10 * (1.0 + abs(f))
    for _ in range(100):
        moved = False
        for B in _blocks(problem.dim, k):
            step = _block_move(problem, x, B, 0.0)
            if step is not None and step[1] < f - tol:
                x, f, _ = step
                moved = True
        if not moved:
            break
    return x, f


def block_k_measure(problem: ProblemInstance, x: np.ndarray, k: int) -> float:
    """Mean squared distance from x_B to the exact block optimizer
    (theta = 0) over all C(n, k) blocks; zero iff x is block-k optimal.
    DimensionMismatch unless x has shape (n,)."""
    n = problem.dim
    x = checked_iterate(problem, x)
    total = 0.0
    for B in _blocks(n, k):
        sub = build_block_subproblem(problem, x, B, 0.0)
        z, _ = solve_exact(sub)
        xB = x[B]
        if sub.budget == problem.s and np.any(z):
            # A budget of s leaves x_N = 0, so the block objective is scale
            # invariant and its optimum is a ray; measure the distance to
            # the nearest point on that ray.
            scale = float(z @ xB) / float(z @ z)
            if scale != 0.0:
                z = scale * z
        total += float(np.sum((z - xB) ** 2))
    return total / comb(n, k)


def certify_block2_stationary(
    problem: ProblemInstance, x: np.ndarray, tol: float
) -> bool:
    """True iff no swap pair improves by more than tol and every support
    coordinate is 1-D optimal with the support fixed.

    tol is absolute: a move fails the certificate when it lowers the
    objective by more than tol.  Polish stops at the relative threshold
    1e-9 (1 + |f|) instead, so on objectives of large magnitude a polished
    iterate can fail a small absolute tol.  DimensionMismatch unless x has
    shape (n,).
    """
    # Written as what is valid, so that a NaN tol, which passes every point, fails it.
    if not 0.0 <= tol < inf:
        raise ConfigError("tol must be finite and nonnegative")
    x = checked_iterate(problem, x)
    f_x = objective(problem, x)
    Ax, Cx = products(problem, x)
    S, Z = support_and_zero(x)
    # On a one-coordinate support every 1-D move stays on the axis, where the
    # ratio is constant; the kernel would evaluate it at the 0/0 of
    # x_i + beta = 0, whose rounding reads as a spurious descent.
    if S.size > 1:
        lower = None if problem.lower_bound is None else problem.lower_bound - x[S]
        values = solve_1d_values(
            np.diag(problem.A)[S], Ax[S], 0.5 * float(x @ Ax),
            np.diag(problem.C)[S], Cx[S], 0.5 * float(x @ Cx), lower,
        )
        if np.any(values < f_x - tol):
            return False
    D = swap_scores(problem, x, Ax, Cx, f_x, S, Z)
    return not np.any(D < -tol)
