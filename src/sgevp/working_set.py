"""Working-set selection: random, swapping, and hybrid strategies.

The swapping strategy scores every (support i, zero j) pair by the exact
objective descent achievable when i leaves the support and j enters with
its optimal coefficient, then greedily takes the best nonoverlapping
pairs.  Scores for a whole row (fixed i, all j) are computed vectorized
from rank-one corrections of the precomputed products A@x and C@x
(swap_row); selection, polish and the block-2 certificate all score swaps
this way.  swap_descent is the explicit per-pair reference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientCoordinates, InvalidK, UnboundedBelow
from .fractional1d import OneDimCoefficients, solve_1d


class Provenance(enum.Enum):
    RANDOM = "Random"
    SWAP_SUPPORT = "SwapSupport"
    SWAP_ZERO = "SwapZero"


@dataclass
class WorkingSetSelection:
    indices: np.ndarray
    provenance: list[Provenance]


def support_and_zero(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x)
    return np.flatnonzero(x != 0.0), np.flatnonzero(x == 0.0)


def select_random(n: int, k: int, rng: np.random.Generator) -> WorkingSetSelection:
    """k distinct indices, uniform over all C(n, k) combinations."""
    if not 1 <= k <= n:
        raise InvalidK(f"k={k} outside [1, {n}]")
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return WorkingSetSelection(indices=idx, provenance=[Provenance.RANDOM] * k)


def swap_descent(problem, x, i: int, j: int) -> float:
    """Best objective change for the swap (i out, j in); <= 0 means improvement.

    Explicit O(n^2) formula: builds v = x - x_i e_i and line-searches along
    e_j.  Reference for swap_row / descent_matrix, not used by the solver.
    """
    from .decomposition import objective

    A, C = problem.A, problem.C
    x = np.asarray(x, dtype=float)
    f_x = objective(problem, x)
    v = x.copy()
    v[i] = 0.0
    if not np.any(v):
        # i was the only support coordinate; the swap lands on a pure axis.
        return float(A[j, j] / C[j, j]) - f_x
    Av = A @ v
    Cv = C @ v
    coeffs = OneDimCoefficients(
        a=float(A[j, j]), b=float(Av[j]), c=0.5 * float(v @ Av),
        r=float(C[j, j]), s=float(Cv[j]), t=0.5 * float(v @ Cv),
    )
    try:
        best = solve_1d(coeffs).value
    except UnboundedBelow:
        # Infimum approached at infinity; its value is the ratio limit.
        best = coeffs.a / coeffs.r
    return best - f_x


def swap_row(problem, x, Ax, Cx, f_x: float, i: int, J) -> np.ndarray:
    """swap_descent(i, j) for every j in J, vectorized.

    v = x - x_i e_i enters only through rank-one corrections of the
    products Ax = A@x and Cx = C@x, so a row costs O(n) instead of O(n^2)
    per pair.
    """
    A, C = problem.A, problem.C
    xi = x[i]
    a = np.diag(A)[J]
    b = Ax[J] - xi * A[J, i]
    c = 0.5 * (float(x @ Ax) - 2.0 * xi * Ax[i] + xi * xi * A[i, i])
    r = np.diag(C)[J]
    s = Cx[J] - xi * C[J, i]
    t = 0.5 * (float(x @ Cx) - 2.0 * xi * Cx[i] + xi * xi * C[i, i])
    if t <= 0.0 or not (np.any(x[:i]) or np.any(x[i + 1:])):
        # v = 0: the support was exactly {i} and the swap lands on a pure
        # axis.  v is tested itself because t is then rounding noise of
        # either sign when C_ii x_i^2 is inexact.
        return a / r - f_x
    return _solve_1d_rowwise(a, b, c, r, s, t) - f_x


def descent_matrix(problem, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full swap-descent matrix D over support x zero-set.

    Returns (support_indices, zero_indices, D) with
    D[a, b] = swap_descent(support[a], zero[b]).
    """
    from .decomposition import objective

    x = np.asarray(x, dtype=float)
    S, Z = support_and_zero(x)
    f_x = objective(problem, x)
    Ax = problem.A @ x
    Cx = problem.C @ x
    D = np.empty((S.size, Z.size))
    for row, i in enumerate(S):
        D[row, :] = swap_row(problem, x, Ax, Cx, f_x, i, Z)
    return S, Z, D


def _solve_1d_rowwise(a, b, c: float, r, s, t: float) -> np.ndarray:
    """Vectorized unconstrained 1-D fractional minimum values.

    Candidates are the real stationary points; with no real root the value
    is the a/r limit at infinity.  Mirrors solve_1d / solve_1d_core.
    """
    pi = a * s - b * r
    theta = a * t - c * r
    iota = t * b - c * s
    disc = theta * theta - 2.0 * pi * iota
    limit = np.where(r > 0, a / np.where(r > 0, r, 1.0), np.inf)

    values = np.full(a.shape, np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sq = np.sqrt(np.maximum(disc, 0.0))
        quad = pi != 0.0
        for sign in (-1.0, 1.0):
            beta = np.where(quad, (-theta + sign * sq) / np.where(quad, pi, 1.0), 0.0)
            lin = (~quad) & (theta != 0.0)
            beta = np.where(lin, -iota / np.where(lin, theta, 1.0), beta)
            beta = np.where((~quad) & (theta == 0.0), 0.0, beta)
            den = 0.5 * r * beta * beta + s * beta + t
            num = 0.5 * a * beta * beta + b * beta + c
            # A huge root (pi near 0) overflows beta^2; divide through by it.
            far = ~(np.isfinite(den) & np.isfinite(num))
            if np.any(far):
                den = np.where(far, 0.5 * r + s / beta + t / (beta * beta), den)
                num = np.where(far, 0.5 * a + b / beta + c / (beta * beta), num)
            cand = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
            values = np.minimum(values, cand)
    values = np.where(disc < 0.0, limit, values)
    return values


def select_swapping(problem, x, k_swap: int) -> WorkingSetSelection:
    """Top-(k/2) nonoverlapping swap pairs by greatest descent."""
    if k_swap % 2 != 0 or k_swap <= 0:
        raise InvalidK(f"swap count must be positive and even, got {k_swap}")
    S, Z, D = descent_matrix(problem, x)
    pairs_needed = k_swap // 2
    if S.size < pairs_needed or Z.size < pairs_needed:
        raise InsufficientCoordinates(
            f"need {pairs_needed} support and zero coordinates, have {S.size}/{Z.size}"
        )
    flat = D.ravel()
    rows, cols = np.divmod(np.arange(flat.size), Z.size)
    # Stable order by (descent, support index, zero index).
    order = np.lexsort((Z[cols], S[rows], flat))
    used_i: set[int] = set()
    used_j: set[int] = set()
    chosen: list[tuple[int, int]] = []
    for pos in order:
        i = int(S[rows[pos]])
        j = int(Z[cols[pos]])
        if i in used_i or j in used_j:
            continue
        chosen.append((i, j))
        used_i.add(i)
        used_j.add(j)
        if len(chosen) == pairs_needed:
            break
    indices = np.array([i for i, _ in chosen] + [j for _, j in chosen], dtype=int)
    provenance = [Provenance.SWAP_SUPPORT] * pairs_needed + [Provenance.SWAP_ZERO] * pairs_needed
    return WorkingSetSelection(indices=indices, provenance=provenance)


def select_hybrid(
    problem, x, r: int, w: int, rng: np.random.Generator
) -> WorkingSetSelection:
    """w swap-selected coordinates first, then r uniform from the rest."""
    n = problem.A.shape[0]
    k = r + w
    if not 1 <= k <= n:
        raise InvalidK(f"k={k} outside [1, {n}]")
    if w > 0:
        swap = select_swapping(problem, x, w)
        indices = list(swap.indices)
        provenance = list(swap.provenance)
    else:
        indices, provenance = [], []
    if r > 0:
        remaining = np.setdiff1d(np.arange(n), np.asarray(indices, dtype=int))
        extra = np.sort(rng.choice(remaining, size=r, replace=False))
        indices.extend(int(i) for i in extra)
        provenance.extend([Provenance.RANDOM] * r)
    return WorkingSetSelection(indices=np.asarray(indices, dtype=int), provenance=provenance)
