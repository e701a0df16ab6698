"""Working-set selection: random, swapping, and hybrid strategies.

Each selector returns the working set B as an int index array: swap
supports, then swap zeros, then sorted random picks.  A coordinate's role
is its position in B.

The swapping strategy scores every (support i, zero j) pair by the exact
objective descent achievable when i leaves the support and j enters with
its optimal coefficient, then greedily takes the best nonoverlapping
pairs: each pick is the smallest score among pairs whose support and zero
coordinates are both still free, ties to the smaller support index and
then the smaller zero index, NaN scores last.  The hybrid strategy draws
its random picks from the complement of the swap picks, taken from a mask
as the sorted array of the other indices.  One batched kernel
(swap_scores) scores rows I against columns J in a single pass, from
rank-one corrections of the products A@x and C@x (problems.products,
which reads only the support columns) and the batched 1-D kernel
fractional1d.solve_1d_values; selection, polish and the block-2
certificate all score swaps with it.  swap_descent is the
explicit per-pair reference.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientCoordinates, InvalidK, UnboundedBelow
from .fractional1d import OneDimCoefficients, solve_1d, solve_1d_values
from .problems import objective, products


def support_and_zero(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x)
    return np.flatnonzero(x != 0.0), np.flatnonzero(x == 0.0)


def select_random(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct indices, sorted, uniform over all C(n, k) combinations."""
    if not 1 <= k <= n:
        raise InvalidK(f"k={k} outside [1, {n}]")
    return np.sort(rng.choice(n, size=k, replace=False))


def swap_descent(problem, x, i: int, j: int) -> float:
    """Best objective change for the swap (i out, j in); <= 0 means improvement.

    Explicit O(n^2) formula: builds v = x - x_i e_i and line-searches along
    e_j.  Reference for swap_scores / descent_matrix, not used by the solver.
    """
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


def swap_scores(problem, x, Ax, Cx, f_x: float, I, J) -> np.ndarray:
    """swap_descent(i, j) for every i in I and j in J, as an |I| x |J| matrix.

    v = x - x_i e_i enters only through rank-one corrections of the
    products Ax = A@x and Cx = C@x, so an entry costs O(1) instead of
    O(n^2).
    """
    A, C = problem.A, problem.C
    xi = x[I][:, None]
    a = np.diag(A)[J]
    b = Ax[J] - xi * A[:, I][J].T
    c = 0.5 * (float(x @ Ax) - 2.0 * xi * Ax[I][:, None] + xi * xi * A[I, I][:, None])
    r = np.diag(C)[J]
    s = Cx[J] - xi * C[:, I][J].T
    t = 0.5 * (float(x @ Cx) - 2.0 * xi * Cx[I][:, None] + xi * xi * C[I, I][:, None])
    D = solve_1d_values(a, b, c, r, s, t) - f_x
    # v = 0: the support was exactly {i} and the swap lands on a pure axis.
    # v is tested itself because t is then rounding noise of either sign
    # when C_ii x_i^2 is inexact.
    axis = (t <= 0.0) | (np.count_nonzero(x) - (xi != 0.0) == 0)
    if np.any(axis):
        D = np.where(axis, a / r - f_x, D)
    return D


def descent_matrix(problem, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full swap-descent matrix D over support x zero-set.

    Returns (support_indices, zero_indices, D) with
    D[a, b] = swap_descent(support[a], zero[b]).
    """
    x = np.asarray(x, dtype=float)
    S, Z = support_and_zero(x)
    f_x = objective(problem, x)
    D = swap_scores(problem, x, *products(problem, x), f_x, S, Z)
    return S, Z, D


def select_swapping(problem, x, k_swap: int) -> np.ndarray:
    """Top-(k/2) nonoverlapping swap pairs by greatest descent: their
    support coordinates in pair order, then their zero coordinates."""
    if k_swap % 2 != 0 or k_swap <= 0:
        raise InvalidK(f"swap count must be positive and even, got {k_swap}")
    S, Z, D = descent_matrix(problem, x)
    pairs_needed = k_swap // 2
    if S.size < pairs_needed or Z.size < pairs_needed:
        raise InsufficientCoordinates(
            f"need {pairs_needed} support and zero coordinates, have {S.size}/{Z.size}"
        )
    # Each pick is the first smallest non-NaN free entry: S and Z ascend and
    # D is row-major, so first occurrence is the (descent, support index,
    # zero index) order.  Without one, the first free entry: NaNs rank last,
    # in index order.  Used rows and columns leave the mask, not through an
    # inf sentinel, since D itself may hold +inf.
    flat = D.ravel()
    scored = ~np.isnan(flat)
    free = np.ones(D.shape, dtype=bool)
    rows, cols = [], []
    for _ in range(pairs_needed):
        cand = np.flatnonzero(free.ravel() & scored)
        if cand.size:
            pos = cand[np.argmin(flat[cand])]
        else:
            pos = np.flatnonzero(free.ravel())[0]
        row, col = divmod(int(pos), Z.size)
        rows.append(row)
        cols.append(col)
        free[row, :] = False
        free[:, col] = False
    return np.concatenate([S[rows], Z[cols]])


def select_hybrid(problem, x, r: int, w: int, rng: np.random.Generator) -> np.ndarray:
    """w swap-selected coordinates first, then r uniform from the rest, sorted."""
    n = problem.A.shape[0]
    k = r + w
    if not 1 <= k <= n:
        raise InvalidK(f"k={k} outside [1, {n}]")
    indices = select_swapping(problem, x, w) if w > 0 else np.empty(0, dtype=int)
    if r > 0:
        keep = np.ones(n, dtype=bool)
        keep[indices] = False
        extra = np.sort(rng.choice(np.flatnonzero(keep), size=r, replace=False))
        indices = np.concatenate([indices, extra])
    return indices
