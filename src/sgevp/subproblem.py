"""Exact solver for the sparsity-constrained block subproblem.

Given the current iterate and a working set B, the block objective is a
ratio of quadratics in z = x_B with a proximal weight theta on the
numerator.  The cardinality budget is q = s - ||x_N||_0.  The solver
enumerates supports of size min(q, k) (support monotonicity makes the
smaller sizes redundant) and solves each restricted quadratic fractional
program globally.

Without a lower bound, a support's global minimum is the smallest
eigenvalue of its bordered pencil ([[Q, p], [p', 2w]], [[R, c], [c', 2v]])
(Golub, "Some modified matrix eigenvalue problems", SIAM Rev. 1973): the
lambda_min(Z) that solve_bisection brackets.  The bisection route ranks
every support by that eigenvalue (qfp.pencil_keys, batched) and re-solves
only the best-ranked ones with solve_bisection, the reference solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import DegenerateDenominator
from .qfp import QfpSubproblem, pencil_keys, solve_bisection, solve_coordinate_descent

MAX_BLOCK_SIZE = 20
# Supports per stacked eigenvalue call.  Bounds memory at the block-size
# cap, where C(20, 10) = 184,756 supports stacked at once take over 1 GB.
RANK_CHUNK = 256
# How far (relative) rounding may lift a key above its support's bisection
# value; re-solving stops at the first key beyond the best value plus this.
RANK_BAND = 1e-9


@dataclass
class BlockSubproblem:
    qfp: QfpSubproblem
    budget: int


def build_block_subproblem(problem, x, B, theta: float) -> BlockSubproblem:
    """Assemble the block QFP coefficients for working set B at iterate x."""
    A, C = problem.A, problem.C
    x = np.asarray(x, dtype=float)
    B = np.asarray(B, dtype=int)
    n = A.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[B] = True
    N = np.flatnonzero(~mask)
    xB = x[B]
    xN = x[N]
    k = B.size

    Qbar = A[np.ix_(B, B)] + theta * np.eye(k)
    pbar = A[np.ix_(B, N)] @ xN - theta * xB
    wbar = 0.5 * float(xN @ A[np.ix_(N, N)] @ xN) + 0.5 * theta * float(xB @ xB)
    Rbar = C[np.ix_(B, B)]
    cbar = C[np.ix_(B, N)] @ xN
    vbar = 0.5 * float(xN @ C[np.ix_(N, N)] @ xN)
    budget = int(problem.s) - int(np.count_nonzero(xN))
    if budget < 0:
        raise ValueError("iterate violates the sparsity budget outside the working set")
    qfp = QfpSubproblem(
        Q=Qbar, p=pbar, w=wbar, R=Rbar, c=cbar, v=vbar,
        lower_bound=problem.lower_bound,
    )
    return BlockSubproblem(qfp=qfp, budget=budget)


def solve_exact(sub: BlockSubproblem, method: str = "bisection") -> tuple[np.ndarray, float]:
    """Globally minimize the block QFP under ||z||_0 <= budget.

    Returns (z, value); entries off the winning support are exact zeros.
    Among supports of equal value the first in combination order wins.
    """
    qfp = sub.qfp
    k = qfp.dim
    if k > MAX_BLOCK_SIZE:
        raise ValueError(f"block size {k} exceeds the cap of {MAX_BLOCK_SIZE}")
    q = min(sub.budget, k)
    if q == 0:
        if qfp.v <= 0:
            raise DegenerateDenominator("empty budget with nonpositive constant denominator")
        return np.zeros(k), qfp.w / qfp.v

    if method == "bisection" and qfp.lower_bound is None:
        best_support, best = _ranked_bisection(qfp, q)
        best_value, best_y = best.value, best.y
    else:
        best_value = np.inf
        best_support = best_y = None
        for support in combinations(range(k), q):
            sol = solve_coordinate_descent(_restrict(qfp, support))
            if sol.value < best_value:
                best_value, best_support, best_y = sol.value, support, sol.y

    assert best_support is not None and best_y is not None
    z = np.zeros(k)
    z[list(best_support)] = best_y
    return z, float(best_value)


def _restrict(qfp: QfpSubproblem, support) -> QfpSubproblem:
    idx = np.asarray(support, dtype=int)
    return QfpSubproblem(
        Q=qfp.Q[np.ix_(idx, idx)],
        p=qfp.p[idx],
        w=qfp.w,
        R=qfp.R[np.ix_(idx, idx)],
        c=qfp.c[idx],
        v=qfp.v,
        lower_bound=qfp.lower_bound,
    )


def _ranked_bisection(qfp: QfpSubproblem, q: int):
    """(support, solve_bisection solution) of the best size-q support.

    Every support is ranked by its pencil key; those the key cannot rank
    are solved by bisection in combination order and ranked by that value.
    A key is the support's infimum, so its bisection value is never below
    it by more than rounding; it can lie above it, where bisection's
    boundary escape stops short of an infimum approached at infinity.
    Bisection therefore re-solves supports in key order until the next key
    exceeds the best value found by more than RANK_BAND, and the first
    support with the smallest bisection value wins, as in a loop over all
    supports.  A lone support is solved directly.
    """
    total = math.comb(qfp.dim, q)
    supports = np.fromiter(
        chain.from_iterable(combinations(range(qfp.dim), q)), dtype=np.intp, count=total * q,
    ).reshape(total, q)
    if total == 1:
        return supports[0], solve_bisection(_restrict(qfp, supports[0]))
    keys = np.concatenate([
        _pencil_keys(qfp, supports[start:start + RANK_CHUNK])
        for start in range(0, total, RANK_CHUNK)
    ])
    solved = {}
    for i in np.flatnonzero(~np.isfinite(keys)):
        solved[i] = solve_bisection(_restrict(qfp, supports[i]))
        keys[i] = solved[i].value
    best_value = min((sol.value for sol in solved.values()), default=math.inf)
    for i in np.argsort(keys, kind="stable"):
        if keys[i] > best_value + RANK_BAND * (1.0 + abs(best_value)):
            break
        if i not in solved:
            solved[i] = solve_bisection(_restrict(qfp, supports[i]))
            best_value = min(best_value, solved[i].value)
    best = min(sorted(solved), key=lambda i: solved[i].value)  # first of equal values
    return supports[best], solved[best]


def _pencil_keys(qfp: QfpSubproblem, supports: np.ndarray) -> np.ndarray:
    """qfp.pencil_keys of each support's principal sub-pencil."""
    S, T = supports[:, :, None], supports[:, None, :]
    return pencil_keys(qfp.Q[S, T], qfp.p[supports], qfp.w, qfp.R[S, T], qfp.c[supports], qfp.v)
