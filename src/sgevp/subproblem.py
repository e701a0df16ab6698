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
every support by that eigenvalue, computed batched, and re-solves only the
best-ranked ones with solve_bisection, which stays the reference solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import DegenerateDenominator
from .qfp import _GAMMA_SLACK, QfpSubproblem, solve_bisection, solve_coordinate_descent

MAX_BLOCK_SIZE = 20
# Supports per stacked eigenvalue call.  Bounds memory at the block-size
# cap, where C(20, 10) = 184,756 supports stacked at once take over 1 GB.
RANK_CHUNK = 256
# How far (relative) rounding may lift a key above its support's bisection
# value; re-solving stops at the first key beyond the best value plus this.
RANK_BAND = 1e-9
# Whitening by the bordered Cholesky factor divides by sqrt(gamma); below
# this relative floor (and above the gamma == 0 slack) it loses too many
# digits to rank, and the support goes to solve_bisection.
GAMMA_FLOOR = 1e-8


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
    """Smallest eigenvalue of each support's bordered pencil, or nan where
    it cannot rank the support.

    With R_S = L L' and t = L^{-1} c_S, the border's Schur complement is
    gamma = 2v - |t|^2.  For gamma > 0 the pencil whitens to solve_bisection's
    Z = [[O, g/sqrt(gamma)], [g'/sqrt(gamma), delta/gamma]], with
    O = L^{-1} Q_S L^{-T} and g = L^{-1} (p_S - Q_S R_S^{-1} c_S).  For
    gamma == 0 (x_N = 0 in the block) the infimum is lambda_min(O - g g'/delta),
    the root of bisection's secular equation.  A hard case (border component
    of the eigenvector near 0) needs no special handling: its eigenvalue is
    the infimum that bisection's boundary escape reaches.
    """
    Q = qfp.Q[supports[:, :, None], supports[:, None, :]]
    p = qfp.p[supports][:, :, None]
    c = qfp.c[supports][:, :, None]
    two_v = 2.0 * qfp.v
    slack = _GAMMA_SLACK * (1.0 + abs(two_v))
    keys = np.full(len(supports), np.nan)
    # Overflow or an invalid value only makes a key non-finite, which sends
    # its support to solve_bisection.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            L_inv = np.linalg.inv(
                np.linalg.cholesky(qfp.R[supports[:, :, None], supports[:, None, :]])
            )
        except np.linalg.LinAlgError:
            return keys
        L_inv_T = L_inv.transpose(0, 2, 1)
        t = L_inv @ c
        Rinv_c = L_inv_T @ t
        Q_Rinv_c = Q @ Rinv_c
        gamma = two_v - np.sum(t * t, axis=(1, 2))
        delta = np.sum(Rinv_c * (Q_Rinv_c - 2.0 * p), axis=(1, 2)) + 2.0 * qfp.w
        O = L_inv @ Q @ L_inv_T
        g = L_inv @ (p - Q_Rinv_c)

        bordered = gamma > GAMMA_FLOOR * (1.0 + abs(two_v))
        if np.any(bordered):
            m = supports.shape[1]
            root = np.sqrt(gamma[bordered])[:, None, None]
            Z = np.empty((int(bordered.sum()), m + 1, m + 1))
            Z[:, :m, :m] = O[bordered]
            Z[:, :m, m:] = g[bordered] / root
            Z[:, m:, :m] = Z[:, :m, m:].transpose(0, 2, 1)
            Z[:, m, m] = delta[bordered] / gamma[bordered]
            keys[bordered] = _smallest_eigenvalues(Z)

        # gamma == 0 with delta <= 0 has no finite infimum, and with delta
        # near 0 (the homogeneous ratio) bisection takes its eigenvector
        # route; both go to solve_bisection.
        tiny = 1e-13 * (1.0 + np.sqrt(np.sum(O * O, axis=(1, 2))))
        zero_gamma = (np.abs(gamma) <= slack) & (delta > np.maximum(slack, tiny))
        if np.any(zero_gamma):
            g0 = g[zero_gamma]
            keys[zero_gamma] = _smallest_eigenvalues(
                O[zero_gamma] - g0 * g0.transpose(0, 2, 1) / delta[zero_gamma][:, None, None]
            )
    return keys


def _smallest_eigenvalues(stack: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(stack)[:, 0]
    except np.linalg.LinAlgError:
        return np.full(len(stack), np.nan)
