"""Exact solver for the sparsity-constrained block subproblem.

Given the current iterate and a working set B, the block objective is a
ratio of quadratics in z = x_B with a proximal weight theta on the
numerator.  The cardinality budget is q = s - ||x_N||_0.  Its coefficients
are sums over T = supp(x) minus B, the only nonzeros of x_N, so assembling
a block costs O(k s + s^2), not O(n^2).  The solver enumerates supports of
size min(q, k) (support monotonicity makes the smaller sizes redundant) and
solves each restricted quadratic fractional program globally; a
one-coordinate block is the 1-D program and is solved in closed form
wherever the route's solver would return the same value up to rounding.

A support's unconstrained infimum is the smallest eigenvalue of its
bordered pencil ([[Q, p], [p', 2w]], [[R, c], [c', 2v]]) (Golub, "Some
modified matrix eigenvalue problems", SIAM Rev. 1973): the lambda_min(Z)
that solve_bisection brackets.  It bounds every solver's value on that
support from below, lower bound or not, so supports are ranked by it
(qfp.pencil_keys, batched) and only those that can win are solved, by
solve_bisection (the reference solver) or solve_coordinate_descent.  A
support the ranking prunes is never solved, so an error its solve would
raise does not surface.  A block with at most two supports is not
ranked, because the keys cost more than the solves they could save:
every support is solved, and an error in any of them surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import DegenerateDenominator, UnboundedBelow
from .fractional1d import solve_1d_core
from .qfp import QfpSubproblem, pencil_keys, solve_bisection, solve_coordinate_descent

MAX_BLOCK_SIZE = 20
# Supports per stacked eigenvalue call.  Bounds memory at the block-size
# cap, where C(20, 10) = 184,756 supports stacked at once take over 1 GB.
RANK_CHUNK = 256
# How far (relative) rounding may lift a key above its support's solved
# value; solving stops at the first key beyond the best value plus this.
RANK_BAND = 1e-9


@dataclass
class BlockSubproblem:
    qfp: QfpSubproblem
    budget: int


def build_block_subproblem(problem, x, B, theta: float) -> BlockSubproblem:
    """Assemble the block QFP coefficients for working set B at iterate x.

    Only T = supp(x) minus B enters: the fixed coordinates outside T are
    zeros, so the terms they would contribute are exact zeros, and a block
    costs O(k s + s^2) reads of A and C instead of O(n^2).  Each matrix is
    gathered once over U = B ++ T; the B x T and T x T slices are copied
    contiguous so the products round as those of separate gathers.
    """
    A, C = problem.A, problem.C
    x = np.asarray(x, dtype=float)
    B = np.asarray(B, dtype=int)
    outside = x != 0.0
    outside[B] = False
    T = np.flatnonzero(outside)
    xB = x[B]
    xT = x[T]
    k = B.size
    U = np.concatenate([B, T])
    G = A[U][:, U]
    H = C[U][:, U]

    Qbar = G[:k, :k] + theta * np.eye(k)
    pbar = np.ascontiguousarray(G[:k, k:]) @ xT - theta * xB
    wbar = 0.5 * float(xT @ np.ascontiguousarray(G[k:, k:]) @ xT) + 0.5 * theta * float(xB @ xB)
    Rbar = H[:k, :k]
    cbar = np.ascontiguousarray(H[:k, k:]) @ xT
    vbar = 0.5 * float(xT @ np.ascontiguousarray(H[k:, k:]) @ xT)
    budget = int(problem.s) - T.size
    if budget < 0:
        raise ValueError("iterate violates the sparsity budget outside the working set")
    qfp = QfpSubproblem(
        Q=Qbar, p=pbar, w=wbar, R=Rbar, c=cbar, v=vbar,
        lower_bound=problem.lower_bound,
    )
    return BlockSubproblem(qfp=qfp, budget=budget)


def solve_exact(sub: BlockSubproblem, method: str = "bisection") -> tuple[np.ndarray, float]:
    """Globally minimize the block QFP under ||z||_0 <= budget.

    Supports are solved by solve_bisection, or by solve_coordinate_descent
    with a lower bound or method="coordinate-descent", in _ranked's order;
    a one-coordinate block goes to _one_coordinate first.
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

    bisection = method == "bisection" and qfp.lower_bound is None
    if k == 1:
        closed = _one_coordinate(qfp, bisection)
        if closed is not None:
            return closed
    support, best = _ranked(qfp, q, solve_bisection if bisection else solve_coordinate_descent)
    z = np.zeros(k)
    z[support] = best.y
    return z, float(best.value)


def _one_coordinate(qfp: QfpSubproblem, bisection: bool):
    """(z, value) of a one-coordinate block with budget 1 in closed form,
    or None where the route's solver decides.

    The block is the 1-D fractional program that solve_1d_core minimizes.
    The solver decides where the denominator is not positive everywhere
    (v = 0 when x_N = 0), where the kernel raises or its point overflows
    the denominator, and, on the bisection route, where the limit Q/R at
    infinity lies below the kernel's value: solve_bisection then escapes
    towards infinity.  On the coordinate-descent route the result is
    coordinate descent's first move from y = 0, taken only if it lowers
    the value below w/v.  Coordinate descent's second sweep can still move
    by an ulp (on 81 of 3,704 1x1 supports of a pca-bounded benchmark run),
    so the two values agree to 1e-12, not bit for bit.  That is why
    _ranked solves the two 1x1 supports of a k = 2, q = 1 block with the
    route's solver, not in closed form: the closed form's points and
    values differ by ulps, which changed 49 of 100 pca-bounded
    trajectories (seeds 0-4).
    """
    Q, p, R, c, w, v = (
        float(qfp.Q[0, 0]), float(qfp.p[0]), float(qfp.R[0, 0]), float(qfp.c[0]), qfp.w, qfp.v,
    )
    if not 2.0 * v * R > c * c:
        return None
    lower = -math.inf if qfp.lower_bound is None else qfp.lower_bound
    try:
        beta, value = solve_1d_core(Q, p, w, R, c, v, lower)
    except (UnboundedBelow, DegenerateDenominator):
        return None
    if not 0.5 * R * beta * beta + c * beta + v < math.inf:
        return None
    if bisection:
        return None if Q / R < value else (np.array([beta]), value)
    if beta != 0.0 and value < w / v:
        return np.array([beta]), value
    return np.zeros(1), w / v


def _restrict(qfp: QfpSubproblem, support) -> QfpSubproblem:
    idx = np.asarray(support, dtype=int)
    return QfpSubproblem(
        Q=qfp.Q[idx][:, idx], p=qfp.p[idx], w=qfp.w,
        R=qfp.R[idx][:, idx], c=qfp.c[idx], v=qfp.v, lower_bound=qfp.lower_bound,
    )


def _ranked(qfp: QfpSubproblem, q: int, solve):
    """(support, solution) of the best size-q support, solved by solve
    (solve_bisection or solve_coordinate_descent).

    Every support is ranked by its pencil key; those the key cannot rank
    are solved first, in combination order, and ranked by their value.  A
    key is the support's unconstrained infimum, so no value solve returns
    lies below it by more than rounding; a value can lie above it, where
    bisection's boundary escape stops short of an infimum approached at
    infinity, and wherever a lower bound or a coordinate-wise minimum stops
    coordinate descent.  Supports are therefore solved in key order until
    the next key exceeds the best value found by more than RANK_BAND, and
    the first support with the smallest value wins, as in a loop over all
    supports that skips a nan value.  A block with at most two supports
    gets no keys: all its supports are solved, in combination order, so
    an error in any of them surfaces.
    """
    total = math.comb(qfp.dim, q)
    supports = np.fromiter(
        chain.from_iterable(combinations(range(qfp.dim), q)), dtype=np.intp, count=total * q,
    ).reshape(total, q)
    # On one or two supports the keys cost more than they can save (polish's
    # k = 2, q = 1 swap blocks): rank none, so that every support is solved.
    keys = np.full(total, np.nan) if total <= 2 else np.concatenate([
        _pencil_keys(qfp, supports[start:start + RANK_CHUNK])
        for start in range(0, total, RANK_CHUNK)
    ])
    solved = {}
    for i in np.flatnonzero(~np.isfinite(keys)):
        solved[i] = solve(_restrict(qfp, supports[i]))
        keys[i] = solved[i].value
    # A nan value (an overflowed solve) never wins: min(best, nan) keeps best.
    best_value = min([math.inf, *(sol.value for sol in solved.values())])
    for i in np.argsort(keys, kind="stable"):
        if keys[i] > best_value + RANK_BAND * (1.0 + abs(best_value)):
            break
        if i not in solved:
            solved[i] = solve(_restrict(qfp, supports[i]))
            best_value = min(best_value, solved[i].value)
    # The first of equal values wins; nan ranks last.
    best = min(sorted(solved), key=lambda i: (math.isnan(solved[i].value), solved[i].value))
    return supports[best], solved[best]


def _pencil_keys(qfp: QfpSubproblem, supports: np.ndarray) -> np.ndarray:
    """qfp.pencil_keys of each support's principal sub-pencil."""
    S, T = supports[:, :, None], supports[:, None, :]
    return pencil_keys(qfp.Q[S, T], qfp.p[supports], qfp.w, qfp.R[S, T], qfp.c[supports], qfp.v)
