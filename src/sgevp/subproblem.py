"""Exact solver for the sparsity-constrained block subproblem.

Given the current iterate and a working set B, the block objective is a
ratio of quadratics in z = x_B with a proximal weight theta on the
numerator.  The cardinality budget is q = s - ||x_N||_0.  Its coefficients
are sums over T = supp(x) minus B, the only nonzeros of x_N, so assembling
a block costs O(k s + s^2), not O(n^2).  The solver enumerates supports of
size min(q, k) (support monotonicity makes the smaller sizes redundant) and
solves each restricted quadratic fractional program globally.  A
one-coordinate support, a whole block or one of many, is the 1-D program,
solved in closed form by line_solution wherever the route's solver would
return the same value up to rounding (_one_coordinate); polish's lines
(decomposition._line_move) are solved by the same function.

Each support of q >= 2 coordinates gets one lower bound on the value its
solver returns, all before any support is solved; the supports are solved
in bound order, and only those that can win (_ranked).  The bound is one
of two:

- The pencil key: a support's unconstrained infimum, the smallest
  eigenvalue of its bordered pencil ([[Q, p], [p', 2w]], [[R, c],
  [c', 2v]]) (Golub, "Some modified matrix eigenvalue problems", SIAM Rev.
  1973), the lambda_min(Z) that solve_bisection brackets (qfp.pencil_keys,
  batched; on the bisection route qfp.pencil_points, which reads each key
  with its eigenvector and the point it gives).  It bounds every solver's
  value from below, lower bound or not, and ranks the bisection route and
  coordinate descent without a lower bound or with lower_bound < 0 (there
  a face fixes coordinates at the bound, so a block has 3^k faces).
- With lower_bound == 0, the infimum over y >= 0 on the support: the
  smallest infimum over its faces, the sub-supports with every other entry
  at 0, empty face included.  A face's infimum is its smallest critical
  value with y >= 0 or its smallest limit along a direction d >= 0 at
  infinity, both eigenvalues of the face's whitened pencils
  (qfp.face_infima).  It lies far closer to coordinate descent's value
  than the key, so fewer supports are solved.  A support of q coordinates
  has 2^q faces, so only supports of at most 8 (one stack of RANK_CHUNK
  faces) are ranked this way; larger ones keep the key.

A bound only ranks: every support that can win is still solved.  On
coordinate descent the route's solver solves it, so the winner and its
value are those of a loop over all supports.  On the bisection route a
support with a finite pencil key is solved from that key's eigenpair,
computed with the key: the bottom eigenvector of its Z gives the point
where the ratio takes the key as its value, the root of J that
solve_bisection would bracket and reach at its lower end
(_keyed_solution).  Its value can differ from
solve_bisection's by rounding, so the winner is a solve_bisection loop's
wherever no other support's value lies within RANK_BAND of it.
solve_bisection, the reference solver, solves the rest: unkeyed supports
and those whose eigenpair gives no point (hard cases, g = 0), so their
errors and its boundary escape still surface.  A support the ranking
prunes is never solved, so an error its solve would raise does not
surface.  A block with one-coordinate supports or with a single support
gets no bounds: every support is solved, and an error in any of them
surfaces.

On the key-ranked routes, a block of more than SCREEN_ABOVE supports is
screened before any key is computed (_screen), in the spirit of the
spectral bounds of Moghaddam, Weiss and Avidan ("Spectral bounds for
sparse PCA", NIPS 2006) but with one threshold instead of a search tree.
A candidate support gives a threshold tau just above its key; by
Sylvester's law of inertia a support's key exceeds t exactly where
M_S - t N_S is positive definite, one batched Cholesky pivot recurrence
per stack of supports (qfp.positive_definite), far cheaper than their
eigenvalues.  Supports that pass are ruled out, and only the rest are
keyed.  Where the loop reaches tau without stopping, the ruled-out
supports are keyed after all, so the supports solved, their order and
the result stay those of full enumeration, bit for bit.  The candidate is
keyed once, by the screen (with its point on the bisection route), and
that key is reused.  The screen runs
only where every support's key would be finite (qfp.pencil_direction),
so that no support that full enumeration solves first, unranked, is
ruled out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import DegenerateDenominator, UnboundedBelow
from .fractional1d import solve_1d_core
from .qfp import (
    Certificate,
    QfpSolution,
    QfpSubproblem,
    face_infima,
    pencil_direction,
    pencil_keys,
    pencil_points,
    positive_definite,
    solve_bisection,
    solve_coordinate_descent,
)

MAX_BLOCK_SIZE = 20
# Supports per stacked eigenvalue call.  Bounds memory at the block-size
# cap, where C(20, 10) = 184,756 supports stacked at once take over 1 GB.
RANK_CHUNK = 256
# How far (relative) rounding may lift a key above its support's solved
# value; solving stops at the first key beyond the best value plus this.
RANK_BAND = 1e-9
# Key-ranked blocks of more supports than this are screened (_screen)
# before any key is computed; smaller ones key every support.  Measured on
# the key-ranked blocks of one seed-1 pass of pca-enum, pca-large and
# fda-cca and on their leading k = 7..12 sub-blocks (median of 5-9 timed
# _ranked calls each, screen on and off interleaved, 2-vCPU host): the
# screened time over the full one reads 1.05 at 80-99 supports, 0.92 at
# 120-139, 0.78 at 220 (k = 12, q = 3) and 0.28-0.46 from 495 up.
SCREEN_ABOVE = 128
# Face lattices kept, one per block shape (k, q); a run keys at most seven
# shapes (one k, q = 2..8).  The largest, k = 20 and q = 8, holds about
# 10 MB (int32 child positions, int8 coordinates).
FACE_LATTICES = 8


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


def solve_exact(
    sub: BlockSubproblem, method: str = "bisection", tally: list[int] | None = None,
) -> tuple[np.ndarray, float]:
    """Globally minimize the block QFP under ||z||_0 <= budget.

    Supports are solved by solve_bisection, or by solve_coordinate_descent
    with a lower bound or method="coordinate-descent", in _ranked's order.
    Returns (z, value); entries off the winning support are exact zeros.
    Among supports of equal value the first in combination order wins.
    tally, a list [enumerated, keyed, solved], gains this block's supports
    of size min(budget, k), the bounds computed for them (pencil keys and
    face infima) and the supports solved (by the route's solver or in
    closed form; the empty support's w/v counts as one).
    """
    qfp = sub.qfp
    k = qfp.dim
    if k > MAX_BLOCK_SIZE:
        raise ValueError(f"block size {k} exceeds the cap of {MAX_BLOCK_SIZE}")
    q = min(sub.budget, k)
    if q == 0:
        if qfp.v <= 0:
            raise DegenerateDenominator("empty budget with nonpositive constant denominator")
        _count(tally, 1, 0, 1)
        return np.zeros(k), qfp.w / qfp.v

    bisection = method == "bisection" and qfp.lower_bound is None
    solve = solve_bisection if bisection else solve_coordinate_descent
    support, best, keyed, solved = _ranked(qfp, q, solve)
    _count(tally, math.comb(k, q), keyed, solved)
    z = np.zeros(k)
    z[support] = best.y
    return z, float(best.value)


def _count(tally, *counts) -> None:
    if tally is not None:
        for i, count in enumerate(counts):
            tally[i] += count


def line_solution(a, b, c, r, s, t, lower, offset, lb, zero, bisection):
    """(z, value) of the 1-D program (a/2 beta^2 + b beta + c) /
    (r/2 beta^2 + s beta + t), beta >= lower, on the line x_m = offset +
    beta: the one-coordinate rules, stated here only.  solve_1d_core gives
    (beta, value), and z = max(offset + beta, lb).  None, where the route's
    solver must decide: the denominator is not positive on the whole line
    (t = v = 0 where x_N = 0), the kernel raises or its point overflows the
    denominator, or, on the bisection route, the limit a/r at infinity
    lies below value (solve_bisection escapes towards it).  On coordinate
    descent x_m stays 0, with value zero, unless z is nonzero and beats
    it: coordinate descent's first move, which its full solve can still
    shift by an ulp.
    """
    if not 2.0 * t * r > s * s:
        return None
    try:
        beta, value = solve_1d_core(a, b, c, r, s, t, lower)
    except (UnboundedBelow, DegenerateDenominator):
        return None
    if not 0.5 * r * beta * beta + s * beta + t < math.inf:
        return None
    z = max(offset + beta, lb)
    if bisection:
        return None if a / r < value else (z, value)
    return (z, value) if z != 0.0 and value < zero else (0.0, zero)


def _one_coordinate(qfp: QfpSubproblem, i, solve) -> QfpSolution:
    """solve (solve_bisection or solve_coordinate_descent) of the support
    {i} of a block: line_solution on the 1-D program read from the block in
    place, or, where it defers, solve on the support copied out."""
    lower = -math.inf if qfp.lower_bound is None else qfp.lower_bound
    bisection = solve is solve_bisection
    line = line_solution(
        float(qfp.Q[i, i]), float(qfp.p[i]), qfp.w, float(qfp.R[i, i]), float(qfp.c[i]), qfp.v,
        lower, 0.0, lower, qfp.w / qfp.v if qfp.v else math.nan, bisection,
    )
    if line is None:
        return solve(_restrict(qfp, [i]))
    z, value = line
    return QfpSolution(
        y=np.array([z]), value=value, alpha_star=value if bisection else None, iterations=0,
        certificate=Certificate.BISECTION_ROOT if bisection else Certificate.COORDINATE_WISE_MIN,
    )


def _restrict(qfp: QfpSubproblem, support) -> QfpSubproblem:
    idx = np.asarray(support, dtype=int)
    return QfpSubproblem(
        Q=qfp.Q[idx][:, idx], p=qfp.p[idx], w=qfp.w,
        R=qfp.R[idx][:, idx], c=qfp.c[idx], v=qfp.v, lower_bound=qfp.lower_bound,
    )


def _ranked(qfp: QfpSubproblem, q: int, solve):
    """(support, solution, keyed, solved) of the best size-q support,
    solved by solve (solve_bisection or solve_coordinate_descent), by
    _one_coordinate where q = 1, or, on the bisection route, by
    _keyed_solution where the support has a finite pencil key; keyed
    counts the bounds computed, solved the supports solved.

    With q >= 2 and more than one support, every support gets one bound, a
    lower bound on the value solve returns there, before any support is
    solved: with lower_bound == 0 and q <= 8 the infimum over y >= 0, the
    smallest face infimum (_orthant_bounds); otherwise the pencil key, the
    support's unconstrained infimum.  Supports without a finite bound are
    solved first, in combination order; the rest in bound order until the
    next bound exceeds the best value found by more than RANK_BAND.  The
    first support with the smallest value wins, as in a loop over all
    supports that skips a nan value: a pruned support's value lies above
    its bound, and that bound above the winner's value.  Any lower bound
    gives that winner; a tighter one solves fewer supports.  On the
    bisection route a keyed support's solution is read from its key's
    eigenpair (_keyed_solution), whose value can differ from
    solve_bisection's on the support by rounding; there the winner is
    that of a solve_bisection loop wherever no other support's value lies
    within RANK_BAND of it, and its value at most the loop's plus the band.

    A value can lie above its key: where bisection's boundary escape stops
    short of an infimum approached at infinity, and wherever a lower bound
    or a coordinate-wise minimum stops coordinate descent.  One-coordinate
    supports, each the 1-D program in closed form, and a lone support get
    no bounds: all supports are solved, so an error in any of them surfaces.

    On the key-ranked routes a block of more than SCREEN_ABOVE supports is
    screened first (_screen): every support whose key provably lies above
    a threshold tau is ruled out before any key is computed, and only the
    live rest is keyed and enters the loop, in the same (key, index) order.
    Ruled-out supports would come after every live support with a key up
    to tau, so where the loop stops with best + band(best) < tau, before a
    key above tau, the full loop would have stopped there too and solved
    the same supports.  Otherwise the ruled-out supports are keyed then
    and the loop goes on over every unsolved support in (key, index)
    order, as the full loop would.  The screen's candidate is keyed once,
    by the screen, and its key reused.

    The coordinate-descent routes key supports by qfp.pencil_keys.  The
    bisection route keys them by qfp.pencil_points instead, which reads
    each key with its eigenvector and the point that eigenpair gives
    (_pencil_points), the candidate included, so that each keyed support's
    sub-pencil is whitened and eigen-solved once and a solved support's
    point is at hand.
    """
    supports = _supports(qfp.dim, q)
    total = len(supports)
    tau, keyed, points = math.inf, 0, {}
    bisection = solve is solve_bisection

    def key(index):
        """Key the supports at index, with their points on the bisection route."""
        if bisection:
            bounds[index], Y = _pencil_points(qfp, supports[index])
            points.update(zip(index.tolist(), Y))
        else:
            bounds[index] = _pencil_keys(qfp, supports[index])
        return index.size

    if q == 1 or total == 1:
        bounds, order = np.full(total, -math.inf), np.arange(total)
    # A support has 2^q faces; beyond one stack of them (q > 8) its faces
    # cost more than its coordinate-descent solve.  With lower_bound < 0 a
    # face fixes coordinates at the bound, and a block has 3^k faces.
    elif qfp.lower_bound == 0.0 and 1 << q <= RANK_CHUNK:
        bounds, keyed = _orthant_bounds(qfp, supports), total
        order = _bound_order(bounds, np.arange(total))
    else:
        screen = _screen(qfp, supports, bisection) if total > SCREEN_ABOVE else None
        bounds, order = np.full(total, -math.inf), np.arange(total)
        rest = order
        if screen is not None:
            # The screen has keyed its candidate (with its point on the
            # bisection route); key the rest of the live supports.
            tau, order, candidate, lam, point = screen
            bounds[candidate], points[candidate], keyed = lam, point, 1
            rest = order[order != candidate]
        if rest.size:
            keyed += key(rest)
        order = _bound_order(bounds, order)
    solved = {}
    best_value = math.inf
    while True:
        for i in order:
            if bounds[i] > min(_banded(best_value), tau):
                break
            if q == 1:
                solved[i] = _one_coordinate(qfp, supports[i, 0], solve)
            elif bisection and math.isfinite(bounds[i]):
                solved[i] = _keyed_solution(qfp, supports[i], float(bounds[i]), points[i])
            else:
                solved[i] = solve(_restrict(qfp, supports[i]))
            # A nan value (an overflowed solve) never wins: min(best, nan) keeps best.
            best_value = min(best_value, solved[i].value)
        if tau == math.inf or _banded(best_value) < tau:
            break
        # The loop reached tau: key the ruled-out supports (those not in the
        # live order) and go on over every unsolved support.
        ruled_out = np.ones(total, dtype=bool)
        ruled_out[order] = False
        keyed += key(np.flatnonzero(ruled_out))
        unsolved = np.ones(total, dtype=bool)
        unsolved[list(solved)] = False
        tau, order = math.inf, _bound_order(bounds, np.flatnonzero(unsolved))
    # The first of equal values wins; nan ranks last.
    best = min(sorted(solved), key=lambda i: (math.isnan(solved[i].value), solved[i].value))
    return supports[best], solved[best], keyed, len(solved)


def _supports(k: int, q: int) -> np.ndarray:
    """Every support of q of k coordinates, as rows of indices in
    combination order."""
    total = math.comb(k, q)
    return np.fromiter(
        chain.from_iterable(combinations(range(k), q)), dtype=np.intp, count=total * q,
    ).reshape(total, q)


def _banded(value: float) -> float:
    """value plus the band RANK_BAND (1 + |value|) that rounding may lift a
    key above its support's solved value."""
    return value + RANK_BAND * (1.0 + abs(value))


def _bound_order(bounds: np.ndarray, index: np.ndarray) -> np.ndarray:
    """index (ascending) sorted by bounds, ties in index order; a bound that
    is not finite becomes -inf, so its support is solved first and never
    pruned."""
    bounds[index[~np.isfinite(bounds[index])]] = -math.inf
    return index[np.argsort(bounds[index], kind="stable")]


def _screen(qfp: QfpSubproblem, supports: np.ndarray, bisection: bool = False):
    """(tau, live, candidate, key, y): the supports (rows of indices, in
    combination order) whose pencil keys may lie at or below tau, as
    ascending indices into supports, then the candidate's index into
    supports, its key and, on the bisection route, its point (_pencil_points;
    None elsewhere, where the key is _pencil_keys'); None where the block is
    not screened.

    The candidate is the q coordinates with the largest |entry| of the
    bottom generalized eigenvector of the block's bordered pencil (M, N)
    (qfp.pencil_direction, None unless every support's key would be
    finite), and tau = lambda_c + 2 RANK_BAND (1 + |lambda_c|) for the
    candidate's key lambda_c.  By Sylvester's law of inertia every
    eigenvalue of a support's sub-pencil (M_S, N_S) exceeds t exactly where
    M_S - t N_S is positive definite.  The border row and column are in
    every sub-pencil, so they are eliminated once from M - t N, and each
    support's test is a principal submatrix of that Schur complement,
    gathered and tested per RANK_CHUNK stack (qfp.positive_definite).  The
    test runs at t = tau + RANK_BAND (1 + |tau|), a margin for rounding of
    the size the ranking already allows a key, so that a ruled-out
    support's key lies above tau.  Supports that fail the test, or whose
    pivots are not finite, stay live; the candidate always does.
    """
    direction = pencil_direction(qfp)
    if direction is None:
        return None
    q = supports.shape[1]
    candidate = np.sort(np.argsort(-np.abs(direction), kind="stable")[:q])
    if bisection:
        keys, Y = _pencil_points(qfp, candidate[None])
        lam, y = float(keys[0]), Y[0]
    else:
        lam, y = float(_pencil_keys(qfp, candidate[None])[0]), None
    if not math.isfinite(lam):
        return None
    tau = lam + 2.0 * RANK_BAND * (1.0 + abs(lam))
    t = _banded(tau)
    pivot = 2.0 * qfp.w - t * 2.0 * qfp.v
    if not 0.0 < pivot < math.inf:
        return None  # no sub-pencil passes
    border = qfp.p - t * qfp.c
    schur = qfp.Q - t * qfp.R - border[:, None] * (border / pivot)[None, :]
    live = np.ones(len(supports), dtype=bool)
    for start in range(0, len(supports), RANK_CHUNK):
        chunk = supports[start:start + RANK_CHUNK]
        live[start:start + RANK_CHUNK] = ~positive_definite(schur[chunk[:, :, None], chunk[:, None, :]])
    index = int(np.flatnonzero((supports == candidate).all(axis=1))[0])
    live[index] = True
    return tau, np.flatnonzero(live), index, lam, y


def _pencil_keys(qfp: QfpSubproblem, supports: np.ndarray) -> np.ndarray:
    """qfp.pencil_keys of each support's principal sub-pencil, computed per
    RANK_CHUNK stack."""
    keys = np.empty(len(supports))
    for rows, stack in _sub_pencils(qfp, supports):
        keys[rows] = pencil_keys(*stack)
    return keys


def _pencil_points(qfp: QfpSubproblem, supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(keys, Y): qfp.pencil_points of each support's principal sub-pencil,
    computed per RANK_CHUNK stack: its key, read by eigh, and the point its
    bottom eigenpair gives (a row of nan where that does not resolve)."""
    keys, Y = np.empty(len(supports)), np.empty(supports.shape)
    for rows, stack in _sub_pencils(qfp, supports):
        keys[rows], Y[rows] = pencil_points(*stack)
    return keys, Y


def _sub_pencils(qfp: QfpSubproblem, supports: np.ndarray):
    """(rows, (Q, p, w, R, c, v)) for each RANK_CHUNK stack of supports
    (rows a slice of supports): the stack of their principal sub-QFPs."""
    for start in range(0, len(supports), RANK_CHUNK):
        rows = slice(start, start + RANK_CHUNK)
        chunk = supports[rows]
        S, T = chunk[:, :, None], chunk[:, None, :]
        yield rows, (qfp.Q[S, T], qfp.p[chunk], qfp.w, qfp.R[S, T], qfp.c[chunk], qfp.v)


def _keyed_solution(qfp: QfpSubproblem, support, key: float, y: np.ndarray) -> QfpSolution:
    """solve_bisection's solution of a keyed support, read from the bottom
    eigenpair of its sub-pencil where that resolves to a point.

    y is the support's point from _pencil_points, with key its key.  The
    value is the restricted QFP's numerator over its denominator at y, as
    solve_bisection computes it there; alpha_star is the key and the
    certificate BOUNDARY_LOWER: the root of J lies at solve_bisection's
    lower bracket lambda_min(Z) (where gamma == 0, at lambda_min(O - g
    g'/delta), the smallest value the root can take).  Where y does not
    resolve (a hard case, g == 0, a failed factorization) or its
    denominator or value is not finite and positive, solve_bisection
    solves the support, so its errors and its boundary escape surface.
    """
    if np.isfinite(y).all():
        # QfpSubproblem.numerator and denominator of the restricted QFP,
        # whose Q and R, principal submatrices of symmetric ones, are
        # symmetric already.
        S, T = support[:, None], support[None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            num = float(0.5 * y @ qfp.Q[S, T] @ y + qfp.p[support] @ y + qfp.w)
            den = float(0.5 * y @ qfp.R[S, T] @ y + qfp.c[support] @ y + qfp.v)
        if 0.0 < den < math.inf and math.isfinite(num):
            return QfpSolution(
                y=y, value=num / den, alpha_star=key, iterations=0,
                certificate=Certificate.BOUNDARY_LOWER,
            )
    return solve_bisection(_restrict(qfp, support))


def _orthant_bounds(qfp: QfpSubproblem, supports: np.ndarray) -> np.ndarray:
    """The infimum over y >= 0 on each support (rows of indices) of a block
    with lower_bound == 0, or -inf where a face cannot be trusted.

    It is the smallest infimum over y > 0 on the support's faces, the
    sub-supports, empty face included.  The empty face is the point y = 0,
    with value w/v; every other face, one coordinate or more, is computed
    stacked per size (qfp.face_infima) over the face lattice of the
    block's shape (_face_lattice).  A face that cannot be trusted reads
    -inf, which leaves its supports unranked: _ranked solves them first.
    The smallest face infimum under each face is filled size by size from
    the faces one smaller, from the empty face up.
    """
    k, q = qfp.dim, supports.shape[1]
    w, v = qfp.w, qfp.v
    # y = 0 is a point only where v > 0; with v <= 0 the ratio tends to +inf
    # towards y = 0 if w > 0 and cannot be bounded otherwise.
    empty = w / v if v > 0.0 else (math.inf if w > 0.0 else -math.inf)
    masks, lattice = _face_lattice(k, q)
    values = np.array([empty])
    for children, faces in lattice:
        below = values[children].min(axis=1)
        infima = []
        for start in range(0, len(faces), RANK_CHUNK):
            chunk = faces[start:start + RANK_CHUNK]
            S, T = chunk[:, :, None], chunk[:, None, :]
            infima.append(
                face_infima(qfp.Q[S, T], qfp.p[chunk], w, qfp.R[S, T], qfp.c[chunk], v)
            )
        values = np.minimum(np.concatenate(infima), below)
    return values[np.searchsorted(masks, (1 << supports).sum(axis=1))]


@functools.lru_cache(maxsize=FACE_LATTICES)
def _face_lattice(k: int, q: int):
    """(masks, lattice): the faces of the size-q supports of a block of k
    coordinates, which depend on (k, q) only, built once per shape.

    masks is the sorted array of the supports' bitmasks.  lattice holds,
    for each face size from 1 to q, (children, faces): for each face of
    that size, in bitmask order, the positions of its drop-one faces among
    the faces one smaller (the empty face alone below size 1) and its
    coordinates.  Memory scales with the faces of sizes 1..q, at most
    C(k, size) of a size, not with the 2^k masks; the arrays are read-only.
    """
    bits = 1 << np.arange(k)
    levels, masks = [], np.unique(bits[_supports(k, q)].sum(axis=1))
    for size in range(q, 0, -1):
        levels.append(masks)
        masks = np.unique(_drop_one(masks, bits, size))
    lattice = []
    for size, upper in enumerate(reversed(levels), start=1):
        children = np.searchsorted(masks, _drop_one(upper, bits, size)).astype(np.int32)
        faces = np.empty((upper.size, size), dtype=np.int8)
        for start in range(0, upper.size, RANK_CHUNK):
            chunk = upper[start:start + RANK_CHUNK, None] & bits
            faces[start:start + RANK_CHUNK] = np.nonzero(chunk)[1].reshape(-1, size)
        for array in (children, faces):
            array.flags.writeable = False
        lattice.append((children, faces))
        masks = upper
    masks.flags.writeable = False
    return masks, tuple(lattice)


def _drop_one(masks: np.ndarray, bits: np.ndarray, size: int) -> np.ndarray:
    """(len(masks), size): each mask, of size set bits, with one bit cleared."""
    out = np.empty((masks.size, size), dtype=masks.dtype)
    for start in range(0, masks.size, RANK_CHUNK):
        chunk = masks[start:start + RANK_CHUNK, None]
        out[start:start + RANK_CHUNK] = (chunk ^ bits)[(chunk & bits) != 0].reshape(-1, size)
    return out

