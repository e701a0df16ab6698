"""Global solvers for the m-variable quadratic fractional program.

The problem is  min_y  L(y) = (y'Qy/2 + p'y + w) / (y'Ry/2 + c'y + v)
with R positive definite, optionally with an elementwise lower bound on y.

Two routes:

* ``solve_bisection`` -- globally optimal for the unconstrained case.  With
  the Cholesky factor R = L L', the substitution u = L'y + L^{-1}c turns the
  objective into (u'Ou/2 + u'g + delta/2) / (|u|^2/2 + gamma/2), and the
  optimal value is the unique root of the monotone parametric function
  J(alpha) on [lambda_min(Z), lambda_min(O)).
* ``solve_coordinate_descent`` -- cyclic exact 1-D minimization with
  fractional1d's solve_1d_core; handles the lower bound, converges to a
  coordinate-wise minimum.  Each move updates the numerator, denominator
  and gradients in O(m), on Python floats.

``assemble_reduced``, the batched support ranking ``pencil_keys``, the
same keys with their points, ``pencil_points``, the face infima over
y >= 0 that rank bounded supports, ``face_infima``, the bottom
eigenvector of a block's pencil that picks the support screen's
candidate, ``pencil_direction``, and coordinate descent's start where the
denominator vanishes at y = 0 (the bottom generalized eigenvector of
(Q, R)) share one stacked change of variables, ``_whiten``.
``pencil_points`` and ``face_infima`` also share the map from an
eigenpair of the bordered pencil to its critical point, ``_points``: the
bottom eigenpair of a support's Z gives the point where the ratio takes
the key, lambda_min(Z), as its value, which is where solve_bisection's
root lies, so subproblem's bisection route reads a keyed support's
solution there and calls solve_bisection only where no point resolves.
The screen itself reads inertia, not eigenvalues: ``positive_definite``
tests a stack of symmetric matrices by their Cholesky pivots.  Where R is
exactly the identity (every block of a PCA problem, where C = I), L = I
and the change of variables is a no-op: ``_whiten`` forms no factor,
inverse or product with it, and no product at all where c is also
exactly 0 (every PCA block), and ``assemble_reduced`` skips the
positive-definiteness check, with results bit-identical to the general
route.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    DegenerateDenominator,
    NonPositiveGamma,
    ShiftTooClose,
    UnboundedBelow,
)
from .fractional1d import solve_1d_core

# gamma == 0 (within this relative slack) is the homogeneous/degenerate case
# reached when the fixed coordinates are all zero; genuinely negative gamma
# is rejected.
_GAMMA_SLACK = 1e-12
# Z divides by sqrt(gamma); below this relative floor (and above the
# gamma == 0 slack) its smallest eigenvalue loses too many digits to rank a
# support, and pencil_keys leaves the support to solve_bisection.
GAMMA_FLOOR = 1e-8
# Coordinate descent updates its numerator and denominator in O(1) per move
# and evaluates them exactly once the denominator falls below this fraction
# of the largest value it had since the last exact evaluation.
_SHRUNK = 1e-3


class Certificate(enum.Enum):
    BISECTION_ROOT = "BisectionRoot"
    BOUNDARY_LOWER = "BoundaryLower"
    BOUNDARY_UPPER = "BoundaryUpper"
    COORDINATE_WISE_MIN = "CoordinateWiseMin"


@dataclass
class QfpSubproblem:
    Q: np.ndarray
    p: np.ndarray
    w: float
    R: np.ndarray
    c: np.ndarray
    v: float
    lower_bound: float | None = None

    def __post_init__(self):
        self.Q = linalg.symmetrize(self.Q)
        self.R = linalg.symmetrize(self.R)
        self.p = np.asarray(self.p, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.w = float(self.w)
        self.v = float(self.v)

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def numerator(self, y: np.ndarray) -> float:
        return float(0.5 * y @ self.Q @ y + self.p @ y + self.w)

    def denominator(self, y: np.ndarray) -> float:
        return float(0.5 * y @ self.R @ y + self.c @ y + self.v)

    def value(self, y: np.ndarray) -> float:
        den = self.denominator(y)
        if den <= 0:
            raise DegenerateDenominator(f"denominator {den:.6g}")
        return self.numerator(y) / den


@dataclass
class QfpSolution:
    y: np.ndarray
    value: float
    alpha_star: float | None
    iterations: int
    certificate: Certificate


def _whiten(Q, p, w: float, R, c, v: float):
    """Stacked change of variables u = L'y + L^{-1}c with R = L L'.

    Q, R are (N, m, m) and p, c are (N, m); w and v are shared.  Returns
    L^{-1}, O = L^{-1} Q L^{-T} (symmetrized), g = L^{-1} (p - Q R^{-1} c),
    the border's Schur complement gamma = 2v - |L^{-1}c|^2 and
    delta = 2w - c'R^{-1} (2p - Q R^{-1} c).

    Where every R is exactly I (every block of a PCA problem, C = I), L and
    L^{-1} are I: no factorization, inverse or product with them is formed,
    and L^{-1} is a read-only broadcast identity.  Products with an exact I
    return their finite operands, with a -0.0 turned into +0.0 (hence the
    + 0.0 below), so the results are those of the general route bit for
    bit.  Where every c is also exactly 0 (every PCA block, as C's
    off-diagonal entries are 0), u = y and no product is formed at all:
    g = p, gamma = 2v and delta = 2w, again bit for bit, except where w is
    -0.0 (delta's sign then rests on the products' zeros) or 2p overflows,
    which take the identity route.  An inf or nan would spread nan through
    the products, so a stack holding one takes the general route.
    """
    eye = np.eye(R.shape[-1])
    identity = (R == eye).all()
    if (
        identity and not c.any() and (w != 0.0 or math.copysign(1.0, w) > 0.0)
        and np.isfinite(Q).all() and np.isfinite(p + p).all()
    ):
        O = Q + 0.0
        return (
            np.broadcast_to(eye, R.shape), 0.5 * (O + O.transpose(0, 2, 1)), p + 0.0,
            np.full(len(p), 2.0 * v), np.full(len(p), 2.0 * w),
        )
    p = p[:, :, None]
    if identity:
        L_inv = np.broadcast_to(eye, R.shape)
        t = Rinv_c = c[:, :, None] + 0.0
        Q_Rinv_c = Q @ Rinv_c
        O = Q + 0.0
        g = p - Q_Rinv_c + 0.0
        identity = np.isfinite(O).all() and np.isfinite(t).all() and np.isfinite(g).all()
    if not identity:
        L_inv = np.linalg.inv(np.linalg.cholesky(R))
        L_inv_T = L_inv.transpose(0, 2, 1)
        t = L_inv @ c[:, :, None]
        Rinv_c = L_inv_T @ t
        Q_Rinv_c = Q @ Rinv_c
        O = L_inv @ Q @ L_inv_T
        g = L_inv @ (p - Q_Rinv_c)
    gamma = 2.0 * v - np.sum(t * t, axis=(1, 2))
    delta = np.sum(Rinv_c * (Q_Rinv_c - 2.0 * p), axis=(1, 2)) + 2.0 * w
    return L_inv, 0.5 * (O + O.transpose(0, 2, 1)), g[:, :, 0], gamma, delta


def _bordered_z(O, g, gamma, delta) -> np.ndarray:
    """Stacked Z = [[O, g/sqrt(gamma)], [g'/sqrt(gamma), delta/gamma]], gamma > 0."""
    m = O.shape[-1]
    border = g / np.sqrt(gamma)[:, None]
    Z = np.empty((len(O), m + 1, m + 1))
    Z[:, :m, :m] = O
    Z[:, :m, m] = Z[:, m, :m] = border
    Z[:, m, m] = delta / gamma
    return Z


def _homogeneous_tol(O):
    """With gamma == 0, |g| and |delta| at most this leave a plain
    generalized eigenvalue problem; O is one matrix or a stack."""
    return 1e-13 * (1.0 + np.sqrt(np.sum(O * O, axis=(-2, -1))))


def pencil_keys(Q, p, w: float, R, c, v: float) -> np.ndarray:
    """Smallest eigenvalue of each stacked QFP's bordered pencil
    ([[Q, p], [p', 2w]], [[R, c], [c', 2v]]), or nan where it cannot rank.

    For gamma > GAMMA_FLOOR (1 + |2v|) it is lambda_min(Z), solve_bisection's
    lower bracket, bit for bit; for gamma == 0 (x_N = 0 in a block) it is
    lambda_min(O - g g'/delta), the root of the secular equation.  A hard case
    needs no special handling: its eigenvalue is the infimum that bisection's
    boundary escape approaches.  Every other gamma, gamma == 0 with delta
    <= 0 (unbounded) or near 0 (the homogeneous ratio), overflow and failed
    factorizations are left to solve_bisection.
    """
    keys = np.full(len(Q), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            _, O, g, gamma, delta = _whiten(Q, p, w, R, c, v)
            b, z = _pencil_cases(O, gamma, delta, v)
            if b.any():
                keys[b] = np.linalg.eigvalsh(_bordered_z(O[b], g[b], gamma[b], delta[b]))[:, 0]
            if z.any():  # x_N = 0 somewhere; most stacks have none
                keys[z] = np.linalg.eigvalsh(_secular_matrix(O[z], g[z], delta[z]))[:, 0]
        except np.linalg.LinAlgError:
            keys[:] = np.nan
    return keys


def pencil_points(Q, p, w: float, R, c, v: float):
    """(keys, Y): pencil_keys' smallest bordered-pencil eigenvalue of each
    stacked QFP, read with its eigenvector by eigh (so it can differ from
    pencil_keys' eigvalsh in the last bits), and the point y of that
    eigenpair, one row per QFP.

    The point is face_infima's critical point of the bottom eigenvector
    (_points), a global minimizer of the QFP with the key as its value.  Its
    row is nan where it does not resolve: the eigenpair is unresolved (a
    hard case, whose infimum lies at infinity), g == 0, an entry is not
    finite, or the key is nan (pencil_keys' cases, a failed factorization).
    """
    n, m = p.shape
    keys, Y = np.full(n, np.nan), np.full((n, m), np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            L_inv, O, g, gamma, delta = _whiten(Q, p, w, R, c, v)
            b, z = _pencil_cases(O, gamma, delta, v)
            shift = L_inv @ c[:, :, None]
            for case in (b, z):
                if not case.any():
                    continue
                rows = slice(None) if case.all() else case  # most stacks take one case
                O_, g_, gamma_, delta_ = O[rows], g[rows], gamma[rows], delta[rows]
                if case is b:
                    lam, V = np.linalg.eigh(_bordered_z(O_, g_, gamma_, delta_))
                else:
                    lam, V = np.linalg.eigh(_secular_matrix(O_, g_, delta_))
                y, unresolved = _points(
                    V[:, :, :1], g_, gamma_, delta_, L_inv[rows].transpose(0, 2, 1), shift[rows],
                )
                y = y[:, :, 0]
                resolved = ~unresolved[:, 0] & (g_ != 0.0).any(axis=1) & np.isfinite(y).all(axis=1)
                keys[rows] = lam[:, 0]
                Y[rows] = np.where(resolved[:, None], y, np.nan)
        except np.linalg.LinAlgError:
            keys[:], Y[:] = np.nan, np.nan
    return keys, Y


def pencil_direction(q: QfpSubproblem) -> np.ndarray | None:
    """The y-part of the bottom generalized eigenvector of q's bordered
    pencil ([[Q, p], [p', 2w]], [[R, c], [c', 2v]]), where pencil_keys reads
    a finite key for every principal sub-pencil (every support of q with
    the border); None elsewhere.

    Each sub-pencil's key is finite where q is finite with entries below
    1e100 (so no product of the change of variables overflows), R is
    exactly I or lambda_min(R) > pd_tol(R) (every R_S factors, as
    lambda_min(R_S) >= lambda_min(R)), and either gamma > 2 GAMMA_FLOOR
    (1 + |2v|) (gamma_S >= gamma, as c_S'R_S^{-1}c_S <= c'R^{-1}c) or
    v = 0, c = 0 and 2w above twice the homogeneous tolerance of every
    O_S (||O_S|| <= ||O|| by interlacing).  The direction is
    L^{-T}(a - L^{-1}c b / sqrt(gamma)) for the bottom eigenvector [a; b]
    of Z, or L^{-T}e for the bottom eigenvector e of O - g g'/delta.
    """
    m = q.dim
    block = np.concatenate([q.Q.ravel(), q.p, q.R.ravel(), q.c, [q.w, q.v]])
    if not np.all(np.abs(block) < 1e100):
        return None
    try:
        linalg.require_positive_definite(q.R)
        L_inv, O, g, gamma, delta = _whiten(q.Q[None], q.p[None], q.w, q.R[None], q.c[None], q.v)
        if gamma[0] > 2.0 * GAMMA_FLOOR * (1.0 + abs(2.0 * q.v)):
            V = np.linalg.eigh(_bordered_z(O, g, gamma, delta))[1][0]
            u = V[:m, 0] - (L_inv[0] @ q.c) * (V[m, 0] / math.sqrt(gamma[0]))
        elif q.v == 0.0 and not q.c.any() and delta[0] > 2.0 * max(
            _GAMMA_SLACK, math.sqrt(m) * _homogeneous_tol(O[0]),
        ):
            u = np.linalg.eigh(_secular_matrix(O, g, delta))[1][0][:, 0]
        else:
            return None
    except (linalg.NotPositiveDefinite, np.linalg.LinAlgError):
        return None
    return L_inv[0].T @ u


def positive_definite(A) -> np.ndarray:
    """Whether each matrix of a symmetric stack (N, m, m) is positive
    definite: every pivot of its Cholesky recurrence (elimination without
    pivoting) is finite and positive.  By Sylvester's law of inertia that
    is the sign of its smallest eigenvalue, read without an eigenvalue
    call.  A matrix holding a nan or an inf reads False: such an entry
    reaches a pivot as a nan or an infinity."""
    # The stack runs along the last axis, so each step is a few whole-array
    # operations over contiguous rows of the stack.
    A = np.moveaxis(np.asarray(A, dtype=float), 0, -1).copy()
    definite = np.ones(A.shape[-1], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(len(A)):
            d = A[j, j]
            definite &= (d > 0.0) & (d < np.inf)
            row = A[j, j + 1:]
            A[j + 1:, j + 1:] -= row[:, None] * (row / d)[None]
    return definite


def _pencil_cases(O, gamma, delta, v: float):
    """Masks of the stacked QFPs whose pencil pencil_keys reads: gamma above
    GAMMA_FLOOR (Z), and gamma == 0 with delta clear of 0 (O - g g'/delta)."""
    scale = 1.0 + abs(2.0 * v)
    slack = _GAMMA_SLACK * scale
    homogeneous = np.abs(gamma) <= slack
    if homogeneous.any():
        homogeneous &= delta > np.maximum(slack, _homogeneous_tol(O))
    return gamma > GAMMA_FLOOR * scale, homogeneous


def _secular_matrix(O, g, delta):
    """Stacked O - g g'/delta, whose eigenvalues are the gamma == 0 critical values."""
    g = g[:, :, None]
    return O - g * g.transpose(0, 2, 1) / delta[:, None, None]


def face_infima(Q, p, w: float, R, c, v: float) -> np.ndarray:
    """Smallest candidate value of each stacked QFP over y > 0 (a face of a
    support, one coordinate or more), or -inf where the candidates cannot
    be trusted.  Over the faces of a support, the smallest of these values
    and of its empty face (y = 0) is the infimum over y >= 0.

    A face's candidates are its critical points with y >= 0 and its
    directions at infinity d >= 0.  The critical points are the eigenpairs
    (lambda, [a; b]) of Z with b != 0, at u = a sqrt(gamma) / b, and for
    gamma == 0 those of O - g g'/delta with g'a != 0, at
    u = -a delta / g'a; the value there is lambda.  The directions are the
    generalized eigenvectors of (Q, R), L^{-T} times those of O, and the
    limit along one is its eigenvalue.  Wherever a decision rests on fewer
    digits than GAMMA_FLOOR (relative) keeps, the eigenvalue is kept
    without it: an eigenvalue that repeats, a border b or g'a near 0, a
    point or direction with entries near 0.  A face that pencil_keys cannot
    rank, or whose factorization fails, reads -inf.
    """
    n = len(p)
    values = np.full(n, -np.inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            L_inv, O, g, gamma, delta = _whiten(Q, p, w, R, c, v)
            b, z = _pencil_cases(O, gamma, delta, v)
            ranked = b | z
            if not ranked.any():
                return values
            L_inv_T = L_inv.transpose(0, 2, 1)
            shift = L_inv @ c[:, :, None]
            g_nonzero = np.any(g != 0.0, axis=1)
            finite = np.full(n, np.inf)
            if b.any():
                lam, V = np.linalg.eigh(_bordered_z(O[b], g[b], gamma[b], delta[b]))
                Y, unresolved = _points(V, g[b], gamma[b], delta[b], L_inv_T[b], shift[b])
                finite[b] = _critical_minimum(lam, Y, unresolved & g_nonzero[b][:, None])
            if z.any():
                lam, V = np.linalg.eigh(_secular_matrix(O[z], g[z], delta[z]))
                Y, unresolved = _points(V, g[z], gamma[z], delta[z], L_inv_T[z], shift[z])
                finite[z] = _critical_minimum(lam, Y, unresolved)
            mu, E = np.linalg.eigh(O[ranked])
            D = L_inv_T[ranked] @ E
            margin = GAMMA_FLOOR * np.max(np.abs(D), axis=1)[:, None, :]
            one_signed = np.all(D >= -margin, axis=1) | np.all(D <= margin, axis=1)
            at_infinity = np.where(one_signed | _repeated(mu), mu, np.inf).min(axis=1)
            values[ranked] = np.minimum(finite[ranked], at_infinity)
        except np.linalg.LinAlgError:
            values[:] = -np.inf
    values[np.isnan(values)] = -np.inf
    return values


def _points(V, g, gamma, delta, L_inv_T, shift):
    """(Y, unresolved): the critical point of each stacked eigenvector, the
    columns of V, and where it is not resolved.

    V holds eigenvectors [a; b] of Z (m + 1 rows, gamma > 0), each at
    u = a sqrt(gamma) / b and unresolved where |b| < GAMMA_FLOOR, or
    eigenvectors a of O - g g'/delta (m rows, gamma == 0), each at
    u = -a delta / g'a and unresolved where |g'a| < GAMMA_FLOOR |g|.  As
    u = L'y + L^{-1}c, the point is y = L^{-T} (u - L^{-1}c), with L_inv_T
    = L^{-T} and shift = L^{-1}c (N, m, 1).  A b or g'a of 0 gives entries
    that are not finite.
    """
    m = g.shape[1]
    if V.shape[1] > m:
        border = V[:, m, :]
        U = V[:, :m, :] * (np.sqrt(gamma)[:, None] / border)[:, None, :]
        unresolved = np.abs(border) < GAMMA_FLOOR
    else:
        ga = np.einsum("ni,nij->nj", g, V)
        U = V * (-delta[:, None] / ga)[:, None, :]
        unresolved = np.abs(ga) < GAMMA_FLOOR * np.sqrt(np.sum(g * g, axis=1))[:, None]
    return L_inv_T @ (U - shift), unresolved


def _repeated(lam):
    """Which of each row's ascending eigenvalues lie within GAMMA_FLOOR of a
    neighbour, relative to the row's largest magnitude."""
    close = np.diff(lam, axis=1) <= GAMMA_FLOOR * np.max(np.abs(lam), axis=1, keepdims=True)
    repeated = np.zeros(lam.shape, dtype=bool)
    repeated[:, 1:] |= close
    repeated[:, :-1] |= close
    return repeated


def _critical_minimum(lam, Y, unresolved):
    """Smallest eigenvalue lam[:, j] whose point Y[:, :, j] is >= 0, or whose
    point is not resolved (unresolved, or a repeated eigenvalue)."""
    margin = GAMMA_FLOOR * np.max(np.abs(Y), axis=1)
    feasible = np.all(Y >= -margin[:, None, :], axis=1)
    return np.where(feasible | unresolved | _repeated(lam), lam, np.inf).min(axis=1)


class ReducedForm(NamedTuple):
    O: np.ndarray
    g: np.ndarray
    gamma: float
    delta: float
    Z: np.ndarray | None
    L_inv: np.ndarray


def assemble_reduced(q: QfpSubproblem) -> ReducedForm:
    """_whiten on a stack of one, plus Z (None when gamma == 0, where Z
    would need a division by sqrt(gamma)).

    R must be positive definite.  An R that is exactly I passes without
    the eigenvalue check (lambda_min = 1), and _whiten skips its
    factorization too.
    """
    linalg.require_positive_definite(q.R)
    L_inv, O, g, gamma, delta = _whiten(q.Q[None], q.p[None], q.w, q.R[None], q.c[None], q.v)
    slack = _GAMMA_SLACK * (1.0 + abs(2.0 * q.v))
    if gamma[0] < -slack:
        raise NonPositiveGamma(f"gamma = {gamma[0]:.6g} <= 0")
    if gamma[0] <= slack:
        gamma[0], Z = 0.0, None
    else:
        Z = _bordered_z(O, g, gamma, delta)[0]
    return ReducedForm(O[0], g[0], float(gamma[0]), float(delta[0]), Z, L_inv[0])


def _secular(d, a2, gamma: float, delta: float, alpha: float) -> float:
    """J(alpha) = delta/2 - alpha*gamma/2 - sum a_i^2/(d_i-alpha)/2."""
    return float(0.5 * delta - 0.5 * alpha * gamma - 0.5 * np.sum(a2 / (d - alpha)))


def j_alpha(eig_O: linalg.EigDecomposition, g, gamma: float, delta: float, alpha: float) -> float:
    """Parametric value J(alpha), with a = V'g from the eigendecomposition of O."""
    d = eig_O.values
    if d[0] - alpha < 0.5 * linalg.shift_guard(float(d[0])):
        raise ShiftTooClose(f"alpha {alpha:.6g} not below smallest eigenvalue {d[0]:.6g}")
    a = eig_O.vectors.T @ g
    return _secular(d, a * a, gamma, delta, alpha)


def _recover_y(q: QfpSubproblem, red: ReducedForm, u: np.ndarray) -> np.ndarray:
    return red.L_inv.T @ (u - red.L_inv @ q.c)


def default_bisection_tol(lo: float, ub: float) -> float:
    return 1e-10 * max(1.0, ub - lo)


def solve_bisection(q: QfpSubproblem, tol: float | None = None) -> QfpSolution:
    """Globally minimize the unconstrained QFP by root-finding on J(alpha)."""
    if q.lower_bound is not None:
        raise ValueError("bisection does not handle bound constraints; use coordinate descent")
    red = assemble_reduced(q)
    eig_O = linalg.sym_eig(red.O)
    d = eig_O.values
    a2 = (eig_O.vectors.T @ red.g) ** 2
    d_min = float(d[0])
    guard = linalg.shift_guard(d_min)
    ub_alpha = d_min - guard
    zero_tol = 1e-12 * (1.0 + abs(red.delta))

    def J(alpha: float) -> float:
        return _secular(d, a2, red.gamma, red.delta, alpha)

    if red.gamma == 0.0 and max(np.linalg.norm(red.g), abs(red.delta)) <= _homogeneous_tol(red.O):
        # Fully homogeneous ratio: a plain generalized eigenvalue problem,
        # minimized by the bottom eigenvector.
        u = eig_O.vectors[:, 0]
        y = _recover_y(q, red, u)
        return QfpSolution(
            y=y, value=q.value(y), alpha_star=d_min, iterations=0,
            certificate=Certificate.BOUNDARY_UPPER,
        )

    if red.Z is not None:
        lo = float(np.linalg.eigvalsh(red.Z)[0])
        lo = min(lo, ub_alpha)
    else:
        # gamma == 0 with a nonzero affine part: J still decreases and tends
        # to delta/2 > 0 as alpha -> -inf; expand the bracket downward.
        lo = ub_alpha - max(1.0, abs(ub_alpha))
        step = max(1.0, abs(ub_alpha))
        expansions = 0
        while J(lo) < 0.0:
            step *= 2.0
            lo -= step
            expansions += 1
            if expansions > 200:
                raise UnboundedBelow("no lower bracket for the parametric root")

    if tol is None:
        tol = default_bisection_tol(lo, ub_alpha)

    J_lo = J(lo)
    J_ub = J(ub_alpha)
    iterations = 0

    if J_ub >= -zero_tol:
        # Case (a): J nonnegative on the whole bracket; the infimum is
        # lambda_min(O), approached along the bottom eigenvector.
        alpha_star = ub_alpha
        certificate = Certificate.BOUNDARY_UPPER
    elif J_lo <= zero_tol:
        # Case (b): the root sits at (or below) the lower bound.
        alpha_star = lo
        certificate = Certificate.BOUNDARY_LOWER
    else:
        lb_, ub_ = lo, ub_alpha
        while ub_ - lb_ > tol:
            mid = 0.5 * (lb_ + ub_)
            iterations += 1
            if J(mid) > 0.0:
                lb_ = mid
            else:
                ub_ = mid
        alpha_star = 0.5 * (lb_ + ub_)
        certificate = Certificate.BISECTION_ROOT

    u = linalg.solve_shifted(eig_O, min(alpha_star, ub_alpha), red.g)
    y = _recover_y(q, red, u)
    den_y = q.denominator(y)
    # den_y can be zero when gamma == 0 and g == 0 (u = 0); the eigenvector
    # escape below then supplies the point that attains the infimum.
    value = q.numerator(y) / den_y if den_y > 0 else math.inf
    if certificate is Certificate.BOUNDARY_UPPER:
        # The infimum may only be approached at infinity; try escaping along
        # the bottom eigenvector and keep the better point.
        scale = 1e8 * max(1.0, float(np.linalg.norm(u)))
        u_far = u + scale * eig_O.vectors[:, 0]
        y_far = _recover_y(q, red, u_far)
        value_far = q.value(y_far)
        if value_far < value:
            y, value = y_far, value_far
    if not math.isfinite(value):
        raise DegenerateDenominator("no feasible point with positive denominator")
    return QfpSolution(
        y=y, value=value, alpha_star=alpha_star, iterations=iterations,
        certificate=certificate,
    )


def projected_gradient(q: QfpSubproblem, y: np.ndarray) -> np.ndarray:
    """Gradient of L at y, projected against the active lower bound."""
    y = np.asarray(y, dtype=float)
    den = q.denominator(y)
    if den <= 0:
        raise DegenerateDenominator(f"denominator {den:.6g}")
    num = q.numerator(y)
    grad_num = q.Q @ y + q.p
    grad_den = q.R @ y + q.c
    grad = (grad_num * den - num * grad_den) / (den * den)
    if q.lower_bound is not None:
        at_bound = y <= q.lower_bound
        grad = np.where(at_bound, np.minimum(0.0, grad), grad)
    return grad


def _cd_start(q: QfpSubproblem) -> np.ndarray:
    lb = q.lower_bound
    if lb is None or lb <= 0.0:
        y0 = np.zeros(q.dim)
    else:
        y0 = np.full(q.dim, lb)
    if q.denominator(y0) > 0:
        return y0
    # Denominator vanishes at the natural start (gamma == 0 case); fall back
    # to the bottom generalized eigenvector of (Q, R), clamped to the bound:
    # y = L^{-T} e with e the bottom eigenvector of O = L^{-1} Q L^{-T}, so
    # that y'Ry = |e|^2 = 1, which needs R positive definite.
    linalg.require_positive_definite(q.R)
    L_inv, O, _, _, _ = _whiten(q.Q[None], q.p[None], q.w, q.R[None], q.c[None], q.v)
    y0 = L_inv[0].T @ np.linalg.eigh(O[0])[1][:, 0]
    if lb is not None:
        y0 = np.maximum(np.abs(y0), lb) if lb >= 0 else np.maximum(y0, lb)
    if q.denominator(y0) <= 0:
        y0 = np.ones(q.dim) if lb is None else np.maximum(np.ones(q.dim), lb)
    return y0


def solve_coordinate_descent(
    q: QfpSubproblem,
    y0: np.ndarray | None = None,
    max_sweeps: int = 200,
    obj_tol: float | None = None,
) -> QfpSolution:
    """Cyclic exact coordinatewise minimization of L, optionally bounded below."""
    m = q.dim
    y = _cd_start(q) if y0 is None else np.array(y0, dtype=float)
    lb = q.lower_bound
    if lb is not None and np.any(y < lb - 1e-12):
        raise ValueError("y0 violates the lower bound")
    den = q.denominator(y)
    if den <= 0:
        raise DegenerateDenominator(f"denominator {den:.6g} at start")
    num = q.numerator(y)
    if obj_tol is None:
        obj_tol = 1e-12 * (1.0 + abs(num / den))

    # Qy and Ry hold the gradients Qy + p and Ry + c, and num and den follow
    # each move in O(1): N(y + beta e_i) = N(y) + beta ((Qy + p)_i + Q_ii beta / 2).
    # y, the gradients and the columns of Q and R are lists of Python floats,
    # which round each operation as numpy's elementwise float64 arithmetic
    # does, without a numpy call per coordinate; an overflow reads as inf.
    Qy = (q.Q @ y + q.p).tolist()
    Ry = (q.R @ y + q.c).tolist()
    Q_cols, R_cols = q.Q.T.tolist(), q.R.T.tolist()
    # The last point whose denominator was evaluated exactly, and that value.
    y_exact, den_exact = y, den
    y = y.tolist()
    den_ref = den
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        f_before = num / den
        for i in range(m):
            lower = -math.inf if lb is None else lb - y[i]
            Q_i, R_i = Q_cols[i], R_cols[i]
            q_ii, r_ii, qy_i, ry_i = Q_i[i], R_i[i], Qy[i], Ry[i]
            try:
                beta, val = solve_1d_core(q_ii, qy_i, num, r_ii, ry_i, den, lower)
            except (UnboundedBelow, DegenerateDenominator):
                # no attained minimizer along this coordinate (tail limit or
                # a candidate on the denominator singularity): skip the move
                continue
            if beta == 0.0 or val >= num / den:
                continue
            den_new = den + beta * (ry_i + 0.5 * r_ii * beta)
            # Rounding left by the largest denominator since the last exact
            # evaluation would dominate a much smaller one: evaluate exactly.
            exact = den_new < _SHRUNK * den_ref
            y_i = y[i]
            y[i] += beta
            if exact:
                y_new = np.array(y)
                den_new = q.denominator(y_new)
            if not 0.0 < den_new < math.inf:
                # an overflowing step, or a candidate on the denominator's
                # zero (y = 0 with c = 0 and v = 0) that rounding kept
                # positive in the 1-D form
                y[i] = y_i
                continue
            Qy = [g + beta * col for g, col in zip(Qy, Q_i)]
            Ry = [g + beta * col for g, col in zip(Ry, R_i)]
            if exact:
                num, den_ref = q.numerator(y_new), den_new
                y_exact, den_exact = y_new, den_new
            else:
                num += beta * (qy_i + 0.5 * q_ii * beta)
                den_ref = max(den_ref, den_new)
            den = den_new
        if f_before - num / den < obj_tol:
            break
    y = np.array(y)
    den = q.denominator(y)
    if not den > 0.0:
        # A move landed on the denominator's zero (y = 0 with c = 0 and
        # v = 0) while its O(1) update still read positive: return the last
        # point whose denominator was evaluated exactly.
        y, den = y_exact, den_exact
    return QfpSolution(
        y=y, value=q.numerator(y) / den, alpha_star=None, iterations=sweeps,
        certificate=Certificate.COORDINATE_WISE_MIN,
    )
