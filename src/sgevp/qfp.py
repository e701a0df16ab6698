"""Global solvers for the m-variable quadratic fractional program.

The problem is  min_y  L(y) = (y'Qy/2 + p'y + w) / (y'Ry/2 + c'y + v)
with R positive definite, optionally with an elementwise lower bound on y.

Two routes:

* ``solve_bisection`` -- globally optimal for the unconstrained case.  With
  the Cholesky factor R = L L', the substitution u = L'y + L^{-1}c turns the
  objective into (u'Ou/2 + u'g + delta/2) / (|u|^2/2 + gamma/2), and the
  optimal value is the unique root of the monotone parametric function
  J(alpha) on [lambda_min(Z), lambda_min(O)).
* ``solve_coordinate_descent`` -- cyclic exact 1-D minimization; handles
  the lower bound, converges to a coordinate-wise minimum.

``assemble_reduced`` and the batched support ranking ``pencil_keys`` share
one stacked change of variables, ``_whiten``.
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
    """
    L_inv = np.linalg.inv(np.linalg.cholesky(R))
    L_inv_T = L_inv.transpose(0, 2, 1)
    p = p[:, :, None]
    t = L_inv @ c[:, :, None]
    Rinv_c = L_inv_T @ t
    Q_Rinv_c = Q @ Rinv_c
    O = L_inv @ Q @ L_inv_T
    gamma = 2.0 * v - np.sum(t * t, axis=(1, 2))
    delta = np.sum(Rinv_c * (Q_Rinv_c - 2.0 * p), axis=(1, 2)) + 2.0 * w
    return L_inv, 0.5 * (O + O.transpose(0, 2, 1)), (L_inv @ (p - Q_Rinv_c))[:, :, 0], gamma, delta


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
    scale = 1.0 + abs(2.0 * v)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            _, O, g, gamma, delta = _whiten(Q, p, w, R, c, v)
            b = gamma > GAMMA_FLOOR * scale
            if b.any():
                keys[b] = np.linalg.eigvalsh(_bordered_z(O[b], g[b], gamma[b], delta[b]))[:, 0]
            slack = _GAMMA_SLACK * scale
            z = np.abs(gamma) <= slack
            if z.any():  # x_N = 0 somewhere; most stacks have none
                z &= delta > np.maximum(slack, _homogeneous_tol(O))
                gz = g[z][:, :, None]
                rank_one = gz * gz.transpose(0, 2, 1) / delta[z][:, None, None]
                keys[z] = np.linalg.eigvalsh(O[z] - rank_one)[:, 0]
        except np.linalg.LinAlgError:
            keys[:] = np.nan
    return keys


class ReducedForm(NamedTuple):
    O: np.ndarray
    g: np.ndarray
    gamma: float
    delta: float
    Z: np.ndarray | None
    L_inv: np.ndarray


def assemble_reduced(q: QfpSubproblem) -> ReducedForm:
    """_whiten on a stack of one, plus Z (None when gamma == 0, where Z
    would need a division by sqrt(gamma))."""
    lam_min = linalg.min_eigenvalue(q.R)
    if lam_min <= linalg.pd_tol(q.R):
        raise linalg.NotPositiveDefinite(lam_min)
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
    # to the bottom generalized eigenvector of (Q, R), clamped to the bound.
    import scipy.linalg

    _, vecs = scipy.linalg.eigh(q.Q, q.R, subset_by_index=[0, 0])
    y0 = vecs[:, 0]
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

    Qy = q.Q @ y + q.p
    Ry = q.R @ y + q.c
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        f_before = num / den
        for i in range(m):
            lower = -math.inf if lb is None else lb - y[i]
            try:
                beta, val = solve_1d_core(
                    float(q.Q[i, i]), float(Qy[i]), num,
                    float(q.R[i, i]), float(Ry[i]), den, lower,
                )
            except (UnboundedBelow, DegenerateDenominator):
                # no attained minimizer along this coordinate (tail limit or
                # a candidate on the denominator singularity): skip the move
                continue
            if beta == 0.0 or val >= num / den:
                continue
            y_i = y[i]
            y[i] += beta
            den_new = q.denominator(y)
            if den_new <= 0:
                # a candidate on the denominator's zero (y = 0 with c = 0 and
                # v = 0) that rounding kept positive in the 1-D form
                y[i] = y_i
                continue
            Qy += beta * q.Q[:, i]
            Ry += beta * q.R[:, i]
            num = q.numerator(y)
            den = den_new
        if f_before - num / den < obj_tol:
            break
    return QfpSolution(
        y=y, value=num / den, alpha_star=None, iterations=sweeps,
        certificate=Certificate.COORDINATE_WISE_MIN,
    )
