"""Closed-form global solver for the 1-D quadratic fractional problem.

Minimizes psi(b) = (a/2 b^2 + b_lin b + c) / (r/2 b^2 + s b + t) subject to
b >= lower.  The stationary points satisfy the quadratic
pi/2 b^2 + theta b + iota = 0 with

    pi    = a*s - b_lin*r
    theta = a*t - c*r
    iota  = t*b_lin - c*s

and the global minimizer over [lower, inf) is the better of the two
(clamped) roots, the first root on an exact tie.  This is the only module
that forms that quadratic: solve_1d_core is the scalar kernel (coordinate
descent, one-coordinate supports and polish's lines) and solve_1d_values
the same rule batched (swap scoring and the block-2 certificate).  Per
element, solve_1d_values returns
- solve_1d_core's value wherever solve_1d_core returns;
- the a/r limit at infinity, or +inf for r <= 0, where it raises
  UnboundedBelow;
- the better clamped root with a positive denominator where it raises
  DegenerateDenominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, UnboundedBelow


@dataclass(frozen=True)
class OneDimCoefficients:
    """Coefficients of the 1-D fractional objective; ``lower`` may be -inf."""

    a: float
    b: float
    c: float
    r: float
    s: float
    t: float
    lower: float = -math.inf

    def validate(self) -> None:
        for name in ("a", "b", "c", "r", "s", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coefficient {name} is not finite")
        # Full denominator positivity is the caller's responsibility; cheap
        # necessary checks only.
        if math.isinf(self.lower):
            if self.r < 0:
                raise DegenerateDenominator("r < 0 makes the denominator negative at infinity")
            if self.t <= 0 and self.r <= 0:
                raise DegenerateDenominator("denominator not positive at 0")
        else:
            if self.denominator(self.lower) <= 0:
                raise DegenerateDenominator("denominator not positive at the lower bound")

    def denominator(self, beta: float) -> float:
        return 0.5 * self.r * beta * beta + self.s * beta + self.t

    def numerator(self, beta: float) -> float:
        return 0.5 * self.a * beta * beta + self.b * beta + self.c


@dataclass
class OneDimSolution:
    beta: float
    value: float


def solve_1d(c: OneDimCoefficients) -> OneDimSolution:
    """Globally minimize psi over [lower, inf)."""
    c.validate()
    beta, value = solve_1d_core(c.a, c.b, c.c, c.r, c.s, c.t, c.lower)
    return OneDimSolution(beta=beta, value=value)


def solve_1d_core(
    a: float, b: float, c: float, r: float, s: float, t: float, lower: float = -math.inf
) -> tuple[float, float]:
    """The 1-D minimizer behind solve_1d, for inner loops.

    Returns (beta, value): the better of the clamped stationary points.  No
    dataclasses, no validation.  Raises UnboundedBelow on a negative
    discriminant.
    """
    pi = a * s - b * r
    theta = a * t - c * r
    iota = t * b - c * s
    if pi == 0.0:
        roots = (0.0,) if theta == 0.0 else (-iota / theta,)
    else:
        disc = theta * theta - 2.0 * pi * iota
        if disc < 0.0:
            raise UnboundedBelow("no real stationary point; infimum approached at infinity")
        sq = math.sqrt(disc)
        roots = ((-theta - sq) / pi, (-theta + sq) / pi)
    best_beta = 0.0
    best_value = math.inf
    for beta in roots:
        if beta < lower:
            beta = lower
        den = 0.5 * r * beta * beta + s * beta + t
        num = 0.5 * a * beta * beta + b * beta + c
        if not (math.isfinite(den) and math.isfinite(num)):
            # A huge root (pi near 0) overflows beta^2; divide through by it.
            den = 0.5 * r + s / beta + t / (beta * beta)
            num = 0.5 * a + b / beta + c / (beta * beta)
        if den <= 0:
            raise DegenerateDenominator(f"denominator {den:.6g} at beta={beta:.6g}")
        value = num / den
        if value < best_value:
            best_beta, best_value = beta, value
    return best_beta, best_value


def solve_1d_values(a, b, c, r, s, t, lower=None) -> np.ndarray:
    """Batched solve_1d_core values: the coefficients (and ``lower``)
    broadcast against each other, one minimum per element.

    Each root is clamped to ``lower`` before evaluation, as in
    solve_1d_core; lower=None skips the clamp.  A root whose denominator is
    not positive is ignored.

    The kernel is elementwise: every element gets the arithmetic it would
    get alone.  Branches that no element takes are skipped for the whole
    array: the linear root of pi == 0, the overflow rescaling of a huge
    root, and the a/r limit of a negative discriminant.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pi = a * s - b * r
        theta = a * t - c * r
        iota = t * b - c * s
        disc = theta * theta - 2.0 * pi * iota
        sq = np.sqrt(np.maximum(disc, 0.0))
        # Both roots at once, axis 0 the sign of the square root.
        sign = np.array([-1.0, 1.0]).reshape((2,) + (1,) * disc.ndim)
        beta = (-theta + sign * sq) / pi
        linear = pi == 0.0
        if np.any(linear):
            beta = np.where(linear, np.where(theta != 0.0, -iota / theta, 0.0), beta)
        if lower is not None:
            beta = np.where(beta < lower, lower, beta)
        den = 0.5 * r * beta * beta + s * beta + t
        num = 0.5 * a * beta * beta + b * beta + c
        # A huge root (pi near 0) overflows beta^2; divide through by it.
        far = ~(np.isfinite(den) & np.isfinite(num))
        if np.any(far):
            den = np.where(far, 0.5 * r + s / beta + t / (beta * beta), den)
            num = np.where(far, 0.5 * a + b / beta + c / (beta * beta), num)
        cand = np.where(den > 0, num / den, np.inf)
        values = np.minimum(cand[0], cand[1])
        unbounded = disc < 0.0
        if np.any(unbounded):
            limit = np.where(r > 0, a / r, np.inf)
            values = np.where(unbounded, limit, values)
    return values
