"""Closed-form global solver for the 1-D quadratic fractional problem.

Minimizes psi(b) = (a/2 b^2 + b_lin b + c) / (r/2 b^2 + s b + t) subject to
b >= lower.  The stationary points satisfy the quadratic
pi/2 b^2 + theta b + iota = 0 with

    pi    = a*s - b_lin*r
    theta = a*t - c*r
    iota  = t*b_lin - c*s

and the global minimizer over [lower, inf) is the better of the two
(clamped) roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateDenominator, UnboundedBelow

_TIE_TOL = 1e-15


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


def psi_value(c: OneDimCoefficients, beta: float) -> float:
    den = c.denominator(beta)
    if den <= 0:
        raise DegenerateDenominator(f"denominator {den:.6g} at beta={beta:.6g}")
    return c.numerator(beta) / den


def stationary_candidates(c: OneDimCoefficients) -> list[float]:
    """Unclamped real stationary points of psi (0, 1 or 2 of them).

    Raises UnboundedBelow when the stationarity quadratic has no real root,
    which with r > 0 means the infimum a/r is only approached at infinity.
    """
    pi = c.a * c.s - c.b * c.r
    theta = c.a * c.t - c.c * c.r
    iota = c.t * c.b - c.c * c.s
    if pi == 0.0:
        if theta == 0.0:
            # psi is constant along the stationarity condition; any point works.
            return [0.0]
        return [-iota / theta]
    disc = theta * theta - 2.0 * pi * iota
    if disc < 0.0:
        raise UnboundedBelow("no real stationary point; infimum approached at infinity")
    root = math.sqrt(disc)
    return [(-theta - root) / pi, (-theta + root) / pi]


def solve_1d(c: OneDimCoefficients) -> OneDimSolution:
    """Globally minimize psi over [lower, inf)."""
    c.validate()
    beta, value = solve_1d_core(c.a, c.b, c.c, c.r, c.s, c.t, c.lower)
    return OneDimSolution(beta=beta, value=value)


def solve_1d_core(
    a: float, b: float, c: float, r: float, s: float, t: float, lower: float = -math.inf
) -> tuple[float, float]:
    """The 1-D minimizer behind solve_1d, for inner loops.

    Returns (beta, value): the better of the clamped stationary points,
    ties to the smaller beta.  No dataclasses, no validation.  Raises
    UnboundedBelow on a negative discriminant.
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
        if value < best_value - _TIE_TOL or (
            abs(value - best_value) <= _TIE_TOL and beta < best_beta
        ):
            best_beta, best_value = beta, value
    return best_beta, best_value
