import math

import numpy as np
import pytest

from sgevp.errors import DegenerateDenominator, UnboundedBelow
from sgevp.fractional1d import (
    OneDimCoefficients,
    psi_value,
    solve_1d,
    solve_1d_core,
    stationary_candidates,
)


def grid_minimum(c, lo=-100.0, hi=100.0, step=1e-4):
    """Independent dense grid-search oracle with local refinement."""
    if math.isfinite(c.lower):
        lo = max(lo, c.lower)
    grid = np.arange(lo, hi + step, step)
    den = 0.5 * c.r * grid * grid + c.s * grid + c.t
    num = 0.5 * c.a * grid * grid + c.b * grid + c.c
    vals = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
    beta = float(grid[np.argmin(vals)])
    for fine in (1e-6, 1e-8):
        lo2 = max(lo, beta - 200 * fine)
        grid = np.arange(lo2, beta + 200 * fine, fine)
        den = 0.5 * c.r * grid * grid + c.s * grid + c.t
        num = 0.5 * c.a * grid * grid + c.b * grid + c.c
        vals = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
        beta = float(grid[np.argmin(vals)])
    return beta, psi_value(c, beta)


def random_bounded_instance(rng):
    a, b = rng.standard_normal(2)
    cc = rng.standard_normal()
    r = abs(rng.standard_normal()) + 0.5
    s = rng.standard_normal() * 0.3
    # strictly positive denominator: t > s^2/(2r)
    t = s * s / (2.0 * r) + abs(rng.standard_normal()) + 0.1
    return OneDimCoefficients(a=a, b=b, c=cc, r=r, s=s, t=t)


def test_symmetric_instance():
    c = OneDimCoefficients(a=1.0, b=0.0, c=0.0, r=1.0, s=0.0, t=1.0)
    sol = solve_1d(c)
    assert sol.beta == pytest.approx(0.0)
    assert sol.value == pytest.approx(0.0)


def test_psi_value():
    c = OneDimCoefficients(a=1.0, b=1.0, c=1.0, r=1.0, s=1.0, t=1.0)
    assert psi_value(c, 0.0) == pytest.approx(1.0)
    assert psi_value(c, 1.0) == pytest.approx(1.0)
    c2 = OneDimCoefficients(a=2.0, b=-1.0, c=3.0, r=1.0, s=0.0, t=2.0)
    beta = 0.7
    assert psi_value(c2, beta) == pytest.approx(
        (0.5 * 2.0 * beta**2 - beta + 3.0) / (0.5 * beta**2 + 2.0)
    )


def test_psi_value_degenerate():
    c = OneDimCoefficients(a=1.0, b=0.0, c=0.0, r=1.0, s=-2.0, t=1.0)
    assert c.denominator(1.0) <= 0
    with pytest.raises(DegenerateDenominator):
        psi_value(c, 1.0)


def test_grid_oracle_agreement():
    rng = np.random.default_rng(10)
    for _ in range(50):
        c = random_bounded_instance(rng)
        try:
            sol = solve_1d(c)
        except UnboundedBelow:
            continue
        beta_g, val_g = grid_minimum(c)
        if abs(beta_g) > 99.0:
            continue  # optimum outside the oracle's window
        assert sol.value <= val_g + 1e-8
        assert abs(sol.value - val_g) <= 1e-6


def test_lower_bound_clamping():
    rng = np.random.default_rng(11)
    clamped = 0
    for _ in range(100):
        base = random_bounded_instance(rng)
        try:
            free = solve_1d(base)
        except UnboundedBelow:
            continue
        lower = free.beta + 1.0  # force the bound to bind
        c = OneDimCoefficients(
            a=base.a, b=base.b, c=base.c, r=base.r, s=base.s, t=base.t, lower=lower
        )
        sol = solve_1d(c)
        assert sol.beta >= lower - 1e-12
        if c.a / c.r < sol.value - 1e-9:
            # infimum is the a/r tail limit, approached but never attained;
            # outside the closed form's bounded-optimum assumption
            continue
        beta_g, val_g = grid_minimum(c, lo=lower, hi=lower + 100.0)
        assert abs(sol.value - val_g) <= 1e-6
        if sol.beta == pytest.approx(lower):
            clamped += 1
    assert clamped > 0


def test_pi_zero_linear_case():
    # a*s == b*r makes the stationarity quadratic linear
    c = OneDimCoefficients(a=1.0, b=2.0, c=0.5, r=0.5, s=1.0, t=2.0)
    assert c.a * c.s - c.b * c.r == 0.0
    cands = stationary_candidates(c)
    assert len(cands) == 1
    sol = solve_1d(c)
    beta_g, val_g = grid_minimum(c)
    assert abs(sol.value - val_g) <= 1e-6


def test_pi_and_theta_zero_constant():
    # numerator proportional to denominator: psi constant
    c = OneDimCoefficients(a=2.0, b=2.0, c=2.0, r=1.0, s=1.0, t=1.0)
    sol = solve_1d(c)
    assert sol.value == pytest.approx(2.0)
    assert sol.beta == pytest.approx(0.0)


def test_unbounded_below():
    # With a genuinely positive denominator the stationarity discriminant is
    # always nonnegative; the error path guards degenerate coefficient sets
    # where the caller's positivity assumption is broken.
    c = OneDimCoefficients(a=0.0, b=-1.0, c=0.0, r=1.0, s=1.0, t=-1.0)
    pi = c.a * c.s - c.b * c.r
    theta = c.a * c.t - c.c * c.r
    iota = c.t * c.b - c.c * c.s
    assert theta * theta - 2 * pi * iota < 0
    with pytest.raises(UnboundedBelow):
        solve_1d(c)


def test_limit_behavior():
    rng = np.random.default_rng(12)
    for _ in range(20):
        c = random_bounded_instance(rng)
        for beta in (1e8, -1e8):
            assert psi_value(c, beta) == pytest.approx(c.a / c.r, rel=1e-4)


def test_candidate_uniqueness():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(200):
        c = random_bounded_instance(rng)
        try:
            cands = stationary_candidates(c)
        except UnboundedBelow:
            continue
        if len(cands) != 2:
            continue
        try:
            v1, v2 = psi_value(c, cands[0]), psi_value(c, cands[1])
        except DegenerateDenominator:
            continue
        if abs(v1 - v2) <= 1e-12:
            continue
        sol = solve_1d(c)
        assert sol.value == pytest.approx(min(v1, v2), abs=1e-12)
        checked += 1
    assert checked > 100


def test_tie_returns_smaller_beta():
    # perfect symmetry: psi(beta) = psi(-beta), two tied minima
    c = OneDimCoefficients(a=-1.0, b=0.0, c=1.0, r=1.0, s=0.0, t=1.0)
    sol = solve_1d(c)
    cands = stationary_candidates(c)
    assert sol.beta == pytest.approx(min(max(b, c.lower) for b in cands))


def test_core_matches_solve_1d():
    rng = np.random.default_rng(14)
    for _ in range(300):
        c = random_bounded_instance(rng)
        lower = -math.inf if rng.random() < 0.5 else float(rng.standard_normal())
        c = OneDimCoefficients(a=c.a, b=c.b, c=c.c, r=c.r, s=c.s, t=c.t, lower=lower)
        try:
            sol = solve_1d(c)
        except UnboundedBelow:
            with pytest.raises(UnboundedBelow):
                solve_1d_core(c.a, c.b, c.c, c.r, c.s, c.t, c.lower)
            continue
        beta, value = solve_1d_core(c.a, c.b, c.c, c.r, c.s, c.t, c.lower)
        assert beta == pytest.approx(sol.beta, abs=1e-12)
        assert value == pytest.approx(sol.value, abs=1e-12)


def test_validate_rejects_nonfinite():
    with pytest.raises(ValueError):
        OneDimCoefficients(a=math.nan, b=0, c=0, r=1, s=0, t=1).validate()


def test_validate_denominator_checks():
    with pytest.raises(DegenerateDenominator):
        OneDimCoefficients(a=1, b=0, c=0, r=-1.0, s=0, t=1).validate()
    with pytest.raises(DegenerateDenominator):
        OneDimCoefficients(a=1, b=0, c=0, r=1.0, s=0, t=-1, lower=0.0).validate()


def test_huge_stationary_root_is_not_dropped():
    # pi = 1e-170 puts the better root at beta = 2e170, where beta^2
    # overflows; psi there is the a/r = 1 limit, below psi(0) = 2.
    beta, value = solve_1d_core(1.0, 1e-170, 2.0, 1.0, 2e-170, 1.0)
    assert beta == pytest.approx(2e170)
    assert value == pytest.approx(1.0, rel=1e-15)
    sol = solve_1d(OneDimCoefficients(a=1.0, b=1e-170, c=2.0, r=1.0, s=2e-170, t=1.0))
    assert (sol.beta, sol.value) == (beta, value)
