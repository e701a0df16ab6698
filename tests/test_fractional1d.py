import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgevp.errors import DegenerateDenominator, UnboundedBelow
from sgevp.fractional1d import OneDimCoefficients, solve_1d, solve_1d_core, solve_1d_values


def psi(c, beta):
    return c.numerator(beta) / c.denominator(beta)


def stationary_points(c):
    """Real roots of pi/2 b^2 + theta b + iota by numpy.roots, an oracle
    independent of the kernels' closed form; 0 where psi is constant."""
    pi = c.a * c.s - c.b * c.r
    theta = c.a * c.t - c.c * c.r
    iota = c.t * c.b - c.c * c.s
    if pi == 0.0 and theta == 0.0:
        return [0.0]
    roots = np.roots([0.5 * pi, theta, iota])
    return sorted(float(z.real) for z in roots if z.imag == 0.0)


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
    return beta, psi(c, beta)


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
    assert psi(c, 0.0) == pytest.approx(1.0)
    assert psi(c, 1.0) == pytest.approx(1.0)
    c2 = OneDimCoefficients(a=2.0, b=-1.0, c=3.0, r=1.0, s=0.0, t=2.0)
    beta = 0.7
    assert c2.numerator(beta) == pytest.approx(0.5 * 2.0 * beta**2 - beta + 3.0)
    assert c2.denominator(beta) == pytest.approx(0.5 * beta**2 + 2.0)
    # The kernels' value is psi at the returned beta.
    beta, value = solve_1d_core(c2.a, c2.b, c2.c, c2.r, c2.s, c2.t)
    assert value == pytest.approx(psi(c2, beta))


def test_psi_value_degenerate():
    # The stationary points are 0 and 1, and the denominator is -0.5 at 1:
    # the scalar kernel raises there, the batched one ignores that root.
    c = OneDimCoefficients(a=1.0, b=0.0, c=0.0, r=1.0, s=-2.0, t=1.0)
    assert c.denominator(1.0) <= 0
    assert stationary_points(c) == pytest.approx([0.0, 1.0])
    with pytest.raises(DegenerateDenominator):
        solve_1d_core(c.a, c.b, c.c, c.r, c.s, c.t)
    value = solve_1d_values(*(np.array([v]) for v in (c.a, c.b, c.c, c.r, c.s, c.t)))
    assert value.tolist() == [0.0]


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
    assert stationary_points(c) == pytest.approx([-2.0])
    beta, _ = solve_1d_core(c.a, c.b, c.c, c.r, c.s, c.t)
    assert beta == -2.0  # -iota / theta = -3.5 / 1.75
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
    with pytest.raises(UnboundedBelow):
        solve_1d_core(c.a, c.b, c.c, c.r, c.s, c.t)
    # The batched kernel reads the a/r limit at infinity instead.
    value = solve_1d_values(*(np.array([v]) for v in (c.a, c.b, c.c, c.r, c.s, c.t)))
    assert value.tolist() == [c.a / c.r]


def test_limit_behavior():
    rng = np.random.default_rng(12)
    for _ in range(20):
        c = random_bounded_instance(rng)
        for beta in (1e8, -1e8):
            assert psi(c, beta) == pytest.approx(c.a / c.r, rel=1e-4)


def test_candidate_uniqueness():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(200):
        c = random_bounded_instance(rng)
        cands = stationary_points(c)
        if len(cands) != 2:
            continue
        if min(c.denominator(cands[0]), c.denominator(cands[1])) <= 0:
            continue
        v1, v2 = psi(c, cands[0]), psi(c, cands[1])
        if abs(v1 - v2) <= 1e-12:
            continue
        sol = solve_1d(c)
        assert sol.value == pytest.approx(min(v1, v2), abs=1e-12)
        checked += 1
    assert checked > 100


# psi is flat to 2e-16 between its two stationary points, -sqrt(2) (the
# first root) and +sqrt(2), which the closed form evaluates 2^-52 apart.
NEAR_TIE = (1.0, 0.15257325287711287, 1.0, 1.0, 0.15257325287711318, 1.0)


def test_near_tie_returns_the_smaller_value():
    beta, value = solve_1d_core(*NEAR_TIE)
    assert beta == pytest.approx(math.sqrt(2.0)) and value == 0.9999999999999998
    assert solve_1d_values(*(np.array([v]) for v in NEAR_TIE)).tolist() == [value]


@pytest.mark.parametrize("scale", [1e-74, 1e-20, 1e-8, 1.0, 1e8])
def test_tiny_distinct_values_do_not_tie(scale):
    # psi(beta) = -scale beta / (beta^2/2 + 1) has its minimum -scale/sqrt(2)
    # at beta = sqrt(2) and its maximum +scale/sqrt(2) at -sqrt(2): at any
    # scale the two values lie 2 scale/sqrt(2) apart and must not tie.
    beta, value = solve_1d_core(0.0, -scale, 0.0, 1.0, 0.0, 1.0)
    assert beta == pytest.approx(math.sqrt(2.0))
    assert value == pytest.approx(-scale / math.sqrt(2.0))


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
    batched = solve_1d_values(*(np.array([v]) for v in (1.0, 1e-170, 2.0, 1.0, 2e-170, 1.0)))
    assert batched.tolist() == [value]


def batched_oracle(a, b, c, r, s, t, lower):
    """The value solve_1d_values must return for one element: solve_1d_core's
    value where it returns; the a/r limit (+inf for r <= 0) where it raises
    UnboundedBelow; and where it raises DegenerateDenominator, the better of
    the clamped closed-form roots with a positive denominator, evaluated as
    solve_1d_core evaluates them."""
    try:
        return solve_1d_core(a, b, c, r, s, t, lower)[1]
    except UnboundedBelow:
        return a / r if r > 0 else math.inf
    except DegenerateDenominator:
        pass
    # The closed form, not numpy.roots: it may lose a small root to
    # cancellation, and the kernels share that rounding.
    pi, theta, iota = a * s - b * r, a * t - c * r, t * b - c * s
    if pi == 0.0:
        roots = [0.0 if theta == 0.0 else -iota / theta]
    else:
        sq = math.sqrt(theta * theta - 2.0 * pi * iota)
        roots = [(-theta - sq) / pi, (-theta + sq) / pi]
    values = [math.inf]
    for beta in (lower if z < lower else z for z in roots):
        den = 0.5 * r * beta * beta + s * beta + t
        num = 0.5 * a * beta * beta + b * beta + c
        if not (math.isfinite(den) and math.isfinite(num)):
            den = 0.5 * r + s / beta + t / (beta * beta)
            num = 0.5 * a + b / beta + c / (beta * beta)
        if den > 0:
            values.append(num / den)
    return min(values)


coefficient = st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
# r, t >= 0 mostly: the denominator is then positive somewhere and the
# scalar kernel returns more often than it raises.
square = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 4.0), coefficient)
lower_bound = st.one_of(st.just(-math.inf), st.integers(-2, 2).map(float), st.floats(-3.0, 3.0))
rows_1d = st.tuples(coefficient, coefficient, coefficient, square, coefficient, square, lower_bound)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(rows_1d, min_size=1, max_size=6))
@example([(0.0, -3.790833706083548e-74, 0.0, 1.0, 0.0, 1.0, -math.inf)])  # values at 1e-74
@example([(*NEAR_TIE, -math.inf)])
def test_batched_kernel_matches_the_scalar_kernel_with_a_lower_bound(rows):
    columns = [np.array(column) for column in zip(*rows)]
    values = solve_1d_values(*columns)
    assert values.shape == (len(rows),)
    for row, value in zip(rows, values):
        # == and not the bytes: the kernels may round a zero to opposite signs.
        expected = batched_oracle(*row)
        assert value == expected or (math.isnan(value) and math.isnan(expected))
    # lower = None skips the clamp, which lower = -inf leaves a no-op.
    free = solve_1d_values(*columns[:6])
    assert free.tobytes() == solve_1d_values(*columns[:6], np.full(len(rows), -math.inf)).tobytes()


# Rows that take solve_1d_values' skippable branches: pi == 0 with a linear
# root, pi == theta == 0, and a negative discriminant; and rows that take
# none of them (pi != 0, disc >= 0).
BRANCH_ROWS = [
    (1.0, 0.0, 0.0, 1.0, 0.0, 1.0, -math.inf),
    (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0),
    (-1.0, 0.0, 1.0, 1.0, 2.0, 1.0, -1.0),
]
PLAIN_ROWS = [(1.0, 1.0, 0.0, 1.0, 0.0, 1.0, -math.inf), (2.0, 0.0, 1.0, 1.0, 1.0, 2.0, 0.5)]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(rows_1d, min_size=1, max_size=6))
@example(PLAIN_ROWS)
@example(BRANCH_ROWS)
@example(PLAIN_ROWS + BRANCH_ROWS)
def test_batched_kernel_is_elementwise(rows):
    # A branch the stack takes for some rows, or skips for all, changes no
    # element: the stack equals its rows solved one at a time, bit for bit.
    columns = [np.array(column) for column in zip(*rows)]
    for lower in (None, columns[6]):
        bounds = [None if lower is None else lower[m:m + 1] for m in range(len(rows))]
        stacked = solve_1d_values(*columns[:6], lower)
        alone = [
            solve_1d_values(*(col[m:m + 1] for col in columns[:6]), bounds[m])
            for m in range(len(rows))
        ]
        assert stacked.tobytes() == np.concatenate(alone).tobytes()
