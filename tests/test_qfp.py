import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgevp import linalg
from sgevp.errors import (
    DegenerateDenominator,
    NonPositiveGamma,
    NotPositiveDefinite,
    SgevpError,
    UnboundedBelow,
)
from sgevp.fractional1d import OneDimCoefficients, solve_1d, solve_1d_core
from sgevp.qfp import (
    _SHRUNK,
    Certificate,
    QfpSubproblem,
    _whiten,
    assemble_reduced,
    default_bisection_tol,
    j_alpha,
    pencil_direction,
    pencil_keys,
    positive_definite,
    _cd_start,
    projected_gradient,
    solve_bisection,
    solve_coordinate_descent,
)
from sgevp.subproblem import BlockSubproblem, solve_exact

from _util import random_qfp, random_spd, random_sym


def test_assemble_reduced_identity():
    m = 3
    q = QfpSubproblem(Q=np.eye(m), p=np.zeros(m), w=0.5, R=np.eye(m), c=np.zeros(m), v=0.5)
    red = assemble_reduced(q)
    assert np.allclose(red.O, np.eye(m))
    assert np.allclose(red.g, 0.0)
    assert red.gamma == pytest.approx(1.0)
    assert red.delta == pytest.approx(1.0)
    assert np.allclose(red.Z, np.eye(m + 1))


def test_assemble_reduced_diagonal():
    Q = np.diag([2.0, 8.0])
    R = np.diag([2.0, 4.0])
    p = np.array([1.0, -2.0])
    w = 0.7
    q = QfpSubproblem(Q=Q, p=p, w=w, R=R, c=np.zeros(2), v=1.0)
    red = assemble_reduced(q)
    assert np.allclose(red.O, np.diag([1.0, 2.0]))
    assert np.allclose(red.g, p / np.sqrt(np.diag(R)))
    assert red.delta == pytest.approx(2 * w)


def test_assemble_reduced_equivalence():
    rng = np.random.default_rng(20)
    q = random_qfp(rng, 4)
    red = assemble_reduced(q)
    L = np.linalg.inv(red.L_inv)
    for _ in range(100):
        y = rng.standard_normal(4)
        u = L.T @ y + red.L_inv @ q.c
        reduced_val = (0.5 * u @ red.O @ u + u @ red.g + 0.5 * red.delta) / (
            0.5 * u @ u + 0.5 * red.gamma
        )
        assert reduced_val == pytest.approx(q.value(y), rel=1e-9)


def test_gamma_validation():
    # v too small makes the denominator hit zero somewhere
    q = QfpSubproblem(
        Q=np.eye(2), p=np.zeros(2), w=0.0, R=np.eye(2), c=np.array([1.0, 0.0]), v=0.1
    )
    with pytest.raises(NonPositiveGamma):
        assemble_reduced(q)


def test_j_alpha_linear_when_g_zero():
    eig = linalg.sym_eig(np.diag([2.0, 3.0]))
    g = np.zeros(2)
    assert j_alpha(eig, g, 1.0, 4.0, 0.0) == pytest.approx(2.0)
    assert j_alpha(eig, g, 1.0, 4.0, 1.0) == pytest.approx(1.5)


def test_j_alpha_direct():
    eig = linalg.sym_eig(np.diag([2.0]))
    assert j_alpha(eig, np.array([1.0]), 1.0, 0.0, 0.0) == pytest.approx(-0.25)


def test_j_alpha_parametric_oracle():
    # J(alpha) = min_u (1/2 u'Ou + u'g + delta/2) - alpha*(|u|^2/2 + gamma/2)
    rng = np.random.default_rng(21)
    O = random_sym(rng, 4)
    eig = linalg.sym_eig(O)
    g = rng.standard_normal(4)
    gamma, delta = 0.8, -0.3
    for alpha in (float(eig.values[0]) - 2.0, float(eig.values[0]) - 0.5):
        u = linalg.solve_shifted(eig, alpha, g)
        direct = (
            0.5 * u @ O @ u + u @ g + 0.5 * delta
            - alpha * (0.5 * u @ u + 0.5 * gamma)
        )
        assert j_alpha(eig, g, gamma, delta, alpha) == pytest.approx(direct, abs=1e-9)


def test_j_monotone():
    rng = np.random.default_rng(22)
    q = random_qfp(rng, 4)
    red = assemble_reduced(q)
    eig = linalg.sym_eig(red.O)
    lo = float(np.linalg.eigvalsh(red.Z)[0])
    hi = float(eig.values[0]) - 1e-6
    alphas = np.linspace(min(lo, hi - 1.0), hi, 30)
    vals = [j_alpha(eig, red.g, red.gamma, red.delta, a) for a in alphas]
    assert all(v1 >= v2 - 1e-9 for v1, v2 in zip(vals, vals[1:]))


def test_bisection_zero_minimum():
    q = QfpSubproblem(
        Q=np.diag([1.0, 2.0]), p=np.zeros(2), w=0.0, R=np.eye(2), c=np.zeros(2), v=0.5
    )
    sol = solve_bisection(q)
    assert sol.value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(sol.y, 0.0, atol=1e-6)


def test_bisection_g_zero_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(10):
        R = random_spd(rng, 3)
        c = rng.standard_normal(3)
        gamma = 0.5 + abs(rng.standard_normal())
        v = 0.5 * (float(c @ np.linalg.solve(R, c)) + gamma)
        # choose Q = lam*R and p = lam*c so that g = 0
        lam = rng.standard_normal()
        w_free = abs(rng.standard_normal()) + 0.1
        q = QfpSubproblem(Q=lam * R, p=lam * c, w=lam * v + w_free, R=R, c=c, v=v)
        red = assemble_reduced(q)
        assert np.allclose(red.g, 0.0, atol=1e-8)
        sol = solve_bisection(q)
        if sol.certificate is Certificate.BISECTION_ROOT:
            assert sol.alpha_star == pytest.approx(red.delta / red.gamma, abs=1e-6)
            assert np.allclose(sol.y, -np.linalg.solve(R, c), atol=1e-5)


def test_bisection_m1_matches_solve_1d():
    rng = np.random.default_rng(24)
    for _ in range(50):
        q = random_qfp(rng, 1)
        sol = solve_bisection(q)
        ref = solve_1d(OneDimCoefficients(
            a=float(q.Q[0, 0]), b=float(q.p[0]), c=q.w,
            r=float(q.R[0, 0]), s=float(q.c[0]), t=q.v,
        ))
        assert sol.value == pytest.approx(ref.value, abs=1e-8)


def test_bisection_sandwich_and_root_identity():
    rng = np.random.default_rng(25)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        q = random_qfp(rng, m)
        red = assemble_reduced(q)
        sol = solve_bisection(q)
        lam_Z = float(np.linalg.eigvalsh(red.Z)[0])
        lam_O = float(np.linalg.eigvalsh(red.O)[0])
        assert lam_Z - 1e-8 <= sol.value < lam_O
        if sol.certificate is Certificate.BISECTION_ROOT:
            assert abs(sol.value - sol.alpha_star) <= 2e-6
            eig = linalg.sym_eig(red.O)
            assert abs(j_alpha(eig, red.g, red.gamma, red.delta, sol.alpha_star)) \
                <= 1e-6 * (1 + abs(red.delta))


def test_bisection_iteration_bound():
    rng = np.random.default_rng(26)
    for _ in range(50):
        q = random_qfp(rng, 4)
        red = assemble_reduced(q)
        lo = float(np.linalg.eigvalsh(red.Z)[0])
        hi = float(np.linalg.eigvalsh(red.O)[0])
        tol = default_bisection_tol(lo, hi)
        sol = solve_bisection(q)
        assert sol.iterations <= math.ceil(math.log2(max(hi - lo, tol) / tol)) + 2


def test_cd_fixed_point_of_bisection_optimum():
    rng = np.random.default_rng(27)
    for _ in range(20):
        q = random_qfp(rng, 4)
        opt = solve_bisection(q)
        cd = solve_coordinate_descent(q, y0=opt.y)
        assert cd.value == pytest.approx(opt.value, abs=1e-8)
        assert cd.iterations <= 2


def test_cd_m1_matches_solve_1d():
    rng = np.random.default_rng(28)
    for _ in range(30):
        q = random_qfp(rng, 1)
        cd = solve_coordinate_descent(q)
        ref = solve_1d(OneDimCoefficients(
            a=float(q.Q[0, 0]), b=float(q.p[0]), c=q.w,
            r=float(q.R[0, 0]), s=float(q.c[0]), t=q.v,
        ))
        assert cd.value == pytest.approx(ref.value, abs=1e-8)


def test_cd_orders_agree():
    rng = np.random.default_rng(29)
    q = random_qfp(rng, 5)
    assert solve_coordinate_descent(q).value >= solve_bisection(q).value - 1e-9


def test_cd_skips_a_move_onto_the_denominator_zero():
    # c = 0 and v = 0 (x_N = 0 in a block): coordinate descent escapes to
    # y = (0, 4.2e12), and moving y_1 to its bound 0 makes y = 0, where the
    # denominator vanishes; rounding kept the 1-D denominator positive, and
    # the move used to raise DegenerateDenominator.
    a = 0.12124680664305405
    q = QfpSubproblem(
        Q=np.array([[1e-05, a], [a, 1e-05]]), p=np.array([-1e-05, 0.0]), w=8.527721682508973e-06,
        R=np.diag([0.9387826004687733, 0.7404153667133727]), c=np.zeros(2), v=0.0,
        lower_bound=0.0,
    )
    sol = solve_coordinate_descent(q)
    assert np.all(sol.y >= 0.0) and q.denominator(sol.y) > 0.0
    assert sol.value == q.value(sol.y)


def test_cd_does_not_step_onto_an_overflowing_denominator():
    # From the start (0, 1.41) the exact 1-D move along y_0 lies at
    # y_0 = -5.1e303, where the denominator overflows; taking it would end
    # in a nan value.
    t = 5.6e-309
    q = QfpSubproblem(
        Q=np.array([[1e-5, t], [t, 1e-5]]), p=np.zeros(2), w=2e-5,
        R=np.eye(2) / 2, c=np.zeros(2), v=0.0,
    )
    sol = solve_coordinate_descent(q)
    assert np.all(np.isfinite(sol.y)) and math.isfinite(sol.value)
    assert sol.value == q.value(sol.y)


@st.composite
def cd_cases(draw, sizes=st.integers(1, 6)):
    """A QFP of m coordinates, m drawn from sizes, with R SPD, a denominator
    that is positive away from y = 0 (gamma >= 0; gamma = 0 when c = 0 and
    v = 0) and a lower bound of None, 0 or -1."""
    m = draw(sizes)
    entries = st.one_of(st.just(0.0), st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
    M = draw(arrays(float, (m, m), elements=entries))
    G = draw(arrays(float, (m, m), elements=st.floats(-4.0, 4.0)))
    R = G @ G.T / m + 0.5 * np.eye(m)
    if draw(st.booleans()):
        c, v = np.zeros(m), 0.0
    else:
        c = draw(arrays(float, m, elements=st.floats(-4.0, 4.0)))
        v = 0.5 * float(c @ np.linalg.solve(R, c)) + draw(st.floats(1e-3, 4.0))
    return QfpSubproblem(
        Q=0.5 * (M + M.T), p=draw(arrays(float, m, elements=entries)),
        w=draw(st.floats(-4.0, 4.0)), R=R, c=c, v=v,
        lower_bound=draw(st.sampled_from([None, 0.0, -1.0])),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cd_cases())
def test_cd_value_is_the_value_of_its_point(q):
    # num and den follow each move in O(1) and are evaluated exactly only
    # where rounding could dominate; the value returned is still finite and
    # the objective at the point returned.
    sol = solve_coordinate_descent(q)
    assert math.isfinite(sol.value)
    assert sol.value == q.value(sol.y)
    if q.lower_bound is not None:
        assert np.all(sol.y >= q.lower_bound)


def cd_by_numpy(q, y0=None, max_sweeps=200, obj_tol=None, paths=None):
    """solve_coordinate_descent's loop as it was written on numpy arrays: a
    numpy scalar read per coordinate and two vector updates per move.
    Returns (y, value, sweeps); paths, a Counter, counts the moves each
    skip path and the exact re-evaluation took, and the end on a zero
    denominator."""
    paths = Counter() if paths is None else paths
    m = q.dim
    lb = q.lower_bound
    if y0 is not None:
        paths["given y0"] += 1
    elif q.denominator(np.zeros(m) if lb is None or lb <= 0.0 else np.full(m, lb)) <= 0.0:
        paths["eigenvector start"] += 1
    y = _cd_start(q) if y0 is None else np.array(y0, dtype=float)
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
    den_ref = den
    y_exact, den_exact = y.copy(), den
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        f_before = num / den
        for i in range(m):
            lower = -math.inf if lb is None else lb - float(y[i])
            q_ii, r_ii, qy_i, ry_i = float(q.Q[i, i]), float(q.R[i, i]), float(Qy[i]), float(Ry[i])
            try:
                beta, val = solve_1d_core(q_ii, qy_i, num, r_ii, ry_i, den, lower)
            except (UnboundedBelow, DegenerateDenominator) as error:
                paths[type(error).__name__] += 1
                continue
            if beta == 0.0 or val >= num / den:
                continue
            den_new = den + beta * (ry_i + 0.5 * r_ii * beta)
            exact = den_new < _SHRUNK * den_ref
            y_i = y[i]
            y[i] += beta
            if exact:
                paths["exact"] += 1
                den_new = q.denominator(y)
            if not 0.0 < den_new < math.inf:
                paths["zero denominator" if den_new <= 0.0 else "overflow"] += 1
                y[i] = y_i
                continue
            Qy += beta * q.Q[:, i]
            Ry += beta * q.R[:, i]
            if exact:
                num, den_ref = q.numerator(y), den_new
                y_exact, den_exact = y.copy(), den_new
            else:
                num += beta * (qy_i + 0.5 * q_ii * beta)
                den_ref = max(den_ref, den_new)
            den = den_new
        if f_before - num / den < obj_tol:
            break
    den = q.denominator(y)
    if not den > 0.0:
        paths["zero denominator at the end"] += 1
        y, den = y_exact, den_exact
    return y, q.numerator(y) / den, sweeps


def check_cd_matches_numpy(q, y0=None, max_sweeps=200):
    """solve_coordinate_descent equals cd_by_numpy bit for bit, or raises
    the error it raises; RuntimeWarnings are errors.  Returns the paths."""
    paths = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            y, value, sweeps = cd_by_numpy(q, y0, max_sweeps, paths=paths)
        except SgevpError as error:
            with pytest.raises(type(error)):
                solve_coordinate_descent(q, y0=y0, max_sweeps=max_sweeps)
            paths[f"raises {type(error).__name__}"] += 1
            return paths
        sol = solve_coordinate_descent(q, y0=y0, max_sweeps=max_sweeps)
    assert sol.y.dtype == y.dtype and sol.y.tobytes() == y.tobytes()
    assert sol.value == value
    assert sol.iterations == sweeps
    if sweeps == max_sweeps:
        paths["max_sweeps"] += 1
    return paths


def cd_qfp(Q, p, w, R, c, v, lower_bound=None):
    return QfpSubproblem(
        Q=np.array(Q, dtype=float), p=np.array(p, dtype=float), w=w,
        R=np.array(R, dtype=float), c=np.array(c, dtype=float), v=v, lower_bound=lower_bound,
    )


TINY = 5.6e-309
# One QFP per path of the loop (found by a random search over small QFPs with
# entries in multiples of 0.5, except the overflow QFP of the test above),
# with its start.
CD_PATHS = {
    "eigenvector start": (cd_qfp([[-1.0]], [3.0], -3.0, [[1.5]], [0.0], 0.0, 0.0), None),
    "exact": (cd_qfp([[-1.0]], [3.0], -3.0, [[1.5]], [0.0], 0.0, 0.0), None),
    "UnboundedBelow": (cd_qfp([[3.0]], [3.0], 0.0, [[1.5]], [0.0], 0.0, 0.0), None),
    "DegenerateDenominator": (cd_qfp([[2.0]], [2.0], -1.0, [[0.5]], [0.0], 0.0), None),
    "zero denominator": (cd_qfp(
        [[2.0, 1.0], [1.0, 1.0]], [1.0, 1.5], -0.5, [[4.5, 2.0], [2.0, 3.0]],
        [0.0, 0.0], 0.0, 0.0,
    ), None),
    "overflow": (cd_qfp(
        [[1e-5, TINY], [TINY, 1e-5]], [0.0, 0.0], 2e-5, np.eye(2) / 2, [0.0, 0.0], 0.0,
    ), None),
    # A move lands exactly on y = 0, where the O(1) denominator reads 6.5e-32:
    # both loops end there and return the last point whose denominator was
    # evaluated exactly, y = (1.7e-15, 4.2e-15).
    "zero denominator at the end": (cd_qfp(
        [[-2.0, 0.0], [0.0, -2.0]], [-1.0, 1.0], -1.0, [[4.5, -2.0], [-2.0, 3.5]],
        [0.0, 0.0], 0.0, 0.0,
    ), None),
    # The unbounded infimum lies at infinity: the sweeps never settle.
    "max_sweeps": (cd_qfp(
        [[-2.0, 0.5], [0.5, 3.0]], [2.0, -2.0], 1.0, [[2.5, 2.0], [2.0, 2.5]],
        [-2.0, 0.0], 3.2222222222222223,
    ), None),
    "given y0": (cd_qfp(
        [[-2.0, 0.5], [0.5, -3.0]], [-1.0, 0.0], -1.0, [[3.0, -1.0], [-1.0, 4.5]],
        [1.0, 0.0], 2.0, 0.0,
    ), np.array([0.5, 2.0])),
}


@pytest.mark.parametrize("path", list(CD_PATHS))
def test_cd_equals_the_numpy_loop_on_each_path(path):
    q, y0 = CD_PATHS[path]
    paths = check_cd_matches_numpy(q, y0)
    assert paths[path] > 0


def test_cd_ends_at_a_point_with_an_exact_positive_denominator():
    # The O(1) update read 6.5e-32 at y = 0, where the denominator is 0; the
    # solver used to raise DegenerateDenominator from its final value.
    q = CD_PATHS["zero denominator at the end"][0]
    sol = solve_coordinate_descent(q)
    assert q.denominator(sol.y) > 0.0 and np.all(sol.y >= 0.0)
    assert sol.value == q.value(sol.y)


def test_cd_start_at_a_zero_denominator_is_the_bottom_generalized_eigenvector():
    # c = 0 and v = 0 (x_N = 0 in a block): the denominator vanishes at
    # y = 0, and the start is the bottom eigenvector of the pencil (Q, R),
    # scaled to y'Ry = 1, from the package's own change of variables.
    import scipy.linalg as sla

    rng = np.random.default_rng(35)
    for m in (1, 2, 3, 5, 8):
        Q, R = random_sym(rng, m), random_spd(rng, m)
        assert not np.array_equal(R, np.eye(m))
        q = QfpSubproblem(Q=Q, p=rng.standard_normal(m), w=0.3, R=R, c=np.zeros(m), v=0.0)
        y0 = _cd_start(q)
        ryy = float(y0 @ q.R @ y0)
        assert abs(ryy - 1.0) <= 1e-12
        lam = float(sla.eigh(q.Q, q.R, eigvals_only=True)[0])
        assert abs(float(y0 @ q.Q @ y0) / ryy - lam) <= 1e-12 * abs(lam)


@st.composite
def cd_oracle_cases(draw):
    """(qfp, y0): m <= 8, and a start y0 above the bound with a positive
    denominator, or None (the start _cd_start picks)."""
    q = draw(cd_cases(sizes=st.integers(1, 8)))
    if not draw(st.booleans()):
        return q, None
    low = -4.0 if q.lower_bound is None else q.lower_bound
    y0 = draw(arrays(float, q.dim, elements=st.floats(low, 4.0)))
    return q, y0 if q.denominator(y0) > 0 else None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cd_oracle_cases())
@example(CD_PATHS["max_sweeps"])
def test_cd_equals_the_numpy_loop(case):
    # The loop on Python floats rounds every operation as the numpy loop
    # did, so y, the value and the sweep count agree bit for bit.
    check_cd_matches_numpy(*case)


def test_cd_bound_kkt():
    rng = np.random.default_rng(30)
    found_active = 0
    for _ in range(30):
        q = random_qfp(rng, 4)
        free = solve_bisection(q)
        if np.all(free.y > 0):
            continue
        bounded = QfpSubproblem(Q=q.Q, p=q.p, w=q.w, R=q.R, c=q.c, v=q.v, lower_bound=0.0)
        sol = solve_coordinate_descent(bounded)
        assert np.all(sol.y >= -1e-12)
        if sol.iterations >= 200:
            # bounded infimum approached along an escaping ray: the optimum
            # is not attained and sweeps never settle; outside Proposition
            # 1's scope
            continue
        if np.any(sol.y <= 1e-10):
            found_active += 1
        # coordinate-wise minimality: an exact 1-D re-solve of every
        # coordinate offers no (attained) improvement
        num = bounded.numerator(sol.y)
        den = bounded.denominator(sol.y)
        Qy = bounded.Q @ sol.y + bounded.p
        Ry = bounded.R @ sol.y + bounded.c
        for i in range(4):
            c1 = OneDimCoefficients(
                a=float(bounded.Q[i, i]), b=float(Qy[i]), c=num,
                r=float(bounded.R[i, i]), s=float(Ry[i]), t=den,
                lower=-float(sol.y[i]),
            )
            ref = solve_1d(c1)
            assert ref.value >= sol.value - 1e-8 * (1 + abs(sol.value))
    assert found_active > 0


def test_cd_cross_solver_agreement():
    rng = np.random.default_rng(31)
    agree = 0
    total = 50
    for _ in range(total):
        m = int(rng.integers(2, 7))
        q = random_qfp(rng, m)
        ref = solve_bisection(q).value
        best = math.inf
        for _ in range(10):
            y0 = rng.standard_normal(m)
            if q.denominator(y0) <= 0:
                continue
            best = min(best, solve_coordinate_descent(q, y0=y0).value)
        if abs(best - ref) <= 1e-6:
            agree += 1
    assert agree >= int(0.9 * total)


def test_projected_gradient_finite_difference():
    rng = np.random.default_rng(32)
    for _ in range(30):
        q = random_qfp(rng, 4)
        y = rng.standard_normal(4)
        if q.denominator(y) <= 0:
            continue
        grad = projected_gradient(q, y)
        for i in range(4):
            h = 1e-6 * (1 + abs(y[i]))
            e = np.zeros(4)
            e[i] = h
            fd = (q.value(y + e) - q.value(y - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-5 * (1 + abs(fd)))


def test_projected_gradient_boundary_branch():
    q = QfpSubproblem(
        Q=np.eye(2), p=np.array([1.0, -1.0]), w=1.0,
        R=np.eye(2), c=np.zeros(2), v=1.0, lower_bound=0.0,
    )
    y = np.zeros(2)
    grad = projected_gradient(q, y)
    # raw gradient is (1, -1)/1; positive component clipped at the bound
    assert grad[0] == pytest.approx(0.0)
    assert grad[1] == pytest.approx(-1.0)


def test_homogeneous_gamma_zero():
    # x_N = 0 block: c = 0, v = 0 -> plain generalized eigenvalue problem
    rng = np.random.default_rng(33)
    Q = random_sym(rng, 3)
    R = random_spd(rng, 3)
    q = QfpSubproblem(Q=Q, p=np.zeros(3), w=0.0, R=R, c=np.zeros(3), v=0.0)
    sol = solve_bisection(q)
    import scipy.linalg as sla

    lam = float(sla.eigh(Q, R, eigvals_only=True, subset_by_index=[0, 0])[0])
    assert sol.value == pytest.approx(lam, abs=1e-8)


def test_gamma_zero_with_affine_numerator():
    # homogeneous denominator but constant in the numerator: infimum is the
    # bottom generalized eigenvalue, approached at infinity
    rng = np.random.default_rng(34)
    Q = random_sym(rng, 3)
    R = random_spd(rng, 3)
    q = QfpSubproblem(Q=Q, p=np.zeros(3), w=0.5, R=R, c=np.zeros(3), v=0.0)
    sol = solve_bisection(q)
    import scipy.linalg as sla

    lam = float(sla.eigh(Q, R, eigvals_only=True, subset_by_index=[0, 0])[0])
    assert sol.value == pytest.approx(lam, abs=1e-6)



def test_gamma_zero_root_below_the_first_bracket():
    # gamma = 0, delta = 1 and g = 10: there is no Z to bound the root from
    # below, and J stays negative down to alpha = -62, so the lower bracket
    # expands until J turns nonnegative.  The root is the pencil key
    # lambda_min(O - g g'/delta) = 1 - 100.
    q = QfpSubproblem(
        Q=np.array([[1.0]]), p=np.array([10.0]), w=0.5, R=np.array([[1.0]]),
        c=np.zeros(1), v=0.0,
    )
    red = assemble_reduced(q)
    assert red.gamma == 0.0 and red.delta == 1.0 and red.Z is None
    key = float(pencil_keys(q.Q[None], q.p[None], q.w, q.R[None], q.c[None], q.v)[0])
    assert key == -99.0
    sol = solve_bisection(q)
    assert sol.certificate is Certificate.BISECTION_ROOT
    tol = default_bisection_tol(key, float(red.O[0, 0]))
    assert abs(sol.alpha_star - key) <= tol
    assert abs(sol.value - key) <= tol


def general_whiten(Q, p, w, R, c, v):
    """_whiten's general route written out with L^{-1} = inv(cholesky(R))."""
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


def identity_stack(case, m, n=5):
    """(Q, p, w, R, c, v) with every R = I.  "signed zeros" scatters -0.0
    in Q, c and p - Qc; "x_N = 0" is a block whose fixed coordinates are
    all zero, c = +-0.0 and v = 0."""
    rng = np.random.default_rng(m)
    Q = np.stack([random_sym(rng, m) for _ in range(n)])
    p = rng.standard_normal((n, m))
    c = rng.standard_normal((n, m))
    w, v = float(rng.standard_normal()), 0.5 * float(np.max(np.sum(c * c, axis=1))) + 1.0
    if case != "random":
        zeros = rng.random((n, m)) < 0.5
        c = np.where(zeros, -0.0, 0.0 if case == "x_N = 0" else c)
        p = np.where(zeros, -0.0, p)
        Q[:, 0, 0] = -0.0
    if case == "x_N = 0":
        v = 0.0
    return Q, p, w, np.broadcast_to(np.eye(m), (n, m, m)).copy(), c, v


def refuse(*args, **kwargs):
    raise AssertionError("factorized or eigendecomposed an identity R")


def bits(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("m", [1, 6])
@pytest.mark.parametrize("case", ["random", "signed zeros", "x_N = 0"])
def test_whiten_on_identity_R_is_the_general_route_bit_for_bit(m, case, monkeypatch):
    stack = identity_stack(case, m)
    expected = general_whiten(*stack)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    got = _whiten(*stack)
    assert bits(got) == bits(expected)
    assert [a.shape for a in got] == [a.shape for a in expected]


def test_assemble_reduced_skips_factor_and_eigenvalue_check_on_identity_R(monkeypatch):
    Q, p, w, R, c, v = identity_stack("signed zeros", 4, n=1)
    q = QfpSubproblem(Q=Q[0], p=p[0], w=w, R=R[0], c=c[0], v=v)
    monkeypatch.setattr(linalg, "min_eigenvalue", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    red = assemble_reduced(q)
    monkeypatch.undo()
    L_inv, O, g, gamma, delta = general_whiten(q.Q[None], q.p[None], q.w, q.R[None], q.c[None], q.v)
    assert bits([red.O, red.g, red.L_inv]) == bits([O[0], g[0], L_inv[0]])
    assert (red.gamma, red.delta) == (float(gamma[0]), float(delta[0])) and red.gamma > 0.0


@pytest.mark.parametrize("where", ["R", "Q", "c", "p"])
def test_whiten_takes_the_general_route_off_the_identity(where, monkeypatch):
    # One R off the identity, or a non-finite operand (the products with
    # L^{-1} spread nan from an inf), leaves the whole stack to the
    # factorization.
    Q, p, w, R, c, v = identity_stack("random", 3)
    if where == "R":
        R[2] = random_spd(np.random.default_rng(3), 3)
    else:
        {"Q": Q, "c": c, "p": p}[where][1, 0] = np.inf
    calls = []
    cholesky = np.linalg.cholesky
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = general_whiten(Q, p, w, R, c, v)
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
        got = _whiten(Q, p, w, R, c, v)
    assert len(calls) == 1
    assert bits(got) == bits(expected)


@st.composite
def symmetric_stacks(draw):
    """A stack of symmetric m x m matrices, m in 1..8, each of one kind:
    random (mostly indefinite), positive definite, singular with an exact
    zero pivot (a zero row and column, or a row and column repeated, whose
    elimination cancels to 0.0 exactly), or holding a nan or an inf."""
    m = draw(st.integers(1, 8))
    kinds = draw(st.lists(
        st.sampled_from(["random", "definite", "zero row", "repeated", "non-finite"]),
        min_size=1, max_size=12,
    ))
    stack = []
    for kind in kinds:
        G = draw(arrays(float, (m, m), elements=st.floats(-3.0, 3.0)))
        A = 0.5 * (G + G.T) if kind == "random" else G @ G.T + 0.25 * np.eye(m)
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if kind == "zero row":
            A[i, :] = A[:, i] = 0.0
        elif kind == "repeated" and i != j:
            A[j, :] = A[i, :]
            A[:, j] = A[:, i]
        elif kind == "non-finite":
            A[i, j] = A[j, i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        stack.append(A)
    return kinds, np.array(stack)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symmetric_stacks())
def test_positive_definite_reads_the_sign_of_the_smallest_eigenvalue(case):
    # Against eigvalsh: True exactly where the smallest eigenvalue is
    # positive, wherever it lies clear of 0 by more than rounding; an exact
    # zero pivot and a nan or an inf read False.
    kinds, stack = case
    definite = positive_definite(stack)
    assert definite.shape == (len(stack),) and definite.dtype == bool
    for kind, A, got in zip(kinds, stack, definite):
        if not np.all(np.isfinite(A)):
            assert not got
            continue
        lam = np.linalg.eigvalsh(A)
        if kind in ("zero row", "repeated") and abs(lam[0]) < 1e-12 * (1.0 + abs(lam[-1])):
            assert not got
        elif abs(lam[0]) > 1e-8 * (1.0 + abs(lam[-1])):
            assert got == (lam[0] > 0.0)


def test_positive_definite_keeps_its_input():
    A = np.array([[[2.0, 1.0], [1.0, 2.0]], [[1.0, 2.0], [2.0, 1.0]]])
    before = A.copy()
    assert positive_definite(A).tolist() == [True, False]
    assert np.array_equal(A, before)


def test_pencil_direction_is_the_bottom_generalized_eigenvector():
    # Where every sub-pencil has a finite key, the direction is the y-part
    # of the bottom generalized eigenvector of ([[Q, p], [p', 2w]],
    # [[R, c], [c', 2v]]), up to scale and sign.
    import scipy.linalg as sla

    q = random_qfp(np.random.default_rng(61), 6)
    direction = pencil_direction(q)
    M = np.block([[q.Q, q.p[:, None]], [q.p[None], np.array([[2.0 * q.w]])]])
    N = np.block([[q.R, q.c[:, None]], [q.c[None], np.array([[2.0 * q.v]])]])
    e = sla.eigh(M, N)[1][:6, 0]
    assert abs(direction @ e) == pytest.approx(np.linalg.norm(direction) * np.linalg.norm(e))
    # x_N = 0 (c = 0, v = 0): the bottom eigenvector of the pencil
    # (Q - p p'/2w, R).
    h = QfpSubproblem(Q=q.Q, p=q.p, w=abs(q.w) + 1.0, R=q.R, c=np.zeros(6), v=0.0)
    e = sla.eigh(h.Q - np.outer(h.p, h.p) / (2.0 * h.w), h.R)[1][:, 0]
    direction = pencil_direction(h)
    assert abs(direction @ e) == pytest.approx(np.linalg.norm(direction) * np.linalg.norm(e))


@pytest.mark.parametrize("change", ["gamma near 0", "2w near 0", "c with v = 0", "R not definite", "huge", "nan"])
def test_pencil_direction_declines_where_a_key_could_be_missing(change):
    q = random_qfp(np.random.default_rng(62), 5)
    if change == "gamma near 0":
        q.v = 0.5 * float(q.c @ np.linalg.solve(q.R, q.c)) + 1e-9
    elif change == "2w near 0":
        q.c, q.v, q.w = np.zeros(5), 0.0, 1e-16
    elif change == "c with v = 0":
        q.v = 0.0
    elif change == "R not definite":
        q.R = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
    elif change == "huge":
        q.Q = q.Q * 1e100
    else:
        q.p[2] = np.nan
    assert pencil_direction(q) is None


def test_coordinate_descent_start_refuses_an_indefinite_R():
    # The denominator vanishes at y = 0, so the start needs R's factor, and
    # R = -1 has none: NotPositiveDefinite, as solve_bisection raises.
    q = QfpSubproblem(Q=np.array([[1.0]]), p=np.array([0.3]), w=1.0,
                      R=np.array([[-1.0]]), c=np.array([0.0]), v=-1.0)
    for solve in (solve_bisection, solve_coordinate_descent,
                  lambda q: solve_exact(BlockSubproblem(q, 1), "coordinate-descent")):
        with pytest.raises(NotPositiveDefinite):
            solve(q)
