import dataclasses
import math
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgevp import linalg, subproblem
from sgevp.decomposition import ProblemInstance
from sgevp.errors import SgevpError
from sgevp.problems import build_pca, gen_randn
from sgevp.qfp import (
    GAMMA_FLOOR,
    QfpSubproblem,
    assemble_reduced,
    face_infima,
    solve_bisection,
    solve_coordinate_descent,
)
from sgevp.subproblem import (
    MAX_BLOCK_SIZE,
    RANK_BAND,
    RANK_CHUNK,
    SCREEN_ABOVE,
    BlockSubproblem,
    _orthant_bounds,
    _pencil_keys,
    _ranked,
    build_block_subproblem,
    solve_exact,
)

from _util import random_problem, random_qfp, random_spd, random_sym


def brute_force(sub, rng, restarts=5):
    """Enumerate every support of size 0..q; per support, best of bisection
    and multi-start coordinate descent."""
    qfp = sub.qfp
    k = qfp.dim
    q = min(sub.budget, k)
    best = np.inf
    for size in range(q + 1):
        for support in combinations(range(k), size):
            idx = np.asarray(support, dtype=int)
            if size == 0:
                if qfp.v > 0:
                    best = min(best, qfp.w / qfp.v)
                continue
            restricted = QfpSubproblem(
                Q=qfp.Q[np.ix_(idx, idx)], p=qfp.p[idx], w=qfp.w,
                R=qfp.R[np.ix_(idx, idx)], c=qfp.c[idx], v=qfp.v,
            )
            best = min(best, solve_bisection(restricted).value)
            for _ in range(restarts):
                y0 = rng.standard_normal(size)
                if restricted.denominator(y0) <= 0:
                    continue
                best = min(best, solve_coordinate_descent(restricted, y0=y0).value)
    return best


def make_state(rng, n, s):
    problem = random_problem(rng, n, s)
    x = np.zeros(n)
    support = rng.choice(n, size=s, replace=False)
    x[support] = rng.standard_normal(s)
    return problem, x


def test_coefficients_identity():
    rng = np.random.default_rng(40)
    for _ in range(20):
        n, s = 8, 3
        problem, x = make_state(rng, n, s)
        B = np.sort(rng.choice(n, size=4, replace=False))
        theta = float(abs(rng.standard_normal())) * 0.1
        sub = build_block_subproblem(problem, x, B, theta)
        N = np.setdiff1d(np.arange(n), B)
        for _ in range(20):
            z = rng.standard_normal(4)
            full = x.copy()
            full[B] = z
            num_direct = 0.5 * float(full @ problem.A @ full) \
                + 0.5 * theta * float((z - x[B]) @ (z - x[B]))
            den_direct = 0.5 * float(full @ problem.C @ full)
            assert sub.qfp.numerator(z) == pytest.approx(num_direct, rel=1e-10, abs=1e-10)
            assert sub.qfp.denominator(z) == pytest.approx(den_direct, rel=1e-10, abs=1e-10)


def test_full_block_theta_zero():
    rng = np.random.default_rng(41)
    problem, x = make_state(rng, 5, 2)
    sub = build_block_subproblem(problem, x, np.arange(5), 0.0)
    assert np.allclose(sub.qfp.Q, problem.A)
    assert np.allclose(sub.qfp.R, problem.C)
    assert np.allclose(sub.qfp.p, 0.0)
    assert np.allclose(sub.qfp.c, 0.0)
    assert sub.qfp.w == pytest.approx(0.0)
    assert sub.qfp.v == pytest.approx(0.0)
    assert sub.budget == problem.s


def dense_complement_block(problem, x, B, theta):
    """build_block_subproblem's coefficients summed over the whole
    complement N of B, zero entries of x included."""
    A, C = problem.A, problem.C
    N = np.setdiff1d(np.arange(problem.dim), B)
    xB, xN = x[B], x[N]
    return dict(
        Q=A[np.ix_(B, B)] + theta * np.eye(B.size),
        p=A[np.ix_(B, N)] @ xN - theta * xB,
        w=0.5 * float(xN @ A[np.ix_(N, N)] @ xN) + 0.5 * theta * float(xB @ xB),
        R=C[np.ix_(B, B)],
        c=C[np.ix_(B, N)] @ xN,
        v=0.5 * float(xN @ C[np.ix_(N, N)] @ xN),
        budget=problem.s - int(np.count_nonzero(xN)),
    )


def support_gather_block(problem, x, B, theta):
    """build_block_subproblem's coefficients from one np.ix_ gather per
    product, over B and T = supp(x) minus B."""
    A, C = problem.A, problem.C
    outside = x != 0.0
    outside[B] = False
    T = np.flatnonzero(outside)
    xB, xT = x[B], x[T]
    return QfpSubproblem(
        Q=A[np.ix_(B, B)] + theta * np.eye(B.size),
        p=A[np.ix_(B, T)] @ xT - theta * xB,
        w=0.5 * float(xT @ A[np.ix_(T, T)] @ xT) + 0.5 * theta * float(xB @ xB),
        R=C[np.ix_(B, B)],
        c=C[np.ix_(B, T)] @ xT,
        v=0.5 * float(xT @ C[np.ix_(T, T)] @ xT),
        lower_bound=problem.lower_bound,
    )


@st.composite
def assembly_cases(draw):
    """(problem, x, B, theta) with n <= 12, a random working set B, x_N = 0
    or not, a budget up to the full s - ||x_N||_0 = |B| and a lower bound."""
    n = draw(st.integers(1, 12))
    B = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    M = draw(arrays(float, (n, n), elements=st.floats(-4.0, 4.0)))
    G = draw(arrays(float, (n, n), elements=st.floats(-4.0, 4.0)))
    x = draw(arrays(float, n, elements=st.one_of(st.just(0.0), st.floats(-4.0, 4.0))))
    if draw(st.booleans()):
        x[np.setdiff1d(np.arange(n), B)] = 0.0
    used = int(np.count_nonzero(np.delete(x, B)))
    s = draw(st.integers(max(used, 1), used + B.size))
    problem = ProblemInstance(
        A=0.5 * (M + M.T), C=G @ G.T / n + 0.5 * np.eye(n), s=s,
        lower_bound=draw(st.sampled_from([None, 0.0, -1.0])),
    )
    return problem, x, B, draw(st.sampled_from([0.0, 1e-5]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(assembly_cases())
def test_assembly_from_the_support_matches_the_dense_complement(case):
    # Only the support enters; the rest of the complement contributes exact
    # zeros, so the coefficients agree up to the order of summation.
    problem, x, B, theta = case
    sub = build_block_subproblem(problem, x, B, theta)
    dense = dense_complement_block(problem, x, B, theta)
    qfp = sub.qfp
    assert sub.budget == dense["budget"] and qfp.lower_bound == problem.lower_bound
    assert np.array_equal(qfp.Q, linalg.symmetrize(dense["Q"]))
    assert np.array_equal(qfp.R, linalg.symmetrize(dense["R"]))
    # Rounding of a sum of n terms of size |A_ij x_i x_j|.
    entries = np.abs(problem.A).max() + np.abs(problem.C).max()
    atol = 1e-13 * problem.dim * (1.0 + np.abs(x).max()) ** 2 * (1.0 + entries)
    for name in ("p", "w", "c", "v"):
        np.testing.assert_allclose(getattr(qfp, name), dense[name], rtol=0, atol=atol)
    # Gathering each matrix once must round exactly as separate gathers do.
    gathered = support_gather_block(problem, x, B, theta)
    for name in ("Q", "p", "w", "R", "c", "v"):
        assert np.all(getattr(qfp, name) == getattr(gathered, name)), name


def test_assembly_reads_nothing_outside_the_block_and_the_support():
    # Entries of A and C whose row and column both lie outside B and the
    # support multiply zeros of x; poisoned with nan, they must not be read.
    rng = np.random.default_rng(52)
    problem, x = make_state(rng, 12, 4)
    B = np.array([0, 3, 7])
    clean = build_block_subproblem(problem, x, B, 1e-5)
    outside = np.ones(12, dtype=bool)
    outside[B] = False
    outside[np.flatnonzero(x)] = False
    assert outside.sum() >= 5
    problem.A[np.ix_(outside, outside)] = np.nan
    problem.C[np.ix_(outside, outside)] = np.nan
    poisoned = build_block_subproblem(problem, x, B, 1e-5)
    for name in ("Q", "p", "w", "R", "c", "v"):
        value = getattr(poisoned.qfp, name)
        assert np.all(np.isfinite(value))
        assert np.array_equal(value, getattr(clean.qfp, name))
    assert poisoned.budget == clean.budget


def test_budget_counting():
    rng = np.random.default_rng(42)
    problem = random_problem(rng, 4, 2)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    sub = build_block_subproblem(problem, x, np.array([1, 2]), 0.1)
    assert sub.budget == 2 - 1  # e1 outside the block consumes one slot


def test_solve_exact_zero_budget():
    rng = np.random.default_rng(43)
    problem, x = make_state(rng, 6, 2)
    # a block disjoint from the support leaves no cardinality budget
    B = np.setdiff1d(np.arange(6), np.flatnonzero(x))[:2]
    sub = build_block_subproblem(problem, x, B, 0.0)
    assert sub.budget == 0
    z, value = solve_exact(sub)
    assert np.array_equal(z, np.zeros(2))
    assert value == pytest.approx(sub.qfp.w / sub.qfp.v)


def test_solve_exact_budget_inactive():
    rng = np.random.default_rng(45)
    problem, x = make_state(rng, 6, 6)
    B = np.arange(3)
    sub = build_block_subproblem(problem, x, B, 0.05)
    z, value = solve_exact(sub)
    direct = solve_bisection(sub.qfp)
    assert value == pytest.approx(direct.value, abs=1e-8)
    assert np.allclose(z, direct.y, atol=1e-6)


def test_exhaustive_oracle():
    rng = np.random.default_rng(46)
    for trial in range(20):
        n = 9
        s = int(rng.integers(2, 5))
        problem, x = make_state(rng, n, s)
        B = np.sort(rng.choice(n, size=4, replace=False))
        sub = build_block_subproblem(problem, x, B, 1e-3)
        z, value = solve_exact(sub)
        assert np.count_nonzero(z) <= sub.budget
        ref = brute_force(sub, rng)
        assert value == pytest.approx(ref, abs=1e-6)


def test_support_monotonicity_equivalence():
    # enumerating only size-q supports equals enumerating sizes 0..q
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = 8
        s = int(rng.integers(2, 6))
        problem, x = make_state(rng, n, s)
        B = np.sort(rng.choice(n, size=5, replace=False))
        sub = build_block_subproblem(problem, x, B, 1e-4)
        _, value = solve_exact(sub)
        ref = brute_force(sub, rng, restarts=0)  # bisection-only, all sizes
        assert value == pytest.approx(ref, abs=1e-8)


def test_off_support_entries_exact_zero():
    rng = np.random.default_rng(48)
    problem, x = make_state(rng, 8, 2)
    B = np.sort(rng.choice(8, size=5, replace=False))
    sub = build_block_subproblem(problem, x, B, 1e-5)
    z, _ = solve_exact(sub)
    nonzero = np.count_nonzero(z)
    assert nonzero <= sub.budget
    assert np.sum(z == 0.0) >= 5 - sub.budget


def test_method_cd_agrees():
    # coordinate descent is only guaranteed a coordinate-wise minimum, so it
    # may occasionally land above the bisection optimum; it must never be
    # better than the per-support global optimum, and should usually match it
    rng = np.random.default_rng(49)
    close = 0
    for _ in range(10):
        problem, x = make_state(rng, 8, 3)
        B = np.sort(rng.choice(8, size=4, replace=False))
        sub = build_block_subproblem(problem, x, B, 1e-3)
        _, v_bis = solve_exact(sub, method="bisection")
        _, v_cd = solve_exact(sub, method="coordinate-descent")
        assert v_cd >= v_bis - 1e-9
        close += abs(v_cd - v_bis) <= 1e-5
    assert close >= 8


def test_block_size_cap():
    rng = np.random.default_rng(50)
    problem, x = make_state(rng, MAX_BLOCK_SIZE + 2, 3)
    sub = build_block_subproblem(problem, x, np.arange(MAX_BLOCK_SIZE + 1), 0.0)
    with pytest.raises(ValueError):
        solve_exact(sub)


def restrict(qfp, support):
    idx = np.asarray(support, dtype=int)
    return QfpSubproblem(
        Q=qfp.Q[np.ix_(idx, idx)], p=qfp.p[idx], w=qfp.w,
        R=qfp.R[np.ix_(idx, idx)], c=qfp.c[idx], v=qfp.v, lower_bound=qfp.lower_bound,
    )


def exact_by_loop(sub, solve=solve_bisection, tolerate=()):
    """solve_exact spelled out: solve (solve_bisection or
    solve_coordinate_descent) on every size-q support, a one-coordinate
    support through _one_coordinate's closed form as solve_exact does; the
    first strictly smallest value wins.  Returns z, the value, the winning
    support, every support's value (nan where its solve raised) and
    {support index: error} for the solves that raised an error of a type in
    tolerate; any other error propagates."""
    qfp = sub.qfp
    q = min(sub.budget, qfp.dim)
    best_value, best_support, best_y = np.inf, None, None
    values, errors = [], {}
    for i, support in enumerate(combinations(range(qfp.dim), q)):
        try:
            restricted = restrict(qfp, support)
            sol = subproblem._one_coordinate(restricted, 0, solve) if q == 1 else solve(restricted)
        except tolerate as error:
            values.append(np.nan)
            errors[i] = error
            continue
        values.append(sol.value)
        if sol.value < best_value:
            best_value, best_support, best_y = sol.value, support, sol.y
    z = np.zeros(qfp.dim)
    if best_support is not None:
        z[list(best_support)] = best_y
    return z, best_value, best_support, np.array(values), errors


@st.composite
def block_cases(draw, lower_bounds=st.none(), sizes=st.integers(2, 10)):
    """A block of the first k coordinates of a small problem, k drawn from
    sizes, with budget q >= 1 and a lower bound drawn from lower_bounds.
    One-coordinate blocks are left out by default: solve_exact solves them
    in closed form, not by ranking.

    Zero entries in A make exact ties and hard cases (g orthogonal to the
    bottom eigenvector); a point with no entries outside the block has
    x_N = 0, so gamma = 0; C is the identity or a random SPD matrix."""
    k = draw(sizes)
    n = k + draw(st.integers(0, 4))
    entries = st.one_of(st.just(0.0), st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
    M = draw(arrays(float, (n, n), elements=entries))
    if draw(st.booleans()):
        C = np.eye(n)
    else:
        G = draw(arrays(float, (n, n), elements=st.floats(-4.0, 4.0)))
        C = G @ G.T / n + 0.5 * np.eye(n)
    q = draw(st.integers(1, k))
    outside = draw(st.lists(st.integers(k, n - 1), unique=True)) if n > k else []
    inside = draw(st.lists(st.integers(0, k - 1), min_size=0 if outside else 1, max_size=q, unique=True))
    support = outside + inside
    x = np.zeros(n)
    x[support] = draw(arrays(float, len(support), elements=st.sampled_from([-2.0, -0.5, 1.0, 1.5])))
    theta = draw(st.sampled_from([0.0, 1e-5]))
    problem = ProblemInstance(
        A=0.5 * (M + M.T), C=C, s=len(outside) + q, lower_bound=draw(lower_bounds),
    )
    return build_block_subproblem(problem, x, np.arange(k), theta)


def ranking_bounds(qfp, supports):
    """The kind of bound _ranked ranks each support by: with
    lower_bound == 0, 2^q faces in one stack and more than one support, its
    smallest face infimum alone; elsewhere its pencil key.  _ranked itself
    bounds no one-coordinate support and no lone support; the bounds are
    lower bounds there all the same."""
    if qfp.lower_bound == 0.0 and 1 << supports.shape[1] <= RANK_CHUNK and len(supports) > 1:
        return _orthant_bounds(qfp, supports)
    return _pencil_keys(qfp, supports)


def check_ranked_matches_loop(sub, method, solve, strict=True):
    """solve_exact(sub, method) equals exact_by_loop(sub, solve) bit for bit,
    and no bound that ranks a support exceeds the support's value by more
    than the band: the ranking relies on that.

    Strict: if a support's solve raises an SgevpError, solve_exact raises
    the type of the loop's first error; any other error fails.  Otherwise a
    support whose solve raises (pytest turns RuntimeWarning into an error)
    may be pruned: solve_exact raises an error of a type some support
    raised, or every such support has a key above the winner's value plus
    the band and the result matches the loop over the others."""
    tolerate = () if strict else (SgevpError, RuntimeWarning)
    try:
        z_loop, value_loop, support_loop, values, errors = exact_by_loop(sub, solve, tolerate)
    except SgevpError as error:  # strict only
        with pytest.raises(type(error)):
            solve_exact(sub, method)
        return
    q = min(sub.budget, sub.qfp.dim)
    supports = np.array(list(combinations(range(sub.qfp.dim), q)))
    keys = ranking_bounds(sub.qfp, supports)
    ranked = np.isfinite(keys) & np.isfinite(values)
    assert np.all((keys - values)[ranked] <= RANK_BAND * (1.0 + np.abs(values[ranked])))
    try:
        z, value = solve_exact(sub, method)
    except tolerate as error:
        assert type(error) in {type(e) for e in errors.values()}
        return
    for i in errors:
        assert keys[i] > value + RANK_BAND * (1.0 + abs(value))
    assert z.tobytes() == z_loop.tobytes()
    assert value == value_loop
    support = _ranked(sub.qfp, q, solve)[0]
    assert tuple(support) == support_loop


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_cases())
def test_ranked_enumeration_matches_bisection_loop(sub):
    check_ranked_matches_loop(sub, "bisection", solve_bisection)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_cases(lower_bounds=st.sampled_from([None, 0.0, -1.0])))
def test_ranked_enumeration_matches_coordinate_descent_loop(sub):
    # A key is the unconstrained infimum, so it also bounds coordinate
    # descent's value from below, with or without the lower bound; with
    # lower_bound = 0 the face infimum over y >= 0 does too.
    check_ranked_matches_loop(sub, "coordinate-descent", solve_coordinate_descent, strict=False)


@st.composite
def orthant_cases(draw):
    """(block, points): a block of k <= 8 coordinates with lower_bound = 0
    and a few points y >= 0 of the block.  x_N = 0 (gamma = 0) or not
    (gamma > 0); A a random symmetric matrix or a multiple of the identity
    (Q = (a + theta) I: repeated eigenvalues); C the identity, a random SPD
    matrix or a rank-deficient one plus a 1e-6 ridge."""
    k = draw(st.integers(1, 8))
    n = k + draw(st.integers(0, 3))
    if draw(st.booleans()):
        A = draw(st.sampled_from([-1.0, -0.25, 0.5])) * np.eye(n)
    else:
        entries = st.one_of(st.just(0.0), st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
        M = draw(arrays(float, (n, n), elements=entries))
        A = 0.5 * (M + M.T)
    kind = draw(st.sampled_from(["identity", "spd", "ridge"]))
    if kind == "identity":
        C = np.eye(n)
    else:
        rank = n if kind == "spd" else draw(st.integers(1, n))
        G = draw(arrays(float, (n, rank), elements=st.floats(-4.0, 4.0)))
        C = G @ G.T / n + (0.5 if kind == "spd" else 1e-6) * np.eye(n)
    q = draw(st.integers(1, k))
    outside = draw(st.lists(st.integers(k, n - 1), unique=True)) if n > k else []
    inside = draw(st.lists(
        st.integers(0, k - 1), min_size=0 if outside else 1, max_size=q, unique=True,
    ))
    support = outside + inside
    x = np.zeros(n)
    x[support] = draw(arrays(float, len(support), elements=st.sampled_from([0.25, 1.0, 1.5, 3.0])))
    problem = ProblemInstance(A=A, C=C, s=len(outside) + q, lower_bound=0.0)
    sub = build_block_subproblem(problem, x, np.arange(k), draw(st.sampled_from([0.0, 1e-5])))
    scales = st.sampled_from([0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e6])
    points = draw(st.lists(arrays(float, k, elements=scales), min_size=1, max_size=4))
    return sub, points


# The ratio (1.5 y^2 + y - 3) / (y^2 / 2 + 2 y + 1) of either coordinate
# rises from -3 at y = 0 towards 3 and has no stationary point in y >= 0:
# the infimum is the empty face's w/v, which no one-coordinate face holds.
# (The denominator vanishes at negative y, so c'R^{-1}c > 2v here.)
AT_ZERO = BlockSubproblem(qfp=QfpSubproblem(
    Q=3.0 * np.eye(2), p=np.ones(2), w=-3.0, R=np.eye(2), c=np.full(2, 2.0), v=1.0, lower_bound=0.0,
), budget=1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(orthant_cases())
@example((AT_ZERO, [np.zeros(2)]))
def test_face_infimum_bounds_every_value_over_the_orthant(case):
    # The bound ranking a lower_bound = 0 support is a lower bound on the
    # ratio over y >= 0 there: on coordinate descent's value and on the
    # value at any point y >= 0 with a positive denominator.
    sub, points = case
    qfp = sub.qfp
    q = min(sub.budget, qfp.dim)
    supports = np.array(list(combinations(range(qfp.dim), q)))
    for bound, support in zip(ranking_bounds(qfp, supports), supports):
        restricted = restrict(qfp, support)
        values = []
        try:
            values.append(solve_coordinate_descent(restricted).value)
        except (SgevpError, RuntimeWarning):
            pass
        for point in points:
            y = point[support]
            if restricted.denominator(y) > 0.0:
                values.append(restricted.value(y))
        for value in values:
            assert not bound > value + RANK_BAND * (1.0 + abs(value)), (support, bound, value)


def test_face_infimum_keeps_an_eigenvalue_it_cannot_resolve():
    # O = Q has eigenvalue -1 twice, on the plane orthogonal to (1, 1, 1),
    # which holds no direction d >= 0; eigh returns an arbitrary basis of
    # it.  A repeated eigenvalue's vectors do not decide the sign, so the
    # face infimum keeps -1, not the next candidate 2 (along (1, 1, 1)).
    Q = -np.eye(3) + np.ones((3, 3))
    value = face_infima(Q[None], np.zeros((1, 3)), 1.0, np.eye(3)[None], np.zeros((1, 3)), 0.0)
    assert value[0] == pytest.approx(-1.0, abs=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-3, 3).map(float), min_size=3, max_size=3),
    st.integers(1, 3).map(float),
    st.one_of(
        st.just((0.0, 0.0)),
        st.tuples(st.integers(-2, 2).map(float), st.integers(1, 4).map(float)),
    ),
)
def test_one_coordinate_face_infimum_is_the_infimum_over_positive_beta(num, r, den):
    # A one-coordinate face of psi = (a/2 b^2 + b_lin b + c) / (r/2 b^2 +
    # s b + t), combined with the empty face b = 0 as _orthant_bounds
    # combines them: a lower bound on psi at every b > 0, and the infimum:
    # a log grid out to 1e8 comes within 1e-6 of it.  It is finite wherever
    # [[r, s], [s, 2t]] is positive definite, and at (s, t) = (0, 0) with
    # c > 0, a block with x_N = 0, where psi tends to +inf at 0.
    a, b, c = num
    s, t = den
    empty = c / t if t > 0.0 else (np.inf if c > 0.0 else -np.inf)
    face = face_infima(np.array([[[a]]]), np.array([[b]]), c, np.array([[[r]]]), np.array([[s]]), t)
    value = min(float(face[0]), empty)
    if 2.0 * r * t > s * s or t == 0.0 and c > 0.0:
        assert np.isfinite(value)
    if value == -np.inf:
        return
    grid = np.concatenate([np.geomspace(1e-8, 1e8, 20001), np.linspace(1e-3, 10.0, 20001)])
    # Where [[r, s], [s, 2t]] is singular, the denominator can touch 0 at a
    # grid point, which lies outside psi's domain.
    d = 0.5 * r * grid * grid + s * grid + t
    psi = np.where(d > 0.0, (0.5 * a * grid * grid + b * grid + c) / np.where(d > 0.0, d, 1.0), np.inf)
    assert value <= psi.min() + 1e-12 * (1.0 + abs(psi.min()))
    assert value >= psi.min() - 1e-6 * (1.0 + abs(psi.min()))


def one_coordinate_block(Q, p, w, c, v):
    qfp = QfpSubproblem(
        Q=np.array([[Q]]), p=np.array([p]), w=w, R=np.eye(1), c=np.array([c]), v=v,
    )
    return BlockSubproblem(qfp=qfp, budget=1)


# Hard cases: p R = Q c, so the ratio minus the limit Q/R = -1 is the
# positive constant (w - Q v / R) / den, and the infimum lies at infinity.
AT_INFINITY = [one_coordinate_block(-1.0, 0.0, 0.25, 0.0, 0.5),
               one_coordinate_block(-1.0, -0.5, 1.0, 0.5, 1.0)]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.one_of(
        block_cases(lower_bounds=st.sampled_from([None, 0.0, -1.0]), sizes=st.just(1)),
        block_cases(lower_bounds=st.sampled_from([None, 0.0, -1.0]), sizes=st.integers(2, 4)).map(
            lambda sub: dataclasses.replace(sub, budget=1)
        ),
    ),
    st.sampled_from(["bisection", "coordinate-descent"]),
)
@example(AT_INFINITY[0], "bisection")
@example(AT_INFINITY[1], "bisection")
@example(AT_INFINITY[1], "coordinate-descent")
def test_one_coordinate_block_in_closed_form(sub, method):
    # A one-coordinate support, a 1x1 block or one of a budget-1 block's,
    # is solved in closed form, or by the route's solver where the closed
    # form defers to it (v = 0 when x_N = 0; on the bisection route, an
    # infimum at infinity); either way the block's value is that of a loop
    # of the route's solver over its supports.
    bisection = method == "bisection" and sub.qfp.lower_bound is None
    solve = solve_bisection if bisection else solve_coordinate_descent
    value_loop = np.nanmin([solve(restrict(sub.qfp, [i])).value for i in range(sub.qfp.dim)])
    z, value = solve_exact(sub, method)
    assert abs(value - value_loop) <= 1e-12 * (1.0 + abs(value))
    assert np.count_nonzero(z) <= 1
    if sub.qfp.lower_bound is not None:
        assert np.all(z >= sub.qfp.lower_bound)


@pytest.mark.parametrize("lower_bound", [None, 0.0])
def test_pair_blocks_solve_no_one_coordinate_support_by_the_route_solver(monkeypatch, lower_bound):
    # Polish's swap-pair blocks have k = 2 and budget 1, as here: one
    # support coordinate and one zero, with three more support coordinates
    # fixed outside (x_N != 0, so v > 0).  Both 1x1 supports are the 1-D
    # program in closed form, read from the block in place, which defers
    # to neither solver here: the route's solver is never called, no
    # support is copied out of the block and no support is bounded.
    problem = dataclasses.replace(build_pca(gen_randn(150, 50, 3)), s=4, lower_bound=lower_bound)
    x = np.zeros(problem.dim)
    x[[2, 5, 11, 17]] = [0.4, 0.3, 0.2, 0.1]
    sub = build_block_subproblem(problem, x, np.array([2, 20]), 1e-5)
    assert sub.budget == 1 and sub.qfp.v > 0.0
    solve = solve_bisection if lower_bound is None else solve_coordinate_descent
    calls = []

    def counted(name, function):
        def wrapped(*args):
            calls.append(name)
            return function(*args)
        return wrapped

    for name, function in [
        ("solve_bisection", solve_bisection), ("solve_coordinate_descent", solve_coordinate_descent),
        ("_pencil_keys", _pencil_keys), ("_orthant_bounds", _orthant_bounds),
        ("_restrict", subproblem._restrict),
    ]:
        monkeypatch.setattr(subproblem, name, counted(name, function))
    z, value = solve_exact(sub)
    assert calls == []
    values = [solve(restrict(sub.qfp, [i])).value for i in range(2)]
    assert abs(value - min(values)) <= 1e-12 * (1.0 + abs(value))
    assert np.count_nonzero(z) == 1 and z[int(np.argmin(values))] != 0.0


def test_ranking_prunes_coordinate_descent_supports(monkeypatch):
    # A bounded block with x_N = 0 (gamma = 0), k = 8 and q = 4 as on a
    # lower_bound = 0 PCA run: 35 of the 70 supports have pencil keys above
    # the winner's value, but the face infima over y >= 0 leave only the
    # winner to solve.  Every bound exists before the first solve, so no
    # support that its faces would prune is solved.
    problem = dataclasses.replace(build_pca(gen_randn(150, 50, 3)), s=4, lower_bound=0.0)
    x = np.zeros(problem.dim)
    x[[2, 5, 11, 17]] = [0.4, 0.3, 0.2, 0.1]
    sub = build_block_subproblem(problem, x, np.array([2, 5, 11, 17, 20, 29, 33, 41]), 1e-5)
    assert sub.budget == 4 and sub.qfp.v == 0.0
    calls = []

    def counted(qfp):
        calls.append(qfp)
        return solve_coordinate_descent(qfp)

    monkeypatch.setattr(subproblem, "solve_coordinate_descent", counted)
    z, value = solve_exact(sub)
    assert len(calls) == 1
    z_loop, value_loop = exact_by_loop(sub, solve_coordinate_descent)[:2]
    assert z.tobytes() == z_loop.tobytes()
    assert value == value_loop


@pytest.mark.parametrize("method, lower_bound", [
    ("bisection", None), ("coordinate-descent", None), ("bisection", 0.0),
])
@pytest.mark.parametrize("k, q, over_two", [
    (2, 1, False), (2, 2, False), (3, 1, True), (4, 1, True), (3, 3, False),
])
def test_blocks_of_at_most_two_supports_compute_no_keys(monkeypatch, method, lower_bound, k, q, over_two):
    # No block of one-coordinate supports, however many (polish's swap
    # blocks have k = 2, q = 1), and no block with a lone support computes
    # a bound: each 1x1 support is the 1-D program in closed form, and a
    # lone support has nothing to rank against.  Every support is solved,
    # and the result is the per-support loop's.
    rng = np.random.default_rng(53)
    sub = BlockSubproblem(qfp=random_qfp(rng, k, lower_bound=lower_bound), budget=q)
    assert (len(list(combinations(range(k), q))) > 2) == over_two
    keys, faces = [], []

    def counted(calls, bounds):
        def wrapped(qfp, supports):
            calls.append(len(supports))
            return bounds(qfp, supports)
        return wrapped

    monkeypatch.setattr(subproblem, "_pencil_keys", counted(keys, _pencil_keys))
    monkeypatch.setattr(subproblem, "_orthant_bounds", counted(faces, _orthant_bounds))
    z, value = solve_exact(sub, method)
    assert keys == [] and faces == []
    solve = solve_bisection if method == "bisection" and lower_bound is None else solve_coordinate_descent
    z_loop, value_loop = exact_by_loop(sub, solve)[:2]
    assert z.tobytes() == z_loop.tobytes() and value == value_loop


def test_ranking_band_covers_keys_rounded_above_the_value():
    # Supports {0} and {1} differ only in the last bit of their coupling to
    # x_2.  Their keys round to one value, an ulp above {0}'s coordinate
    # descent value, and {1}'s value is an ulp lower still: without the
    # band, solving {0} first would prune the winner {1}.
    b = 0.16666666666666669  # 1/6 rounded up
    A = np.array([[-2 / 3, 0.0, 1 / 6], [0.0, -2 / 3, b], [1 / 6, b, 0.0]])
    problem = ProblemInstance(A=A, C=np.diag([1.0, 1.0, 2.0]), s=2)
    sub = build_block_subproblem(problem, np.array([0.0, 0.0, -2.0]), np.arange(2), 0.0)
    keys = _pencil_keys(sub.qfp, np.array([[0], [1]]))
    values = exact_by_loop(sub, solve_coordinate_descent)[3]
    assert keys[0] == keys[1] > values[0] > values[1]
    check_ranked_matches_loop(sub, "coordinate-descent", solve_coordinate_descent)


def test_ranking_never_picks_a_nan_value(monkeypatch):
    # A solve that returns a nan value on support {0, 1}, as a step that
    # overflows the denominator would.  All three supports share one key,
    # so all are solved, {0, 1} first; the loop skips the nan value.
    t = 5.6e-309
    Q = np.array([[1e-5, t, 0.0], [t, 1e-5, 0.0], [0.0, 0.0, 1e-5]])
    qfp = QfpSubproblem(Q=Q, p=np.zeros(3), w=2e-5, R=np.eye(3) / 2, c=np.zeros(3), v=0.0)
    sub = BlockSubproblem(qfp=qfp, budget=2)

    def diverging(restricted):
        sol = solve_coordinate_descent(restricted)
        if restricted.Q[0, 1] == t:
            sol = dataclasses.replace(sol, value=np.nan)
        return sol

    z_loop, value_loop, support_loop, values, _ = exact_by_loop(sub, diverging)
    assert np.isnan(values[0]) and np.all(np.isfinite(values[1:]))
    support, sol = _ranked(qfp, 2, diverging)[:2]
    assert tuple(support) == support_loop and sol.value == value_loop
    monkeypatch.setattr(subproblem, "solve_coordinate_descent", diverging)
    z, value = solve_exact(sub, "coordinate-descent")
    assert z.tobytes() == z_loop.tobytes() and value == value_loop


@st.composite
def bordered_cases(draw):
    """(qfp, supports) of a block of the first k <= 10 coordinates with
    x_N != 0 (gamma > 0) and a non-identity SPD C."""
    k = draw(st.integers(1, 10))
    n = k + draw(st.integers(1, 4))
    M = draw(arrays(float, (n, n), elements=st.floats(-4.0, 4.0)))
    G = draw(arrays(float, (n, n), elements=st.floats(-4.0, 4.0)))
    C = G @ G.T / n + 0.5 * np.eye(n)
    x = draw(arrays(float, n, elements=st.sampled_from([-2.0, -0.5, 0.0, 1.0, 1.5])))
    x[draw(st.integers(k, n - 1))] = 1.0
    q = draw(st.integers(1, k))
    problem = ProblemInstance(A=0.5 * (M + M.T), C=C, s=n)
    sub = build_block_subproblem(problem, x, np.arange(k), draw(st.sampled_from([0.0, 1e-5])))
    return sub.qfp, np.array(list(combinations(range(k), q)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bordered_cases())
def test_bordered_key_is_the_bisection_bracket(case):
    # The ranking key and solve_bisection's lower bracket lambda_min(Z) come
    # from one change of variables, so they agree bit for bit.
    qfp, supports = case
    keys = _pencil_keys(qfp, supports)
    for key, support in zip(keys, supports):
        try:
            red = assemble_reduced(restrict(qfp, support))
        except SgevpError:
            assert np.isnan(key)
            continue
        if red.gamma > GAMMA_FLOOR * (1.0 + abs(2.0 * qfp.v)):
            assert key == np.linalg.eigvalsh(red.Z)[0]


def test_ranking_when_bisection_escape_stops_short_of_the_infimum():
    # x_N = 0 and x at scale 1e8: support {1} is a hard case whose infimum
    # A_11 + theta is approached at infinity, and bisection's escape stops
    # 1e-5 above it, behind support {0}.  The smallest key is {1}'s; the
    # loop's winner is {0}.
    problem = ProblemInstance(A=np.diag([-0.999985, -1.0]), C=np.eye(2), s=1)
    sub = build_block_subproblem(problem, np.array([1e8, 0.0]), np.arange(2), 1e-5)
    keys = _pencil_keys(sub.qfp, np.array([[0], [1]]))
    z, value, support, values, _ = exact_by_loop(sub)
    assert keys[1] < keys[0] and values[1] - keys[1] > 1e-6
    assert support == (0,)
    assert solve_exact(sub)[0].tobytes() == z.tobytes()


@st.composite
def screened_cases(draw, lower_bound):
    """(qfp, q) of a block of k = 11..14 coordinates with budget 3, 4,
    k - 4 or k - 3, so more supports than SCREEN_ABOVE (165 to 1,001), and
    lower_bound: x_N = 0 (gamma = 0) or not, zero entries in
    A (exact ties and hard cases), C the identity, a random SPD matrix or a
    rank-deficient one plus a 1e-6 ridge."""
    k = draw(st.integers(11, 14))
    n = k + draw(st.integers(0, 3))
    entries = st.one_of(st.just(0.0), st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
    M = draw(arrays(float, (n, n), elements=entries))
    kind = draw(st.sampled_from(["identity", "spd", "ridge"]))
    if kind == "identity":
        C = np.eye(n)
    else:
        rank = n if kind == "spd" else draw(st.integers(1, n))
        G = draw(arrays(float, (n, rank), elements=st.floats(-4.0, 4.0)))
        C = G @ G.T / n + (0.5 if kind == "spd" else 1e-6) * np.eye(n)
    q = draw(st.sampled_from([3, 4, k - 4, k - 3]))
    outside = draw(st.lists(st.integers(k, n - 1), unique=True)) if n > k else []
    inside = draw(st.lists(st.integers(0, k - 1), min_size=0 if outside else 1, max_size=q, unique=True))
    x = np.zeros(n)
    x[outside + inside] = draw(
        arrays(float, len(outside + inside), elements=st.sampled_from([-2.0, -0.5, 1.0, 1.5])),
    )
    problem = ProblemInstance(A=0.5 * (M + M.T), C=C, s=len(outside) + q, lower_bound=lower_bound)
    sub = build_block_subproblem(problem, x, np.arange(k), draw(st.sampled_from([0.0, 1e-5])))
    return sub.qfp, q


def ranked_solves(qfp, q, solve, screen_above):
    """The supports _ranked hands to solve, in order, and its result as
    bytes (or the type of the error it raised), with the screen from
    screen_above supports up."""
    calls = []

    def recording(restricted):
        calls.append(restricted.Q.tobytes() + restricted.p.tobytes() + restricted.c.tobytes())
        return solve(restricted)

    saved, subproblem.SCREEN_ABOVE = subproblem.SCREEN_ABOVE, screen_above
    try:
        support, sol = _ranked(qfp, q, recording)[:2]
        result = support.tobytes(), sol.y.tobytes(), np.float64(sol.value).tobytes()
    except (SgevpError, RuntimeWarning) as error:
        result = type(error)
    finally:
        subproblem.SCREEN_ABOVE = saved
    return calls, result


@pytest.mark.parametrize("solve, lower_bound", [
    (solve_bisection, None), (solve_coordinate_descent, None), (solve_coordinate_descent, -1.0),
])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_screened_ranking_solves_what_full_enumeration_solves(solve, lower_bound, data):
    # The screen keys only the supports it cannot rule out, yet the route's
    # solver sees the same supports in the same order, and the result is
    # the same to the bit, as when every support is keyed.
    qfp, q = data.draw(screened_cases(lower_bound))
    assert ranked_solves(qfp, q, solve, SCREEN_ABOVE) == ranked_solves(qfp, q, solve, math.inf)


def pca_block(k, q):
    """A block of k coordinates with budget q from a 300 x 100 PCA problem,
    x_N != 0 (gamma > 0)."""
    problem = dataclasses.replace(build_pca(gen_randn(300, 100, 3)), s=q + 2)
    x = np.zeros(problem.dim)
    x[[40, 41]] = [0.6, -0.8]
    return build_block_subproblem(problem, x, np.arange(k), 1e-5)


def test_screen_keys_few_supports_of_a_pca_block(monkeypatch):
    # k = 12, q = 6: 924 supports; the screen rules out all but a few
    # before any key is computed, and the winner is the full loop's.
    sub = pca_block(12, 6)
    keyed = []

    def counted(qfp, supports):
        keyed.append(len(supports))
        return _pencil_keys(qfp, supports)

    monkeypatch.setattr(subproblem, "_pencil_keys", counted)
    tally = [0, 0, 0]
    z, value = solve_exact(sub, tally=tally)
    assert tally == [924, sum(keyed), 1] and sum(keyed) < 20
    z_loop, value_loop = exact_by_loop(sub)[:2]
    assert z.tobytes() == z_loop.tobytes() and value == value_loop


def test_screen_keys_the_ruled_out_supports_where_the_loop_reaches_tau(monkeypatch):
    # Coordinate descent with lower_bound = -1 stops above the keys of the
    # few live supports of this k = 12, q = 5 block, so the best value plus
    # the band reaches tau: the ruled-out supports are keyed after all, and
    # the loop goes on over every unsolved support, as the full loop would.
    qfp = dataclasses.replace(pca_block(12, 5).qfp, lower_bound=-1.0)
    sub = BlockSubproblem(qfp=qfp, budget=5)
    live = subproblem._screen(qfp, np.array(list(combinations(range(12), 5))))[1]
    keyed = []

    def counted(qfp, supports):
        keyed.append(len(supports))
        return _pencil_keys(qfp, supports)

    monkeypatch.setattr(subproblem, "_pencil_keys", counted)
    z, value = solve_exact(sub, "coordinate-descent")
    assert 1 < live.size < 792 // 2 and keyed == [1, live.size, 792 - live.size]
    z_loop, value_loop = exact_by_loop(sub, solve_coordinate_descent)[:2]
    assert z.tobytes() == z_loop.tobytes() and value == value_loop
    monkeypatch.setattr(subproblem, "_pencil_keys", _pencil_keys)
    assert ranked_solves(qfp, 5, solve_coordinate_descent, SCREEN_ABOVE) == ranked_solves(
        qfp, 5, solve_coordinate_descent, math.inf,
    )


def test_screen_rules_out_only_supports_keyed_above_tau():
    # Every support the inertia test rules out has a key above tau, on
    # identity, SPD and ridge C, with x_N = 0 and without.
    rng = np.random.default_rng(55)
    screened = 0
    for trial in range(24):
        k, q = 12, int(rng.integers(3, 10))
        n = k + 3
        C = [np.eye(n), random_spd(rng, n), random_spd(rng, n, ridge=1e-6)][trial % 3]
        problem = ProblemInstance(A=random_sym(rng, n), C=C, s=q + (trial % 2) * 2)
        x = np.zeros(n)
        x[[1, 4, 13, 14][: 2 + (trial % 2) * 2]] = rng.standard_normal(2 + (trial % 2) * 2)
        sub = build_block_subproblem(problem, x, np.arange(k), 1e-5)
        q = min(sub.budget, k)
        supports = np.array(list(combinations(range(k), q)))
        screen = subproblem._screen(sub.qfp, supports)
        if screen is None:
            continue
        tau, live = screen
        out = np.ones(len(supports), dtype=bool)
        out[live] = False
        keys = _pencil_keys(sub.qfp, supports)
        assert np.all(keys[out] > tau)
        screened += out.sum() > len(supports) // 2
    assert screened >= 16


def test_ranked_enumeration_at_block_size_cap():
    # k = 20, q = 10: 184,756 supports, ranked in chunks; stacked at once
    # they would take over 1 GB.  The screen keys under 1% of them.
    rng = np.random.default_rng(51)
    n = MAX_BLOCK_SIZE + 2
    G = rng.standard_normal((n, n))
    problem = ProblemInstance(A=-(G @ G.T) / n, C=random_spd(rng, n), s=12)
    x = np.zeros(n)
    x[[0, 3, n - 2, n - 1]] = rng.standard_normal(4)
    sub = build_block_subproblem(problem, x, np.arange(MAX_BLOCK_SIZE), 1e-5)
    assert sub.budget == 10
    tally = [0, 0, 0]
    tracemalloc.start()
    try:
        z, value = solve_exact(sub, tally=tally)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert tally[0] == 184_756 and tally[1] < 0.01 * tally[0]
    support = np.flatnonzero(z)
    assert support.size == 10
    assert value == solve_bisection(restrict(sub.qfp, support)).value
    for _ in range(50):
        other = np.sort(rng.choice(MAX_BLOCK_SIZE, size=10, replace=False))
        assert value <= solve_bisection(restrict(sub.qfp, other)).value


def cap_block():
    """A k = 20 block with lower_bound = 0, x_N = 0 and budget 3."""
    rng = np.random.default_rng(54)
    n = MAX_BLOCK_SIZE + 2
    G = rng.standard_normal((n, n))
    problem = ProblemInstance(A=-(G @ G.T) / n, C=np.eye(n), s=3, lower_bound=0.0)
    x = np.zeros(n)
    x[[0, 3, 7]] = [0.5, 0.25, 1.0]
    sub = build_block_subproblem(problem, x, np.arange(MAX_BLOCK_SIZE), 1e-5)
    assert sub.budget == 3 and sub.qfp.v == 0.0
    return sub


def test_face_infima_at_block_size_cap():
    # k = 20 with lower_bound = 0 and x_N = 0: faces are computed for all
    # 1,140 supports (1,350 faces with the 190 pairs and 20 singles under
    # them), in chunks, before any is solved; the result is the
    # per-support loop's.
    sub = cap_block()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        z, value = solve_exact(sub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5.0
    assert peak < 64 * 2**20
    z_loop, value_loop = exact_by_loop(sub, solve_coordinate_descent)[:2]
    assert z.tobytes() == z_loop.tobytes() and value == value_loop


def test_orthant_bounds_memory_scales_with_the_faces_used():
    # The faces are held per size for the masks in use (1,350 at k = 20,
    # q = 3), not in a table of all 2^20 masks, which alone takes 8 MB.
    sub = cap_block()
    supports = np.array(list(combinations(range(MAX_BLOCK_SIZE), 3)))
    assert len(supports) == 1140
    _orthant_bounds(sub.qfp, supports[:2])  # np.unique imports numpy.ma on first use
    tracemalloc.start()
    try:
        bounds = _orthant_bounds(sub.qfp, supports)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bounds.shape == (1140,)
    assert peak < 2**20


def test_face_lattice_is_built_once_per_shape_and_read_only():
    # The lattice depends on (k, q) only, so every block of that shape
    # reads one build, which no caller can write to.  Each support's bound
    # is the smallest infimum over its faces (the empty face's w/v
    # included), each face computed alone here, and a subset of the
    # supports reads the same bounds as all of them.
    rng = np.random.default_rng(3)
    k, q = 7, 3
    qfp = dataclasses.replace(random_qfp(rng, k), lower_bound=0.0)
    supports = np.array(list(combinations(range(k), q)))
    subproblem._face_lattice.cache_clear()
    bounds = _orthant_bounds(qfp, supports)
    assert subproblem._face_lattice.cache_info().misses == 1
    lattice = subproblem._face_lattice(k, q)
    assert subproblem._face_lattice.cache_info().hits == 1
    for array in (lattice[0], *(a for level in lattice[1] for a in level)):
        with pytest.raises(ValueError):
            array[0] = 0
    for bound, support in zip(bounds, supports):
        faces = [qfp.w / qfp.v]
        for size in range(1, q + 1):
            for face in combinations(support, size):
                S = np.array(face)
                faces.append(face_infima(
                    qfp.Q[np.ix_(S, S)][None], qfp.p[S][None], qfp.w,
                    qfp.R[np.ix_(S, S)][None], qfp.c[S][None], qfp.v,
                )[0])
        assert bound == min(faces)
    rows = [30, 2, 17]
    assert _orthant_bounds(qfp, supports[rows]).tobytes() == bounds[rows].tobytes()
