import dataclasses
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgevp import subproblem
from sgevp.decomposition import ProblemInstance
from sgevp.errors import SgevpError
from sgevp.problems import build_pca, gen_randn
from sgevp.qfp import (
    GAMMA_FLOOR,
    QfpSubproblem,
    assemble_reduced,
    solve_bisection,
    solve_coordinate_descent,
)
from sgevp.subproblem import (
    MAX_BLOCK_SIZE,
    RANK_BAND,
    BlockSubproblem,
    _pencil_keys,
    _ranked,
    build_block_subproblem,
    solve_exact,
)

from _util import random_problem, random_spd


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
    solve_coordinate_descent) on every size-q support, the first strictly
    smallest value wins.  Returns z, the value, the winning support, every
    support's value (nan where its solve raised) and {support index: error}
    for the solves that raised an error of a type in tolerate; any other
    error propagates."""
    qfp = sub.qfp
    q = min(sub.budget, qfp.dim)
    best_value, best_support, best_y = np.inf, None, None
    values, errors = [], {}
    for i, support in enumerate(combinations(range(qfp.dim), q)):
        try:
            sol = solve(restrict(qfp, support))
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
def block_cases(draw, lower_bounds=st.none()):
    """A block of the first k <= 10 coordinates of a small problem, with
    budget q >= 1 and a lower bound drawn from lower_bounds.

    Zero entries in A make exact ties and hard cases (g orthogonal to the
    bottom eigenvector); a point with no entries outside the block has
    x_N = 0, so gamma = 0; C is the identity or a random SPD matrix."""
    k = draw(st.integers(1, 10))
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


def check_ranked_matches_loop(sub, method, solve, strict=True):
    """solve_exact(sub, method) equals exact_by_loop(sub, solve) bit for bit,
    and no key that ranks a support exceeds the support's value by more than
    the band: the ranking relies on that.

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
    keys = _pencil_keys(sub.qfp, np.array(list(combinations(range(sub.qfp.dim), q))))
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
    support, _ = _ranked(sub.qfp, q, solve)
    assert tuple(support) == support_loop


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_cases())
def test_ranked_enumeration_matches_bisection_loop(sub):
    check_ranked_matches_loop(sub, "bisection", solve_bisection)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_cases(lower_bounds=st.sampled_from([None, 0.0, -1.0])))
def test_ranked_enumeration_matches_coordinate_descent_loop(sub):
    # A key is the unconstrained infimum, so it also bounds coordinate
    # descent's value from below, with or without the lower bound.
    check_ranked_matches_loop(sub, "coordinate-descent", solve_coordinate_descent, strict=False)


def test_ranking_prunes_coordinate_descent_supports(monkeypatch):
    # A bounded block with x_N = 0 (gamma = 0), k = 8 and q = 4 as on a
    # lower_bound = 0 PCA run: 35 of the 70 supports have keys above the
    # winner's value and are never solved.
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
    assert len(calls) < 70
    z_loop, value_loop = exact_by_loop(sub, solve_coordinate_descent)[:2]
    assert z.tobytes() == z_loop.tobytes()
    assert value == value_loop


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ranking_never_picks_a_nan_value():
    # Coordinate descent on support {0, 1} steps to y_0 ~ -5e303, overflows
    # the denominator and returns a nan value.  All three supports share one
    # key, so all are solved, {0, 1} first; the loop skips the nan value.
    t = 5.6e-309
    Q = np.array([[1e-5, t, 0.0], [t, 1e-5, 0.0], [0.0, 0.0, 1e-5]])
    qfp = QfpSubproblem(Q=Q, p=np.zeros(3), w=2e-5, R=np.eye(3) / 2, c=np.zeros(3), v=0.0)
    sub = BlockSubproblem(qfp=qfp, budget=2)
    z_loop, value_loop, support_loop, values, _ = exact_by_loop(sub, solve_coordinate_descent)
    assert np.isnan(values[0]) and np.all(np.isfinite(values[1:]))
    support, sol = _ranked(qfp, 2, solve_coordinate_descent)
    assert tuple(support) == support_loop and sol.value == value_loop
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


def test_ranked_enumeration_at_block_size_cap():
    # k = 20, q = 10: 184,756 supports, ranked in chunks; stacked at once
    # they would take over 1 GB.
    rng = np.random.default_rng(51)
    n = MAX_BLOCK_SIZE + 2
    G = rng.standard_normal((n, n))
    problem = ProblemInstance(A=-(G @ G.T) / n, C=random_spd(rng, n), s=12)
    x = np.zeros(n)
    x[[0, 3, n - 2, n - 1]] = rng.standard_normal(4)
    sub = build_block_subproblem(problem, x, np.arange(MAX_BLOCK_SIZE), 1e-5)
    assert sub.budget == 10
    tracemalloc.start()
    try:
        z, value = solve_exact(sub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    support = np.flatnonzero(z)
    assert support.size == 10
    assert value == solve_bisection(restrict(sub.qfp, support)).value
    for _ in range(50):
        other = np.sort(rng.choice(MAX_BLOCK_SIZE, size=10, replace=False))
        assert value <= solve_bisection(restrict(sub.qfp, other)).value
