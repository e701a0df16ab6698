import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgevp.decomposition import (
    DecompositionConfig,
    ProblemInstance,
    block_k_measure,
    certify_block2_stationary,
    initial_point,
    objective,
    refine_block_k,
    relative_decrease,
    solve,
)
from sgevp.errors import ConfigError, SgevpError, TooLarge, ZeroVector
from sgevp.fractional1d import OneDimCoefficients, solve_1d
from sgevp.linalg import NotPositiveDefinite
from sgevp.problems import build_pca, gen_randn
from sgevp.working_set import support_and_zero, swap_descent

from _util import random_problem, random_spd, random_sym


def sparse_global_optimum(problem):
    """Exhaustive oracle: best generalized eigenvalue over all supports."""
    n, s = problem.dim, problem.s
    best = np.inf
    for support in combinations(range(n), s):
        idx = np.asarray(support)
        A = problem.A[np.ix_(idx, idx)]
        C = problem.C[np.ix_(idx, idx)]
        best = min(best, float(scipy.linalg.eigh(A, C, eigvals_only=True)[0]))
    return best


def test_objective_and_zero_vector():
    problem = ProblemInstance(A=np.diag([2.0, 6.0]), C=np.diag([1.0, 2.0]), s=2)
    assert objective(problem, np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert objective(problem, np.array([0.0, 1.0])) == pytest.approx(3.0)
    with pytest.raises(ZeroVector):
        objective(problem, np.zeros(2))


def test_initial_point_smallest_ratio():
    problem = ProblemInstance(
        A=np.diag([5.0, 1.0, 3.0, 2.0]), C=np.diag([1.0, 2.0, 1.0, 4.0]), s=2
    )
    # ratios are 5, 0.5, 3, 0.5; the tie resolves to the first argmin
    assert np.array_equal(initial_point(problem), [0.0, 1.0, 0.0, 0.0])
    problem2 = ProblemInstance(A=np.diag([5.0, 1.0, 3.0, 2.0]), C=np.eye(4), s=2)
    assert np.array_equal(initial_point(problem2), [0.0, 1.0, 0.0, 0.0])


def test_relative_decrease():
    assert relative_decrease(2.0, 1.0) == pytest.approx(0.5)
    assert relative_decrease(-2.0, -3.0) == pytest.approx(0.5)  # |f| denominator
    assert relative_decrease(1.0, 2.0) == 0.0  # clamped increase
    assert relative_decrease(0.0, -0.3) == pytest.approx(0.3)  # absolute at f=0


def test_problem_validation():
    with pytest.raises(ConfigError):
        ProblemInstance(A=np.eye(3), C=np.eye(2), s=1)
    with pytest.raises(ConfigError):
        ProblemInstance(A=np.eye(3), C=np.eye(3), s=0)
    with pytest.raises(ConfigError):
        ProblemInstance(A=np.eye(3), C=np.eye(3), s=4)
    with pytest.raises(NotPositiveDefinite):
        ProblemInstance(A=np.eye(3), C=np.diag([1.0, -1.0, 1.0]), s=1)


def test_config_validation():
    problem = ProblemInstance(A=np.eye(6), C=np.eye(6), s=2)
    DecompositionConfig(k=4, random_count=2, swap_count=2).validate(problem)
    with pytest.raises(ConfigError):
        DecompositionConfig(k=7, random_count=5, swap_count=2).validate(problem)
    with pytest.raises(ConfigError):
        DecompositionConfig(k=4, random_count=1, swap_count=2).validate(problem)
    with pytest.raises(ConfigError):
        DecompositionConfig(k=4, random_count=1, swap_count=3).validate(problem)
    with pytest.raises(ConfigError):
        DecompositionConfig(k=4, random_count=2, swap_count=2, theta=-1.0).validate(problem)
    with pytest.raises(ConfigError):
        DecompositionConfig(k=4, random_count=2, swap_count=2, subsolver="newton").validate(problem)
    with pytest.raises(ConfigError):
        DecompositionConfig(k=0, random_count=0, swap_count=0).validate(problem)


def test_diagonal_instance_reaches_optimum():
    problem = ProblemInstance(A=np.diag([5.0, 1.0, 3.0, 2.0]), C=np.eye(4), s=2)
    trace = solve(problem, DecompositionConfig(k=4, random_count=2, swap_count=2))
    # best 2-sparse point lives on coordinates {1, 3}; value is eig-min = 1
    assert trace.final_objective == pytest.approx(1.0, abs=1e-10)
    assert np.count_nonzero(trace.x) <= 2


def test_full_sparsity_matches_eigensolver():
    rng = np.random.default_rng(70)
    for _ in range(5):
        n = 8
        A = random_sym(rng, n)
        C = random_spd(rng, n)
        problem = ProblemInstance(A=A, C=C, s=n)
        trace = solve(problem, DecompositionConfig(k=8, random_count=4, swap_count=4))
        ref = float(scipy.linalg.eigh(A, C, eigvals_only=True)[0])
        assert trace.final_objective == pytest.approx(ref, abs=1e-7)


def test_matches_exhaustive_oracle_small():
    rng = np.random.default_rng(71)
    hits = 0
    for _ in range(10):
        problem = random_problem(rng, 8, 3)
        trace = solve(
            problem, DecompositionConfig(k=6, random_count=4, swap_count=2, seed=1)
        )
        ref = sparse_global_optimum(problem)
        assert trace.final_objective >= ref - 1e-9
        hits += trace.final_objective <= ref + 1e-7
    assert hits >= 9  # local-optimum escapes can rarely fail; most must hit


def test_sufficient_decrease_invariant():
    # every accepted step satisfies f_t - f_{t+1} >= theta * ||step||^2 / (x'Cx)
    rng = np.random.default_rng(72)
    for _ in range(5):
        problem = random_problem(rng, 10, 4)
        theta = 1e-3
        trace = solve(
            problem,
            DecompositionConfig(k=6, random_count=4, swap_count=2, theta=theta),
        )
        for t in range(trace.iterations):
            drop = trace.objectives[t] - trace.objectives[t + 1]
            bound = theta * trace.step_norms[t] ** 2 / trace.denominators[t]
            assert drop >= bound - 1e-9 * (1.0 + abs(trace.objectives[t]))


def test_objectives_monotone_and_trace_shapes():
    rng = np.random.default_rng(73)
    problem = random_problem(rng, 12, 4)
    trace = solve(problem, DecompositionConfig(k=6, random_count=2, swap_count=4))
    f = np.asarray(trace.objectives)
    assert np.all(np.diff(f) <= 1e-12)
    m = trace.iterations
    assert len(trace.objectives) == m + 1
    assert len(trace.working_sets) == m
    assert len(trace.denominators) == m
    assert len(trace.step_norms) == m
    assert len(trace.seconds) == m
    assert trace.reason in ("tolerance", "max_iters", "time_limit")
    assert np.count_nonzero(trace.x) <= problem.s


def test_determinism_same_seed():
    rng = np.random.default_rng(74)
    problem = random_problem(rng, 10, 3)
    cfg = DecompositionConfig(k=6, random_count=4, swap_count=2, seed=5)
    a = solve(problem, cfg)
    b = solve(problem, cfg)
    assert a.objectives == b.objectives
    assert np.array_equal(a.x, b.x)


def test_stopping_rule_window():
    # with a huge epsilon the very first window triggers the tolerance stop
    rng = np.random.default_rng(75)
    problem = random_problem(rng, 10, 3)
    trace = solve(
        problem,
        DecompositionConfig(k=4, random_count=2, swap_count=2, epsilon=1e9, window=1),
    )
    assert trace.reason == "tolerance"
    assert trace.iterations >= 1


def test_certify_after_solve():
    rng = np.random.default_rng(76)
    for _ in range(5):
        problem = random_problem(rng, 10, 3)
        trace = solve(problem, DecompositionConfig(k=6, random_count=2, swap_count=4))
        assert certify_block2_stationary(problem, trace.x, tol=1e-8)


def test_certify_rejects_random_point():
    rng = np.random.default_rng(77)
    rejected = 0
    for _ in range(5):
        problem = random_problem(rng, 10, 3)
        x = np.zeros(10)
        x[rng.choice(10, size=3, replace=False)] = rng.standard_normal(3)
        rejected += not certify_block2_stationary(problem, x, tol=1e-8)
    assert rejected == 5


@st.composite
def certify_cases(draw):
    """Small problem (C = I or SPD C, with or without lower_bound = 0) and
    an s-sparse point, single-coordinate supports included."""
    n = draw(st.integers(2, 12))
    entries = st.floats(-4.0, 4.0, allow_nan=False)
    M = draw(arrays(float, (n, n), elements=entries))
    if draw(st.booleans()):
        C = np.eye(n)
    else:
        G = draw(arrays(float, (n, n), elements=entries))
        C = G @ G.T / n + 0.5 * np.eye(n)
    lower_bound = draw(st.sampled_from([None, 0.0]))
    s = draw(st.integers(1, n))
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=s, unique=True))
    magnitudes = draw(st.lists(st.floats(0.1, 3.0), min_size=len(support), max_size=len(support)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(support), max_size=len(support)))
    x = np.zeros(n)
    x[support] = magnitudes if lower_bound is not None else np.multiply(magnitudes, signs)
    return ProblemInstance(A=0.5 * (M + M.T), C=C, s=s, lower_bound=lower_bound), x


def certify_by_pairs(problem, x, tol):
    """certify_block2_stationary spelled out: solve_1d on every support
    coordinate, then the scalar swap_descent oracle on every pair."""
    f_x = objective(problem, x)
    Ax, Cx = problem.A @ x, problem.C @ x
    S, Z = support_and_zero(x)
    for i in S:
        lower = -math.inf if problem.lower_bound is None else problem.lower_bound - float(x[i])
        coeffs = OneDimCoefficients(
            a=float(problem.A[i, i]), b=float(Ax[i]), c=0.5 * float(x @ Ax),
            r=float(problem.C[i, i]), s=float(Cx[i]), t=0.5 * float(x @ Cx), lower=lower,
        )
        if solve_1d(coeffs).value < f_x - tol:
            return False
    scores = [swap_descent(problem, x, int(i), int(j)) for i in S for j in Z]
    # Scalar and vectorized scores round differently; a score within that
    # rounding of the threshold has no well-defined verdict.
    assume(all(abs(d + tol) > 1e-9 * (1.0 + abs(f_x)) for d in scores))
    return not any(d < -tol for d in scores)


def outcome(fn, *args):
    try:
        return fn(*args)
    except SgevpError as error:
        return type(error)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(certify_cases(), st.sampled_from([1e-9, 1e-6, 1e-3]))
def test_certify_matches_explicit_pair_loop(case, tol):
    problem, x = case
    expected = outcome(certify_by_pairs, problem, x, tol)
    assert outcome(certify_block2_stationary, problem, x, tol) == expected


def test_block_k_measure_vanishes_at_refined_point():
    rng = np.random.default_rng(78)
    problem = random_problem(rng, 8, 3)
    trace = solve(problem, DecompositionConfig(k=4, random_count=2, swap_count=2))
    x, _ = refine_block_k(problem, trace.x, k=4)
    assert block_k_measure(problem, x, k=4) <= 1e-10


def test_block_k_measure_positive_at_perturbed_point():
    rng = np.random.default_rng(79)
    problem = random_problem(rng, 8, 3)
    x = np.zeros(8)
    x[[0, 3, 5]] = [1.0, -0.5, 2.0]
    assert block_k_measure(problem, x, k=3) > 1e-6


def test_block_k_measure_too_large():
    rng = np.random.default_rng(80)
    problem = random_problem(rng, 50, 3)
    with pytest.raises(TooLarge):
        block_k_measure(problem, np.eye(50)[0], k=12)
    with pytest.raises(TooLarge):
        refine_block_k(problem, np.eye(50)[0], k=12)


def test_refine_block_k_never_increases():
    rng = np.random.default_rng(81)
    for _ in range(5):
        problem = random_problem(rng, 8, 3)
        trace = solve(problem, DecompositionConfig(k=4, random_count=2, swap_count=2))
        x, f = refine_block_k(problem, trace.x, k=3)
        assert f <= trace.final_objective + 1e-12
        assert np.count_nonzero(x) <= problem.s


def test_polish_honours_time_limit():
    # With time_limit = 0 the main loop stops after one step; polish used to
    # run on regardless (71 more steps on this instance).
    problem = dataclasses.replace(build_pca(gen_randn(300, 100, 7)), s=8)
    trace = solve(problem, DecompositionConfig(time_limit=0.0))
    assert trace.reason == "time_limit"
    assert trace.iterations == 1


def test_lower_bound_respected():
    rng = np.random.default_rng(82)
    base = random_problem(rng, 8, 3)
    problem = dataclasses.replace(base, lower_bound=0.0)
    trace = solve(problem, DecompositionConfig(k=4, random_count=2, swap_count=2))
    assert np.all(trace.x >= -1e-12)
    free = solve(base, DecompositionConfig(k=4, random_count=2, swap_count=2))
    assert trace.final_objective >= free.final_objective - 1e-9
