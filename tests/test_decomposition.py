import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import Phase, assume, given, settings
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
from sgevp.errors import ConfigError, DegenerateDenominator, SgevpError, TooLarge, ZeroVector
from sgevp.fractional1d import OneDimCoefficients, solve_1d
from sgevp.linalg import NotPositiveDefinite
from sgevp.problems import build_cca, build_fda, build_pca, gen_randn
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


def test_certify_singleton_support_at_its_optimum():
    # x = c e_2 attains the s = 1 optimum min_i A_ii.  Every 1-D move keeps x
    # on its axis, but solve_1d evaluated the ratio at x_2 + beta ~ 0 and
    # reported a descent of 1.2e-5 from the 0/0 rounding.
    problem = ProblemInstance(A=np.diag([2.0, -0.45, -0.8652130762749418]), C=np.eye(3), s=1)
    assert certify_block2_stationary(problem, np.array([0.0, 0.0, 0.99999818]), tol=1e-6)


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
    for i in S if S.size > 1 else ():  # a lone coordinate's axis has one ratio
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


@st.composite
def solver_cases(draw, bounded: bool, max_k: int = 20):
    """A small PCA, FDA or CCA instance (n <= 24, s <= 4) from Gaussian data
    and a config with k <= min(n, max_k) on a short iteration budget."""
    # sampled_from spreads the sizes evenly; st.integers favours small ones.
    app = draw(st.sampled_from(["pca", "fda", "cca"]))
    m, d = draw(st.sampled_from(range(4, 25))), draw(st.sampled_from(range(4, 25)))
    data = gen_randn(m, d, draw(st.integers(0, 2**16)))
    if app == "pca":
        problem = build_pca(data)
    elif app == "fda":
        assume(min(np.sum(data.y > 0), np.sum(data.y <= 0)) >= 2)
        problem = build_fda(data)
    else:  # the views' rows are the variables: n = m, d samples
        assume(0 < np.sum(data.y > 0) < m)
        problem = build_cca(data.X[data.y > 0], data.X[data.y <= 0])
    n = problem.dim
    s = draw(st.sampled_from(range(1, min(4, n) + 1)))
    problem = dataclasses.replace(problem, s=s, lower_bound=0.0 if bounded else None)
    k = draw(st.sampled_from(range(1, min(n, max_k) + 1)))
    swap = 2 * draw(st.sampled_from(range(k // 2 + 1)))
    config = DecompositionConfig(
        k=k, random_count=k - swap, swap_count=swap, max_iters=draw(st.sampled_from(range(1, 13))),
        seed=draw(st.integers(0, 100)),
    )
    return problem, config


def check_invariants(problem, config, trace):
    f = np.asarray(trace.objectives)
    # The accept test's rounding slack: a step that only rescales x (a hard
    # case with x_N = 0) can raise x'Ax/x'Cx by an ulp.
    slack = 1e-12 * (1.0 + np.abs(f[:-1]))
    assert np.all(f[1:] <= f[:-1] + slack)  # the objective never increases
    for t in range(trace.iterations):  # every step passes sufficient_decrease
        prox = config.theta * trace.step_norms[t] ** 2 / trace.denominators[t]
        assert f[t + 1] + prox <= f[t] + slack[t]
    assert np.count_nonzero(trace.x) <= problem.s
    assert objective(problem, trace.x) == trace.final_objective


@settings(max_examples=200, deadline=None, derandomize=True)
@given(solver_cases(bounded=False))
def test_solver_invariants_unbounded(case):
    problem, config = case
    trace = solve(problem, config)
    check_invariants(problem, config, trace)
    if config.swap_count >= 2:  # polish ran
        # The certificate's tol is absolute, but the objective is evaluated
        # only to relative accuracy: FDA and CCA from fewer samples than
        # variables leave C a 1e-6 ridge from singular, |f| reaches 1e6, and
        # two evaluations of one point differ by 4e-5.
        tol = 1e-6 * max(1.0, abs(trace.final_objective))
        assert certify_block2_stationary(problem, trace.x, tol=tol)


# Bounded runs solve supports by coordinate descent, up to 200 sweeps each,
# on the supports the pencil-key ranking cannot prune; k stays <= 12 to keep
# the test fast.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(solver_cases(bounded=True, max_k=12))
def test_solver_invariants_bounded(case):
    problem, config = case
    check_invariants(problem, config, solve(problem, config))


@pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, DegenerateDenominator),
    reason="ROADMAP item 3: swap scoring ignores lower_bound, so the "
    "certificate of a bounded solution reports infeasible improving swaps",
)
@settings(
    max_examples=25, deadline=None, derandomize=True,
    phases=[Phase.generate], report_multiple_bugs=False,  # the first failure will do
)
@given(solver_cases(bounded=True, max_k=8))
def test_bounded_solution_passes_block2_certificate(case):
    problem, config = case
    assume(config.swap_count >= 2)
    trace = solve(problem, config)
    assert certify_block2_stationary(problem, trace.x, tol=1e-6)
