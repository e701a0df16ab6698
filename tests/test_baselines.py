import math

import numpy as np
import pytest
import scipy.linalg

from sgevp.baselines import (
    BaselineConfig,
    hard_threshold,
    truncated_power_method,
    truncated_rayleigh_flow,
)
from sgevp.decomposition import ProblemInstance
from sgevp.errors import ConfigError, RequiresIdentityC

from _util import random_spd, random_sym


def pca_problem(rng, n, scale=1.0):
    M = random_spd(rng, n, ridge=0.0)
    return ProblemInstance(A=-scale * M, C=np.eye(n), s=n)


def test_hard_threshold_basic():
    x = np.array([3.0, -5.0, 1.0, 4.0])
    out = hard_threshold(x, 2)
    assert np.array_equal(out, [0.0, -5.0, 0.0, 4.0])
    assert np.array_equal(hard_threshold(x, 4), x)
    assert np.array_equal(hard_threshold(x, 10), x)
    assert np.array_equal(hard_threshold(x, 0), np.zeros(4))


def test_hard_threshold_tie_lower_index():
    x = np.array([2.0, -2.0, 2.0])
    out = hard_threshold(x, 2)
    assert np.array_equal(out, [2.0, -2.0, 0.0])


def test_config_validation():
    for field, value in [("step_size", -1.0), ("step_size", math.nan), ("step_size", math.inf),
                         ("tol", math.nan), ("max_iters", 0)]:
        with pytest.raises(ConfigError, match=field):
            BaselineConfig(**{field: value}).validate()


def test_tpm_requires_identity_c():
    problem = ProblemInstance(A=-np.eye(3), C=np.diag([1.0, 2.0, 3.0]), s=2)
    with pytest.raises(RequiresIdentityC):
        truncated_power_method(problem, 2)


def test_tpm_diagonal_oracle():
    # diagonal A: the s-sparse optimum keeps the s largest diagonal entries,
    # and the minimum is attained on the single largest one
    problem = ProblemInstance(A=-np.diag([1.0, 7.0, 3.0, 5.0]), C=np.eye(4), s=4)
    trace = truncated_power_method(problem, 2)
    assert trace.final_objective == pytest.approx(-7.0, abs=1e-8)
    assert np.count_nonzero(trace.x) <= 2


def test_tpm_full_sparsity_is_power_method():
    rng = np.random.default_rng(95)
    for _ in range(5):
        problem = pca_problem(rng, 8)
        trace = truncated_power_method(problem, 8)
        ref = float(np.linalg.eigvalsh(problem.A)[0])
        assert trace.final_objective == pytest.approx(ref, abs=1e-6)


def test_tpm_monotone_trace_and_sparsity():
    rng = np.random.default_rng(96)
    for _ in range(5):
        problem = pca_problem(rng, 12)
        s = 4
        trace = truncated_power_method(problem, s)
        f = np.asarray(trace.objectives)
        # PSD shift guarantees monotone objective decrease
        assert np.all(np.diff(f) <= 1e-10)
        assert np.count_nonzero(trace.x) <= s
        assert np.linalg.norm(trace.x) == pytest.approx(1.0)


def test_trf_full_sparsity_near_dense_optimum():
    rng = np.random.default_rng(97)
    for _ in range(5):
        n = 8
        A = random_sym(rng, n)
        C = random_spd(rng, n)
        problem = ProblemInstance(A=A, C=C, s=n)
        trace = truncated_rayleigh_flow(problem, n, BaselineConfig(max_iters=5000, tol=1e-12))
        ref = float(scipy.linalg.eigh(A, C, eigvals_only=True)[0])
        assert trace.final_objective <= ref + 1e-3


def test_trf_monotone_by_backtracking():
    # the line search only accepts non-increasing steps
    rng = np.random.default_rng(98)
    problem = pca_problem(rng, 10)
    trace = truncated_rayleigh_flow(problem, 3)
    f = np.asarray(trace.objectives)
    assert np.all(np.diff(f) <= 1e-12)
    assert np.count_nonzero(trace.x) <= 3
    # iterate stays normalized in the C metric
    assert float(trace.x @ problem.C @ trace.x) == pytest.approx(1.0)


def test_trf_general_c_supported():
    rng = np.random.default_rng(99)
    A = random_sym(rng, 6)
    C = random_spd(rng, 6)
    problem = ProblemInstance(A=A, C=C, s=6)
    trace = truncated_rayleigh_flow(problem, 2)
    assert np.count_nonzero(trace.x) <= 2
    assert np.isfinite(trace.final_objective)


def test_baselines_trace_shapes():
    rng = np.random.default_rng(100)
    problem = pca_problem(rng, 8)
    for trace in (
        truncated_power_method(problem, 3),
        truncated_rayleigh_flow(problem, 3),
    ):
        m = trace.iterations
        assert len(trace.objectives) == m + 1
        assert len(trace.seconds) == m
        assert trace.reason in ("tolerance", "max_iters", "fixed_point")
        # The decomposition's counters are not the baselines'.
        assert trace.supports is None
