from itertools import combinations

import numpy as np
import pytest

from sgevp.decomposition import objective
from sgevp.errors import InsufficientCoordinates, InvalidK
from sgevp.working_set import (
    Provenance,
    descent_matrix,
    select_hybrid,
    select_random,
    select_swapping,
    support_and_zero,
    swap_descent,
    _solve_1d_rowwise,
)

from _util import random_problem


def test_support_and_zero():
    x = np.array([0.0, 1.5, 0.0, -2.0])
    S, Z = support_and_zero(x)
    assert np.array_equal(S, [1, 3])
    assert np.array_equal(Z, [0, 2])


def test_select_random_uniform_frequency():
    # every C(5,2)=10 combination should appear with frequency ~1/10
    n, k, draws = 5, 2, 100_000
    rng = np.random.default_rng(60)
    counts = {c: 0 for c in combinations(range(n), k)}
    for _ in range(draws):
        sel = select_random(n, k, rng)
        counts[tuple(sel.indices)] += 1
        assert sel.provenance == [Provenance.RANDOM] * k
    p = 1.0 / len(counts)
    sigma = (draws * p * (1 - p)) ** 0.5
    for combo, cnt in counts.items():
        assert abs(cnt - draws * p) < 5 * sigma, (combo, cnt)


def test_select_random_invalid_k():
    rng = np.random.default_rng(61)
    with pytest.raises(InvalidK):
        select_random(5, 0, rng)
    with pytest.raises(InvalidK):
        select_random(5, 6, rng)


def test_swap_descent_diag_instance():
    # diag(1, 10) ratio: at e_1 the objective is 1; swapping to e_2 gives 10,
    # swapping from a start at e_2 down to e_1 descends by -9
    from sgevp.decomposition import ProblemInstance

    problem = ProblemInstance(
        A=np.diag([10.0, 1.0]), C=np.eye(2), s=1
    )
    x = np.array([1.0, 0.0])
    d = swap_descent(problem, x, 0, 1)
    assert d == pytest.approx(1.0 - 10.0)
    x2 = np.array([0.0, 1.0])
    d2 = swap_descent(problem, x2, 1, 0)
    assert d2 == pytest.approx(10.0 - 1.0)


def test_swap_descent_matches_direct_search():
    # D_ij equals the best objective over x with i removed and j entering
    rng = np.random.default_rng(62)
    for _ in range(10):
        problem = random_problem(rng, 6, 3)
        x = np.zeros(6)
        support = rng.choice(6, size=3, replace=False)
        x[support] = rng.standard_normal(3)
        S, Z = support_and_zero(x)
        i, j = int(S[0]), int(Z[0])
        d = swap_descent(problem, x, i, j)
        betas = np.linspace(-50, 50, 200_001)
        v = x.copy()
        v[i] = 0.0
        vals = []
        for beta in betas:
            y = v.copy()
            y[j] = beta
            den = 0.5 * float(y @ problem.C @ y)
            if den > 0:
                vals.append(0.5 * float(y @ problem.A @ y) / den)
        grid_best = min(vals)
        assert d <= grid_best - objective(problem, x) + 1e-6
        assert d == pytest.approx(grid_best - objective(problem, x), abs=1e-4)


def test_descent_matrix_matches_scalar():
    rng = np.random.default_rng(63)
    for _ in range(10):
        problem = random_problem(rng, 7, 3)
        x = np.zeros(7)
        support = rng.choice(7, size=3, replace=False)
        x[support] = rng.standard_normal(3)
        S, Z, D = descent_matrix(problem, x)
        for a, i in enumerate(S):
            for b, j in enumerate(Z):
                assert D[a, b] == pytest.approx(
                    swap_descent(problem, x, int(i), int(j)), abs=1e-9
                )


def test_descent_matrix_singleton_support():
    rng = np.random.default_rng(64)
    problem = random_problem(rng, 5, 1)
    x = np.zeros(5)
    x[2] = 1.3
    S, Z, D = descent_matrix(problem, x)
    f_x = objective(problem, x)
    for b, j in enumerate(Z):
        expected = problem.A[j, j] / problem.C[j, j] - f_x
        assert D[0, b] == pytest.approx(expected, abs=1e-10)


def test_descent_matrix_singleton_support_inexact_scale():
    # C_00 * 0.1^2 rounds differently along the two ways the rank-one
    # update computes it, so t is noise; the swap must still score A_11/C_11 - f.
    from sgevp.decomposition import ProblemInstance

    C = np.array([[1.265625, 0.765625], [0.765625, 1.265625]])
    problem = ProblemInstance(A=np.ones((2, 2)), C=C, s=1)
    x = np.array([-0.1, 0.0])
    _, _, D = descent_matrix(problem, x)
    assert D[0, 0] == pytest.approx(swap_descent(problem, x, 0, 1), abs=1e-12)
    assert D[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_rowwise_huge_stationary_root_is_not_dropped():
    # Same row as the scalar solve_1d_core case: the root at beta = 2e170
    # overflows beta^2, and the row must still read the a/r = 1 limit.
    row = _solve_1d_rowwise(
        np.array([1.0]), np.array([1e-170]), 2.0, np.array([1.0]), np.array([2e-170]), 1.0,
    )
    assert row[0] == pytest.approx(1.0, rel=1e-15)


def greedy_reference(S, Z, D, pairs):
    """Independent greedy oracle: repeatedly take the entry with smallest
    (descent, support index, zero index) whose row and column are unused."""
    entries = sorted(
        ((D[a, b], int(S[a]), int(Z[b])) for a in range(S.size) for b in range(Z.size))
    )
    used_i, used_j, out = set(), set(), []
    for _, i, j in entries:
        if i in used_i or j in used_j:
            continue
        out.append((i, j))
        used_i.add(i)
        used_j.add(j)
        if len(out) == pairs:
            break
    return out


def test_select_swapping_matches_greedy_oracle():
    rng = np.random.default_rng(65)
    for _ in range(10):
        problem = random_problem(rng, 8, 4)
        x = np.zeros(8)
        support = rng.choice(8, size=4, replace=False)
        x[support] = rng.standard_normal(4)
        k_swap = 4
        sel = select_swapping(problem, x, k_swap)
        S, Z, D = descent_matrix(problem, x)
        ref = greedy_reference(S, Z, D, k_swap // 2)
        pairs = list(zip(sel.indices[: k_swap // 2], sel.indices[k_swap // 2 :]))
        assert [(int(i), int(j)) for i, j in pairs] == ref
        assert sel.provenance == [Provenance.SWAP_SUPPORT] * 2 + [Provenance.SWAP_ZERO] * 2


def test_select_swapping_tie_breaks_lexicographic():
    # a fully symmetric instance makes every swap descent identical, so the
    # greedy order must fall back to (support index, zero index)
    from sgevp.decomposition import ProblemInstance

    problem = ProblemInstance(A=np.eye(6), C=np.eye(6), s=2)
    x = np.zeros(6)
    x[[2, 4]] = 1.0
    sel = select_swapping(problem, x, 4)
    pairs = list(zip(sel.indices[:2], sel.indices[2:]))
    assert [(int(i), int(j)) for i, j in pairs] == [(2, 0), (4, 1)]


def test_select_swapping_validation():
    rng = np.random.default_rng(66)
    problem = random_problem(rng, 6, 2)
    x = np.zeros(6)
    x[0] = 1.0
    with pytest.raises(InvalidK):
        select_swapping(problem, x, 3)
    with pytest.raises(InvalidK):
        select_swapping(problem, x, 0)
    with pytest.raises(InsufficientCoordinates):
        select_swapping(problem, x, 4)  # needs 2 support coords, has 1


def test_select_hybrid_composition():
    rng = np.random.default_rng(67)
    for _ in range(10):
        problem = random_problem(rng, 9, 4)
        x = np.zeros(9)
        support = rng.choice(9, size=4, replace=False)
        x[support] = rng.standard_normal(4)
        sel = select_hybrid(problem, x, r=2, w=4, rng=rng)
        assert sel.indices.size == 6
        assert len(set(int(i) for i in sel.indices)) == 6  # distinct
        assert sel.provenance.count(Provenance.RANDOM) == 2
        assert sel.provenance.count(Provenance.SWAP_SUPPORT) == 2
        assert sel.provenance.count(Provenance.SWAP_ZERO) == 2
        # swap part matches pure swapping selection
        swap = select_swapping(problem, x, 4)
        assert np.array_equal(sel.indices[:4], swap.indices)


def test_select_hybrid_pure_random():
    rng = np.random.default_rng(68)
    problem = random_problem(rng, 6, 2)
    x = np.zeros(6)
    x[1] = 1.0
    sel = select_hybrid(problem, x, r=3, w=0, rng=rng)
    assert sel.indices.size == 3
    assert sel.provenance == [Provenance.RANDOM] * 3


def test_select_hybrid_invalid_k():
    rng = np.random.default_rng(69)
    problem = random_problem(rng, 4, 2)
    x = np.zeros(4)
    x[0] = 1.0
    with pytest.raises(InvalidK):
        select_hybrid(problem, x, r=3, w=2, rng=rng)  # k=5 > n=4


def test_select_random_determinism():
    a = select_random(10, 4, np.random.default_rng(7)).indices
    b = select_random(10, 4, np.random.default_rng(7)).indices
    assert np.array_equal(a, b)
