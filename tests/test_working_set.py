import dataclasses
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgevp.decomposition import ProblemInstance, objective
from sgevp import working_set
from sgevp.errors import InsufficientCoordinates, InvalidK
from sgevp.fractional1d import solve_1d_values
from sgevp.problems import build_pca, gen_randn
from sgevp.working_set import (
    descent_matrix,
    select_hybrid,
    select_random,
    select_swapping,
    support_and_zero,
    swap_descent,
    swap_scores,
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
        counts[tuple(select_random(n, k, rng))] += 1
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
    row = solve_1d_values(
        np.array([1.0]), np.array([1e-170]), 2.0, np.array([1.0]), np.array([2e-170]), 1.0,
    )
    assert row[0] == pytest.approx(1.0, rel=1e-15)
    # Batched: the same row beside an ordinary one, per-row c and t as a
    # column; each row equals its own 1-D call bit for bit.
    a, r = np.array([1.0, 1.0]), np.array([1.0, 1.0])
    b = np.array([[1e-170, 1e-170], [0.5, -0.3]])
    s = np.array([[2e-170, 2e-170], [0.1, 0.2]])
    c, t = np.array([[2.0], [1.0]]), np.array([[1.0], [2.0]])
    rows = solve_1d_values(a, b, c, r, s, t)
    assert rows.shape == (2, 2)
    assert rows[0] == pytest.approx(1.0, rel=1e-15)
    for i in range(2):
        alone = solve_1d_values(a, b[i], float(c[i, 0]), r, s[i], float(t[i, 0]))
        assert rows[i].tobytes() == alone.tobytes()


def swap_row_oracle(problem, x, Ax, Cx, f_x, i, J):
    """The per-row scorer that swap_scores batches: swap_descent(i, j) for
    every j in J, from rank-one corrections of Ax and Cx."""
    A, C = problem.A, problem.C
    xi = x[i]
    a = np.diag(A)[J]
    b = Ax[J] - xi * A[J, i]
    c = 0.5 * (float(x @ Ax) - 2.0 * xi * Ax[i] + xi * xi * A[i, i])
    r = np.diag(C)[J]
    s = Cx[J] - xi * C[J, i]
    t = 0.5 * (float(x @ Cx) - 2.0 * xi * Cx[i] + xi * xi * C[i, i])
    if t <= 0.0 or not (np.any(x[:i]) or np.any(x[i + 1:])):
        return a / r - f_x
    return solve_1d_values(a, b, c, r, s, t) - f_x


@st.composite
def scoring_cases(draw):
    """(problem, x, I, J): disjoint rows I and columns J over any coordinates,
    so rows with x_i = 0 (a support coordinate a polish move took out) and
    columns with x_j != 0 occur; supports down to one coordinate, where t
    is rounding noise; C the identity or not."""
    n = draw(st.integers(2, 8))
    M = draw(arrays(float, (n, n), elements=st.floats(-4.0, 4.0)))
    G = draw(arrays(float, (n, n), elements=st.floats(-4.0, 4.0)))
    C = np.eye(n) if draw(st.booleans()) else G @ G.T / n + 0.5 * np.eye(n)
    entries = st.one_of(st.just(0.0), st.floats(-4.0, 4.0), st.sampled_from([0.1, -0.1, 1e-3]))
    x = draw(arrays(float, n, elements=entries))
    keep = draw(st.integers(0, n - 1))
    x[keep] = draw(st.sampled_from([1.0, -0.1, 0.3, 2.5]))
    if draw(st.booleans()):
        x[np.arange(n) != keep] = 0.0  # a singleton support
    role = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    I, J = np.flatnonzero(role == 0), np.flatnonzero(role == 1)
    problem = ProblemInstance(A=0.5 * (M + M.T), C=C, s=n)
    return problem, x, I, J


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scoring_cases())
@example((
    ProblemInstance(
        A=np.ones((3, 3)),
        C=np.array([[1.265625, 0.765625, 0.0], [0.765625, 1.265625, 0.0], [0.0, 0.0, 1.0]]),
        s=1,
    ),
    np.array([-0.1, 0.0, 0.0]), np.array([0, 2]), np.array([1]),
))
def test_swap_scores_equal_the_per_row_oracle_bit_for_bit(case):
    problem, x, I, J = case
    Ax, Cx = problem.A @ x, problem.C @ x
    f_x = objective(problem, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        D = swap_scores(problem, x, Ax, Cx, f_x, I, J)
        assert D.shape == (I.size, J.size)
        for row, i in enumerate(I):
            assert D[row].tobytes() == swap_row_oracle(problem, x, Ax, Cx, f_x, i, J).tobytes()


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
        pairs = list(zip(sel[: k_swap // 2], sel[k_swap // 2 :]))
        assert [(int(i), int(j)) for i, j in pairs] == ref


@st.composite
def ranking_cases(draw):
    """(S, Z, D, pairs): ascending disjoint S and Z, and scores with ties,
    nan, +-inf and both zeros."""
    n = draw(st.integers(2, 12))
    role = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    S, Z = np.flatnonzero(role), np.flatnonzero(~role)
    pairs = min(S.size, Z.size)
    if pairs == 0:
        S, Z, pairs = np.arange(n - 1), np.array([n - 1]), 1
    entries = st.one_of(
        st.sampled_from([0.0, -0.0, -1.0, 2.0, np.nan, np.inf, -np.inf]),
        st.floats(-2.0, 2.0, width=16),
    )
    D = draw(arrays(float, (S.size, Z.size), elements=entries))
    return S, Z, D, draw(st.integers(1, pairs))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ranking_cases())
def test_select_swapping_ranks_as_the_three_key_lexsort(case):
    S, Z, D, pairs = case
    rows, cols = np.divmod(np.arange(D.size), Z.size)
    order = np.lexsort((Z[cols], S[rows], D.ravel()))
    assert np.array_equal(np.argsort(D.ravel(), kind="stable"), order)
    expected, used_i, used_j = [], set(), set()
    for pos in order:
        i, j = int(S[rows[pos]]), int(Z[cols[pos]])
        if i not in used_i and j not in used_j and len(expected) < pairs:
            expected.append((i, j))
            used_i.add(i)
            used_j.add(j)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(working_set, "descent_matrix", lambda problem, x: (S, Z, D))
        sel = select_swapping(None, None, 2 * pairs)
    assert list(zip(sel[:pairs].tolist(), sel[pairs:].tolist())) == expected


def test_select_swapping_tie_breaks_lexicographic():
    # a fully symmetric instance makes every swap descent identical, so the
    # greedy order must fall back to (support index, zero index)
    from sgevp.decomposition import ProblemInstance

    problem = ProblemInstance(A=np.eye(6), C=np.eye(6), s=2)
    x = np.zeros(6)
    x[[2, 4]] = 1.0
    sel = select_swapping(problem, x, 4)
    pairs = list(zip(sel[:2], sel[2:]))
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


def test_select_swapping_matches_greedy_oracle_at_400_variables():
    # The large-|Z| case of the benchmark's 400-variable PCA workload: 4
    # support coordinates scored against 396 zeros.
    problem = dataclasses.replace(build_pca(gen_randn(800, 400, 22)), s=4)
    rng = np.random.default_rng(22)
    x = np.zeros(400)
    x[rng.choice(400, size=4, replace=False)] = rng.standard_normal(4)
    sel = select_swapping(problem, x, 6)
    assert [(int(i), int(j)) for i, j in zip(sel[:3], sel[3:])] == greedy_reference(
        *descent_matrix(problem, x), 3
    )


@st.composite
def hybrid_cases(draw):
    """(problem, x, r, w, seed) with only swap picks, only random picks, or both."""
    n = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problem = random_problem(rng, n, n)
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    x = np.zeros(n)
    x[support] = rng.uniform(0.5, 2.0, len(support)) * rng.choice([-1.0, 1.0], len(support))
    kind = draw(st.sampled_from(["swap", "random", "both"]))
    # With both kinds, the swap picks leave a coordinate for a random pick.
    pairs = min(len(support), n - len(support), (n - 1) // 2 if kind == "both" else n)
    w = 0 if kind == "random" else 2 * draw(st.integers(1, pairs))
    r = 0 if kind == "swap" else draw(st.integers(1, n - w))
    return problem, x, r, w, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hybrid_cases())
def test_select_hybrid_draws_the_random_part_from_the_complement(case):
    problem, x, r, w, seed = case
    rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
    sel = select_hybrid(problem, x, r, w, rng)
    swap = select_swapping(problem, x, w) if w else np.empty(0, dtype=int)
    expected = swap
    if r:
        remaining = np.setdiff1d(np.arange(problem.dim), swap)
        expected = np.concatenate([swap, np.sort(rng2.choice(remaining, size=r, replace=False))])
    assert sel.tolist() == expected.tolist()
    assert rng.bit_generator.state == rng2.bit_generator.state


def test_select_hybrid_composition():
    rng = np.random.default_rng(67)
    for _ in range(10):
        problem = random_problem(rng, 9, 4)
        x = np.zeros(9)
        support = rng.choice(9, size=4, replace=False)
        x[support] = rng.standard_normal(4)
        sel = select_hybrid(problem, x, r=2, w=4, rng=rng)
        assert sel.size == 6
        assert len(set(int(i) for i in sel)) == 6  # distinct
        # swap part matches pure swapping selection
        swap = select_swapping(problem, x, 4)
        assert np.array_equal(sel[:4], swap)


def test_select_hybrid_pure_random():
    rng = np.random.default_rng(68)
    problem = random_problem(rng, 6, 2)
    x = np.zeros(6)
    x[1] = 1.0
    sel = select_hybrid(problem, x, r=3, w=0, rng=rng)
    assert sel.size == 3


def test_select_hybrid_invalid_k():
    rng = np.random.default_rng(69)
    problem = random_problem(rng, 4, 2)
    x = np.zeros(4)
    x[0] = 1.0
    with pytest.raises(InvalidK):
        select_hybrid(problem, x, r=3, w=2, rng=rng)  # k=5 > n=4


def test_select_random_determinism():
    a = select_random(10, 4, np.random.default_rng(7))
    b = select_random(10, 4, np.random.default_rng(7))
    assert np.array_equal(a, b)
