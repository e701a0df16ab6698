import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgevp.decomposition import ProblemInstance
from sgevp.errors import (
    ConfigError,
    DegenerateData,
    DenominatorCollapse,
    DimensionMismatch,
    EmptyFile,
    NonFinite,
    ParseError,
    SingleClass,
    ZeroVector,
)
from sgevp.problems import (
    Dataset,
    build_cca,
    build_fda,
    build_pca,
    dataset_checksum,
    gen_randn,
    load_csv,
    load_libsvm,
    objective,
    products,
    quadratic_forms,
)


def test_dataset_validation():
    with pytest.raises(DegenerateData):
        Dataset(X=np.array([[1.0, np.nan]]))
    with pytest.raises(DegenerateData):
        Dataset(X=np.ones((1, 3)))


@pytest.mark.parametrize("shape", [(5,), (7,), (6, 1), ()])
def test_dataset_refuses_labels_of_the_wrong_shape(shape):
    # One label per row of X: a short label vector used to reach build_fda,
    # which died with a bare IndexError.
    with pytest.raises(DimensionMismatch, match="labels"):
        Dataset(X=np.ones((6, 3)), y=np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_refuses_a_non_finite_label(bad):
    # A nan label used to drop its row from both of build_fda's classes.
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    y[2] = bad
    with pytest.raises(DegenerateData, match="labels"):
        Dataset(X=np.arange(18.0).reshape(6, 3), y=y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("matrix", ["A", "C"])
def test_problem_instance_rejects_non_finite(matrix, bad):
    mats = {"A": -np.eye(3), "C": np.eye(3)}
    mats[matrix][0, 2] = bad
    with pytest.raises(NonFinite):
        ProblemInstance(A=mats["A"], C=mats["C"], s=2)


@pytest.mark.parametrize("bound", [0.5, 1e-300, np.inf, -np.inf, np.nan])
def test_problem_instance_rejects_positive_or_non_finite_lower_bound(bound):
    # The bound applies to support entries; off-support zeros would violate
    # a positive one.
    with pytest.raises(ConfigError):
        ProblemInstance(A=-np.eye(3), C=np.eye(3), s=2, lower_bound=bound)
    for ok in (None, 0.0, -2.0):
        ProblemInstance(A=-np.eye(3), C=np.eye(3), s=2, lower_bound=ok)


def test_pca_hand_covariance():
    # two features, four samples: covariance computed by hand with 1/(m-1)
    X = np.array([[1.0, 2.0], [3.0, 6.0], [5.0, 2.0], [7.0, 6.0]])
    problem = build_pca(Dataset(X=X))
    mu = X.mean(axis=0)
    Xc = X - mu
    sigma = Xc.T @ Xc / 3.0
    assert np.allclose(problem.A, -sigma)
    assert np.allclose(problem.C, np.eye(2))
    assert problem.s == 2
    assert np.allclose(sigma, np.cov(X.T))  # independent oracle


def test_pca_rejects_constant_data():
    X = np.ones((5, 3))
    with pytest.raises(DegenerateData):
        build_pca(Dataset(X=X))


def test_fda_hand_check():
    # two samples per class, chosen so the pooled scatter has full rank
    X = np.array([[0.0, 0.0], [2.0, 1.0], [10.0, 1.0], [12.0, 3.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    problem = build_fda(Dataset(X=X, y=y), ridge=0.0)
    diff = np.array([11.0 - 1.0, 2.0 - 0.5])
    assert np.allclose(problem.A, -np.outer(diff, diff))
    # within-class scatter: each class contributes the covariance of its pair
    scatter = np.cov(X[:2].T) + np.cov(X[2:].T)
    assert np.allclose(problem.C, scatter)


def test_fda_ridge_makes_pd():
    # rank-deficient within-class scatter needs the ridge to be admissible
    X = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 1.0], [6.0, 1.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    problem = build_fda(Dataset(X=X, y=y))
    assert np.all(np.linalg.eigvalsh(problem.C) > 0)


def test_fda_single_class_errors():
    X = np.random.default_rng(90).standard_normal((6, 3))
    with pytest.raises(SingleClass):
        build_fda(Dataset(X=X))
    with pytest.raises(SingleClass):
        build_fda(Dataset(X=X, y=np.ones(6)))
    with pytest.raises(SingleClass):
        build_fda(Dataset(X=X, y=np.array([1, 1, 1, 1, 1, -1.0])))


def test_fda_equal_means_zero_numerator():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    problem = build_fda(Dataset(X=X, y=y))
    assert np.allclose(problem.A, 0.0)
    assert np.linalg.matrix_rank(-problem.A) <= 1


def test_cca_block_structure():
    rng = np.random.default_rng(91)
    xv = rng.standard_normal((3, 20))
    yv = rng.standard_normal((4, 20))
    problem = build_cca(xv, yv, ridge=0.0)
    assert problem.A.shape == (7, 7)
    assert np.allclose(problem.A[:3, :3], 0.0)
    assert np.allclose(problem.A[3:, 3:], 0.0)
    assert np.allclose(problem.C[:3, 3:], 0.0)
    xc = xv - xv.mean(axis=1, keepdims=True)
    yc = yv - yv.mean(axis=1, keepdims=True)
    assert np.allclose(problem.A[:3, 3:], -(xc @ yc.T) / 19.0)
    assert np.allclose(problem.C[:3, :3], xc @ xc.T / 19.0)


def test_cca_identical_views_correlation_one():
    # identical views correlate perfectly: min generalized eigenvalue ~ -1
    import scipy.linalg

    rng = np.random.default_rng(92)
    xv = rng.standard_normal((3, 50))
    problem = build_cca(xv, xv.copy())
    w = scipy.linalg.eigh(problem.A, problem.C, eigvals_only=True)
    assert w[0] == pytest.approx(-1.0, abs=1e-4)


def test_cca_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        build_cca(np.zeros((2, 10)), np.zeros((2, 11)))


def test_gen_randn_determinism_and_moments():
    a = gen_randn(500, 20, 3)
    b = gen_randn(500, 20, 3)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert a.X.shape == (500, 20)
    # CLT bound on the overall mean of 10000 standard normals
    assert abs(a.X.mean()) < 5.0 / np.sqrt(a.X.size)
    assert abs(a.X.std() - 1.0) < 0.05
    # labels are +-1 with a binomial 5-sigma bound on the positive count
    assert set(np.unique(a.y)) == {-1.0, 1.0}
    pos = np.sum(a.y > 0)
    assert abs(pos - 250) < 5 * np.sqrt(500 * 0.25)


def test_gen_randn_rejects_a_negative_seed():
    # numpy's default_rng raised a bare ValueError here.
    with pytest.raises(ConfigError):
        gen_randn(4, 2, -1)
    assert gen_randn(4, 2, 0).X.shape == (4, 2)


def test_load_libsvm_happy(tmp_path):
    p = tmp_path / "data.libsvm"
    p.write_text("+1 1:0.5 3:2.0\n-1 2:-1.5\n# comment\n\n+1 1:1.0\n")
    ds = load_libsvm(p)
    assert ds.X.shape == (3, 3)
    assert np.allclose(ds.X[0], [0.5, 0.0, 2.0])
    assert np.allclose(ds.X[1], [0.0, -1.5, 0.0])
    assert np.allclose(ds.X[2], [1.0, 0.0, 0.0])
    assert np.array_equal(ds.y, [1.0, -1.0, 1.0])


def test_load_libsvm_fixed_width(tmp_path):
    p = tmp_path / "data.libsvm"
    p.write_text("1 1:1.0 5:9.0\n-1 2:2.0\n")
    ds = load_libsvm(p, d=3)  # indices beyond the width are dropped
    assert ds.X.shape == (2, 3)
    assert np.allclose(ds.X[0], [1.0, 0.0, 0.0])


def test_load_libsvm_errors(tmp_path):
    p = tmp_path / "bad.libsvm"
    p.write_text("abc 1:1.0\n")
    with pytest.raises(ParseError) as err:
        load_libsvm(p)
    assert err.value.line == 1
    p.write_text("1 1:1.0\n1 0:2.0\n")
    with pytest.raises(ParseError) as err:
        load_libsvm(p)
    assert err.value.line == 2
    p.write_text("1 1:one\n")
    with pytest.raises(ParseError):
        load_libsvm(p)
    p.write_text("# only a comment\n")
    with pytest.raises(EmptyFile):
        load_libsvm(p)


def test_load_csv_happy(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("f0,f1\n1.0,2.0\n3.0,4.0\n")
    ds = load_csv(p)
    assert np.allclose(ds.X, [[1.0, 2.0], [3.0, 4.0]])
    assert ds.y is None
    p.write_text("f0,f1,label\n1.0,2.0,1\n3.0,4.0,-1\n")
    ds = load_csv(p, labeled=True)
    assert np.allclose(ds.X, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ds.y, [1.0, -1.0])


def test_load_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("f0,f1\n")
    with pytest.raises(EmptyFile):
        load_csv(p)
    p.write_text("f0,f1\n1.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(p)
    assert err.value.line == 2
    p.write_text("f0,f1\n1.0,2.0\n1.0,x\n")
    with pytest.raises(ParseError) as err:
        load_csv(p)
    assert err.value.line == 3


def test_dataset_checksum(tmp_path):
    p = tmp_path / "data.csv"
    payload = b"f0\n1.0\n2.0\n"
    p.write_bytes(payload)
    assert dataset_checksum(p) == hashlib.sha256(payload).hexdigest()


def summation_bound(M, x):
    """Rounding bound of the entries of M @ x in any summation order."""
    return 4.0 * x.size * np.finfo(float).eps * (np.abs(M) @ np.abs(x))


@pytest.mark.parametrize("n, k", [(6, 1), (12, 3), (50, 6), (400, 4)])
def test_forms_and_products_read_only_the_support(n, k):
    rng = np.random.default_rng(n + k)
    M, G = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    problem = ProblemInstance(A=M + M.T, C=G @ G.T / n + np.eye(n), s=k)
    x = np.zeros(n)
    x[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
    inside = x != 0.0
    A, C = problem.A, problem.C
    # The forms read the S x S entries: every other entry is nan.
    poisoned = copy.copy(problem)
    poisoned.A = np.where(np.outer(inside, inside), A, np.nan)
    poisoned.C = np.where(np.outer(inside, inside), C, np.nan)
    num, den = quadratic_forms(poisoned, x)
    assert abs(num - x @ A @ x) <= np.abs(x) @ summation_bound(A, x)
    assert abs(den - x @ C @ x) <= np.abs(x) @ summation_bound(C, x)
    assert objective(poisoned, x) == num / den
    # The products read every row of the S columns: the other columns are nan.
    poisoned.A = np.where(inside, A, np.nan)
    poisoned.C = np.where(inside, C, np.nan)
    Ax, Cx = products(poisoned, x)
    assert np.all(np.abs(Ax - A @ x) <= summation_bound(A, x))
    assert np.all(np.abs(Cx - C @ x) <= summation_bound(C, x))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_forms_and_products_equal_the_dense_ones(data):
    n = data.draw(st.integers(1, 10))
    M = data.draw(arrays(float, (n, n), elements=st.floats(-1e3, 1e3)))
    G = data.draw(arrays(float, (n, n), elements=st.floats(-4.0, 4.0)))
    problem = ProblemInstance(A=M + M.T, C=G @ G.T + np.eye(n), s=n)
    magnitudes = st.floats(1e-3, 1e3)
    entries = st.one_of(st.sampled_from([0.0, -0.0]), magnitudes, magnitudes.map(lambda v: -v))
    x = data.draw(arrays(float, n, elements=entries))
    A, C = problem.A, problem.C
    Ax, Cx = products(problem, x)
    assert np.all(np.abs(Ax - A @ x) <= summation_bound(A, x))
    assert np.all(np.abs(Cx - C @ x) <= summation_bound(C, x))
    if not np.any(x):
        with pytest.raises(ZeroVector):
            quadratic_forms(problem, x)
        return
    num, den = quadratic_forms(problem, x)
    assert abs(num - x @ A @ x) <= np.abs(x) @ summation_bound(A, x)
    assert abs(den - x @ C @ x) <= np.abs(x) @ summation_bound(C, x)
    assert objective(problem, x) == num / den


def test_forms_refuse_an_underflowed_denominator():
    # x is nonzero, but x'Cx = (6.3e-172)^2 underflows to 0; the ratio used
    # to raise a bare ZeroDivisionError.
    problem = ProblemInstance(A=np.eye(1), C=np.eye(1), s=1)
    x = np.array([6.3e-172])
    with pytest.raises(DenominatorCollapse):
        quadratic_forms(problem, x)
    with pytest.raises(DenominatorCollapse):
        objective(problem, x)
