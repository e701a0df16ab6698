"""Problem instances, application builders (sparse PCA / FDA / CCA),
synthetic data and loaders.

Covariances use the 1/(m-1) normalization with mean centering.  FDA and
CCA denominators get a small trace-scaled ridge so the strict positive
definiteness requirement holds.

The solver's iterates have at most s nonzeros, so every product with one
reads only its support S: quadratic_forms and objective the S x S entries
of A and C, products the S columns.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
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

DEFAULT_RIDGE = 1e-6


@dataclass
class ProblemInstance:
    """Symmetric pair (A, C) with C positive definite and a sparsity budget."""

    A: np.ndarray
    C: np.ndarray
    s: int
    lower_bound: float | None = None

    def __post_init__(self):
        self.A = linalg.symmetrize(self.A)
        self.C = linalg.symmetrize(self.C)
        self.s = int(self.s)
        if self.A.shape != self.C.shape:
            raise ConfigError("A and C must have the same shape")
        if not np.all(np.isfinite(self.A)):
            raise NonFinite("A contains NaN or Inf")
        n = self.A.shape[0]
        if not 1 <= self.s <= n:
            raise ConfigError(f"sparsity budget {self.s} outside [1, {n}]")
        linalg.require_positive_definite(self.C)
        if self.lower_bound is not None and not (
            math.isfinite(self.lower_bound) and self.lower_bound <= 0.0
        ):
            # The bound applies to support entries; a positive one would be
            # violated by every off-support zero.
            raise ConfigError(f"lower_bound {self.lower_bound} must be finite and <= 0")

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def quadratic_forms(problem: ProblemInstance, x: np.ndarray) -> tuple[float, float]:
    """(x'Ax, x'Cx), summed over S = supp(x) only: O(|S|^2), not O(n^2).

    Raises ZeroVector at x = 0, and DenominatorCollapse where x is nonzero
    but x'Cx rounds to 0 or below (entries near the underflow threshold),
    so that no ratio of the two divides by 0.
    """
    x = np.asarray(x, dtype=float)
    S = np.flatnonzero(x)
    if S.size == 0:
        raise ZeroVector("objective undefined at x = 0")
    x_S = x[S]
    rows = S[:, None]
    num, den = float(x_S @ problem.A[rows, S] @ x_S), float(x_S @ problem.C[rows, S] @ x_S)
    if not den > 0.0:
        raise DenominatorCollapse(f"x'Cx = {den:.6g} at a nonzero x")
    return num, den


def objective(problem: ProblemInstance, x: np.ndarray) -> float:
    """x'Ax / x'Cx, the ratio of quadratic_forms.  The solver divides the
    same two forms, so the objectives it records equal this bit for bit."""
    num, den = quadratic_forms(problem, x)
    return num / den


def products(problem: ProblemInstance, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A@x, C@x) from the columns of S = supp(x) only: O(n |S|)."""
    x = np.asarray(x, dtype=float)
    S = np.flatnonzero(x)
    x_S = x[S]
    return problem.A[:, S] @ x_S, problem.C[:, S] @ x_S


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=float)
        if not np.all(np.isfinite(self.X)):
            raise DegenerateData("feature matrix contains NaN/Inf")
        if self.X.shape[0] < 2:
            raise DegenerateData("need at least two samples")


def _covariance(rows: np.ndarray) -> np.ndarray:
    centered = rows - rows.mean(axis=0)
    return centered.T @ centered / (rows.shape[0] - 1)


def build_pca(data: Dataset) -> ProblemInstance:
    """A = -sample covariance, C = identity."""
    sigma = _covariance(data.X)
    if not np.any(sigma):
        raise DegenerateData("covariance matrix is identically zero")
    d = sigma.shape[0]
    return ProblemInstance(A=-sigma, C=np.eye(d), s=d)


def build_fda(data: Dataset, ridge: float = DEFAULT_RIDGE) -> ProblemInstance:
    """A = -(mu1-mu2)(mu1-mu2)', C = within-class scatter plus ridge."""
    if data.y is None:
        raise SingleClass("FDA needs labels")
    pos = data.X[data.y > 0]
    neg = data.X[data.y <= 0]
    if len(pos) < 2 or len(neg) < 2:
        raise SingleClass("FDA needs at least two samples in each class")
    diff = pos.mean(axis=0) - neg.mean(axis=0)
    A = -np.outer(diff, diff)
    C = _covariance(pos) + _covariance(neg)
    d = C.shape[0]
    C = C + ridge * (np.trace(C) / d) * np.eye(d)
    return ProblemInstance(A=A, C=C, s=d)


def build_cca(
    x_data: np.ndarray, y_data: np.ndarray, ridge: float = DEFAULT_RIDGE
) -> ProblemInstance:
    """Cross-covariance coupling between two views sharing the sample axis.

    Views are (m1, d) and (m2, d); the eigen-variables index the m1 + m2
    view rows, samples run along the shared axis of length d.
    """
    x_data = np.asarray(x_data, dtype=float)
    y_data = np.asarray(y_data, dtype=float)
    if x_data.shape[1] != y_data.shape[1]:
        raise DimensionMismatch(
            f"views must share the sample axis: {x_data.shape[1]} != {y_data.shape[1]}"
        )
    d = x_data.shape[1]
    if d < 2:
        raise DegenerateData("need at least two samples along the shared axis")
    xc = x_data - x_data.mean(axis=1, keepdims=True)
    yc = y_data - y_data.mean(axis=1, keepdims=True)
    sxx = xc @ xc.T / (d - 1)
    syy = yc @ yc.T / (d - 1)
    sxy = xc @ yc.T / (d - 1)
    m1, m2 = x_data.shape[0], y_data.shape[0]
    n = m1 + m2
    A = np.zeros((n, n))
    A[:m1, m1:] = -sxy
    A[m1:, :m1] = -sxy.T
    C = np.zeros((n, n))
    C[:m1, :m1] = sxx
    C[m1:, m1:] = syy
    C = C + ridge * (np.trace(C) / n) * np.eye(n)
    return ProblemInstance(A=A, C=C, s=n)


def gen_randn(m: int, d: int, seed: int) -> Dataset:
    """Standard Gaussian features with random sign labels (0 maps to +1)."""
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    y = np.sign(rng.standard_normal(m))
    y[y == 0] = 1.0
    return Dataset(X=X, y=y, name=f"randn-{d}")


def load_libsvm(path, d: int | None = None) -> Dataset:
    """Sparse LIBSVM text format: 'label idx:val ...' with 1-based indices."""
    rows: list[dict[int, float]] = []
    labels: list[float] = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ParseError(f"bad label {tokens[0]!r}", line=lineno) from None
            entries: dict[int, float] = {}
            for token in tokens[1:]:
                try:
                    idx_str, val_str = token.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ParseError(f"bad feature token {token!r}", line=lineno) from None
                if idx < 1:
                    raise ParseError(f"index {idx} must be >= 1", line=lineno)
                entries[idx] = val
                max_index = max(max_index, idx)
            rows.append(entries)
            labels.append(label)
    if not rows:
        raise EmptyFile(str(path))
    width = d if d is not None else max_index
    X = np.zeros((len(rows), width))
    for r, entries in enumerate(rows):
        for idx, val in entries.items():
            if idx <= width:
                X[r, idx - 1] = val
    return Dataset(X=X, y=np.asarray(labels), name=str(path))


def load_csv(path, labeled: bool = False) -> Dataset:
    """CSV with a header row; with labeled=True the last column is the label."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if len(lines) < 2:
        raise EmptyFile(str(path))
    width = len(lines[0].split(","))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(f"expected {width} columns, got {len(parts)}", line=lineno)
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ParseError("non-numeric value", line=lineno) from None
    data = np.asarray(rows)
    if labeled:
        return Dataset(X=data[:, :-1], y=data[:, -1], name=str(path))
    return Dataset(X=data, y=None, name=str(path))


def dataset_checksum(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()
