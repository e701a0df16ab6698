"""Dense symmetric linear-algebra kernels.

Everything here works on plain float64 numpy arrays.  Matrices handed to
these functions are expected to be symmetric; builders symmetrize with
:func:`symmetrize` so downstream code never has to worry about round-off
asymmetry.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateIndex,
    IndexOutOfRange,
    NonFinite,
    NotPositiveDefinite,
    ShiftTooClose,
)


class EigDecomposition(NamedTuple):
    """Eigenvalues ascending, column i of ``vectors`` paired with ``values[i]``."""

    values: np.ndarray
    vectors: np.ndarray


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (m + m.T)/2 as a float64 array."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def pd_tol(m: np.ndarray) -> float:
    """Positive-definiteness floor for the smallest eigenvalue of ``m``."""
    return 1e-10 * max(1.0, float(np.linalg.norm(m, "fro")))


def require_positive_definite(m: np.ndarray) -> None:
    """Raise NotPositiveDefinite unless m is exactly I or its smallest
    eigenvalue lies above the pd_tol floor."""
    if not np.array_equal(m, np.eye(len(m))):
        lam_min = min_eigenvalue(m)
        if lam_min <= pd_tol(m):
            raise NotPositiveDefinite(lam_min)


def shift_guard(d_min: float) -> float:
    return 1e-12 * max(1.0, abs(d_min))


def _check_finite(m: np.ndarray) -> None:
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains NaN or Inf")


def sym_eig(m: np.ndarray) -> EigDecomposition:
    """Full symmetric eigendecomposition, eigenvalues ascending."""
    m = np.asarray(m, dtype=float)
    _check_finite(m)
    values, vectors = np.linalg.eigh(m)
    return EigDecomposition(values=values, vectors=vectors)


def min_eigenvalue(m: np.ndarray) -> float:
    m = np.asarray(m, dtype=float)
    _check_finite(m)
    return float(np.linalg.eigvalsh(m)[0])


def inv_sqrt(m: np.ndarray) -> np.ndarray:
    """Inverse symmetric square root W with W @ m @ W == I.

    Raises NotPositiveDefinite when the smallest eigenvalue is at or below
    the pd_tol floor.
    """
    m = np.asarray(m, dtype=float)
    _check_finite(m)
    values, vectors = np.linalg.eigh(m)
    if values[0] <= pd_tol(m):
        raise NotPositiveDefinite(float(values[0]))
    return (vectors / np.sqrt(values)) @ vectors.T


def principal_submatrix(m: np.ndarray, idx: Sequence[int]) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    idx = np.asarray(idx, dtype=int)
    n = m.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexOutOfRange(f"indices must lie in [0, {n})")
    if len(set(idx.tolist())) != idx.size:
        raise DuplicateIndex("index list contains duplicates")
    return m[np.ix_(idx, idx)]


def solve_shifted(eig: EigDecomposition, alpha: float, g: np.ndarray) -> np.ndarray:
    """Return u = -(O - alpha*I)^{-1} g given the eigendecomposition of O.

    The shift must stay strictly below the smallest eigenvalue, guarded by
    :func:`shift_guard`.
    """
    d = eig.values
    guard = shift_guard(float(d[0]))
    # Half the guard so the bracket endpoint d_min - guard is accepted even
    # after the subtraction rounds.
    if d[0] - alpha < 0.5 * guard:
        raise ShiftTooClose(
            f"shift {alpha:.6g} within guard of smallest eigenvalue {d[0]:.6g}"
        )
    a = eig.vectors.T @ g
    return -(eig.vectors @ (a / (d - alpha)))
