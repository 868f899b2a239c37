"""Dense symmetric linear algebra for the PSD bounding machinery.

An immutable symmetric matrix and its eigendecomposition (LAPACK via
numpy.linalg.eigh), sized for matrices up to n ~ 100.  All functions
are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SymMatrix:
    """Immutable n x n real symmetric matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def from_array(a) -> "SymMatrix":
        """Symmetrize (a + a^T)/2, rejecting inputs whose asymmetry
        exceeds 1e-8 * max(1, max|entry|)."""
        a = np.asarray(a, dtype=float)
        scale = max(1.0, float(np.abs(a).max(initial=0.0)))
        if np.abs(a - a.T).max(initial=0.0) > 1e-8 * scale:
            raise ValueError("matrix asymmetry exceeds tolerance")
        return SymMatrix((a + a.T) / 2.0)


def sym_eig(m: SymMatrix) -> list[tuple[float, np.ndarray]]:
    """Full eigendecomposition of a symmetric matrix.

    Returns (eigenvalue, unit eigenvector) pairs in ascending eigenvalue
    order; eigenvectors are mutually orthonormal.
    """
    lams, v = np.linalg.eigh(m.entries)
    return [(float(lams[i]), v[:, i].copy()) for i in range(m.n)]


def min_eigenpair(m: SymMatrix) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and its eigenvector."""
    return sym_eig(m)[0]
