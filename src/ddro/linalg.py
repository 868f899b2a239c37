"""Dense symmetric linear algebra for the PSD bounding machinery.

Deliberately small kernels sized for matrices up to n ~ 100: a
symmetric eigendecomposition (LAPACK via numpy.linalg.eigh) and a
Cholesky factorization that tolerates numerically semidefinite pivots.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Fixed module tolerances; not user configuration.
EIG_RESIDUAL_TOL = 1e-9  # |m v - lam v|_inf <= tol * max(1, |m|_inf)
EIG_ORTHO_TOL = 1e-9
CHOLESKY_TOL = 1e-10  # |L L^T - m|_inf <= tol * max(1, |m|_inf)
PIVOT_CLAMP = 1e-12  # pivots in [-PIVOT_CLAMP, 0] are clamped to 0


class NotPsd(ValueError):
    """Cholesky pivot below -PIVOT_CLAMP: the matrix is not positive semidefinite."""


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
    def from_array(a, asym_tol: float = 1e-8) -> "SymMatrix":
        """Symmetrize (a + a^T)/2, rejecting inputs with larger asymmetry."""
        a = np.asarray(a, dtype=float)
        scale = max(1.0, float(np.abs(a).max(initial=0.0)))
        if np.abs(a - a.T).max(initial=0.0) > asym_tol * scale:
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


def cholesky(m: SymMatrix) -> np.ndarray:
    """Lower-triangular L with m = L L^T.

    Pivots in [-PIVOT_CLAMP, 0] are clamped to 0 so numerically
    semidefinite inputs factor; a pivot below -PIVOT_CLAMP raises NotPsd.
    """
    n = m.n
    a = m.entries
    scale = max(1.0, float(np.abs(a).max()))
    L = np.zeros((n, n))
    # Residual column under a zero pivot must vanish for a PSD matrix.
    col_tol = np.sqrt(PIVOT_CLAMP * scale)
    for j in range(n):
        d = a[j, j] - float(L[j, :j] @ L[j, :j])
        if d < -PIVOT_CLAMP:
            raise NotPsd(f"pivot {d:.3e} at index {j}")
        d = max(d, 0.0)
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            col = a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]
            if L[j, j] > 0.0:
                L[j + 1 :, j] = col / L[j, j]
            elif np.abs(col).max(initial=0.0) > col_tol:
                raise NotPsd(f"zero pivot with nonzero column at index {j}")
    return L
