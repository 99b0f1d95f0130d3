"""Dense matrix kernels: pseudo-inverses.

All operations are pure: inputs are never mutated.
"""

import numpy as np

from .errors import SingularGram

# Conditioning threshold beyond which the full-row-rank route is rejected.
COND_LIMIT = 1e12


def _as_matrix(A, name: str = "A") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-D matrix with at least one row "
                         f"and column, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return A


def pinv_full_row_rank(A) -> np.ndarray:
    """Pseudo-inverse of a full-row-rank matrix, A+ = A.T @ inv(A @ A.T).

    Raises
    ------
    SingularGram
        If the condition estimate of ``A @ A.T`` exceeds ``COND_LIMIT``;
        callers should fall back to :func:`pinv_svd`.
    """
    A = _as_matrix(A)
    gram = A @ A.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularGram(
            f"A @ A.T condition estimate {cond:.3e} exceeds {COND_LIMIT:.1e}; "
            "matrix is not (numerically) full row rank")
    # gram is symmetric, so solve(gram, A).T == A.T @ inv(gram)
    return np.linalg.solve(gram, A).T


def pinv_svd(A, tol: float | None = None) -> np.ndarray:
    """SVD-based pseudo-inverse; total on finite input.

    Singular values below ``tol * sigma_max`` are truncated to zero. The
    default ``tol`` is ``max(rows, cols) * machine epsilon``.
    """
    A = _as_matrix(A)
    if tol is None:
        tol = max(A.shape) * np.finfo(float).eps
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((A.shape[1], A.shape[0]))
    keep = s > tol * s[0]
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (vt.T * s_inv) @ u.T

