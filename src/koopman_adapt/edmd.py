"""Offline EDMD-with-control: snapshot handling and the batch least-squares
fit of the lifted transition and input matrices.

The batch fit doubles as the brute-force oracle against which the recursive
estimator is verified.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteState,
    RankDeficientRegressor,
    TooFewSamples,
)
from .observables import ObservableDictionary

# Gram condition estimate beyond which a regressor counts as rank deficient.
COND_LIMIT = 1e12


def _as_input(u, p: int | None = None) -> np.ndarray:
    """Normalize an input sample: None means no input channels."""
    if u is None:
        u = np.zeros(0)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if p is not None and u.shape != (p,):
        raise DimensionMismatch(f"expected input of shape ({p},), got {u.shape}")
    return u


@dataclass(frozen=True)
class SnapshotSet:
    """Paired state/successor/input snapshot matrices.

    X and Xp are (n, M-1); column j of Xp is the successor of column j of X.
    U is (p, M-1); p may be zero for autonomous data.
    """

    X: np.ndarray
    Xp: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2 or self.Xp.ndim != 2 or self.U.ndim != 2:
            raise DimensionMismatch("snapshot matrices must be 2-D")
        if self.X.shape != self.Xp.shape:
            raise DimensionMismatch(
                f"X {self.X.shape} and Xp {self.Xp.shape} must match")
        if self.U.shape[1] != self.X.shape[1]:
            raise DimensionMismatch(
                f"U has {self.U.shape[1]} columns, X has {self.X.shape[1]}")
        if self.X.shape[1] < 1:
            raise TooFewSamples("need at least one snapshot pair")
        for name in ("X", "Xp", "U"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} contains NaN or Inf")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.U.shape[0]

    @property
    def num_pairs(self) -> int:
        return self.X.shape[1]


def collect_snapshots(trajectory: Sequence) -> SnapshotSet:
    """Build a SnapshotSet from a sequence of (x_k, u_k) samples.

    The final input is unused (only M-1 transitions exist in M samples).
    """
    if len(trajectory) < 2:
        raise TooFewSamples(
            f"need at least 2 samples to form a snapshot pair, got {len(trajectory)}")
    xs = [np.asarray(x, dtype=float) for x, _ in trajectory]
    us = [_as_input(u) for _, u in trajectory]
    X = np.column_stack(xs[:-1])
    Xp = np.column_stack(xs[1:])
    U = (np.column_stack(us[:-1]) if us[0].size
         else np.zeros((0, len(us) - 1)))
    return SnapshotSet(X, Xp, U)


@dataclass(frozen=True)
class KoopmanModel:
    """The lifted linear predictor: psi_next = K @ psi + B @ u."""

    K: np.ndarray
    B: np.ndarray
    dictionary: ObservableDictionary

    def __post_init__(self):
        N = self.dictionary.size
        if self.K.shape != (N, N):
            raise DimensionMismatch(
                f"K must be ({N}, {N}), got {self.K.shape}")
        if self.B.ndim != 2 or self.B.shape[0] != N:
            raise DimensionMismatch(
                f"B must be ({N}, p), got {self.B.shape}")
        if not (np.isfinite(self.K).all() and np.isfinite(self.B).all()):
            raise ValueError("model matrices contain NaN or Inf")

    @property
    def size(self) -> int:
        return self.K.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]


def pinv_full_row_rank(A) -> np.ndarray:
    """Pseudo-inverse of a full-row-rank matrix, A+ = A.T @ inv(A @ A.T).

    Raises
    ------
    NonFiniteState
        If A has a NaN or Inf entry (an overflowing lift, for instance).
    RankDeficientRegressor
        If the condition estimate of ``A @ A.T`` exceeds ``COND_LIMIT``;
        the estimate is carried as ``cond``.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise NonFiniteState("regressor contains NaN or Inf entries")
    gram = A @ A.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise RankDeficientRegressor(
            f"regressor is rank deficient (Gram condition estimate "
            f"{cond:.3e} exceeds {COND_LIMIT:.1e}); add data or excitation",
            cond=cond)
    # gram is symmetric, so solve(gram, A).T == A.T @ inv(gram)
    return np.linalg.solve(gram, A).T


def fit(snapshots: SnapshotSet,
        dictionary: ObservableDictionary) -> KoopmanModel:
    """Least-squares fit of (K, B) on lifted snapshots.

    Solves ``[K, B] = lift(Xp) @ pinv([lift(X); U])`` using the
    full-row-rank pseudo-inverse.

    Raises
    ------
    RankDeficientRegressor
        If the stacked regressor is not (numerically) full row rank.
    NonFiniteState
        If the stacked regressor has a NaN or Inf entry.
    """
    if snapshots.n != dictionary.n:
        raise DimensionMismatch(
            f"snapshot state dimension {snapshots.n} != dictionary n "
            f"{dictionary.n}")
    PsiX = dictionary.lift_batch(snapshots.X)
    PsiXp = dictionary.lift_batch(snapshots.Xp)
    G = np.vstack([PsiX, snapshots.U])
    KB = PsiXp @ pinv_full_row_rank(G)
    N = dictionary.size
    return KoopmanModel(KB[:, :N].copy(), KB[:, N:].copy(), dictionary)
