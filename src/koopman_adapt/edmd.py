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
    RankDeficientRegressor,
    SingularGram,
    TooFewSamples,
)
from .matops import pinv_full_row_rank
from .observables import ObservableDictionary


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
    dt: float = 1.0

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


def collect_snapshots(trajectory: Sequence, dt: float = 1.0) -> SnapshotSet:
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
    return SnapshotSet(X, Xp, U, dt)


@dataclass(frozen=True)
class KoopmanModel:
    """The lifted linear predictor: psi_next = K @ psi + B @ u."""

    K: np.ndarray
    B: np.ndarray
    dictionary: ObservableDictionary
    dt: float = 1.0

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


def fit(snapshots: SnapshotSet, dictionary: ObservableDictionary,
        ridge: float = 0.0) -> KoopmanModel:
    """Least-squares fit of (K, B) on lifted snapshots.

    Solves ``[K, B] = lift(Xp) @ pinv([lift(X); U])`` using the
    full-row-rank pseudo-inverse. With ``ridge > 0`` the Gram matrix is
    regularized instead and the rank requirement is waived.

    Raises
    ------
    RankDeficientRegressor
        If the stacked regressor is not (numerically) full row rank and no
        ridge was requested.
    """
    if snapshots.n != dictionary.n:
        raise DimensionMismatch(
            f"snapshot state dimension {snapshots.n} != dictionary n "
            f"{dictionary.n}")
    PsiX = dictionary.lift_batch(snapshots.X)
    PsiXp = dictionary.lift_batch(snapshots.Xp)
    G = np.vstack([PsiX, snapshots.U])
    if ridge > 0.0:
        gram = G @ G.T + ridge * np.eye(G.shape[0])
        KB = np.linalg.solve(gram, G @ PsiXp.T).T
    else:
        try:
            KB = PsiXp @ pinv_full_row_rank(G)
        except SingularGram as exc:
            cond = np.linalg.cond(G @ G.T)
            raise RankDeficientRegressor(
                f"stacked regressor [lift(X); U] is rank deficient "
                f"(Gram condition estimate {cond:.3e}); add data or set a "
                f"ridge term", cond=cond) from exc
    N = dictionary.size
    return KoopmanModel(KB[:, :N].copy(), KB[:, N:].copy(), dictionary,
                        snapshots.dt)

