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
    """Normalize an input sample: None means no input channels. A float64
    1-D array (what the MPC returns) is taken as it is."""
    if not (type(u) is np.ndarray and u.dtype == np.float64 and u.ndim == 1):
        u = np.atleast_1d(np.asarray(np.zeros(0) if u is None else u,
                                     dtype=float))
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
        the estimate is carried as ``cond``, inf for a Gram that overflows.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise NonFiniteState("regressor contains NaN or Inf entries")
    gram = A @ A.T
    cond = np.linalg.cond(gram) if np.isfinite(gram).all() else np.inf
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise RankDeficientRegressor(
            f"regressor is rank deficient (Gram condition estimate "
            f"{cond:.3e} exceeds {COND_LIMIT:.1e}); add data or excitation",
            cond=cond)
    # gram is symmetric, so solve(gram, A).T == A.T @ inv(gram)
    return np.linalg.solve(gram, A).T


def fit(snapshots: SnapshotSet,
        dictionary: ObservableDictionary) -> tuple[KoopmanModel, np.ndarray]:
    """Least-squares fit of (K, B) on lifted snapshots.

    Solves ``[K, B] = lift(Xp) @ pinv(G)`` for the regressor
    ``G = [lift(X); U]`` by the full-row-rank pseudo-inverse; returns the
    model and G (the recursive estimator starts from its Gram).

    Raises
    ------
    RankDeficientRegressor
        If the stacked regressor is not (numerically) full row rank.
    NonFiniteState
        If the regressor or the model has a NaN or Inf entry (an overflowing
        lift of X or of Xp, for instance).
    """
    if snapshots.n != dictionary.n:
        raise DimensionMismatch(
            f"snapshot state dimension {snapshots.n} != dictionary n "
            f"{dictionary.n}")
    # an overflowing lift or product surfaces as an error below, not as
    # warnings
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.vstack([dictionary.lift_batch(snapshots.X), snapshots.U])
        KB = dictionary.lift_batch(snapshots.Xp) @ pinv_full_row_rank(G)
    if not np.isfinite(KB).all():
        raise NonFiniteState("fitted model contains NaN or Inf entries")
    N = dictionary.size
    return KoopmanModel(KB[:, :N].copy(), KB[:, N:].copy(), dictionary), G
