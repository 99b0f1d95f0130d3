"""Lifted-space Kalman filter with a scalar measurement.

The filter is linear in the lifted coordinates and carries the model it
predicts with, K and B, and that model's dictionary: handing it a freshly
adapted model (rebinding or writing its K and B) changes subsequent
predictions only. Correction reads the scalar output as the lifted
coordinate at the dictionary's output index, updates the covariance in
Joseph form (Bucy & Joseph, 1968), which keeps it symmetric and positive
semidefinite under rounding, and re-lifts the corrected state estimate
through the dictionary, so that the lifted estimate stays the lift of a
state. Predict and correct update one mutable filter state: they rebind its
``psi`` and ``P`` to new arrays and never write into the old ones.

A filter state may also stack several independent filters on a leading
cell axis, psi (C, N), P, Q and K (C, N, N) and B (C, N, p); every function
then runs each cell as one call on that cell alone would, to the bit.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .edmd import KoopmanModel
from .errors import DimensionMismatch
from .observables import ObservableDictionary

# the fields a stack of filters holds one row of per cell
_CELL_FIELDS = ("psi", "P", "Q", "K", "B")


@dataclass
class ObserverSettings:
    """Filter tuning: process noise scale q, measurement variance r and the
    initial covariance p0*I; the defaults are the shipped scenario's."""

    q: float = 0.01
    r: float = 1e-6
    p0: float = 0.01

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise ValueError(f"measurement variance r must be finite and > 0, "
                             f"got {self.r}")
        if not (0 <= self.q < math.inf and 0 <= self.p0 < math.inf):
            raise ValueError("q and p0 must be finite and >= 0")


@dataclass
class KalmanState:
    """One filter: the lifted state estimate psi (N,), its covariance P and
    the process noise Q (N, N), the model it predicts with, K (N, N) and
    B (N, p), and the dictionary of N observables it measures and re-lifts
    through. Or a stack of filters that share R and the dictionary, each
    other field with a leading cell axis (psi (C, N), ...). Shapes are
    checked once, here; R is checked in ObserverSettings."""

    psi: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    K: np.ndarray
    B: np.ndarray
    R: float
    dictionary: ObservableDictionary

    def __post_init__(self):
        shape = self.psi.shape[:-1] + (self.dictionary.size,) * 2
        if ({self.P.shape, self.Q.shape, self.K.shape} != {shape}
                or {self.psi.shape, self.B.shape[:-1]} != {shape[:-1]}):
            raise DimensionMismatch(
                f"psi must be {shape[:-1]}, P, Q and K {shape} and B "
                f"{shape[:-1]} + (p,), got {self.psi.shape}, {self.P.shape}, "
                f"{self.Q.shape}, {self.K.shape} and {self.B.shape}")

    @classmethod
    def stack(cls, filters) -> "KalmanState":
        """The given filters stacked on a leading cell axis, in order; the
        stack takes the first one's R and dictionary."""
        return replace(filters[0], **{
            name: np.stack([getattr(f, name) for f in filters])
            for name in _CELL_FIELDS})

    def take(self, rows) -> "KalmanState":
        """A stack of copies of the given cells' rows, in order."""
        return replace(self, **{name: getattr(self, name)[rows]
                                for name in _CELL_FIELDS})


def init_kalman(x0, settings: ObserverSettings | None = None, *,
                model: KoopmanModel) -> KalmanState:
    """Start the filter, predicting through model and lifting through its
    dictionary, at the lift of a known (or assumed) initial state.

    The process noise is shaped through the model's input channel,
    q * (B B^T + max(tr B B^T, 1) 1e-4 I), so disturbances (and model
    errors, which enter as unmodeled torques) are attributed to the actuated
    directions instead of the measured coordinate's own noise.
    """
    settings = settings if settings is not None else ObserverSettings()
    N = model.dictionary.size
    BBt = model.B @ model.B.T
    floor = max(float(np.trace(BBt)), 1.0) * 1e-4
    Q = settings.q * (BBt + floor * np.eye(N))
    return KalmanState(
        psi=model.dictionary.lift(np.asarray(x0, dtype=float)),
        P=settings.p0 * np.eye(N),
        Q=Q,
        K=model.K,
        B=model.B,
        R=settings.r,
        dictionary=model.dictionary,
    )


def kf_predict(kf: KalmanState, u) -> None:
    """Time update through the filter's model, in place: psi <- K psi + B u,
    P <- K P K^T + Q. u is (p,), or (C, p) for a stack of C filters."""
    K, B, u = kf.K, kf.B, np.asarray(u, dtype=float)
    if u.shape != B[..., 0, :].shape:
        raise DimensionMismatch(f"input {u.shape} is not {B[..., 0, :].shape}")
    P = K @ kf.P @ K.swapaxes(-1, -2) + kf.Q
    kf.psi = (K @ kf.psi[..., None])[..., 0] + (B @ u[..., None])[..., 0]
    kf.P = (P + P.swapaxes(-1, -2)) / 2.0


@functools.lru_cache(maxsize=8)
def _identity(shape: tuple) -> np.ndarray:
    """A read-only stack of N x N identities of the given shape (..., N,
    N), built once per shape."""
    eye = np.broadcast_to(np.eye(shape[-1]), shape).copy()
    eye.flags.writeable = False
    return eye


def kf_correct(kf: KalmanState, y_meas: float) -> None:
    """Measurement update with the scalar output y, in place; a stack of
    filters takes one output per cell, y (C,).

    The measurement map is the one-hot output row, so the innovation
    covariance is the scalar P[i, i] + R and the gain a single column. The
    corrected estimate is re-lifted from its first n coordinates through
    the filter's dictionary.
    """
    dictionary, psi, P = kf.dictionary, kf.psi, kf.P
    i = dictionary.output_index
    # gain P[:, i] / (P[i, i] + R) and innovation y - psi[i], per cell
    L = P[..., i] / (P[..., i, i:i + 1] + kf.R)
    psi = psi + L * (y_meas - psi[..., i])[..., None]
    # (I - L C) P (I - L C)^T + R L L^T with C the one-hot output row
    ILC = _identity(P.shape).copy()
    ILC[..., i] -= L
    P = (ILC @ P @ ILC.swapaxes(-1, -2)
         + kf.R * (L[..., :, None] * L[..., None, :]))
    kf.psi = dictionary.lift(psi[..., :dictionary.n])
    kf.P = (P + P.swapaxes(-1, -2)) / 2.0


def kf_estimate_state(kf: KalmanState) -> np.ndarray:
    """State estimate: the first n lifted coordinates (of each cell)."""
    return kf.psi[..., :kf.dictionary.n].copy()
