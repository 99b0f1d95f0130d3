"""Lifted-space Kalman filter with a scalar measurement.

The filter is linear in the lifted coordinates: prediction uses whatever
model snapshot it is handed (swapping in a freshly adapted model changes
subsequent predictions only), and correction reads the scalar output as
the lifted coordinate at the dictionary's output index. Predict and
correct update one mutable filter state: they rebind its ``psi`` and ``P``
to new arrays and never write into the old ones.

A filter state may also stack several independent filters on a leading
cell axis, psi (C, N) and P (C, N, N); every function then runs each cell
as one call on that cell alone would, to the bit.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .edmd import KoopmanModel, _as_input
from .errors import DimensionMismatch
from .observables import ObservableDictionary


@dataclass
class ObserverSettings:
    """Filter tuning: process noise scale q, measurement variance r, the
    Joseph-form toggle, optional re-lifting after correction, and the
    initial covariance p0*I."""

    q: float = 1e-6
    r: float = 1e-4
    joseph: bool = True
    relift_after_correct: bool = False
    p0: float = 1.0

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise ValueError(f"measurement variance r must be finite and > 0, "
                             f"got {self.r}")
        if not (0 <= self.q < math.inf and 0 <= self.p0 < math.inf):
            raise ValueError("q and p0 must be finite and >= 0")


@dataclass
class KalmanState:
    """Lifted state estimate, its covariance, and the noise model, of one
    filter (psi (N,), P and Q (N, N)) or of a stack of filters that share R
    and the toggles (psi (C, N), P and Q (C, N, N)). Shapes are checked
    once, here; R is checked in ObserverSettings."""

    psi: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    R: float
    joseph: bool = True
    relift_after_correct: bool = False

    def __post_init__(self):
        shape = self.psi.shape + self.psi.shape[-1:]
        if self.P.shape != shape or self.Q.shape != shape:
            raise DimensionMismatch(
                f"P and Q must be {shape}, got {self.P.shape} and "
                f"{self.Q.shape}")


def init_kalman(dictionary: ObservableDictionary, x0,
                settings: ObserverSettings | None = None, *,
                model: KoopmanModel) -> KalmanState:
    """Start the filter at the lift of a known (or assumed) initial state.

    The process noise is shaped through the model's input channel,
    q * (B B^T + max(tr B B^T, 1) 1e-4 I), so disturbances (and model
    errors, which enter as unmodeled torques) are attributed to the actuated
    directions instead of the measured coordinate's own noise.
    """
    settings = settings if settings is not None else ObserverSettings()
    N = dictionary.size
    BBt = model.B @ model.B.T
    floor = max(float(np.trace(BBt)), 1.0) * 1e-4
    Q = settings.q * (BBt + floor * np.eye(N))
    return KalmanState(
        psi=dictionary.lift(np.asarray(x0, dtype=float)),
        P=settings.p0 * np.eye(N),
        Q=Q,
        R=settings.r,
        joseph=settings.joseph,
        relift_after_correct=settings.relift_after_correct,
    )


def kf_predict(kf: KalmanState, model: KoopmanModel, u=None) -> None:
    """Time update through the lifted model, in place: psi <- K psi + B u,
    P <- K P K^T + Q. A stack of filters takes its cells' models stacked
    alike (any object with K (C, N, N) and B (C, N, p)) and u as (C, p)."""
    K, B = model.K, model.B
    if K.shape[-1] != kf.psi.shape[-1]:
        raise DimensionMismatch(
            f"model size {K.shape[-1]} != filter size {kf.psi.shape[-1]}")
    if kf.psi.ndim == 1:
        u = _as_input(u, B.shape[1])
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


def kf_correct(kf: KalmanState, dictionary: ObservableDictionary,
               y_meas: float) -> None:
    """Measurement update with the scalar output y, in place; a stack of
    filters takes one output per cell, y (C,).

    The measurement map is the one-hot output row, so the innovation
    covariance is the scalar P[i, i] + R and the gain a single column.
    """
    i = dictionary.output_index
    psi, P = kf.psi, kf.P
    # gain P[:, i] / (P[i, i] + R) and innovation y - psi[i], per cell
    L = P[..., i] / (P[..., i, i:i + 1] + kf.R)
    psi = psi + L * (y_meas - psi[..., i])[..., None]
    if kf.joseph:
        # (I - L C) P (I - L C)^T + R L L^T with C the one-hot output row
        ILC = _identity(P.shape).copy()
        ILC[..., i] -= L
        P = (ILC @ P @ ILC.swapaxes(-1, -2)
             + kf.R * (L[..., :, None] * L[..., None, :]))
    else:
        P = P - L[..., :, None] * P[..., i, None, :]
    if kf.relift_after_correct:
        psi = dictionary.lift(psi[..., : dictionary.n])
    kf.psi = psi
    kf.P = (P + P.swapaxes(-1, -2)) / 2.0


def kf_estimate_state(kf: KalmanState,
                      dictionary: ObservableDictionary) -> np.ndarray:
    """State estimate: the first n lifted coordinates (of each cell)."""
    return kf.psi[..., :dictionary.n].copy()
