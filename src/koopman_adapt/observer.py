"""Lifted-space Kalman filter with a scalar measurement.

The filter is linear in the lifted coordinates: prediction uses whatever
model snapshot it is handed (swapping in a freshly adapted model changes
subsequent predictions only), and correction extracts the scalar output
through the dictionary's output projection. Predict and correct update
one mutable filter state: they rebind its ``psi`` and ``P`` to new arrays
and never write into the old ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from .edmd import KoopmanModel, _as_input
from .errors import DimensionMismatch
from .observables import ObservableDictionary


@dataclass
class ObserverSettings:
    """Filter tuning: process noise q*I, measurement variance r, the
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
    """Lifted state estimate, its covariance, and the noise model. Shapes
    are checked once, here; R is checked in ObserverSettings."""

    psi: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    R: float
    joseph: bool = True
    relift_after_correct: bool = False

    def __post_init__(self):
        N = self.psi.shape[0]
        if self.P.shape != (N, N) or self.Q.shape != (N, N):
            raise DimensionMismatch(
                f"P and Q must be ({N}, {N}), got {self.P.shape} and "
                f"{self.Q.shape}")


def init_kalman(dictionary: ObservableDictionary, x0,
                settings: ObserverSettings | None = None,
                model: KoopmanModel | None = None) -> KalmanState:
    """Start the filter at the lift of a known (or assumed) initial state.

    Without a model the process noise is the isotropic q * I. Given a
    model, it is shaped through the input channel, q * (B B^T + 1e-4 tr I),
    so disturbances (and model errors, which enter as unmodeled torques)
    are attributed to the actuated directions instead of the measured
    coordinate's own noise.
    """
    settings = settings if settings is not None else ObserverSettings()
    N = dictionary.size
    if model is None:
        Q = settings.q * np.eye(N)
    else:
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
    P <- K P K^T + Q."""
    if model.size != kf.psi.shape[0]:
        raise DimensionMismatch(
            f"model size {model.size} != filter size {kf.psi.shape[0]}")
    u = _as_input(u, model.p)
    P = model.K @ kf.P @ model.K.T + kf.Q
    kf.psi = model.K @ kf.psi + model.B @ u
    kf.P = (P + P.T) / 2.0


def kf_correct(kf: KalmanState, dictionary: ObservableDictionary,
               y_meas: float) -> None:
    """Measurement update with the scalar output y, in place.

    The measurement map is the output projection row, so the innovation
    covariance is the scalar P[i, i] + R and the gain a single column.
    """
    i = dictionary.output_index
    innovation = float(y_meas) - kf.psi[i]
    s = kf.P[i, i] + kf.R
    L = kf.P[:, i] / s
    psi = kf.psi + L * innovation
    if kf.joseph:
        # (I - L C) P (I - L C)^T + R L L^T with C the one-hot output row
        ILC = np.eye(kf.psi.shape[0])
        ILC[:, i] -= L
        P = ILC @ kf.P @ ILC.T + kf.R * (L[:, None] * L)
    else:
        P = kf.P - L[:, None] * kf.P[i, :]
    if kf.relift_after_correct:
        psi = dictionary.lift(psi[: dictionary.n])
    kf.psi = psi
    kf.P = (P + P.T) / 2.0


def kf_estimate_state(kf: KalmanState,
                      dictionary: ObservableDictionary) -> np.ndarray:
    """State estimate: the first n lifted coordinates."""
    return dictionary.project_state(kf.psi)
