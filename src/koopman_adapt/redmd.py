"""Recursive EDMD: rank-one RLS-style updates of the lifted model with
exponential forgetting, plus the three stabilizing extensions — update
gating on windowed prediction accuracy, a variable forgetting factor driven
by the output error, and constant-trace covariance bounding.

With forgetting factor 1 and the gate held open, the recursion started by
init_from_batch (at the exact Gram inverse) reproduces the batch EDMD fit
on the union of all data; that equivalence is the module's central
correctness oracle.
"""

import math
from collections import deque
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .edmd import KoopmanModel, SnapshotSet, _as_input, fit
from .errors import (
    CovarianceNotPD,
    DimensionMismatch,
    NonFiniteState,
)
from .observables import ObservableDictionary

# Lower bound on the windowed output-error variance, keeping Sigma0 > 0.
SIGMA_FLOOR = 1e-8
MAX_WINDOW = 10**6  # m_op: the gate window holds (N + p) x m_op floats


@dataclass
class RedmdSettings:
    """Tuning constants for the recursive estimator.

    eps_low/eps_high are the windowed-prediction-error gate thresholds in
    per-state-scaled units; an update runs only while the window error is at
    least eps_low, and the adaptation sensitivity is boosted by mu_sigma for
    steps where it also reaches eps_high. state_scales normalizes each state
    row of the error window before the max-abs norm (mixed units would
    otherwise let one state dominate).

    trace_max_factor bounds the covariance trace at that multiple of the
    initial trace; use inf to disable. eps_low must be finite (eps_high
    may be inf). adaptive_lambda turns the variable forgetting factor off,
    holding the factor at lambda0 (fixed-forgetting operation). The
    covariance starts where init_from_batch puts it, at the exact Gram
    inverse.
    """

    lambda0: float = 1.0
    lambda_min: float = 0.9
    m_op: int = 50
    eps_low: float = 1e-3
    eps_high: float = 1e-2
    n0: float = 100.0
    mu_sigma: float = 10.0
    trace_max_factor: float = 10.0
    state_scales: Sequence[float] | None = None
    adaptive_lambda: bool = True

    def __post_init__(self):
        if not 0.0 < self.lambda_min <= 1.0:
            raise ValueError(f"lambda_min must be in (0, 1], got {self.lambda_min}")
        if not 0.0 < self.lambda0 <= 1.0:
            raise ValueError(f"lambda0 must be in (0, 1], got {self.lambda0}")
        if (isinstance(self.m_op, bool) or not isinstance(self.m_op, Integral)
                or not 2 <= self.m_op <= MAX_WINDOW):
            raise ValueError(f"m_op must be an integer in [2, "
                             f"{MAX_WINDOW:.0e}], got {self.m_op!r}")
        if not 0 <= self.eps_low <= self.eps_high or math.isinf(self.eps_low):
            raise ValueError("need finite eps_low, 0 <= eps_low <= eps_high")
        if not (0 < self.n0 < math.inf and 1.0 < self.mu_sigma < math.inf):
            raise ValueError("need finite n0 > 0 and mu_sigma > 1")
        if not self.trace_max_factor > 0:
            raise ValueError("trace_max_factor must be positive (inf disables)")
        if self.state_scales is not None:
            self.state_scales = tuple(map(float, self.state_scales))
            if not all(0 < v < math.inf for v in self.state_scales):
                raise ValueError(f"state_scales must be finite and > 0, got "
                                 f"{self.state_scales}")


@dataclass(frozen=True)
class StepReport:
    """Per-sample diagnostics emitted by RecursiveEstimator.step."""

    updated: bool
    lam: float
    trace_gamma: float
    e_post: float
    window_error: float


def variable_forgetting_factor(sigma0: float, phi_gamma: float,
                               e_post: float, lambda_min: float = 0.0) -> float:
    """Next forgetting factor 1 - (1 - phi_gamma) * e_post^2 / sigma0,
    clamped to [lambda_min, 1]."""
    if sigma0 <= 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    lam = 1.0 - (1.0 - phi_gamma) * (e_post * e_post) / sigma0
    return min(1.0, max(lambda_min, lam))


class RecursiveEstimator:
    """Online estimator of the lifted model (K, B) with covariance Gamma.

    Single-writer: step() mutates internal state and must be serialized per
    estimator. Model snapshots handed to consumers are copies.
    """

    def __init__(self, theta0: np.ndarray, gamma0: np.ndarray,
                 dictionary: ObservableDictionary,
                 settings: RedmdSettings | None = None):
        settings = settings if settings is not None else RedmdSettings()
        N = dictionary.size
        theta0 = np.asarray(theta0, dtype=float)
        gamma0 = np.asarray(gamma0, dtype=float)
        if theta0.ndim != 2 or theta0.shape[0] != N:
            raise DimensionMismatch(
                f"theta0 must be ({N}, N+p), got {theta0.shape}")
        q = theta0.shape[1]
        if gamma0.shape != (q, q):
            raise DimensionMismatch(
                f"gamma0 must be ({q}, {q}), got {gamma0.shape}")
        self.dictionary = dictionary
        self.settings = settings
        self.theta = theta0.copy()
        self.Gamma = (gamma0 + gamma0.T) / 2.0
        self.lam = settings.lambda0
        self.sigma_e = SIGMA_FLOOR
        self.Sigma0 = SIGMA_FLOOR * settings.n0
        self.trace_max = settings.trace_max_factor * self.trace_gamma
        scales = (np.ones(dictionary.n) if settings.state_scales is None
                  else np.asarray(settings.state_scales, dtype=float))
        if scales.shape != (dictionary.n,):
            raise DimensionMismatch(
                f"state_scales needs one entry per state ({dictionary.n}), "
                f"got {scales.shape}")
        self._scales = scales
        # The gate window, oldest sample first: the regressors [lift(x); u]
        # of the last m_op samples. Its first n rows are the states, since
        # every dictionary starts with the coordinate maps.
        self._count = 0
        self._phi_win = np.zeros((q, settings.m_op))
        self._err_buf: deque = deque(maxlen=settings.m_op)
        # the last x_next step() saw, as bytes, and its lift
        self._next_key: bytes | None = None
        self._psi_next: np.ndarray | None = None

    # -- views ------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.dictionary.size

    @property
    def p(self) -> int:
        return self.theta.shape[1] - self.dictionary.size

    @property
    def K(self) -> np.ndarray:
        return self.theta[:, : self.size]

    @property
    def B(self) -> np.ndarray:
        return self.theta[:, self.size:]

    @property
    def Gamma(self) -> np.ndarray:
        return self._Gamma

    @Gamma.setter
    def Gamma(self, G: np.ndarray) -> None:
        # every change of Gamma comes through here, so its trace is taken
        # once per change rather than once per step
        self._Gamma = G
        self.trace_gamma = float(G.trace())

    @property
    def model(self) -> KoopmanModel:
        """A by-value snapshot of the current model."""
        return KoopmanModel(self.K.copy(), self.B.copy(), self.dictionary)

    def _trace_bounded(self, G: np.ndarray) -> np.ndarray:
        """G scaled down to the trace bound when its trace exceeds it."""
        t = float(G.trace())
        return G * (self.trace_max / t) if t > self.trace_max else G

    # -- gating and forgetting ----------------------------------------------

    def prediction_error_window(self) -> float:
        """Max scaled one-step prediction error over the sample window.

        Each state is predicted from the lift and input of its predecessor,
        both read from the window, which keeps them; nothing is re-lifted.
        Returns +inf while the window holds fewer than m_op samples
        (warm-up sentinel).
        """
        if self._count < self.settings.m_op:
            return math.inf
        N, n = self.size, self.dictionary.n
        pred = self.K @ self._phi_win[:N, :-1]
        if self.p:
            pred = pred + self.B @ self._phi_win[N:, :-1]
        err = (self._phi_win[:n, 1:] - pred[:n]) / self._scales[:, None]
        return float(np.abs(err).max())

    def _set_lambda(self, phi_gamma, e_post, sigma_boost) -> None:
        if len(self._err_buf) >= 2:
            self.sigma_e = max(float(np.var(self._err_buf, ddof=1)), SIGMA_FLOOR)
        else:
            self.sigma_e = SIGMA_FLOOR
        self.Sigma0 = self.sigma_e * self.settings.n0 * sigma_boost
        self.lam = variable_forgetting_factor(
            self.Sigma0, phi_gamma, e_post, self.settings.lambda_min)

    # -- the per-sample algorithm ---------------------------------------------

    def step(self, x, u, x_next) -> StepReport:
        """Consume one transition (x, u, x_next) and run the gated update.

        During warm-up (window not yet full) the update runs unconditionally
        with the initial forgetting factor; afterwards it runs only when the
        windowed prediction error reaches eps_low, with the trace bound
        enforced and the sensitivity boost applied per the thresholds.

        The update is the rank-one recursion with forgetting: gain
        k = Gamma phi / (phi^T Gamma phi + lambda), Theta += (psi' - Theta phi)
        k^T, Gamma = (Gamma - Gamma phi k^T) / lambda, symmetrized. It is
        atomic: a non-finite sample raises NonFiniteState before any state
        (the window included) changes, and Theta and Gamma are committed
        together only once both candidates are finite.
        """
        s = self.settings
        lift = self.dictionary.lift
        n = self.dictionary.n
        x = np.asarray(x, dtype=float)
        x_next = np.asarray(x_next, dtype=float)
        if x.shape != (n,) or x_next.shape != (n,):
            raise DimensionMismatch(
                f"expected states of shape ({n},), got {x.shape} and "
                f"{x_next.shape}")
        # a chained stream's x is the previous x_next: reuse its lift when
        # the two are equal bit for bit
        psi = self._psi_next if x.tobytes() == self._next_key else lift(x)
        phi = np.concatenate([psi, _as_input(u, self.p)])
        psi_next = lift(x_next)
        if not (np.isfinite(phi).all() and np.isfinite(psi_next).all()):
            raise NonFiniteState("estimator sample contains NaN or Inf")
        self._next_key, self._psi_next = x_next.tobytes(), psi_next
        win = self._phi_win
        win[:, :-1] = win[:, 1:]
        win[:, -1] = phi
        self._count += 1
        warm_up = self._count < s.m_op
        window_error = (math.inf if warm_up
                        else self.prediction_error_window())
        do_update = warm_up or window_error >= s.eps_low
        e_post = math.nan
        if do_update:
            sigma_boost = 1.0
            Gamma = self.Gamma
            if not warm_up:
                Gamma = self._trace_bounded(Gamma)
                if window_error >= s.eps_high:
                    sigma_boost = s.mu_sigma
            # an overflow surfaces as CovarianceNotPD, not as warnings
            with np.errstate(over="ignore", invalid="ignore"):
                gp = Gamma @ phi
                q = float(phi @ gp)
                denom = q + self.lam
                if not math.isfinite(denom) or denom <= 0.0:
                    raise CovarianceNotPD(
                        f"correction denominator {denom} is not positive")
                innovation = psi_next - self.theta @ phi
                theta = self.theta + np.outer(innovation, gp / denom)
                G = (Gamma - np.outer(gp, gp) / denom) / self.lam
                G = (G + G.T) / 2.0
                if not (np.isfinite(theta).all() and np.isfinite(G).all()):
                    raise CovarianceNotPD(
                        "rank-one update produced NaN or Inf")
            self.theta, self.Gamma = theta, self._trace_bounded(G)
            # posterior output error: innovation scaled by lambda / denom
            oi = self.dictionary.output_index
            e_post = float(innovation[oi]) * (self.lam / denom)
            self._err_buf.append(e_post)
            if not warm_up and s.adaptive_lambda:
                self._set_lambda(q / denom, e_post, sigma_boost)
        return StepReport(do_update, self.lam, self.trace_gamma, e_post,
                          window_error)


def init_from_batch(snapshots: SnapshotSet, dictionary: ObservableDictionary,
                    settings: RedmdSettings | None = None) -> RecursiveEstimator:
    """Initialize the estimator from an offline batch fit, its covariance
    at the inverse of the initial regressor Gram; a rank-deficient batch
    raises RankDeficientRegressor from the fit."""
    model, G = fit(snapshots, dictionary)
    return RecursiveEstimator(np.hstack([model.K, model.B]),
                              np.linalg.inv(G @ G.T), dictionary, settings)
