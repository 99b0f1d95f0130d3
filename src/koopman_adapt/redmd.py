"""Recursive EDMD: rank-one RLS-style updates of the lifted model with
exponential forgetting, plus the three stabilizing extensions — update
gating on windowed prediction accuracy, a variable forgetting factor driven
by the output error, and constant-trace covariance bounding.

With forgetting factor 1, an exact-Gram covariance init, and the gate held
open, the recursion reproduces the batch EDMD fit on the union of all data;
that equivalence is the module's central correctness oracle.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .edmd import KoopmanModel, SnapshotSet, _as_input, fit
from .errors import (
    CovarianceNotPD,
    DimensionMismatch,
    NonFiniteState,
    RankDeficientRegressor,
)
from .observables import ObservableDictionary

# Lower bound on the windowed output-error variance, keeping Sigma0 > 0.
SIGMA_FLOOR = 1e-8


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
    initial trace; use inf to disable. gamma_init is either "data" (inverse
    of the initial regressor Gram) or a float delta for delta * I.
    adaptive_lambda turns the variable forgetting factor off, holding the
    factor at lambda0 (fixed-forgetting operation).
    """

    lambda0: float = 1.0
    lambda_min: float = 0.9
    m_op: int = 50
    eps_low: float = 1e-3
    eps_high: float = 1e-2
    n0: float = 100.0
    mu_sigma: float = 10.0
    trace_max_factor: float = 10.0
    gamma_init: float | str = "data"
    state_scales: Sequence[float] | None = None
    adaptive_lambda: bool = True
    check_spd: bool = False

    def __post_init__(self):
        if not 0.0 < self.lambda_min <= 1.0:
            raise ValueError(f"lambda_min must be in (0, 1], got {self.lambda_min}")
        if not 0.0 < self.lambda0 <= 1.0:
            raise ValueError(f"lambda0 must be in (0, 1], got {self.lambda0}")
        if self.m_op < 2:
            raise ValueError(f"m_op must be >= 2, got {self.m_op}")
        if not 0 <= self.eps_low <= self.eps_high:
            raise ValueError("need 0 <= eps_low <= eps_high")
        if not (0 < self.n0 < math.inf and 1.0 < self.mu_sigma < math.inf):
            raise ValueError("need finite n0 > 0 and mu_sigma > 1")
        if not self.trace_max_factor > 0:
            raise ValueError("trace_max_factor must be positive (inf disables)")
        if self.gamma_init != "data" and (isinstance(self.gamma_init, str)
                                          or not 0 < self.gamma_init < math.inf):
            raise ValueError(
                f"gamma_init must be 'data' or a positive float, got "
                f"{self.gamma_init!r}")
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
        self.trace_max = settings.trace_max_factor * float(np.trace(self.Gamma))
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
    def model(self) -> KoopmanModel:
        """A by-value snapshot of the current model."""
        return KoopmanModel(self.K.copy(), self.B.copy(), self.dictionary)

    def regressor(self, x, u=None) -> np.ndarray:
        """The stacked vector [lift(x); u]."""
        return np.concatenate([self.dictionary.lift(x), _as_input(u, self.p)])

    def _trace_bounded(self, G: np.ndarray) -> np.ndarray:
        """G scaled down to the trace bound when its trace exceeds it."""
        t = float(np.trace(G))
        return G * (self.trace_max / t) if t > self.trace_max else G

    # -- gating and forgetting ----------------------------------------------

    def prediction_error_window(self) -> float:
        """Max scaled one-step prediction error over the sample window.

        Returns +inf while the window holds fewer than m_op samples
        (warm-up sentinel). This is the full recompute, which re-lifts every
        state; step() instead reads the lifts the window keeps.
        """
        if self._count < self.settings.m_op:
            return math.inf
        n = self.dictionary.n
        return self._window_error(
            self.dictionary.lift_batch(self._phi_win[:n, :-1]))

    def _window_error(self, psi_win: np.ndarray) -> float:
        """The window error of predicting each state from its predecessor's
        lift (a column of psi_win) and input, with the same operations
        whether the window kept psi_win or the full recompute made it."""
        N, n = self.size, self.dictionary.n
        pred = self.K @ psi_win
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
        phi = self.regressor(x, u)
        psi_next = self.dictionary.lift(np.asarray(x_next, dtype=float))
        if not (np.isfinite(phi).all() and np.isfinite(psi_next).all()):
            raise NonFiniteState("estimator sample contains NaN or Inf")
        win = self._phi_win
        win[:, :-1] = win[:, 1:]
        win[:, -1] = phi
        self._count += 1
        warm_up = self._count < s.m_op
        window_error = (math.inf if warm_up
                        else self._window_error(win[: self.size, :-1]))
        do_update = warm_up or window_error >= s.eps_low
        e_post = math.nan
        if do_update:
            sigma_boost = 1.0
            Gamma = self.Gamma
            if not warm_up:
                Gamma = self._trace_bounded(Gamma)
                if window_error >= s.eps_high:
                    sigma_boost = s.mu_sigma
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
                raise CovarianceNotPD("rank-one update produced NaN or Inf")
            if s.check_spd:
                try:
                    np.linalg.cholesky(G)
                except np.linalg.LinAlgError as exc:
                    raise CovarianceNotPD(
                        "covariance lost positive definiteness") from exc
            self.theta, self.Gamma = theta, self._trace_bounded(G)
            # posterior output error: innovation scaled by lambda / denom
            oi = self.dictionary.output_index
            e_post = float(innovation[oi]) * (self.lam / denom)
            self._err_buf.append(e_post)
            if not warm_up and s.adaptive_lambda:
                self._set_lambda(q / denom, e_post, sigma_boost)
        return StepReport(do_update, self.lam, float(np.trace(self.Gamma)),
                          e_post, window_error)


def init_from_batch(snapshots: SnapshotSet, dictionary: ObservableDictionary,
                    settings: RedmdSettings | None = None) -> RecursiveEstimator:
    """Initialize the estimator from an offline batch fit.

    The covariance starts at the inverse of the initial regressor Gram
    (gamma_init="data"; the batch fit has already rejected a rank-deficient
    regressor) or at delta * I when a float delta was configured; in the
    latter case a rank-deficient batch fit falls back to the minimum-norm
    least-squares model instead of failing.
    """
    settings = settings if settings is not None else RedmdSettings()
    G = np.vstack([dictionary.lift_batch(snapshots.X), snapshots.U])
    diagonal_init = not isinstance(settings.gamma_init, str)
    try:
        model = fit(snapshots, dictionary)
        theta0 = np.hstack([model.K, model.B])
    except RankDeficientRegressor:
        if not diagonal_init:
            raise
        # singular values below max(rows, cols) * eps of the largest are cut
        theta0 = dictionary.lift_batch(snapshots.Xp) @ np.linalg.pinv(
            G, max(G.shape) * np.finfo(float).eps)
    if diagonal_init:
        gamma0 = float(settings.gamma_init) * np.eye(G.shape[0])
    else:
        gamma0 = np.linalg.inv(G @ G.T)
    return RecursiveEstimator(theta0, gamma0, dictionary, settings)
