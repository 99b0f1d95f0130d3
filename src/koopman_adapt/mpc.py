"""Receding-horizon tracking controller on the lifted linear model.

The finite-horizon problem is condensed into a dense quadratic in the
stacked input sequence: cost on the projected (state-space) predictions
against the reference window plus an input effort term. Unconstrained
problems are solved exactly via the normal equations; box-constrained ones
by projected gradient with a fixed 1/L step. This is the dense Koopman-MPC
form of Korda & Mezic (Automatica 2018).
"""

from dataclasses import dataclass

import numpy as np

from .edmd import KoopmanModel
from .errors import DimensionMismatch, IllConditionedHessian

HESSIAN_COND_LIMIT = 1e12


@dataclass
class MpcConfig:
    """Horizon, weights, and box bounds for the tracking controller.

    Qy weights the projected state tracking error (n x n), Ru the input
    effort (p x p, positive definite). The terminal tracking block is scaled
    by terminal_weight. u_min/u_max are per-channel bounds; None leaves the
    problem unconstrained.
    """

    horizon: int
    Qy: np.ndarray
    Ru: np.ndarray
    terminal_weight: float = 1.0
    u_min: np.ndarray | None = None
    u_max: np.ndarray | None = None
    max_pg_iters: int = 200
    pg_tol: float = 1e-8

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        self.Qy = np.atleast_2d(np.asarray(self.Qy, dtype=float))
        self.Ru = np.atleast_2d(np.asarray(self.Ru, dtype=float))
        if self.terminal_weight <= 0:
            raise ValueError("terminal_weight must be positive")
        if np.linalg.eigvalsh(self.Ru).min() <= 0:
            raise ValueError("Ru must be positive definite")
        for name in ("u_min", "u_max"):
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, np.atleast_1d(np.asarray(v, dtype=float)))
        if self.u_min is not None and self.u_max is not None:
            if self.u_min.shape != self.u_max.shape:
                raise ValueError(
                    f"u_min and u_max differ in shape: {self.u_min.shape} "
                    f"vs {self.u_max.shape}")
            if (self.u_min > self.u_max).any():
                raise ValueError("u_min must be <= u_max elementwise")

    @property
    def constrained(self) -> bool:
        return self.u_min is not None or self.u_max is not None


def build_prediction_matrices(model: KoopmanModel, horizon: int):
    """Stacked maps (S_psi, S_u) with lifted predictions
    Psi_{1..H} = S_psi @ psi0 + S_u @ vec(u_0..u_{H-1}).

    S_psi stacks the powers K^i; S_u is lower block-triangular Toeplitz:
    block (i, j), j <= i, is the impulse response K^{i-j} B, each computed
    once and placed through the lag i - j.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    N, p = model.size, model.p
    powers = [np.eye(N)]
    for _ in range(horizon):
        powers.append(model.K @ powers[-1])
    S_psi = np.vstack(powers[1:])
    impulse = np.stack([P @ model.B for P in powers[:-1]])  # K^i B, i < H
    row, col = np.tril_indices(horizon)
    S_u = np.zeros((horizon, N, horizon, p))
    S_u[row, :, col, :] = impulse[row - col]
    return S_psi, S_u.reshape(horizon * N, horizon * p)


class CondensedMpc:
    """Condensed tracking QP for one model; reusable across solves.

    Building the condensation costs O(H^2 (N+p)^2); each solve is then a
    dense (H p) back-substitution, so the harness constructs one of these
    per model update rather than per sample.
    """

    def __init__(self, model: KoopmanModel, cfg: MpcConfig):
        n = model.dictionary.n
        p = model.p
        H = cfg.horizon
        if cfg.Qy.shape != (n, n):
            raise DimensionMismatch(
                f"Qy must be ({n}, {n}), got {cfg.Qy.shape}")
        if cfg.Ru.shape != (p, p):
            raise DimensionMismatch(
                f"Ru must be ({p}, {p}), got {cfg.Ru.shape}")
        for name in ("u_min", "u_max"):
            bound = getattr(cfg, name)
            if bound is not None and bound.shape != (p,):
                raise DimensionMismatch(
                    f"{name} must be ({p},), got {bound.shape}")
        self.model = model
        self.cfg = cfg
        S_psi, S_u = build_prediction_matrices(model, H)
        # project the stacked lifted predictions onto the first n coordinates
        N = model.size
        rows = (np.arange(H)[:, None] * N + np.arange(n)[None, :]).ravel()
        self.F = S_psi[rows]          # (H n, N)
        self.G = S_u[rows]            # (H n, H p)
        weights = np.ones(H)
        weights[-1] = cfg.terminal_weight
        self.GtQ = self.G.T @ np.kron(np.diag(weights), cfg.Qy)
        self.hessian = 2.0 * (self.GtQ @ self.G + np.kron(np.eye(H), cfg.Ru))
        if not np.isfinite(self.hessian).all():
            raise IllConditionedHessian(
                "condensed Hessian has non-finite entries; the model "
                "overflows over the horizon")
        eig = np.linalg.eigvalsh(self.hessian)  # ascending
        if eig[0] <= 0:
            raise IllConditionedHessian(
                f"condensed Hessian is not positive definite (smallest "
                f"eigenvalue {eig[0]:.3e}); revisit weights or horizon")
        cond = eig[-1] / eig[0]
        if cond > HESSIAN_COND_LIMIT:
            raise IllConditionedHessian(
                f"condensed Hessian condition {cond:.3e} exceeds "
                f"{HESSIAN_COND_LIMIT:.1e}; revisit weights or horizon")
        self._step = 1.0 / (1.01 * eig[-1])  # 1/L for projected gradient
        self._lo = -np.inf if cfg.u_min is None else np.tile(cfg.u_min, H)
        self._hi = np.inf if cfg.u_max is None else np.tile(cfg.u_max, H)

    def solve(self, psi0, w_window, return_info: bool = False):
        """Minimize the condensed objective for the current lifted state
        against an (n, H) reference window; returns (u0, U_plan)."""
        cfg = self.cfg
        n = self.model.dictionary.n
        p = self.model.p
        H = cfg.horizon
        psi0 = np.asarray(psi0, dtype=float)
        w_window = np.asarray(w_window, dtype=float)
        if psi0.shape != (self.model.size,):
            raise DimensionMismatch(
                f"psi0 must be ({self.model.size},), got {psi0.shape}")
        if w_window.shape != (n, H):
            raise DimensionMismatch(
                f"reference window must be ({n}, {H}), got {w_window.shape}")
        f0 = self.F @ psi0 - w_window.T.ravel()
        grad0 = 2.0 * (self.GtQ @ f0)
        U = np.linalg.solve(self.hessian, -grad0)
        info = {"pg_iterations": 0, "pg_objectives": []}
        if cfg.constrained:
            U = self._project(U)
            U, pg_info = self._projected_gradient(U, grad0)
            info.update(pg_info)
        plan = U.reshape(H, p).T
        return (plan[:, 0].copy(), plan, info) if return_info \
            else (plan[:, 0].copy(), plan)

    def _project(self, U):
        return np.clip(U, self._lo, self._hi)

    def _projected_gradient(self, U, grad0):
        cfg = self.cfg
        step = self._step
        objectives = []
        iters = 0
        for iters in range(1, cfg.max_pg_iters + 1):
            grad = self.hessian @ U + grad0
            objectives.append(0.5 * float(U @ self.hessian @ U) + float(grad0 @ U))
            U_next = self._project(U - step * grad)
            if np.max(np.abs(U_next - U)) <= cfg.pg_tol:
                U = U_next
                break
            U = U_next
        objectives.append(0.5 * float(U @ self.hessian @ U) + float(grad0 @ U))
        return U, {"pg_iterations": iters, "pg_objectives": objectives}


def mpc_gain_limit(model: KoopmanModel, cfg: MpcConfig) -> np.ndarray:
    """The implicit linear feedback u0 = -G @ psi realized by the
    unconstrained controller at zero reference."""
    if cfg.constrained:
        raise ValueError("gain extraction requires an unconstrained config")
    solver = CondensedMpc(model, cfg)
    gains = np.linalg.solve(solver.hessian, 2.0 * (solver.GtQ @ solver.F))
    return gains[:model.p]
