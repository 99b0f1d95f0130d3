"""Receding-horizon tracking controller on the lifted linear model.

The finite-horizon problem is condensed into a dense quadratic in the
stacked input sequence: cost on the projected (state-space) predictions
against the reference window plus an input effort term. The unconstrained
minimizer is affine in the stacked tracking offset, so its law is solved
once per model and each solve is one matrix-vector product. When that plan
leaves the input box, a primal active-set method solves the box QP exactly
(Nocedal & Wright, Numerical Optimization, sec. 16.5), warm-started at the
clipped plan. This is the dense Koopman-MPC form of Korda & Mezic
(Automatica 2018).
"""

import math
from dataclasses import dataclass
from numbers import Integral

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
    problem unconstrained. When the bounds bind, the box QP stops once its
    KKT conditions hold to within pg_tol, or after max_pg_iters active-set
    iterations.
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
        if not 0 < self.terminal_weight < math.inf:
            raise ValueError("terminal_weight must be finite and positive")
        if not (np.isfinite(self.Ru).all()
                and np.linalg.eigvalsh(self.Ru).min() > 0):
            raise ValueError("Ru must be finite and positive definite")
        for name in ("u_min", "u_max"):
            v = getattr(self, name)
            if v is not None:
                v = np.atleast_1d(np.asarray(v, dtype=float))
                if np.isnan(v).any():
                    raise ValueError(f"{name} must not be NaN")
                setattr(self, name, v)
        if self.u_min is not None and self.u_max is not None:
            if self.u_min.shape != self.u_max.shape:
                raise ValueError(
                    f"u_min and u_max differ in shape: {self.u_min.shape} "
                    f"vs {self.u_max.shape}")
            if (self.u_min > self.u_max).any():
                raise ValueError("u_min must be <= u_max elementwise")
        if isinstance(self.max_pg_iters, bool) \
                or not isinstance(self.max_pg_iters, Integral) \
                or self.max_pg_iters < 1:
            raise ValueError(f"max_pg_iters must be an integer >= 1, got "
                             f"{self.max_pg_iters!r}")
        if not (math.isfinite(self.pg_tol) and self.pg_tol > 0):
            raise ValueError(f"pg_tol must be finite and > 0, got "
                             f"{self.pg_tol!r}")

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

    Building the condensation and the unconstrained law costs
    O(H^2 (N+p)^2 + (H p)^3); an unconstrained solve is then one
    (H p) x (H n) matrix-vector product, so the harness constructs one of
    these per model update rather than per sample.
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
        # U = -law @ f0 minimizes the condensed objective without bounds
        self._law = np.linalg.solve(self.hessian, 2.0 * self.GtQ)
        unbounded = np.full(p, np.inf)
        self._lo = np.tile(-unbounded if cfg.u_min is None else cfg.u_min, H)
        self._hi = np.tile(unbounded if cfg.u_max is None else cfg.u_max, H)

    def solve(self, psi0, w_window, return_info: bool = False):
        """Minimize the condensed objective for the current lifted state
        against an (n, H) reference window; returns (u0, U_plan).

        With return_info, also a dict: "pg_iterations" (active-set
        iterations, 0 when the unconstrained plan is feasible),
        "pg_objectives" (the objective at each iterate, non-increasing) and
        "converged" (the KKT conditions held to within pg_tol)."""
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
        U = -(self._law @ f0)
        info = {"pg_iterations": 0, "pg_objectives": [], "converged": True}
        if cfg.constrained and ((U < self._lo) | (U > self._hi)).any():
            U, info = self._box_qp(U, 2.0 * (self.GtQ @ f0))
        plan = U.reshape(H, p).T
        return (plan[:, 0].copy(), plan, info) if return_info \
            else (plan[:, 0].copy(), plan)

    def _box_qp(self, U, grad0):
        """Primal active-set method for min 1/2 U'HU + grad0'U on the box,
        from the unconstrained minimizer U.

        The working set starts as the entries U violates, fixed at their
        bounds. Each iteration minimizes over the free entries with the
        working set held, steps towards that minimizer as far as the box
        allows and adds the first bound it meets; at the minimizer it checks
        the KKT conditions and releases the bound with the most negative
        multiplier. Every iterate is feasible and the objective never rises.
        """
        hess, lo, hi = self.hessian, self._lo, self._hi
        tol = self.cfg.pg_tol
        at_lo, at_hi = U < lo, U > hi
        U = np.clip(U, lo, hi)

        def objective(U):
            return 0.5 * float(U @ hess @ U) + float(grad0 @ U)

        objectives = [objective(U)]
        converged = False
        for iters in range(1, self.cfg.max_pg_iters + 1):
            free = ~(at_lo | at_hi)
            idx = np.flatnonzero(free)
            if idx.size:
                rhs = grad0[idx] + hess[idx] @ np.where(free, 0.0, U)
                step = np.linalg.solve(hess[np.ix_(idx, idx)], -rhs) - U[idx]
                # ratio test: the fraction of the step each free entry can
                # take before it reaches a bound
                room = np.full(idx.size, np.inf)
                down, up = step < 0, step > 0
                room[down] = (lo[idx[down]] - U[idx[down]]) / step[down]
                room[up] = (hi[idx[up]] - U[idx[up]]) / step[up]
                j = int(np.argmin(room))
                blocked = room[j] < 1.0
                U[idx] += min(room[j], 1.0) * step
                if blocked:  # the first bound met joins the working set
                    at_lo[idx[j]], at_hi[idx[j]] = down[j], up[j]
                # working-set entries sit exactly on their bounds
                U = np.where(at_lo, lo, np.where(at_hi, hi,
                                                 np.clip(U, lo, hi)))
                objectives.append(objective(U))
                if blocked:
                    continue
            grad = hess @ U + grad0
            # bound multipliers, >= 0 at the optimum
            mult = np.where(at_lo, grad, -grad)
            mult[free] = np.inf
            worst = int(np.argmin(mult))
            if np.abs(grad[free]).max(initial=0.0) <= tol \
                    and mult[worst] >= -tol:
                converged = True
                break
            if mult[worst] < -tol:
                at_lo[worst] = at_hi[worst] = False
        return U, {"pg_iterations": iters, "pg_objectives": objectives,
                   "converged": converged}
