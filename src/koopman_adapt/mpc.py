"""Receding-horizon tracking controller on the lifted linear model.

The finite-horizon problem is condensed into a dense quadratic in the
stacked input sequence: cost on the projected (state-space) predictions
against the reference window plus an input effort term. The unconstrained
minimizer is affine in the stacked tracking offset, so its law is solved
once per model and each solve is one matrix-vector product. When that plan
leaves the input box, a primal active-set method solves the box QP exactly
(Nocedal & Wright, Numerical Optimization, sec. 16.5), warm-started from the
last binding solve's working set shifted one step, the online active-set
strategy of Ferreau, Bock & Diehl (Int. J. Robust Nonlinear Control 2008).
This is the dense Koopman-MPC form of Korda & Mezic (Automatica 2018).
An MpcConfig builds the config-only arrays once, a controller the model's.
"""

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .edmd import KoopmanModel
from .errors import DimensionMismatch, IllConditionedHessian

HESSIAN_COND_LIMIT = 1e12
MAX_STACKED = 4096  # H max(n, p): Qbar and Rbar stay within 128 MiB each


@dataclass(frozen=True, eq=False)
class MpcConfig:
    """Horizon, weights, and box bounds for the tracking controller.

    Qy weights the projected state tracking error (n x n), Ru the input
    effort (p x p, positive definite); both are symmetric, and
    H max(n, p) <= MAX_STACKED. The terminal tracking block is scaled by
    terminal_weight. u_min/u_max are (p,) per-channel bounds; an omitted one
    is -inf/+inf. When the bounds bind, the box QP stops once its KKT
    conditions hold to within pg_tol, or after max_pg_iters active-set
    iterations. It compares and hashes by identity, as its fields are arrays.

    The config is immutable and builds, once and read-only, all that every
    model's controller reads of it: the stacked weights
    Qbar = blkdiag(Qy, ..., terminal_weight Qy) and Rbar = blkdiag(Ru, ...),
    the lag i - j of block (i, j) of the impulse map (H, a zero block, above
    the diagonal), the bounds lo, hi tiled over the horizon, shift (the
    index of a stacked plan one step on, its last step repeated),
    constrained (some bound is finite) and trace_cap (a controller Hessian
    whose trace is at most this has condition <= HESSIAN_COND_LIMIT).
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
        for name in ("horizon", "max_pg_iters"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if not 0 < self.terminal_weight < math.inf:
            raise ValueError("terminal_weight must be finite and positive")
        if not (math.isfinite(self.pg_tol) and self.pg_tol > 0):
            raise ValueError(f"pg_tol must be finite and > 0, got "
                             f"{self.pg_tol!r}")
        # the condensed Hessian 2 (G'Qbar G + Rbar) is the cost's only for
        # symmetric weights
        arrays, least = {}, {}  # stored read-only; least eigenvalues
        for name in ("Qy", "Ru"):
            v = np.array(getattr(self, name), dtype=float, ndmin=2)
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite")
            if v.shape != (len(v),) * 2 or (v != v.T).any():
                raise ValueError(f"{name} must be square and symmetric")
            arrays[name], least[name] = v, float(np.linalg.eigvalsh(v)[0])
        if least["Ru"] <= 0:
            raise ValueError("Ru must be positive definite")
        H, n, p = self.horizon, len(arrays["Qy"]), len(arrays["Ru"])
        if H * max(n, p) > MAX_STACKED:  # before any array of H is built
            raise ValueError(f"horizon * max(n, p) must be at most "
                             f"{MAX_STACKED}, got {H} * {max(n, p)}")
        # an unbounded side is -inf below or +inf above, never the reverse
        for name, side in (("u_min", -math.inf), ("u_max", math.inf)):
            v = getattr(self, name)
            v = np.full(p, side) if v is None else np.array(v, float, ndmin=1)
            if (np.isnan(v) | (v == -side)).any():
                raise ValueError(f"{name} must not be NaN or {-side}")
            if v.shape != (p,):
                raise ValueError(f"{name} needs {p} entries, one per input")
            arrays[name] = v
        lo, hi = arrays["u_min"], arrays["u_max"]
        if (lo > hi).any():
            raise ValueError("u_min must be <= u_max elementwise")
        weights = np.ones(H)
        weights[-1] = self.terminal_weight
        lag = np.subtract.outer(np.arange(H), np.arange(H))
        lag[lag < 0] = H
        arrays.update(Qbar=np.kron(np.diag(weights), arrays["Qy"]),
                      Rbar=np.kron(np.eye(H), arrays["Ru"]), lag=lag,
                      lo=np.tile(lo, H), hi=np.tile(hi, H),
                      shift=np.r_[p:H * p, H * p - p:H * p])
        for name, v in arrays.items():
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        object.__setattr__(self, "constrained",
                           bool(np.isfinite([lo, hi]).any()))
        # Qy >= 0 gives Hessian >= 2 Rbar, so cond <= trace / (2 min eig Ru);
        # -inf, which no finite trace passes, for an indefinite Qy. A Python
        # float product overflows to inf with no warning
        object.__setattr__(self, "trace_cap", -math.inf if least["Qy"] < 0
                           else 2.0 * least["Ru"] * HESSIAN_COND_LIMIT)


class CondensedMpc:
    """Condensed tracking QP for one model; reusable across solves.

    Building the model's part of the condensation and the unconstrained law
    costs O(H N^3 + H^2 n^2 p + (H p)^3); an unconstrained solve is then one
    (H p) x (H n) matrix-vector product, so the harness constructs one of
    these per model update rather than per sample. Between solves it keeps
    the working set of its last binding solve, where the next one starts; a
    copy.copy of it solves on alone.
    """

    def __init__(self, model: KoopmanModel, cfg: MpcConfig):
        n, N, p, H = model.dictionary.n, model.size, model.p, cfg.horizon
        if cfg.Qy.shape != (n, n) or cfg.Ru.shape != (p, p):
            raise DimensionMismatch(f"Qy and Ru must be ({n}, {n}) and "
                                    f"({p}, {p}) for this model")
        self.model, self.cfg = model, cfg
        # an overflow over the horizon surfaces as IllConditionedHessian,
        # not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.empty((H + 1, N, N))
            powers[0] = np.eye(N)
            for i in range(H):
                np.matmul(model.K, powers[i], out=powers[i + 1])
            impulse = np.zeros((H + 1, n, p))
            impulse[:H] = (powers[:-1] @ model.B)[:, :n]  # K^i B, i < H
            # Psi_{1..H} = S_psi psi0 + S_u U with S_psi the stacked K^i and
            # S_u lower block-triangular Toeplitz in K^{i-j} B; only the n
            # projected rows of each block are placed
            self.F = powers[1:, :n].reshape(H * n, N)  # (H n, N)
            self.G = impulse.take(cfg.lag, 0).transpose(0, 2, 1, 3).reshape(
                H * n, H * p)  # (H n, H p)
            self.GtQ = self.G.T @ cfg.Qbar
            self.hessian = 2.0 * (self.GtQ @ self.G + cfg.Rbar)
            if not np.isfinite(self.hessian).all():
                raise IllConditionedHessian(
                    "condensed Hessian has non-finite entries; the model "
                    "overflows over the horizon")
            bounded = self.hessian.trace() <= cfg.trace_cap
        if not bounded:
            eig = np.linalg.eigvalsh(self.hessian)  # ascending
            if not (eig[0] > 0 and eig[-1] / eig[0] <= HESSIAN_COND_LIMIT):
                raise IllConditionedHessian(
                    f"condensed Hessian is not positive definite with "
                    f"condition <= {HESSIAN_COND_LIMIT:.1e} (eigenvalues "
                    f"{eig[0]:.3e} to {eig[-1]:.3e}); revisit weights or "
                    f"horizon")
        # U = -law @ f0 minimizes the condensed objective without bounds
        self._law = np.linalg.solve(self.hessian, 2.0 * self.GtQ)
        self._working = None  # (at_lo, free) of the last binding solve

    def solve(self, psi0, w_window, return_info: bool = False):
        """Minimize the condensed objective for the current lifted state
        against an (n, H) reference window; returns (u0, U_plan).

        With return_info, also a dict: "pg_iterations" (active-set
        iterations, 0 when the unconstrained plan is feasible) and
        "converged" (the KKT conditions held to within pg_tol)."""
        cfg, n, H = self.cfg, self.model.dictionary.n, self.cfg.horizon
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
        info = {"pg_iterations": 0, "converged": True}
        if cfg.constrained and ((U < cfg.lo) | (U > cfg.hi)).any():
            U, info = self._box_qp(U, 2.0 * (self.GtQ @ f0))
        else:
            self._working = None
        plan = U.reshape(H, self.model.p).T
        return (plan[:, 0].copy(), plan, info) if return_info \
            else (plan[:, 0].copy(), plan)

    def _box_qp(self, U, grad0):
        """Primal active-set method for min 1/2 U'HU + grad0'U on the box,
        from the unconstrained minimizer U.

        The working set starts as the last binding solve's shifted one step
        (its first p entries dropped, its last p repeated; empty after a
        feasible solve), and each entry outside it that U violates joins it
        at that bound. Each iteration minimizes over the free entries with the
        working set held, steps towards that minimizer as far as the box
        allows and adds the first bound it meets; at the minimizer it checks
        the KKT conditions and releases the bound with the most negative
        multiplier. Every iterate is feasible and the objective never rises.
        """
        hess, cfg = self.hessian, self.cfg
        lo, hi, tol = cfg.lo, cfg.hi, cfg.pg_tol
        # the working set: the entries not free, each on its lower bound
        # where at_lo holds and on its upper bound otherwise
        at_lo = U < lo
        free = ~(at_lo | (U > hi))
        if self._working is not None:
            last_lo, last_free = (a[cfg.shift] for a in self._working)
            at_lo = np.where(last_free, at_lo, last_lo)
            free &= last_free
        U = np.where(free, U, np.where(at_lo, lo, hi))
        converged = False
        for iters in range(1, cfg.max_pg_iters + 1):
            idx = free.nonzero()[0]
            if idx.size:
                rows = hess.take(idx, 0)
                held = np.where(free, 0.0, U)
                U_free = U[idx]
                step = np.linalg.solve(rows.take(idx, 1),
                                       -(grad0[idx] + rows @ held)) - U_free
                # ratio test: the fraction of the step each free entry can
                # take before it reaches a bound (inf where it stands still)
                lo_free, hi_free = lo[idx], hi[idx]
                down = step < 0
                still = step == 0
                room = (np.where(down, lo_free, np.where(still, np.inf,
                                                         hi_free))
                        - U_free) / np.where(still, 1.0, step)
                j = int(room.argmin())
                blocked = room[j] < 1.0
                U_free += min(room[j], 1.0) * step
                U_free.clip(lo_free, hi_free, out=U_free)
                if blocked:  # the first bound met joins the working set
                    free[idx[j]] = False
                    at_lo[idx[j]] = down[j]
                    # working-set entries sit exactly on their bounds
                    U_free[j] = lo_free[j] if down[j] else hi_free[j]
                U[idx] = U_free
                if blocked:
                    continue
            grad = hess @ U + grad0
            # bound multipliers, >= 0 at the optimum
            mult = np.where(at_lo, grad, -grad)
            mult[free] = np.inf
            worst = int(mult.argmin())
            if mult[worst] >= -tol \
                    and np.abs(grad[free]).max(initial=0.0) <= tol:
                converged = True
                break
            if mult[worst] < -tol:
                free[worst] = True
        self._working = at_lo, free
        return U, {"pg_iterations": iters, "converged": converged}
