"""Named verification oracles, runnable from the CLI and the test suite.

Each oracle checks a recursion against an independent brute-force
computation and returns its worst-case error. Two helpers the library
never calls live here too: the filter's Riccati fixed point and the linear
feedback gain the unconstrained controller realizes.
"""

import numpy as np

from .edmd import KoopmanModel, collect_snapshots, fit
from .mpc import CondensedMpc, MpcConfig
from .observables import ObservableDictionary
from .redmd import RedmdSettings, init_from_batch


def riccati_prior_fixed_point(model: KoopmanModel, output_row: np.ndarray,
                              Q: np.ndarray, R: float, tol: float = 1e-14,
                              max_iter: int = 100000) -> np.ndarray:
    """Fixed point of the prior-covariance Riccati recursion
    P <- K (P - P c (c^T P c + R)^-1 c^T P) K^T + Q, by direct iteration.

    Serves as the steady-state oracle for the predict/correct cycle.
    """
    c = np.asarray(output_row, dtype=float)
    P = Q.copy()
    for _ in range(max_iter):
        Pc = P @ c
        s = float(c @ Pc) + R
        P_post = P - np.outer(Pc, Pc) / s
        P_new = model.K @ P_post @ model.K.T + Q
        P_new = (P_new + P_new.T) / 2.0
        if np.max(np.abs(P_new - P)) < tol:
            return P_new
        P = P_new
    return P


def mpc_gain_limit(model: KoopmanModel, cfg: MpcConfig) -> np.ndarray:
    """The implicit linear feedback u0 = -G @ psi realized by the
    unconstrained controller at zero reference."""
    if cfg.constrained:
        raise ValueError("gain extraction requires an unconstrained config")
    solver = CondensedMpc(model, cfg)
    return (solver._law @ solver.F)[:model.p]


def _random_system(rng):
    """A random stable linear system plus a lifting dictionary with N <= 10."""
    n = int(rng.integers(1, 5))
    p = int(rng.integers(0, 3))
    A = rng.standard_normal((n, n))
    radius = max(np.abs(np.linalg.eigvals(A)))
    A *= rng.uniform(0.5, 0.9) / max(radius, 1e-12)
    B = rng.standard_normal((n, p))
    if n <= 3:
        family = rng.choice(["identity", "trig", "monomial"])
    else:
        family = "identity"
    return A, B, ObservableDictionary(n, str(family), 2)


def _simulate(A, B, rng, steps):
    n, p = B.shape
    x = rng.uniform(-1.0, 1.0, size=n)
    pairs = []
    for _ in range(steps):
        u = rng.uniform(-1.5, 1.5, size=p)
        pairs.append((x.copy(), u.copy()))
        x = A @ x + B @ u + rng.uniform(-0.3, 0.3, size=n)
    pairs.append((x.copy(), np.zeros(p)))
    return pairs


def recursive_batch_max_error(n_systems: int = 20, seed: int = 2024,
                              n_extra: int = 200) -> float:
    """Worst relative Frobenius gap between the recursive model and the
    batch fit on the union of all samples, across seeded random systems.

    Runs with forgetting factor 1, the gate held open, the trace bound
    disabled, and the covariance initialized from the exact initial Gram
    inverse — the regime in which the recursion and the batch fit agree in
    exact arithmetic.
    """
    worst = 0.0
    for i in range(n_systems):
        rng = np.random.default_rng([seed, i])
        A, B, dictionary = _random_system(rng)
        m0 = 4 * (dictionary.size + B.shape[1]) + 10
        pairs = _simulate(A, B, rng, m0 + n_extra)
        settings = RedmdSettings(
            lambda0=1.0, eps_low=0.0, eps_high=np.inf,
            trace_max_factor=np.inf, adaptive_lambda=False, m_op=10)
        est = init_from_batch(collect_snapshots(pairs[: m0 + 1]), dictionary,
                              settings)
        for k in range(m0, m0 + n_extra):
            est.step(pairs[k][0], pairs[k][1], pairs[k + 1][0])
        batch, _ = fit(collect_snapshots(pairs), dictionary)
        theta_batch = np.hstack([batch.K, batch.B])
        rel = (np.linalg.norm(est.theta - theta_batch, "fro")
               / np.linalg.norm(theta_batch, "fro"))
        worst = max(worst, rel)
    return worst


ORACLES = {
    "recursive-batch": recursive_batch_max_error,
}
