"""Tests for the condensed receding-horizon controller."""

import copy
import dataclasses

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

from koopman_adapt import harness, mpc
from koopman_adapt.config import assemble, loads
from koopman_adapt.edmd import KoopmanModel
from koopman_adapt.errors import DimensionMismatch, IllConditionedHessian
from koopman_adapt.mpc import CondensedMpc, MpcConfig
from koopman_adapt.observables import ObservableDictionary
from koopman_adapt.oracles import mpc_gain_limit

from conftest import FunctionDictionary, no_runtime_warnings


def scalar_model(k=0.5, b=1.0):
    d = ObservableDictionary(1, "identity")
    return KoopmanModel(np.array([[k]]), np.array([[b]]), d)


def random_model(seed=0, n=3, p=2, radius=0.8):
    d = ObservableDictionary(n, "identity")
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((n, n))
    K *= radius / max(np.abs(np.linalg.eigvals(K)))
    B = rng.standard_normal((n, p))
    return KoopmanModel(K, B, d)


def stacked_map_by_simulation(model, horizon):
    """Independent assembly of the prediction map by unit-impulse rollouts."""
    N, p = model.size, model.p
    n = model.dictionary.n
    def project_traj(psi0, U):
        psi = psi0.copy()
        out = []
        for k in range(horizon):
            psi = model.K @ psi + model.B @ U[:, k]
            out.append(psi[:n].copy())
        return np.concatenate(out)
    F = np.column_stack([
        project_traj(np.eye(N)[:, i], np.zeros((p, horizon)))
        for i in range(N)])
    G = np.column_stack([
        project_traj(np.zeros(N), np.eye(p * horizon)[:, j].reshape(horizon, p).T)
        for j in range(p * horizon)])
    return F, G


def lstsq_mpc_oracle(model, cfg, psi0, w_window):
    """Weighted least-squares solution of the stacked tracking problem,
    assembled by simulation and solved with lstsq."""
    H = cfg.horizon
    n = model.dictionary.n
    p = model.p
    F, G = stacked_map_by_simulation(model, H)
    sq = []
    for i in range(H):
        scale = cfg.terminal_weight if i == H - 1 else 1.0
        sq.append(np.sqrt(scale * np.diag(cfg.Qy)))
    sqw = np.concatenate(sq)
    Ru_half = np.linalg.cholesky(np.kron(np.eye(H), cfg.Ru)).T
    A = np.vstack([sqw[:, None] * G, Ru_half])
    b = np.concatenate([sqw * (w_window.T.ravel() - F @ psi0),
                        np.zeros(H * p)])
    U, *_ = np.linalg.lstsq(A, b, rcond=None)
    return U.reshape(H, p).T


def build_prediction_matrices(model, horizon):
    """Reference (S_psi, S_u) with every lifted row: S_psi stacks the
    powers K^i, S_u places the impulse responses K^i B through the lag
    index. The library places only the projected rows of the same
    products."""
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


def from_scratch_condensation(model, cfg):
    """Reference (F, G, GtQ, hessian, law, lo, hi) built from nothing but
    the model and the config: the full prediction maps, their projected
    rows, the Kronecker weights and the tiled bounds, as one monolithic
    construction."""
    H, N, n = cfg.horizon, model.size, model.dictionary.n
    S_psi, S_u = build_prediction_matrices(model, H)
    rows = (np.arange(H)[:, None] * N + np.arange(n)[None, :]).ravel()
    F, G = S_psi[rows], S_u[rows]
    weights = np.ones(H)
    weights[-1] = cfg.terminal_weight
    GtQ = G.T @ np.kron(np.diag(weights), cfg.Qy)
    hessian = 2.0 * (GtQ @ G + np.kron(np.eye(H), cfg.Ru))
    law = np.linalg.solve(hessian, 2.0 * GtQ)
    lo, hi = np.tile(cfg.u_min, H), np.tile(cfg.u_max, H)
    return F, G, GtQ, hessian, law, lo, hi


def double_loop_prediction_matrices(model, horizon):
    """Reference assembly of (S_psi, S_u): one product K^{i-1-j} B per
    block, filled by a double loop over block rows and columns."""
    N, p = model.size, model.p
    powers = [np.eye(N)]
    for _ in range(horizon):
        powers.append(model.K @ powers[-1])
    S_u = np.zeros((horizon * N, horizon * p))
    for i in range(1, horizon + 1):
        for j in range(i):
            S_u[(i - 1) * N: i * N, j * p: (j + 1) * p] = (
                powers[i - 1 - j] @ model.B)
    return np.vstack(powers[1:]), S_u


def block_diag(blocks):
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r: r + b.shape[0], c: c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def block_diag_condensation(model, cfg):
    """Reference (F, G, GtQ, hessian) with the weights assembled block by
    block on the diagonal."""
    H, N, n = cfg.horizon, model.size, model.dictionary.n
    S_psi, S_u = double_loop_prediction_matrices(model, H)
    rows = (np.arange(H)[:, None] * N + np.arange(n)[None, :]).ravel()
    F, G = S_psi[rows], S_u[rows]
    Qbar = block_diag([cfg.Qy] * (H - 1) + [cfg.terminal_weight * cfg.Qy])
    GtQ = G.T @ Qbar
    return F, G, GtQ, 2.0 * (GtQ @ G + block_diag([cfg.Ru] * H))


def column_loop_gain(model, cfg):
    """Reference feedback gain: one unconstrained solve per unit state."""
    solver = CondensedMpc(model, cfg)
    N = model.size
    w_zero = np.zeros((model.dictionary.n, cfg.horizon))
    gain = np.empty((model.p, N))
    for i in range(N):
        u0, _ = solver.solve(np.eye(N)[i], w_zero)
        gain[:, i] = -u0
    return gain


def random_problem(seed, n, extra, p, horizon):
    """A lifted model of size N = n + extra, a general (non-diagonal) Qy
    and Ru, and a terminal weight."""
    rng = np.random.default_rng(seed)
    funcs = [lambda x, i=i: x[i] for i in range(n)]
    funcs += [lambda x, k=k: np.tanh((k + 1) * x[0]) for k in range(extra)]
    d = FunctionDictionary(n, funcs)
    N = d.size
    K = rng.standard_normal((N, N))
    K *= rng.uniform(0.3, 1.1) / max(np.abs(np.linalg.eigvals(K)).max(),
                                     1e-9)
    model = KoopmanModel(K, rng.standard_normal((N, p)), d)
    A = rng.standard_normal((n, n))
    R = rng.standard_normal((p, p))
    cfg = MpcConfig(horizon=horizon, Qy=A @ A.T + 0.1 * np.eye(n),
                    Ru=R @ R.T + 0.05 * np.eye(p),
                    terminal_weight=rng.uniform(0.5, 6.0))
    return model, cfg


problems = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
                extra=st.integers(0, 4), p=st.integers(1, 3),
                horizon=st.integers(1, 25))


def bvls_plan(solver, psi0, w_window):
    """Reference box-constrained plan: with hessian = L L^T, the condensed
    objective is 1/2 |L^T U + L^-1 g|^2 plus a constant, solved by scipy's
    bounded-variable least squares over the box the solver tiles (an
    unbounded side is infinite). Entries whose box is a point, which BVLS
    refuses, are held at it and the rest solved with them held."""
    f0 = solver.F @ psi0 - w_window.T.ravel()
    grad0 = 2.0 * (solver.GtQ @ f0)
    H, p = solver.cfg.horizon, solver.model.p
    lo, hi = solver.cfg.lo, solver.cfg.hi
    point = lo == hi
    U = lo.copy()
    if not point.all():
        rest = ~point
        hess = solver.hessian[np.ix_(rest, rest)]
        g = grad0[rest] + solver.hessian[np.ix_(rest, point)] @ lo[point]
        L = np.linalg.cholesky(hess)
        # BVLS stops after as many iterations as unknowns by default and
        # then returns a point short of the optimum (status 0)
        res = lsq_linear(L.T, -np.linalg.solve(L, g),
                         bounds=(lo[rest], hi[rest]), method="bvls",
                         tol=1e-15, max_iter=1000)
        assert res.status > 0, res.message
        U[rest] = res.x
    return U.reshape(H, p).T, grad0, lo, hi


def assert_box_optimum(solver, psi0, w_window, plan, info, scale):
    """A binding solve's plan is feasible, satisfies the KKT conditions and
    equals BVLS to within 1e-9 of scale."""
    ref, grad0, lo, hi = bvls_plan(solver, psi0, w_window)
    U = plan.T.ravel()
    assert info["converged"] and info["pg_iterations"] >= 1
    assert (lo <= U).all() and (U <= hi).all()
    grad = solver.hessian @ U + grad0
    tol = 1e-7 * max(1.0, np.abs(grad0).max())
    free = (lo < U) & (U < hi)
    assert np.abs(grad[free]).max(initial=0.0) <= tol
    assert (grad[(U == lo) & (lo < hi)] >= -tol).all()
    assert (grad[(U == hi) & (lo < hi)] <= tol).all()
    np.testing.assert_allclose(plan, ref, rtol=0, atol=1e-9 * max(1.0, scale))


def dare_gain(a, b, q, r, tol=1e-14):
    """Scalar discrete Riccati fixed point and its LQR gain."""
    p_cur = q
    for _ in range(100000):
        p_next = q + a * p_cur * a - (a * p_cur * b) ** 2 / (r + b * p_cur * b)
        if abs(p_next - p_cur) < tol:
            break
        p_cur = p_next
    return a * p_cur * b / (r + b * p_cur * b)


def condensed(model, horizon):
    """The controller's projected prediction maps (F, G) at unit weights."""
    n, p = model.dictionary.n, model.p
    solver = CondensedMpc(model, MpcConfig(horizon=horizon, Qy=np.eye(n),
                                           Ru=np.eye(p)))
    return solver.F, solver.G


class TestPredictionMatrices:
    def test_h1(self):
        model = random_model(seed=1)
        F, G = condensed(model, 1)
        np.testing.assert_array_equal(F, model.K)
        np.testing.assert_array_equal(G, model.B)

    def test_nilpotent_k(self):
        d = ObservableDictionary(2, "identity")
        model = KoopmanModel(np.zeros((2, 2)), np.eye(2), d)
        F, G = condensed(model, 3)
        np.testing.assert_array_equal(F[2:], np.zeros((4, 2)))
        np.testing.assert_array_equal(G[2:4, 0:2], np.zeros((2, 2)))
        np.testing.assert_array_equal(G[2:4, 2:4], np.eye(2))

    def test_scalar_toeplitz(self):
        model = scalar_model(k=0.5, b=1.0)
        _, G = condensed(model, 3)
        np.testing.assert_allclose(
            G, [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.25, 0.5, 1.0]])

    @hypothesis.settings(max_examples=80, deadline=None)
    @given(**problems)
    def test_condensation_equals_block_assembly(self, seed, n, extra, p,
                                                horizon):
        """The lag-placed projected rows and the Kronecker weights give the
        same bits as the double loop and the block-by-block diagonal
        assembly."""
        model, cfg = random_problem(seed, n, extra, p, horizon)
        S_psi, S_u = build_prediction_matrices(model, horizon)
        S_psi_ref, S_u_ref = double_loop_prediction_matrices(model, horizon)
        np.testing.assert_array_equal(S_psi, S_psi_ref)
        np.testing.assert_array_equal(S_u, S_u_ref)
        solver = CondensedMpc(model, cfg)
        F, G, GtQ, hessian = block_diag_condensation(model, cfg)
        np.testing.assert_array_equal(solver.F, F)
        np.testing.assert_array_equal(solver.G, G)
        np.testing.assert_array_equal(solver.GtQ, GtQ)
        np.testing.assert_array_equal(solver.hessian, hessian)

    def test_matches_simulation(self):
        model = random_model(seed=4)
        F, G = condensed(model, 6)
        F_sim, G_sim = stacked_map_by_simulation(model, 6)
        np.testing.assert_allclose(F, F_sim, atol=1e-12)
        np.testing.assert_allclose(G, G_sim, atol=1e-12)


class TestConfigStructure:
    @hypothesis.settings(max_examples=80, deadline=None)
    @given(**problems, side=st.sampled_from(["none", "lower", "upper",
                                             "both"]))
    def test_shared_structure_equals_from_scratch_build(self, seed, n, extra,
                                                        p, horizon, side):
        """A controller built on a config whose structure another model
        already built equals the monolithic from-scratch construction, bit
        for bit: dense Qy, terminal weight != 1, one- and two-sided bounds."""
        model, cfg = random_problem(seed, n, extra, p, horizon)
        bounds = {"lower": {"u_min": -np.ones(p)},
                  "upper": {"u_max": np.ones(p)},
                  "both": {"u_min": -np.ones(p), "u_max": np.ones(p)},
                  "none": {}}[side]
        cfg = dataclasses.replace(cfg, **bounds)
        other, _ = random_problem(seed + 1, n, extra, p, horizon)
        CondensedMpc(KoopmanModel(other.K, other.B, model.dictionary), cfg)
        solver = CondensedMpc(model, cfg)
        F, G, GtQ, hessian, law, lo, hi = from_scratch_condensation(model,
                                                                    cfg)
        np.testing.assert_array_equal(solver.F, F)
        np.testing.assert_array_equal(solver.G, G)
        np.testing.assert_array_equal(solver.GtQ, GtQ)
        np.testing.assert_array_equal(solver.hessian, hessian)
        np.testing.assert_array_equal(solver._law, law)
        np.testing.assert_array_equal(cfg.lo, lo)
        np.testing.assert_array_equal(cfg.hi, hi)

    def test_second_model_skips_the_config_work(self, monkeypatch):
        """The config builds its Kronecker weights and lag index once; two
        controller builds on it, a model swap among them, build neither
        and read the config's own weights."""
        calls = {"kron": 0, "outer": 0}
        kron, subtract = np.kron, np.subtract

        def counting_kron(*args):
            calls["kron"] += 1
            return kron(*args)

        class CountingSubtract:  # np.subtract, its outer calls counted
            def __call__(self, *args, **kw):
                return subtract(*args, **kw)

            def __getattr__(self, name):
                return getattr(subtract, name)

            def outer(self, *args):
                calls["outer"] += 1
                return subtract.outer(*args)

        monkeypatch.setattr(np, "kron", counting_kron)
        monkeypatch.setattr(np, "subtract", CountingSubtract())
        cfg = MpcConfig(horizon=6, Qy=np.eye(3), Ru=np.eye(2),
                        terminal_weight=3.0, u_max=[1.0, 1.0])
        assert calls == {"kron": 2, "outer": 1}
        Qbar = cfg.Qbar
        calls.update(kron=0, outer=0)
        for seed in (1, 2):
            solver = CondensedMpc(random_model(seed=seed), cfg)
            np.testing.assert_array_equal(solver.GtQ, solver.G.T @ Qbar)
        assert calls == {"kron": 0, "outer": 0}
        assert cfg.Qbar is Qbar

    def test_replaced_horizon_resizes_the_arrays(self):
        """dataclasses.replace builds the new horizon's arrays, not the old
        config's."""
        cfg = MpcConfig(horizon=3, Qy=np.eye(2), Ru=np.eye(1),
                        terminal_weight=2.0, u_min=[-1.0])
        longer = dataclasses.replace(cfg, horizon=7)
        assert cfg.Qbar.shape == (6, 6) and longer.Qbar.shape == (14, 14)
        assert longer.Rbar.shape == longer.lag.shape == (7, 7)
        assert longer.lo.shape == longer.hi.shape == longer.shift.shape == (7,)
        assert longer.Qbar[-1, -1] == 2.0 and longer.lag[0, -1] == 7
        np.testing.assert_array_equal(longer.lo, -np.ones(7))
        np.testing.assert_array_equal(longer.shift, [1, 2, 3, 4, 5, 6, 6])

    def test_hessian_test_skips_eigvalsh_when_the_bound_settles_it(
            self, monkeypatch):
        """With Qy >= 0 the Hessian's condition is at most trace(H) / (2 min
        eig Ru): a build whose bound is under the limit runs no
        eigendecomposition. An indefinite Qy, or an Ru whose bound exceeds
        the limit, runs one and still raises."""
        calls = []

        def counting(a, _fn=np.linalg.eigvalsh):
            calls.append(a.shape)
            return _fn(a)

        d = ObservableDictionary(1, "identity")
        two_inputs = KoopmanModel(np.array([[0.5]]), np.array([[1.0, 0.0]]),
                                  d)
        cases = [
            (random_model(seed=1), MpcConfig(
                horizon=6, Qy=np.diag([1.0, 0.0, 2.0]), Ru=np.eye(2),
                u_max=[1.0, 1.0]), None),
            (scalar_model(), MpcConfig(horizon=3, Qy=-np.eye(1),
                                       Ru=0.01 * np.eye(1)), 3),
            (two_inputs, MpcConfig(horizon=3, Qy=np.eye(1),
                                   Ru=np.diag([1.0, 1e-14])), 6)]
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for model, cfg, eig_size in cases:
            calls.clear()
            if eig_size is None:
                CondensedMpc(model, cfg)
                assert calls == []
            else:
                with pytest.raises(IllConditionedHessian,
                                   match="positive definite"):
                    CondensedMpc(model, cfg)
                assert calls == [(eig_size, eig_size)]

    def test_config_compares_and_hashes_by_identity(self):
        """Array fields have no truth value, so a generated __eq__ raised
        ValueError and __hash__ TypeError: a config equals only itself."""
        cfg = MpcConfig(3, np.eye(1), np.eye(1))
        assert cfg == cfg and hash(cfg) == hash(cfg)
        assert cfg != dataclasses.replace(cfg)
        assert len({cfg, dataclasses.replace(cfg)}) == 2
        assert harness.default_config().mpc != harness.default_config().mpc

    def test_config_is_immutable(self):
        """The shared structure cannot go stale: the config and its arrays
        are read-only."""
        Qy = np.eye(2)
        cfg = MpcConfig(horizon=3, Qy=Qy, Ru=np.eye(1), u_min=[-1.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.terminal_weight = 2.0
        for a in (cfg.Qy, cfg.Ru, cfg.u_min):
            with pytest.raises(ValueError):
                a[0] = 5.0
        Qy[0, 0] = 7.0  # the caller's array is copied, not frozen
        assert cfg.Qy[0, 0] == 1.0


class TestSolve:
    def test_zero_reference_zero_state(self):
        model = random_model(seed=2)
        cfg = MpcConfig(horizon=5, Qy=np.eye(3), Ru=0.1 * np.eye(2))
        u0, plan = CondensedMpc(model, cfg).solve(np.zeros(3),
                                                  np.zeros((3, 5)))
        np.testing.assert_allclose(plan, np.zeros((2, 5)), atol=1e-14)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(10)
        model = random_model(seed=3)
        cfg = MpcConfig(horizon=7, Qy=np.diag([2.0, 1.0, 0.5]),
                        Ru=np.diag([0.2, 0.3]), terminal_weight=4.0)
        for _ in range(5):
            psi0 = rng.standard_normal(3)
            w = rng.standard_normal((3, 7))
            _, plan = CondensedMpc(model, cfg).solve(psi0, w)
            oracle = lstsq_mpc_oracle(model, cfg, psi0, w)
            assert np.max(np.abs(plan - oracle)) < 1e-8

    def test_active_bound_clipped_scalar(self):
        """Reference demanding u* about 5 saturates at u_max = 1."""
        model = scalar_model(k=0.0, b=1.0)
        cfg_free = MpcConfig(horizon=1, Qy=np.eye(1), Ru=1e-8 * np.eye(1))
        w = np.array([[5.0]])
        u_free, _ = CondensedMpc(model, cfg_free).solve(np.zeros(1), w)
        assert u_free[0] == pytest.approx(5.0, rel=1e-6)
        cfg_box = MpcConfig(horizon=1, Qy=np.eye(1), Ru=1e-8 * np.eye(1),
                            u_min=[-1.0], u_max=[1.0])
        u_box, _ = CondensedMpc(model, cfg_box).solve(np.zeros(1), w)
        assert u_box[0] == 1.0
        # grid-search oracle over the admissible interval
        grid = np.linspace(-1.0, 1.0, 2001)
        cost = (grid * 1.0 - 5.0) ** 2 + 1e-8 * grid ** 2
        assert abs(grid[np.argmin(cost)] - u_box[0]) < 1e-3

    def test_constraints_satisfied_exactly(self):
        rng = np.random.default_rng(5)
        model = random_model(seed=6)
        cfg = MpcConfig(horizon=8, Qy=np.eye(3), Ru=0.01 * np.eye(2),
                        u_min=[-0.3, -0.2], u_max=[0.3, 0.2])
        for _ in range(5):
            psi0 = 3 * rng.standard_normal(3)
            w = rng.standard_normal((3, 8))
            _, plan = CondensedMpc(model, cfg).solve(psi0, w)
            assert (plan >= cfg.u_min[:, None]).all()
            assert (plan <= cfg.u_max[:, None]).all()

    def test_box_plan_beats_clipped_plan(self):
        """The box QP returns a feasible plan whose objective is no higher
        than that of the clipped unconstrained plan, its warm start, and
        reports only its iteration count and convergence."""
        rng = np.random.default_rng(7)
        model = random_model(seed=8)
        cfg = MpcConfig(horizon=6, Qy=np.eye(3), Ru=0.05 * np.eye(2),
                        u_min=[-0.1, -0.1], u_max=[0.1, 0.1],
                        max_pg_iters=300)
        solver = CondensedMpc(model, cfg)
        psi0 = rng.standard_normal(3)
        w = rng.standard_normal((3, 6))
        _, plan, info = solver.solve(psi0, w, return_info=True)
        hess = solver.hessian
        grad = 2.0 * solver.GtQ @ (solver.F @ psi0 - w.T.ravel())

        def objective(U):
            return 0.5 * U @ hess @ U + grad @ U

        U = plan.T.ravel()
        lo, hi = cfg.lo, cfg.hi
        assert ((lo <= U) & (U <= hi)).all()
        clipped = np.linalg.solve(hess, -grad).clip(lo, hi)
        assert objective(U) <= objective(clipped) + 1e-12
        assert set(info) == {"pg_iterations", "converged"}
        assert info["converged"] and info["pg_iterations"] >= 1

    def test_all_infinite_box_is_unconstrained(self):
        """Bounds at -inf/+inf on every channel are the omitted bounds: the
        config is unconstrained and solves as the config without bounds,
        bit for bit and without an active-set iteration."""
        rng = np.random.default_rng(11)
        model = random_model(seed=12)
        free = MpcConfig(horizon=6, Qy=np.eye(3), Ru=0.01 * np.eye(2))
        box = MpcConfig(horizon=6, Qy=np.eye(3), Ru=0.01 * np.eye(2),
                        u_min=[-np.inf] * 2, u_max=[np.inf] * 2)
        assert not free.constrained and not box.constrained
        np.testing.assert_array_equal(free.u_min, box.u_min)
        np.testing.assert_array_equal(free.u_max, box.u_max)
        for _ in range(5):
            psi0, w = 10 * rng.standard_normal(3), rng.standard_normal((3, 6))
            u0, plan, info = CondensedMpc(model, box).solve(
                psi0, w, return_info=True)
            u0_free, plan_free = CondensedMpc(model, free).solve(psi0, w)
            np.testing.assert_array_equal(u0, u0_free)
            np.testing.assert_array_equal(plan, plan_free)
            assert info == {"pg_iterations": 0, "converged": True}

    @pytest.mark.parametrize("weights", [
        {"Qy": [[1.0, 2.0], [0.0, 1.0]], "Ru": [[1.0]]},
        {"Qy": np.eye(2), "Ru": [[1.0, 0.5], [0.0, 1.0]]},
    ])
    def test_asymmetric_weights_rejected(self, weights):
        """The condensed Hessian 2 (G'Qbar G + Rbar) is the stated cost's
        only for symmetric weights, so a plan built from Qy = [[1, 2],
        [0, 1]] does not minimize that cost; the config refuses weights
        that are not exactly symmetric."""
        with pytest.raises(ValueError, match="symmetric"):
            MpcConfig(horizon=4, **weights)

    def test_ill_conditioned_hessian_raises(self):
        d = ObservableDictionary(1, "identity")
        model = KoopmanModel(np.array([[0.5]]), np.array([[1.0, 0.0]]), d)
        cfg = MpcConfig(horizon=3, Qy=np.eye(1),
                        Ru=np.diag([1.0, 1e-14]))
        with pytest.raises(IllConditionedHessian, match=r"positive definite "
                           r"with condition <= 1\.0e\+12"):
            CondensedMpc(model, cfg)


    def test_indefinite_hessian_raises(self):
        """A negative tracking weight gives a non-convex problem."""
        cfg = MpcConfig(horizon=3, Qy=-np.eye(1), Ru=0.01 * np.eye(1))
        with pytest.raises(IllConditionedHessian, match="positive definite"):
            CondensedMpc(scalar_model(), cfg)

    @pytest.mark.parametrize("K, B", [(1e200, 1.0), (1e120, 1e100),
                                      (0.5, 1e200)])
    def test_overflowing_model_raises(self, K, B):
        """An overflow over the horizon is a numerical error, not a
        LinAlgError from inside the conditioning check or overflow
        warnings."""
        model = scalar_model(k=K, b=B)
        cfg = MpcConfig(horizon=3, Qy=np.eye(1), Ru=np.eye(1))
        with no_runtime_warnings(), pytest.raises(IllConditionedHessian):
            CondensedMpc(model, cfg)

    @pytest.mark.parametrize("bounds", [
        {"u_max": [10.0, 10.0]},
        {"u_min": [-10.0, -10.0]},
        {"u_min": [-1.0, -2.0], "u_max": [1.0, 2.0]},
    ])
    def test_bounds_need_one_entry_per_input(self, bounds):
        """The config refuses bounds of another length than Ru's; a config
        that holds together but has another p than the model is refused
        when a controller is built for that model."""
        with pytest.raises(ValueError, match="one per input"):
            MpcConfig(horizon=3, Qy=np.eye(1), Ru=np.eye(1), **bounds)
        cfg = MpcConfig(horizon=3, Qy=np.eye(1), Ru=np.eye(2), **bounds)
        with pytest.raises(DimensionMismatch, match=r"\(1, 1\)"):
            CondensedMpc(scalar_model(), cfg)

    @pytest.mark.parametrize("bounds", [
        {"u_min": [np.inf]}, {"u_max": [-np.inf]},
        {"u_min": [np.inf], "u_max": [np.inf]},
        {"u_min": [-np.inf], "u_max": [-np.inf]},
        {"u_min": [-1.0, np.inf], "u_max": [1.0, np.inf]},
    ])
    def test_bound_at_the_wrong_infinity_rejected(self, bounds):
        """A lower bound of +inf or an upper bound of -inf leaves no input
        (every plan would be infinite); the other infinities mean none."""
        with pytest.raises(ValueError, match="must not be NaN or"):
            MpcConfig(horizon=3, Qy=np.eye(1), Ru=np.eye(1), **bounds)
        MpcConfig(horizon=3, Qy=np.eye(1), Ru=np.eye(1),
                  u_min=[-np.inf], u_max=[np.inf])

    def test_bounds_of_different_lengths_rejected(self):
        with pytest.raises(ValueError):
            MpcConfig(horizon=3, Qy=np.eye(1), Ru=np.eye(1),
                      u_min=[1.0, 2.0], u_max=[3.0])

    @pytest.mark.parametrize("horizon", [2.5, True])
    def test_non_integer_horizon_rejected(self, horizon):
        """A float horizon failed only when the structure was built, with
        a TypeError, and True passed for 1."""
        with pytest.raises(ValueError, match="horizon must be an integer"):
            MpcConfig(horizon=horizon, Qy=np.eye(1), Ru=np.eye(1))

    @pytest.mark.parametrize("qy", [np.nan, np.inf])
    def test_non_finite_tracking_weight_rejected(self, qy):
        """Not blamed on the model later, when a controller is built."""
        with pytest.raises(ValueError, match="Qy must be finite"):
            MpcConfig(horizon=3, Qy=[[qy]], Ru=np.eye(1))


class TestBoxQp:
    @hypothesis.settings(max_examples=80, deadline=None)
    @given(**problems, lo_frac=st.floats(0.05, 0.9),
           hi_frac=st.floats(0.05, 0.9),
           sides=st.lists(st.sampled_from(["both", "lower", "upper",
                                           "point"]), min_size=3, max_size=3))
    def test_binding_plan_matches_bvls(self, seed, n, extra, p, horizon,
                                       lo_frac, hi_frac, sides):
        """Bounds that cut the unconstrained plan, per channel on both
        sides, on the lower or the upper side alone (the other infinite),
        or to a point: the plan is feasible, satisfies the KKT conditions
        and equals BVLS, and a point box's entries equal its bound
        exactly."""
        model, cfg = random_problem(seed, n, extra, p, horizon)
        rng = np.random.default_rng([seed, 1])  # not the model's stream
        psi0 = rng.standard_normal(model.size)
        w = rng.standard_normal((n, horizon))
        _, free_plan = CondensedMpc(model, cfg).solve(psi0, w)
        reach = np.abs(free_plan).max(axis=1)
        hypothesis.assume(reach.min() > 1e-6)
        sides = np.array(sides[:p])
        u_min = np.where(sides == "upper", -np.inf, -lo_frac * reach)
        u_max = np.where(sides == "lower", np.inf, hi_frac * reach)
        point = sides == "point"
        u_min[point] = u_max[point] = (hi_frac - lo_frac) / 2 * reach[point]
        hypothesis.assume(((free_plan.T < u_min) | (free_plan.T > u_max))
                          .any())
        cfg = dataclasses.replace(cfg, u_min=u_min, u_max=u_max)
        solver = CondensedMpc(model, cfg)
        _, plan, info = solver.solve(psi0, w, return_info=True)
        assert_box_optimum(solver, psi0, w, plan, info, reach.max())
        assert (plan[point] == u_min[point, None]).all()

    @hypothesis.settings(max_examples=60, deadline=None)
    @given(**problems, frac=st.floats(0.05, 0.9))
    def test_warm_started_plan_matches_bvls(self, seed, n, extra, p,
                                            horizon, frac):
        """Two binding solves in a row on one controller, the second one
        sample on (the lifted state moved by the first input, the reference
        window shifted), which starts from the first's working set: both
        plans are feasible, satisfy the KKT conditions and equal BVLS."""
        model, cfg = random_problem(seed, n, extra, p, horizon)
        rng = np.random.default_rng([seed, 1])  # not the model's stream
        psi0 = rng.standard_normal(model.size)
        w = rng.standard_normal((n, horizon + 1))
        _, free_plan = CondensedMpc(model, cfg).solve(psi0, w[:, :-1])
        reach = np.abs(free_plan).max(axis=1)
        hypothesis.assume(reach.min() > 1e-6)
        cfg = dataclasses.replace(cfg, u_min=-frac * reach,
                                  u_max=frac * reach)
        solver = CondensedMpc(model, cfg)
        u0, plan, info = solver.solve(psi0, w[:, :-1], return_info=True)
        assert_box_optimum(solver, psi0, w[:, :-1], plan, info, reach.max())
        assert solver._working is not None
        psi1 = model.K @ psi0 + model.B @ u0
        _, plan, info = solver.solve(psi1, w[:, 1:], return_info=True)
        hypothesis.assume(info["pg_iterations"] > 0)
        assert_box_optimum(solver, psi1, w[:, 1:], plan, info, reach.max())

    def test_capped_solve_is_feasible_and_not_converged(self):
        """A binding solve that needs several active-set iterations, capped
        at one, stops after it, says it did not converge, and still
        returns a plan inside the box."""
        model, cfg = random_problem(2, 2, 2, 2, 10)
        rng = np.random.default_rng([2, 1])  # not the model's stream
        psi0 = rng.standard_normal(model.size)
        w = rng.standard_normal((2, 10))
        _, free_plan = CondensedMpc(model, cfg).solve(psi0, w)
        reach = np.abs(free_plan).max(axis=1)
        cfg = dataclasses.replace(cfg, u_min=-0.3 * reach, u_max=0.3 * reach)
        _, _, info = CondensedMpc(model, cfg).solve(psi0, w, return_info=True)
        assert info == {"pg_iterations": 12, "converged": True}
        capped = dataclasses.replace(cfg, max_pg_iters=1)
        _, plan, info = CondensedMpc(model, capped).solve(psi0, w,
                                                          return_info=True)
        assert info == {"pg_iterations": 1, "converged": False}
        assert (-0.3 * reach[:, None] <= plan).all()
        assert (plan <= 0.3 * reach[:, None]).all()

    @hypothesis.settings(max_examples=40, deadline=None)
    @given(**problems)
    def test_interior_plan_is_the_unconstrained_plan(self, seed, n, extra,
                                                     p, horizon):
        """Bounds the unconstrained plan stays inside change nothing: same
        bits, no active-set iteration."""
        model, cfg = random_problem(seed, n, extra, p, horizon)
        rng = np.random.default_rng([seed, 1])  # not the model's stream
        psi0 = rng.standard_normal(model.size)
        w = rng.standard_normal((n, horizon))
        u0, free_plan = CondensedMpc(model, cfg).solve(psi0, w)
        reach = np.abs(free_plan).max(axis=1) + 1.0
        cfg = dataclasses.replace(cfg, u_min=-reach, u_max=reach)
        u0_box, plan, info = CondensedMpc(model, cfg).solve(
            psi0, w, return_info=True)
        np.testing.assert_array_equal(plan, free_plan)
        np.testing.assert_array_equal(u0_box, u0)
        assert info["pg_iterations"] == 0 and info["converged"]

    def test_saturating_workload_never_caps(self, perfbench, monkeypatch):
        """The benchmark's saturating scenario at seed 12345: some solves
        bind, none reaches max_pg_iters, and every binding plan equals
        BVLS."""
        workloads = perfbench("workloads")
        cfg = assemble(loads(workloads.config_text("saturating", 12345)))
        solves = []
        solve = mpc.CondensedMpc.solve

        def recording_solve(self, psi0, w_window, return_info=False):
            u0, plan, info = solve(self, psi0, w_window, return_info=True)
            if info["pg_iterations"]:
                solves.append((self, psi0.copy(), w_window.copy(), plan,
                               info))
            return (u0, plan, info) if return_info else (u0, plan)

        monkeypatch.setattr(mpc.CondensedMpc, "solve", recording_solve)
        result = harness.run_closed_loop(cfg)
        assert not result.aborted, result.reason
        assert solves, "the input bounds never bound"
        for solver, psi0, w, plan, info in solves:
            assert info["pg_iterations"] < cfg.mpc.max_pg_iters
            assert info["converged"]
            ref, *_ = bvls_plan(solver, psi0, w)
            np.testing.assert_allclose(plan, ref, rtol=0, atol=1e-9)


    def test_saturating_solves_same_without_info(self, perfbench,
                                                 monkeypatch):
        """Every binding solve of the saturating scenario at seed 12345
        gives the same bits whether or not it records its diagnostics. Each
        replays from a copy of its solver as it stood before the call, as a
        solve moves the working set the next one starts from."""
        workloads = perfbench("workloads")
        cfg = assemble(loads(workloads.config_text("saturating", 12345)))
        solves = []
        solve = mpc.CondensedMpc.solve

        def recording_solve(self, psi0, w_window, return_info=False):
            solves.append((copy.copy(self), psi0.copy(), w_window.copy()))
            out = solve(self, psi0, w_window, return_info)
            solves[-1] += out[:2]
            return out

        monkeypatch.setattr(mpc.CondensedMpc, "solve", recording_solve)
        harness.run_closed_loop(cfg)
        binding = 0
        for before, psi0, w, u0_run, plan_run in solves:
            u0, plan, info = solve(copy.copy(before), psi0, w,
                                   return_info=True)
            u0_bare, plan_bare = solve(copy.copy(before), psi0, w)
            binding += info["pg_iterations"] > 0
            for got in (u0_bare, u0_run):
                np.testing.assert_array_equal(got, u0)
            for got in (plan_bare, plan_run):
                np.testing.assert_array_equal(got, plan)
        assert binding > 100


class TestGainLimit:
    def test_expensive_input_gain_near_zero(self):
        model = scalar_model(k=0.9, b=1.0)
        cfg = MpcConfig(horizon=1, Qy=np.eye(1), Ru=1e9 * np.eye(1))
        G = mpc_gain_limit(model, cfg)
        assert abs(G[0, 0]) < 1e-8

    def test_matches_dare_gain(self):
        model = scalar_model(k=0.9, b=1.0)
        cfg = MpcConfig(horizon=200, Qy=np.eye(1), Ru=np.eye(1))
        G = mpc_gain_limit(model, cfg)
        g_star = dare_gain(0.9, 1.0, 1.0, 1.0)
        assert abs(G[0, 0] - g_star) / abs(g_star) < 1e-3

    @hypothesis.settings(max_examples=80, deadline=None)
    @given(**problems)
    def test_equals_column_by_column_solves(self, seed, n, extra, p,
                                            horizon):
        model, cfg = random_problem(seed, n, extra, p, horizon)
        gain = mpc_gain_limit(model, cfg)
        ref = column_loop_gain(model, cfg)
        assert gain.shape == ref.shape
        np.testing.assert_allclose(gain, ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())

    def test_solution_linear_in_state(self):
        rng = np.random.default_rng(9)
        model = random_model(seed=12)
        cfg = MpcConfig(horizon=5, Qy=np.eye(3), Ru=0.1 * np.eye(2))
        solver = CondensedMpc(model, cfg)
        w = np.zeros((3, 5))
        e = np.zeros(3)
        e[1] = 1.0
        u_unit, _ = solver.solve(e, w)
        u_scaled, _ = solver.solve(3.5 * e, w)
        np.testing.assert_allclose(u_scaled, 3.5 * u_unit, atol=1e-10)

    def test_rejects_constrained_config(self):
        model = scalar_model()
        cfg = MpcConfig(horizon=3, Qy=np.eye(1), Ru=np.eye(1), u_max=[1.0])
        with pytest.raises(ValueError):
            mpc_gain_limit(model, cfg)


class TestRecedingHorizonConsistency:
    def test_closed_loop_equals_gain_plus_feedforward(self):
        """For an LTI model and constant reference, repeated solves equal a
        fixed gain plus a constant feedforward."""
        model = random_model(seed=15, n=2, p=1)
        cfg = MpcConfig(horizon=12, Qy=np.eye(2), Ru=0.2 * np.eye(1))
        solver = CondensedMpc(model, cfg)
        w_const = np.array([0.4, -0.1])
        w_window = np.tile(w_const[:, None], (1, 12))
        G = mpc_gain_limit(model, cfg)
        u_ff, _ = solver.solve(np.zeros(2), w_window)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(2)
        for _ in range(10):
            u_mpc, _ = solver.solve(psi, w_window)
            u_affine = -G @ psi + u_ff
            np.testing.assert_allclose(u_mpc, u_affine, atol=1e-8)
            psi = model.K @ psi + model.B @ u_mpc
