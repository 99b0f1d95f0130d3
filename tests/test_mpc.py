"""Tests for the condensed receding-horizon controller."""

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
from koopman_adapt.mpc import (
    CondensedMpc,
    MpcConfig,
    build_prediction_matrices,
    mpc_gain_limit,
)
from koopman_adapt.observables import (
    dictionary_from_functions,
    identity_dictionary,
)


def scalar_model(k=0.5, b=1.0):
    d = identity_dictionary(1)
    return KoopmanModel(np.array([[k]]), np.array([[b]]), d)


def random_model(seed=0, n=3, p=2, radius=0.8):
    d = identity_dictionary(n)
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
    d = dictionary_from_functions(n, funcs)
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
    bounded-variable least squares."""
    f0 = solver.F @ psi0 - w_window.T.ravel()
    grad0 = 2.0 * (solver.GtQ @ f0)
    L = np.linalg.cholesky(solver.hessian)
    H, p = solver.cfg.horizon, solver.model.p
    lo = np.tile(solver.cfg.u_min, H)
    hi = np.tile(solver.cfg.u_max, H)
    U = lsq_linear(L.T, -np.linalg.solve(L, grad0), bounds=(lo, hi),
                   method="bvls", tol=1e-15).x
    return U.reshape(H, p).T, grad0, lo, hi


def dare_gain(a, b, q, r, tol=1e-14):
    """Scalar discrete Riccati fixed point and its LQR gain."""
    p_cur = q
    for _ in range(100000):
        p_next = q + a * p_cur * a - (a * p_cur * b) ** 2 / (r + b * p_cur * b)
        if abs(p_next - p_cur) < tol:
            break
        p_cur = p_next
    return a * p_cur * b / (r + b * p_cur * b)


class TestPredictionMatrices:
    def test_h1(self):
        model = random_model(seed=1)
        S_psi, S_u = build_prediction_matrices(model, 1)
        np.testing.assert_array_equal(S_psi, model.K)
        np.testing.assert_array_equal(S_u, model.B)

    def test_nilpotent_k(self):
        d = identity_dictionary(2)
        model = KoopmanModel(np.zeros((2, 2)), np.eye(2), d)
        S_psi, S_u = build_prediction_matrices(model, 3)
        np.testing.assert_array_equal(S_psi[2:], np.zeros((4, 2)))
        np.testing.assert_array_equal(S_u[2:4, 0:2], np.zeros((2, 2)))
        np.testing.assert_array_equal(S_u[2:4, 2:4], np.eye(2))

    def test_scalar_toeplitz(self):
        model = scalar_model(k=0.5, b=1.0)
        _, S_u = build_prediction_matrices(model, 3)
        np.testing.assert_allclose(
            S_u, [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.25, 0.5, 1.0]])

    @hypothesis.settings(max_examples=80, deadline=None)
    @given(**problems)
    def test_condensation_equals_block_assembly(self, seed, n, extra, p,
                                                horizon):
        """The lag-indexed S_u and the Kronecker weights give the same bits
        as the double loop and the block-by-block diagonal assembly."""
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
        S_psi, S_u = build_prediction_matrices(model, 6)
        F, G = stacked_map_by_simulation(model, 6)
        n, N = model.dictionary.n, model.size
        rows = (np.arange(6)[:, None] * N + np.arange(n)[None, :]).ravel()
        np.testing.assert_allclose(S_psi[rows], F, atol=1e-12)
        np.testing.assert_allclose(S_u[rows], G, atol=1e-12)


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

    def test_projected_gradient_monotone(self):
        """The box QP's objective never rises from the clipped warm start
        to the converged plan."""
        rng = np.random.default_rng(7)
        model = random_model(seed=8)
        cfg = MpcConfig(horizon=6, Qy=np.eye(3), Ru=0.05 * np.eye(2),
                        u_min=[-0.1, -0.1], u_max=[0.1, 0.1],
                        max_pg_iters=300)
        solver = CondensedMpc(model, cfg)
        psi0 = rng.standard_normal(3)
        w = rng.standard_normal((3, 6))
        _, _, info = solver.solve(psi0, w, return_info=True)
        objs = info["pg_objectives"]
        assert len(objs) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        assert info["converged"]

    def test_ill_conditioned_hessian_raises(self):
        d = identity_dictionary(1)
        model = KoopmanModel(np.array([[0.5]]), np.array([[1.0, 0.0]]), d)
        cfg = MpcConfig(horizon=3, Qy=np.eye(1),
                        Ru=np.diag([1.0, 1e-14]))
        with pytest.raises(IllConditionedHessian):
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
        LinAlgError from inside the conditioning check."""
        model = scalar_model(k=K, b=B)
        cfg = MpcConfig(horizon=3, Qy=np.eye(1), Ru=np.eye(1))
        with pytest.raises(IllConditionedHessian):
            CondensedMpc(model, cfg)

    @pytest.mark.parametrize("bounds", [
        {"u_max": [10.0, 10.0]},
        {"u_min": [-10.0, -10.0]},
        {"u_min": [-1.0, -2.0], "u_max": [1.0, 2.0]},
    ])
    def test_bounds_need_one_entry_per_input(self, bounds):
        model = scalar_model()
        cfg = MpcConfig(horizon=3, Qy=np.eye(1), Ru=np.eye(1), **bounds)
        with pytest.raises(DimensionMismatch):
            CondensedMpc(model, cfg)

    def test_bounds_of_different_lengths_rejected(self):
        with pytest.raises(ValueError):
            MpcConfig(horizon=3, Qy=np.eye(1), Ru=np.eye(1),
                      u_min=[1.0, 2.0], u_max=[3.0])


class TestBoxQp:
    @hypothesis.settings(max_examples=80, deadline=None)
    @given(**problems, lo_frac=st.floats(0.05, 0.9),
           hi_frac=st.floats(0.05, 0.9))
    def test_binding_plan_matches_bvls(self, seed, n, extra, p, horizon,
                                       lo_frac, hi_frac):
        """Bounds that cut every channel's unconstrained plan: the plan is
        feasible, satisfies the KKT conditions and equals BVLS."""
        model, cfg = random_problem(seed, n, extra, p, horizon)
        rng = np.random.default_rng([seed, 1])  # not the model's stream
        psi0 = rng.standard_normal(model.size)
        w = rng.standard_normal((n, horizon))
        _, free_plan = CondensedMpc(model, cfg).solve(psi0, w)
        reach = np.abs(free_plan).max(axis=1)
        hypothesis.assume(reach.min() > 1e-6)
        cfg = dataclasses.replace(cfg, u_min=-lo_frac * reach,
                                  u_max=hi_frac * reach)
        solver = CondensedMpc(model, cfg)
        _, plan, info = solver.solve(psi0, w, return_info=True)
        ref, grad0, lo, hi = bvls_plan(solver, psi0, w)
        U = plan.T.ravel()
        assert info["converged"] and info["pg_iterations"] >= 1
        assert (lo <= U).all() and (U <= hi).all()
        grad = solver.hessian @ U + grad0
        tol = 1e-7 * max(1.0, np.abs(grad0).max())
        free = (lo < U) & (U < hi)
        assert np.abs(grad[free]).max(initial=0.0) <= tol
        assert (grad[U == lo] >= -tol).all()
        assert (grad[U == hi] <= tol).all()
        np.testing.assert_allclose(plan, ref, rtol=0,
                                   atol=1e-9 * max(1.0, reach.max()))

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
