"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured figure once its assertions hold.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import csv
import math
import time

import numpy as np
import pytest

from koopman_adapt.cli import cli_main
from koopman_adapt.edmd import (
    KoopmanModel,
    collect_snapshots,
    pinv_full_row_rank,
)
from koopman_adapt.harness import default_config, generate_training_data
from koopman_adapt.mpc import CondensedMpc, MpcConfig
from koopman_adapt.observables import identity_dictionary, trig_dictionary
from koopman_adapt.observer import KalmanState, kf_correct, kf_predict
from koopman_adapt.oracles import (
    mpc_gain_limit,
    recursive_batch_max_error,
    riccati_prior_fixed_point,
    woodbury,
)
from koopman_adapt.plants import PlantState, make_linear2nd, measure, step_plant
from koopman_adapt.redmd import (
    RecursiveEstimator,
    RedmdSettings,
    init_from_batch,
    variable_forgetting_factor,
)


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_1_recursive_batch_equivalence():
    t0 = time.perf_counter()
    err = recursive_batch_max_error(n_systems=20, seed=2024, n_extra=200)
    elapsed = time.perf_counter() - t0
    assert err < 1e-8
    assert elapsed < 5.0
    report(1, f"recursive-batch equivalence across 20 systems: "
              f"max rel Frobenius {err:.3e} (< 1e-8) in {elapsed:.2f} s")


def test_criterion_2_appendix_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_penrose = 0.0
    for _ in range(50):
        rows = int(rng.integers(1, 6))
        cols = rows + int(rng.integers(0, 5))
        A = rng.standard_normal((rows, cols))
        Ap = pinv_full_row_rank(A)
        na, npi = np.linalg.norm(A), np.linalg.norm(Ap)
        worst_penrose = max(
            worst_penrose,
            np.linalg.norm(A @ Ap @ A - A) / na,
            np.linalg.norm(Ap @ A @ Ap - Ap) / npi,
            np.linalg.norm((A @ Ap).T - A @ Ap) / max(1.0, na * npi),
            np.linalg.norm((Ap @ A).T - Ap @ A) / max(1.0, na * npi))
    worst_wood = 0.0
    for _ in range(100):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        A = rng.standard_normal((n, n)) + 4 * np.eye(n)
        C = rng.standard_normal((m, m)) + 4 * np.eye(m)
        B = rng.standard_normal((n, m))
        D = rng.standard_normal((m, n))
        direct = np.linalg.inv(np.linalg.inv(A) + B @ np.linalg.inv(C) @ D)
        worst_wood = max(worst_wood,
                         np.max(np.abs(woodbury(A, B, C, D) - direct)))
    elapsed = time.perf_counter() - t0
    assert worst_penrose < 1e-8
    assert worst_wood < 1e-10
    assert elapsed < 1.0
    report(2, f"Penrose residual {worst_penrose:.3e} (< 1e-8), inversion "
              f"lemma vs direct {worst_wood:.3e} (< 1e-10) in {elapsed:.2f} s")


def test_criterion_3_covariance_recursion_consistency():
    rng = np.random.default_rng(33)
    d = identity_dictionary(3)
    worst = 0.0
    for _ in range(100):
        A = rng.standard_normal((4, 4))
        gamma0 = A @ A.T + 0.5 * np.eye(4)
        settings = RedmdSettings(lambda0=1.0, adaptive_lambda=False, m_op=2)
        est = RecursiveEstimator(np.zeros((3, 4)), gamma0, d, settings)
        phi = rng.standard_normal(4)
        est.step(phi[:3], phi[3:], np.zeros(3))  # one warm-up update
        direct = np.linalg.inv(np.linalg.inv(gamma0) + np.outer(phi, phi))
        worst = max(worst, np.max(np.abs(est.Gamma - direct)))
    assert worst < 1e-10
    report(3, f"rank-one covariance downdate vs direct inversion on 100 "
              f"cases: max abs dev {worst:.3e} (< 1e-10)")


def test_criterion_4_forgetting_factor_tracking():
    d = identity_dictionary(1)
    worst_recovery = 0
    for seed in range(10):
        rng = np.random.default_rng([4, seed])
        settings = RedmdSettings(lambda0=0.95, adaptive_lambda=False,
                                 eps_low=0.0, eps_high=np.inf,
                                 trace_max_factor=np.inf, m_op=10)
        est = RecursiveEstimator(np.zeros((1, 2)), 100 * np.eye(2), d,
                                 settings)
        x = np.array([1.0])
        recovered_at = None
        for k in range(1000):
            k_true = 0.9 if k < 500 else 0.6
            u = rng.uniform(-1.0, 1.0, size=1)
            x_next = k_true * x + 0.2 * u
            pred = est.theta @ np.array([x[0], u[0]])
            err = abs(pred[0] - x_next[0])
            if k >= 500 and recovered_at is None and err < 1e-3:
                recovered_at = k - 500
            est.step(x, u, x_next)
            x = x_next
        assert recovered_at is not None and recovered_at <= 200, \
            f"seed {seed}: no recovery within 200 samples"
        worst_recovery = max(worst_recovery, recovered_at)
    report(4, f"prediction error < 1e-3 within {worst_recovery} samples of "
              f"the change (<= 200) on all 10 seeds")


def test_criterion_5_variable_lambda_contract():
    assert variable_forgetting_factor(2.7, 0.4, 0.0) == 1.0
    assert variable_forgetting_factor(1.0, 0.5, 1.0) == 0.5
    rng = np.random.default_rng(5)
    for _ in range(500):
        lam = variable_forgetting_factor(
            10 ** rng.uniform(-6, 2), rng.uniform(0, 1),
            rng.uniform(0, 100), lambda_min=0.9)
        assert 0.9 <= lam <= 1.0
    report(5, "zero error gives lambda exactly 1; hand case "
              "(Sigma0=1, phi_gamma=0.5, e=1) gives 0.5; clamp holds on "
              "500 random cases")


def test_criterion_6_constant_trace_bound():
    cfg = default_config()
    rng = np.random.default_rng(66)
    settings = RedmdSettings(lambda0=0.97, adaptive_lambda=False,
                             eps_low=1e-4, eps_high=np.inf,
                             trace_max_factor=2.0, m_op=50,
                             state_scales=(1.0, 5.0))
    est = init_from_batch(generate_training_data(cfg), cfg.dictionary,
                          settings)
    plant = cfg.plant
    state = PlantState(np.zeros(2))
    x_prev, u_prev = None, None
    hit_bound = False
    worst_excess = -math.inf
    for k in range(10_000):
        u = np.array([1.2 * math.sin(2 * math.pi * 0.6 * k * plant.dt)
                      + 0.3 * rng.standard_normal()])
        x_meas, _ = measure(plant, state.x, rng.standard_normal(3))
        if x_prev is not None:
            rep = est.step(x_prev, u_prev, x_meas)
            worst_excess = max(worst_excess, rep.trace_gamma - est.trace_max)
            hit_bound = hit_bound or rep.trace_gamma > 0.5 * est.trace_max
        x_prev, u_prev = x_meas, u
        state = step_plant(plant, state, u)
    assert worst_excess <= 1e-12
    assert hit_bound, "trace never came under pressure; test is vacuous"
    report(6, f"tr(Gamma) - bound max excess {worst_excess:.3e} "
              f"(<= 1e-12) over 10^4 steps with forgetting")


def test_criterion_7_gate_soundness():
    A = np.array([[0.9, 0.08], [-0.05, 0.85]])
    B = np.array([[0.0], [0.1]])
    d = identity_dictionary(2)
    rng = np.random.default_rng(77)
    # exact training data from the discrete generator
    x = rng.standard_normal(2)
    pairs = []
    for _ in range(300):
        u = rng.uniform(-1, 1, size=1)
        pairs.append((x.copy(), u.copy()))
        x = A @ x + B @ u
    pairs.append((x.copy(), np.zeros(1)))
    settings = RedmdSettings(m_op=50, eps_low=1e-12, eps_high=1e-6,
                             adaptive_lambda=False)
    est = init_from_batch(collect_snapshots(pairs), d, settings)
    updates_after_warmup = 0
    for k in range(1000):
        u = rng.uniform(-1, 1, size=1)
        x_next = A @ x + B @ u
        rep = est.step(x, u, x_next)
        if k >= settings.m_op and rep.updated:
            updates_after_warmup += 1
        x = x_next
    assert updates_after_warmup == 0
    report(7, "exact model: 0 updates after warm-up over 10^3 steps "
              "(window error below eps_low)")


def test_criterion_8_kalman_steady_state():
    d = identity_dictionary(4)
    rng = np.random.default_rng(8)
    K = rng.standard_normal((4, 4))
    K *= 0.85 / max(abs(np.linalg.eigvals(K)))
    model = KoopmanModel(K, rng.standard_normal((4, 1)), d)
    Q = 1e-3 * np.eye(4)
    R = 0.05
    kf = KalmanState(np.zeros(4), np.eye(4), Q, R, joseph=True)
    min_eig = math.inf
    for _ in range(4000):
        kf_correct(kf, d, rng.standard_normal() * 0.1)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(kf.P).min()))
        kf_predict(kf, model, rng.standard_normal(1))
    P_star = riccati_prior_fixed_point(model, d.output_projection(), Q, R)
    gap = np.max(np.abs(kf.P - P_star))
    assert gap < 1e-6
    assert min_eig >= -1e-10
    report(8, f"filter covariance vs Riccati fixed point: max dev "
              f"{gap:.3e} (< 1e-6); Joseph min eigenvalue {min_eig:.3e} "
              f"(>= -1e-10)")


def test_criterion_9_mpc_oracles():
    # (a) unconstrained solve vs independently assembled stacked LSQ
    d = identity_dictionary(3)
    rng = np.random.default_rng(9)
    K = rng.standard_normal((3, 3))
    K *= 0.8 / max(abs(np.linalg.eigvals(K)))
    model = KoopmanModel(K, rng.standard_normal((3, 2)), d)
    cfg = MpcConfig(horizon=7, Qy=np.diag([2.0, 1.0, 0.5]),
                    Ru=np.diag([0.2, 0.3]), terminal_weight=4.0)
    H, n, p = 7, 3, 2

    def project_traj(psi0, U):
        psi = psi0.copy()
        out = []
        for k in range(H):
            psi = model.K @ psi + model.B @ U[:, k]
            out.append(psi[:n].copy())
        return np.concatenate(out)

    F = np.column_stack([project_traj(np.eye(3)[:, i], np.zeros((p, H)))
                         for i in range(3)])
    G = np.column_stack([
        project_traj(np.zeros(3),
                     np.eye(p * H)[:, j].reshape(H, p).T)
        for j in range(p * H)])
    sqw = np.concatenate([np.sqrt((4.0 if i == H - 1 else 1.0)
                                  * np.diag(cfg.Qy)) for i in range(H)])
    Ru_half = np.linalg.cholesky(np.kron(np.eye(H), cfg.Ru)).T
    worst = 0.0
    for _ in range(5):
        psi0 = rng.standard_normal(3)
        w = rng.standard_normal((3, H))
        _, plan = CondensedMpc(model, cfg).solve(psi0, w)
        Astk = np.vstack([sqw[:, None] * G, Ru_half])
        b = np.concatenate([sqw * (w.T.ravel() - F @ psi0), np.zeros(H * p)])
        U_star, *_ = np.linalg.lstsq(Astk, b, rcond=None)
        worst = max(worst, np.max(np.abs(plan - U_star.reshape(H, p).T)))
    assert worst < 1e-8

    # (b) long-horizon gain vs scalar DARE fixed point
    d1 = identity_dictionary(1)
    scalar = KoopmanModel(np.array([[0.9]]), np.array([[1.0]]), d1)
    cfg_lqr = MpcConfig(horizon=200, Qy=np.eye(1), Ru=np.eye(1))
    G_mpc = mpc_gain_limit(scalar, cfg_lqr)
    p_cur = 1.0
    for _ in range(100000):
        p_next = 1.0 + 0.81 * p_cur - (0.9 * p_cur) ** 2 / (1.0 + p_cur)
        if abs(p_next - p_cur) < 1e-15:
            break
        p_cur = p_next
    g_star = 0.9 * p_cur / (1.0 + p_cur)
    gain_err = abs(G_mpc[0, 0] - g_star) / abs(g_star)
    assert gain_err < 1e-3

    # (c) active box bound on the clipped scalar problem
    flat = KoopmanModel(np.array([[0.0]]), np.array([[1.0]]), d1)
    cfg_box = MpcConfig(horizon=1, Qy=np.eye(1), Ru=1e-8 * np.eye(1),
                        u_min=[-1.0], u_max=[1.0])
    u_box, plan_box = CondensedMpc(flat, cfg_box).solve(np.zeros(1),
                                                        np.array([[5.0]]))
    assert u_box[0] == 1.0
    assert (np.abs(plan_box) <= 1.0).all()
    report(9, f"unconstrained vs stacked LSQ oracle {worst:.3e} (< 1e-8); "
              f"gain vs DARE rel err {gain_err:.3e} (< 1e-3); box bound "
              f"active and exact")


def _read_summary(path):
    cells = {}
    with open(path) as fh:
        for row in csv.DictReader(fh):
            key = (row["variant"], row["with_changes"] == "1",
                   float(row["speed"]))
            cells[key] = (float(row["normalized_error"]), row["status"])
    return cells


def test_criterion_10_table_ordering_analog(tmp_path, capsys, perfbench):
    out = str(tmp_path / "summary.csv")
    t0 = time.perf_counter()
    code = cli_main(["compare", "default-config", "--out", out])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert code == 0
    cells = _read_summary(out)
    assert len(cells) == 16
    assert all(status == "ok" for _, status in cells.values())
    # the published table the benchmark checks at its reference seed
    workloads = perfbench("workloads")
    with open(out) as fh:
        errors = [float(row["normalized_error"]) for row in csv.DictReader(fh)]
    np.testing.assert_allclose(errors, workloads.REFERENCE_TABLE,
                               rtol=workloads.REFERENCE_RTOL, atol=0)
    speeds = sorted({k[2] for k in cells})
    ratios = []
    for speed in speeds:
        ss = cells[("static-static", True, speed)][0]
        ac = cells[("adaptive-ctrl", True, speed)][0]
        ao = cells[("adaptive-obs", True, speed)][0]
        ab = cells[("adaptive-both", True, speed)][0]
        assert ab < min(ac, ao), f"speed {speed}: both not best"
        assert max(ac, ao) < ss, f"speed {speed}: a single-adaptive " \
                                 f"variant not better than static"
        assert ss / ab >= 2.0, f"speed {speed}: improvement factor {ss / ab:.2f}"
        ss0 = cells[("static-static", False, speed)][0]
        ab0 = cells[("adaptive-both", False, speed)][0]
        assert ab0 <= 2.0 * ss0, f"speed {speed}: no-change penalty too big"
        ratios.append(ss / ab)
    assert elapsed < 60.0
    report(10, f"with changes: adaptive-both < singles < static at speeds "
               f"{speeds}, improvement factors "
               f"{', '.join(f'{r:.1f}x' for r in ratios)} (>= 2x); "
               f"no-change within 2x; 16-cell sweep in {elapsed:.1f} s "
               f"(< 60 s)")


def test_criterion_11_simulate_determinism(tmp_path, capsys):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert cli_main(["simulate", "default-config", "--out", out_a]) == 0
    assert cli_main(["simulate", "default-config", "--out", out_b]) == 0
    capsys.readouterr()
    bytes_a = open(out_a, "rb").read()
    bytes_b = open(out_b, "rb").read()
    assert bytes_a == bytes_b
    report(11, f"two simulate runs of the default config produced "
               f"bitwise-identical CSVs ({len(bytes_a)} bytes)")
