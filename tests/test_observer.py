"""Tests for the lifted-space Kalman filter."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koopman_adapt.edmd import KoopmanModel
from koopman_adapt.observables import identity_dictionary, trig_dictionary
from koopman_adapt.observer import (
    KalmanState,
    ObserverSettings,
    init_kalman,
    kf_correct,
    kf_estimate_state,
    kf_predict,
)
from koopman_adapt.oracles import riccati_prior_fixed_point


@pytest.fixture
def scalar_model():
    d = identity_dictionary(1)
    return d, KoopmanModel(np.array([[0.5]]), np.zeros((1, 1)), d)


def stable_lifted_model(seed=0, N=4):
    d = identity_dictionary(N)
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((N, N))
    K *= 0.85 / max(np.abs(np.linalg.eigvals(K)))
    B = rng.standard_normal((N, 1))
    return d, KoopmanModel(K, B, d)


class TestPredict:
    def test_identity_dynamics_fixed_point(self):
        d = identity_dictionary(2)
        model = KoopmanModel(np.eye(2), np.zeros((2, 1)), d)
        kf = KalmanState(np.array([1.0, -2.0]), np.eye(2), np.zeros((2, 2)), 0.1)
        kf_predict(kf, model, [0.0])
        np.testing.assert_array_equal(kf.psi, [1.0, -2.0])
        np.testing.assert_array_equal(kf.P, np.eye(2))

    def test_stable_contraction_without_process_noise(self):
        d, model = stable_lifted_model(seed=3)
        kf = KalmanState(np.zeros(4), np.eye(4), np.zeros((4, 4)), 0.1)
        traces = []
        for _ in range(50):
            kf_predict(kf, model, [0.0])
            traces.append(np.trace(kf.P))
        assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))

    def test_scalar_hand_arithmetic(self, scalar_model):
        d, model = scalar_model
        kf = KalmanState(np.array([2.0]), np.array([[1.0]]),
                         np.array([[0.1]]), 1.0)
        kf_predict(kf, model, [0.0])
        np.testing.assert_allclose(kf.psi, [1.0])
        np.testing.assert_allclose(kf.P, [[0.35]])


class TestCorrect:
    def test_zero_innovation_leaves_state(self, scalar_model):
        d, _ = scalar_model
        kf = KalmanState(np.array([1.5]), np.array([[0.2]]),
                         np.array([[0.0]]), 0.5)
        kf_correct(kf, d, 1.5)
        np.testing.assert_array_equal(kf.psi, [1.5])

    def test_infinite_r_limit(self, scalar_model):
        d, _ = scalar_model
        kf = KalmanState(np.array([1.0]), np.array([[0.2]]),
                         np.array([[0.0]]), 1e300)
        kf_correct(kf, d, 99.0)
        np.testing.assert_allclose(kf.psi, [1.0], atol=1e-200)

    def test_correct_pulls_toward_measurement(self):
        d = trig_dictionary(2)
        kf = init_kalman(d, np.array([0.0, 0.0]),
                         ObserverSettings(p0=1.0, r=0.01))
        P00 = kf.P[0, 0]
        kf_correct(kf, d, 0.5)
        assert 0.0 < kf.psi[0] <= 0.5 + 1e-12
        assert kf.P[0, 0] < P00

    def test_riccati_fixed_point_oracle(self):
        d, model = stable_lifted_model(seed=11)
        Q = 1e-3 * np.eye(4)
        R = 0.05
        kf = KalmanState(np.zeros(4), np.eye(4), Q, R)
        rng = np.random.default_rng(1)
        for _ in range(4000):
            kf_correct(kf, d, rng.standard_normal() * 0.1)
            kf_predict(kf, model, [0.0])
        P_star = riccati_prior_fixed_point(model, d.output_projection(), Q, R)
        assert np.max(np.abs(kf.P - P_star)) < 1e-6

    def test_covariance_converges(self):
        d, model = stable_lifted_model(seed=7)
        kf = KalmanState(np.zeros(4), 10 * np.eye(4), 1e-4 * np.eye(4), 0.1)
        prev = kf.P.copy()
        converged = False
        for _ in range(5000):
            kf_correct(kf, d, 0.0)
            kf_predict(kf, model, [0.0])
            if np.linalg.norm(kf.P - prev, "fro") < 1e-9:
                converged = True
                break
            prev = kf.P.copy()
        assert converged


class TestJosephForm:
    def test_psd_maintained(self):
        d, model = stable_lifted_model(seed=5)
        kf = KalmanState(np.zeros(4), np.eye(4), 1e-5 * np.eye(4), 1e-4,
                         joseph=True)
        rng = np.random.default_rng(2)
        for _ in range(500):
            kf_correct(kf, d, rng.standard_normal())
            assert np.linalg.eigvalsh(kf.P).min() >= -1e-10
            kf_predict(kf, model, rng.standard_normal(1))

    def test_identity_built_once_per_size(self, monkeypatch):
        """Corrections copy one cached identity instead of building
        np.eye(N) each time, and still give the textbook Joseph form."""
        d = identity_dictionary(7)
        kf = KalmanState(np.zeros(7), np.eye(7), 1e-5 * np.eye(7), 1e-4,
                         joseph=True)
        eye, calls = np.eye, []

        def counting_eye(*args, **kwargs):
            calls.append(args)
            return eye(*args, **kwargs)

        monkeypatch.setattr(np, "eye", counting_eye)
        rng = np.random.default_rng(3)
        for _ in range(20):
            P0 = kf.P  # rebound by the correction, never written
            kf_correct(kf, d, rng.standard_normal())
            L = P0[:, 0] / (P0[0, 0] + kf.R)
            ILC = eye(7)
            ILC[:, 0] -= L
            P = ILC @ P0 @ ILC.T + kf.R * (L[:, None] * L)
            np.testing.assert_array_equal(kf.P, (P + P.T) / 2.0)
        assert len(calls) <= 1

    def test_joseph_and_simple_agree_in_exact_arithmetic(self):
        d = identity_dictionary(2)
        kf_j = KalmanState(np.zeros(2), np.eye(2), np.zeros((2, 2)), 0.5,
                           joseph=True)
        kf_s = KalmanState(np.zeros(2), np.eye(2), np.zeros((2, 2)), 0.5,
                           joseph=False)
        kf_correct(kf_j, d, 1.0)
        kf_correct(kf_s, d, 1.0)
        np.testing.assert_allclose(kf_j.P, kf_s.P, atol=1e-14)


class TestEstimateState:
    def test_lift_round_trip(self):
        d = trig_dictionary(2)
        x = np.array([0.3, -1.1])
        kf = init_kalman(d, x)
        np.testing.assert_array_equal(kf_estimate_state(kf, d), x)

    def test_identity_dictionary_returns_psi(self):
        d = identity_dictionary(3)
        kf = KalmanState(np.array([1.0, 2.0, 3.0]), np.eye(3),
                         np.zeros((3, 3)), 1.0)
        np.testing.assert_array_equal(kf_estimate_state(kf, d), kf.psi)

    def test_noise_free_cycle_tracks_truth(self):
        d, model = stable_lifted_model(seed=9)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4) * 0.1
        kf = init_kalman(d, x, ObserverSettings(q=0.0, r=1e-6, p0=0.0))
        for _ in range(50):
            u = rng.standard_normal(1)
            x = model.K @ x + model.B @ u  # identity dictionary: state = lifted
            kf_predict(kf, model, u)
            kf_correct(kf, d, x[d.output_index])
            np.testing.assert_allclose(kf_estimate_state(kf, d), x, atol=1e-8)


class TestAdaptivityContract:
    def test_model_swap_affects_future_only(self):
        d = identity_dictionary(2)
        slow = KoopmanModel(0.5 * np.eye(2), np.zeros((2, 1)), d)
        fast = KoopmanModel(0.9 * np.eye(2), np.zeros((2, 1)), d)
        a = KalmanState(np.array([1.0, 1.0]), np.eye(2), np.zeros((2, 2)), 1.0)
        b = copy.deepcopy(a)
        kf_predict(a, slow, [0.0])
        kf_predict(b, slow, [0.0])
        np.testing.assert_array_equal(a.psi, b.psi)
        kf_predict(a, fast, [0.0])
        np.testing.assert_allclose(a.psi, 0.9 * b.psi)


class TestRelift:
    def test_relift_restores_consistency(self):
        d = trig_dictionary(1)
        kf = KalmanState(np.array([0.2, 0.9, 0.1]), np.eye(3),
                         np.zeros((3, 3)), 0.1, relift_after_correct=True)
        kf_correct(kf, d, 0.25)
        np.testing.assert_allclose(kf.psi, d.lift(kf.psi[:1]))


# The functional predict/correct the in-place filter replaced, kept verbatim
# as the reference arithmetic: each returns fresh (psi, P).
def functional_predict(psi, P, Q, model, u):
    psi = model.K @ psi + model.B @ u
    P = model.K @ P @ model.K.T + Q
    return psi, (P + P.T) / 2.0


def functional_correct(psi, P, R, joseph, relift, dictionary, y_meas):
    i = dictionary.output_index
    innovation = float(y_meas) - psi[i]
    s = P[i, i] + R
    L = P[:, i] / s
    psi_new = psi + L * innovation
    if joseph:
        ILC = np.eye(psi.shape[0])
        ILC[:, i] -= L
        P_new = ILC @ P @ ILC.T + R * np.outer(L, L)
    else:
        P_new = P - np.outer(L, P[i, :])
    P_new = (P_new + P_new.T) / 2.0
    if relift:
        psi_new = dictionary.lift(psi_new[: dictionary.n])
    return psi_new, P_new


def _random_dictionary(rng, family):
    if family == "identity":
        n = int(rng.integers(1, 9))
        return identity_dictionary(n, int(rng.integers(0, n)))
    n = int(rng.integers(1, 3))  # trig: N = 3n <= 6
    return trig_dictionary(n, int(rng.integers(0, n)))


def _random_model(rng, d, p):
    N = d.size
    K = rng.standard_normal((N, N))
    K *= rng.uniform(0.3, 1.0) / max(np.abs(np.linalg.eigvals(K)).max(), 1e-12)
    return KoopmanModel(K, rng.standard_normal((N, p)), d)


class TestInPlaceEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           family=st.sampled_from(["identity", "trig"]),
           joseph=st.booleans(), relift=st.booleans())
    def test_matches_functional_arithmetic_bitwise(self, seed, family,
                                                   joseph, relift):
        rng = np.random.default_rng(seed)
        d = _random_dictionary(rng, family)
        N, p = d.size, int(rng.integers(0, 3))
        models = [_random_model(rng, d, p) for _ in range(3)]
        A = rng.standard_normal((N, N))
        Q = 1e-3 * (A @ A.T)
        R = float(rng.uniform(1e-6, 1.0))
        psi = d.lift(rng.uniform(-1.0, 1.0, size=d.n))
        P = np.eye(N) * rng.uniform(0.01, 2.0)
        kf = KalmanState(psi.copy(), P.copy(), Q, R, joseph=joseph,
                         relift_after_correct=relift)
        model = models[0]
        for _ in range(int(rng.integers(1, 25))):
            if rng.uniform() < 0.3:  # a model swap mid-stream
                model = models[int(rng.integers(0, len(models)))]
            y = float(rng.standard_normal())
            u = rng.standard_normal(p)
            old_psi, old_P = kf.psi, kf.P
            snapshot = (old_psi.copy(), old_P.copy())
            psi, P = functional_correct(psi, P, R, joseph, relift, d, y)
            kf_correct(kf, d, y)
            np.testing.assert_array_equal(kf.psi, psi)
            np.testing.assert_array_equal(kf.P, P)
            psi, P = functional_predict(psi, P, Q, model, u)
            kf_predict(kf, model, u)
            np.testing.assert_array_equal(kf.psi, psi)
            np.testing.assert_array_equal(kf.P, P)
            # the state is rebound to new arrays, never written through
            np.testing.assert_array_equal(old_psi, snapshot[0])
            np.testing.assert_array_equal(old_P, snapshot[1])
