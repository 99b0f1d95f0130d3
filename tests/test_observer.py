"""Tests for the lifted-space Kalman filter."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koopman_adapt.edmd import KoopmanModel
from koopman_adapt.errors import DimensionMismatch
from koopman_adapt.harness import default_config
from koopman_adapt.observables import ObservableDictionary
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
    d = ObservableDictionary(1, "identity")
    return d, KoopmanModel(np.array([[0.5]]), np.zeros((1, 1)), d)


def stable_lifted_model(seed=0, N=4):
    d = ObservableDictionary(N, "identity")
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((N, N))
    K *= 0.85 / max(np.abs(np.linalg.eigvals(K)))
    B = rng.standard_normal((N, 1))
    return d, KoopmanModel(K, B, d)


def held_model(d):
    """A model that holds the lifted state and has no input authority."""
    return KoopmanModel(np.eye(d.size), np.zeros((d.size, 1)), d)


def kalman(psi, P, Q, R, model=None, dictionary=None):
    """A filter predicting through model's K and B and lifting through its
    dictionary; without a model, one that holds its state, has no input and
    lifts through the given dictionary, by default the identity."""
    N = len(psi)
    if model is not None:
        K, B, dictionary = model.K, model.B, model.dictionary
    else:
        K, B = np.eye(N), np.zeros((N, 1))
        dictionary = dictionary or ObservableDictionary(N, "identity")
    return KalmanState(np.asarray(psi, dtype=float), P, Q, K, B, R,
                       dictionary)


class TestInit:
    @pytest.mark.parametrize("b, floor", [(0.5, 1e-4), (2.0, 8e-4)])
    def test_process_noise_shaped_through_input_channel(self, b, floor):
        """Q = q (B B^T + max(tr B B^T, 1) 1e-4 I): the floor is 1e-4 while
        tr B B^T = 2 b^2 stays below 1 and scales with it above."""
        d = ObservableDictionary(3, "identity")
        B = np.array([[b], [b], [0.0]])
        kf = init_kalman(np.zeros(3), ObserverSettings(q=0.5),
                         model=KoopmanModel(np.eye(3), B, d))
        expected = 0.5 * (np.array([[b * b, b * b, 0.0],
                                    [b * b, b * b, 0.0],
                                    [0.0, 0.0, 0.0]]) + floor * np.eye(3))
        np.testing.assert_allclose(kf.Q, expected, rtol=1e-15, atol=0.0)

    def test_model_is_required(self):
        with pytest.raises(TypeError):
            init_kalman(np.zeros(1))

    def test_dictionary_is_the_models(self):
        """The filter measures, re-lifts and truncates through its model's
        dictionary, the one its initial state is lifted through."""
        d = ObservableDictionary(2, "monomial", 2, output_index=1)
        x = np.array([0.3, -1.1])
        kf = init_kalman(x, model=held_model(d))
        assert kf.dictionary is d
        np.testing.assert_array_equal(kf.psi, d.lift(x))

    def test_defaults_are_the_shipped_observer(self):
        """The default settings are the shipped scenario's observer."""
        assert ObserverSettings() == default_config().observer


class TestPredict:
    def test_identity_dynamics_fixed_point(self):
        d = ObservableDictionary(2, "identity")
        model = KoopmanModel(np.eye(2), np.zeros((2, 1)), d)
        kf = kalman([1.0, -2.0], np.eye(2), np.zeros((2, 2)), 0.1, model)
        kf_predict(kf, [0.0])
        np.testing.assert_array_equal(kf.psi, [1.0, -2.0])
        np.testing.assert_array_equal(kf.P, np.eye(2))

    def test_stable_contraction_without_process_noise(self):
        d, model = stable_lifted_model(seed=3)
        kf = kalman(np.zeros(4), np.eye(4), np.zeros((4, 4)), 0.1, model)
        traces = []
        for _ in range(50):
            kf_predict(kf, [0.0])
            traces.append(np.trace(kf.P))
        assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))

    def test_scalar_hand_arithmetic(self, scalar_model):
        d, model = scalar_model
        kf = kalman([2.0], np.array([[1.0]]), np.array([[0.1]]), 1.0, model)
        kf_predict(kf, [0.0])
        np.testing.assert_allclose(kf.psi, [1.0])
        np.testing.assert_allclose(kf.P, [[0.35]])


class TestCorrect:
    def test_zero_innovation_leaves_state(self):
        kf = kalman([1.5], np.array([[0.2]]), np.array([[0.0]]), 0.5)
        kf_correct(kf, 1.5)
        np.testing.assert_array_equal(kf.psi, [1.5])

    def test_infinite_r_limit(self):
        kf = kalman([1.0], np.array([[0.2]]), np.array([[0.0]]), 1e300)
        kf_correct(kf, 99.0)
        np.testing.assert_allclose(kf.psi, [1.0], atol=1e-200)

    def test_correct_pulls_toward_measurement(self):
        d = ObservableDictionary(2)
        kf = init_kalman(np.array([0.0, 0.0]),
                         ObserverSettings(p0=1.0, r=0.01),
                         model=held_model(d))
        P00 = kf.P[0, 0]
        kf_correct(kf, 0.5)
        assert 0.0 < kf.psi[0] <= 0.5 + 1e-12
        assert kf.P[0, 0] < P00

    def test_riccati_fixed_point_oracle(self):
        d, model = stable_lifted_model(seed=11)
        Q = 1e-3 * np.eye(4)
        R = 0.05
        kf = kalman(np.zeros(4), np.eye(4), Q, R, model)
        rng = np.random.default_rng(1)
        for _ in range(4000):
            kf_correct(kf, rng.standard_normal() * 0.1)
            kf_predict(kf, [0.0])
        P_star = riccati_prior_fixed_point(model, np.eye(4)[d.output_index], Q,
                                           R)
        assert np.max(np.abs(kf.P - P_star)) < 1e-6

    def test_covariance_converges(self):
        d, model = stable_lifted_model(seed=7)
        kf = kalman(np.zeros(4), 10 * np.eye(4), 1e-4 * np.eye(4), 0.1, model)
        prev = kf.P.copy()
        converged = False
        for _ in range(5000):
            kf_correct(kf, 0.0)
            kf_predict(kf, [0.0])
            if np.linalg.norm(kf.P - prev, "fro") < 1e-9:
                converged = True
                break
            prev = kf.P.copy()
        assert converged


class TestJosephForm:
    def test_psd_maintained(self):
        d, model = stable_lifted_model(seed=5)
        kf = kalman(np.zeros(4), np.eye(4), 1e-5 * np.eye(4), 1e-4, model)
        rng = np.random.default_rng(2)
        for _ in range(500):
            kf_correct(kf, rng.standard_normal())
            assert np.linalg.eigvalsh(kf.P).min() >= -1e-10
            kf_predict(kf, rng.standard_normal(1))

    def test_identity_built_once_per_size(self, monkeypatch):
        """Corrections copy one cached identity instead of building
        np.eye(N) each time, and still give the textbook Joseph form."""
        kf = kalman(np.zeros(7), np.eye(7), 1e-5 * np.eye(7), 1e-4)
        eye, calls = np.eye, []

        def counting_eye(*args, **kwargs):
            calls.append(args)
            return eye(*args, **kwargs)

        monkeypatch.setattr(np, "eye", counting_eye)
        rng = np.random.default_rng(3)
        for _ in range(20):
            P0 = kf.P  # rebound by the correction, never written
            kf_correct(kf, rng.standard_normal())
            L = P0[:, 0] / (P0[0, 0] + kf.R)
            ILC = eye(7)
            ILC[:, 0] -= L
            P = ILC @ P0 @ ILC.T + kf.R * (L[:, None] * L)
            np.testing.assert_array_equal(kf.P, (P + P.T) / 2.0)
        assert len(calls) <= 1

    def test_joseph_and_simple_agree_in_exact_arithmetic(self):
        """The Joseph update equals the simple (I - L C) P of the reference
        arithmetic, up to rounding."""
        d = ObservableDictionary(2, "identity")
        kf = kalman(np.zeros(2), np.eye(2), np.zeros((2, 2)), 0.5)
        kf_correct(kf, 1.0)
        psi, P = functional_correct(np.zeros(2), np.eye(2), 0.5, False, True,
                                    d, 1.0)
        np.testing.assert_array_equal(kf.psi, psi)
        np.testing.assert_allclose(kf.P, P, atol=1e-14)


class TestEstimateState:
    def test_lift_round_trip(self):
        d = ObservableDictionary(2)
        x = np.array([0.3, -1.1])
        kf = init_kalman(x, model=held_model(d))
        np.testing.assert_array_equal(kf_estimate_state(kf), x)

    def test_identity_dictionary_returns_psi(self):
        kf = kalman([1.0, 2.0, 3.0], np.eye(3), np.zeros((3, 3)), 1.0)
        np.testing.assert_array_equal(kf_estimate_state(kf), kf.psi)

    def test_truncation_is_a_copy(self):
        """Each cell's estimate is its first n lifted coordinates, (C, n),
        in a new array: writing to it leaves the filter alone."""
        d = ObservableDictionary(2, "monomial", 2)
        psi = np.arange(10.0).reshape(2, 5)
        kf = KalmanState(psi.copy(), np.stack([np.eye(5)] * 2),
                         np.zeros((2, 5, 5)), np.stack([np.eye(5)] * 2),
                         np.zeros((2, 5, 1)), 1.0, d)
        x_hat = kf_estimate_state(kf)
        np.testing.assert_array_equal(x_hat, [[0.0, 1.0], [5.0, 6.0]])
        x_hat[...] = -1.0
        np.testing.assert_array_equal(kf.psi, psi)

    def test_noise_free_cycle_tracks_truth(self):
        d, model = stable_lifted_model(seed=9)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4) * 0.1
        kf = init_kalman(x, ObserverSettings(q=0.0, r=1e-6, p0=0.0),
                         model=model)
        for _ in range(50):
            u = rng.standard_normal(1)
            x = model.K @ x + model.B @ u  # identity dictionary: state = lifted
            kf_predict(kf, u)
            kf_correct(kf, x[d.output_index])
            np.testing.assert_allclose(kf_estimate_state(kf), x, atol=1e-8)


class TestAdaptivityContract:
    def test_model_swap_affects_future_only(self):
        d = ObservableDictionary(2, "identity")
        slow = KoopmanModel(0.5 * np.eye(2), np.zeros((2, 1)), d)
        fast = KoopmanModel(0.9 * np.eye(2), np.zeros((2, 1)), d)
        a = kalman([1.0, 1.0], np.eye(2), np.zeros((2, 2)), 1.0, slow)
        b = copy.deepcopy(a)
        kf_predict(a, [0.0])
        kf_predict(b, [0.0])
        np.testing.assert_array_equal(a.psi, b.psi)
        a.K, a.B = fast.K, fast.B
        kf_predict(a, [0.0])
        np.testing.assert_allclose(a.psi, 0.9 * b.psi)


class TestRelift:
    def test_relift_restores_consistency(self):
        d = ObservableDictionary(1)
        kf = kalman([0.2, 0.9, 0.1], np.eye(3), np.zeros((3, 3)), 0.1,
                    dictionary=d)
        kf_correct(kf, 0.25)
        np.testing.assert_allclose(kf.psi, d.lift(kf.psi[:1]))

    def test_identity_relift_returns_the_estimate(self):
        """Through the identity dictionary the re-lift is the linear
        filter's plain update: the corrected estimate, unchanged."""
        kf = kalman([0.2, 0.9], np.eye(2), np.zeros((2, 2)), 0.1)
        kf_correct(kf, 0.25)
        L = np.array([1.0, 0.0]) / 1.1
        np.testing.assert_array_equal(kf.psi, np.array([0.2, 0.9])
                                      + L * (0.25 - 0.2))


# The functional predict/correct the in-place filter replaced, kept verbatim
# as the reference arithmetic: each returns fresh (psi, P). The filter has
# the Joseph form and the re-lift alone; the simple form is the oracle it
# agrees with.
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
        return ObservableDictionary(n, "identity",
                                    output_index=int(rng.integers(0, n)))
    n = int(rng.integers(1, 3))  # trig: N = 3n <= 6
    return ObservableDictionary(n, output_index=int(rng.integers(0, n)))


def _random_model(rng, d, p):
    N = d.size
    K = rng.standard_normal((N, N))
    K *= rng.uniform(0.3, 1.0) / max(np.abs(np.linalg.eigvals(K)).max(), 1e-12)
    return KoopmanModel(K, rng.standard_normal((N, p)), d)


class TestInPlaceEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           family=st.sampled_from(["identity", "trig"]))
    def test_matches_functional_arithmetic_bitwise(self, seed, family):
        rng = np.random.default_rng(seed)
        d = _random_dictionary(rng, family)
        N, p = d.size, int(rng.integers(0, 3))
        models = [_random_model(rng, d, p) for _ in range(3)]
        A = rng.standard_normal((N, N))
        Q = 1e-3 * (A @ A.T)
        R = float(rng.uniform(1e-6, 1.0))
        psi = d.lift(rng.uniform(-1.0, 1.0, size=d.n))
        P = np.eye(N) * rng.uniform(0.01, 2.0)
        model = models[0]
        kf = kalman(psi.copy(), P.copy(), Q, R, model)
        for _ in range(int(rng.integers(1, 25))):
            if rng.uniform() < 0.3:  # a model swap mid-stream
                model = models[int(rng.integers(0, len(models)))]
                kf.K, kf.B = model.K, model.B
            y = float(rng.standard_normal())
            u = rng.standard_normal(p)
            old_psi, old_P = kf.psi, kf.P
            snapshot = (old_psi.copy(), old_P.copy())
            psi, P = functional_correct(psi, P, R, True, True, d, y)
            kf_correct(kf, y)
            np.testing.assert_array_equal(kf.psi, psi)
            np.testing.assert_array_equal(kf.P, P)
            psi, P = functional_predict(psi, P, Q, model, u)
            kf_predict(kf, u)
            np.testing.assert_array_equal(kf.psi, psi)
            np.testing.assert_array_equal(kf.P, P)
            # the state is rebound to new arrays, never written through
            np.testing.assert_array_equal(old_psi, snapshot[0])
            np.testing.assert_array_equal(old_P, snapshot[1])


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCellAxis:
    """A stack of filters on a leading cell axis runs every cell as a call
    on that cell alone does, to the bit; at C = 1 that is the 1-D call."""

    @pytest.mark.parametrize("cells", [1, 5])
    @pytest.mark.parametrize("relift_moves", [True, False])
    def test_stack_matches_single_cells_bitwise(self, cells, relift_moves):
        """Through the trig dictionary, whose re-lift moves the corrected
        estimate (relift_moves), and through the identity, whose re-lift
        returns it unchanged, as a linear filter's update would."""
        rng = np.random.default_rng(100 * cells + 10 + relift_moves)
        d = ObservableDictionary(2, "trig" if relift_moves else "identity",
                                 output_index=1)
        N, p, R = d.size, 1, 0.3
        singles = []
        for _ in range(cells):
            A = rng.standard_normal((N, N))
            singles.append(KalmanState(
                d.lift(rng.uniform(-1.0, 1.0, size=d.n)),
                np.eye(N) * rng.uniform(0.01, 2.0), 1e-3 * (A @ A.T),
                np.eye(N), np.zeros((N, p)), R, d))
        stack = KalmanState.stack(singles)
        for _ in range(20):
            y = rng.standard_normal(cells)
            kf_correct(stack, y)
            x_hat = kf_estimate_state(stack)
            for c, f in enumerate(singles):
                kf_correct(f, y[c])
                assert _same_bits(stack.psi[c], f.psi)
                assert _same_bits(stack.P[c], f.P)
                assert _same_bits(x_hat[c], kf_estimate_state(f))
            # every cell is handed a model of its own, written into its row
            models = [_random_model(rng, d, p) for _ in range(cells)]
            for c, (f, m) in enumerate(zip(singles, models)):
                stack.K[c], stack.B[c] = m.K, m.B
                f.K, f.B = m.K, m.B
            u = rng.standard_normal((cells, p))
            kf_predict(stack, u)
            for c, f in enumerate(singles):
                kf_predict(f, u[c])
                assert _same_bits(stack.psi[c], f.psi)
                assert _same_bits(stack.P[c], f.P)

    def test_take_copies_rows(self):
        """take gives the rows asked for, in order and repeated as asked,
        as copies: writing into them leaves the source alone."""
        rng = np.random.default_rng(4)
        N, p, d = 3, 2, ObservableDictionary(1)
        source = KalmanState(*(rng.standard_normal(shape) for shape in (
            (4, N), (4, N, N), (4, N, N), (4, N, N), (4, N, p))), 0.5, d)
        before = copy.deepcopy(source)
        rows = [2, 0, 2]
        taken = source.take(rows)
        for name in ("psi", "P", "Q", "K", "B"):
            assert _same_bits(getattr(taken, name), getattr(source, name)[rows])
            getattr(taken, name)[...] = 7.0
            assert _same_bits(getattr(source, name), getattr(before, name))
        assert (taken.R, taken.dictionary) == (0.5, d)

    @pytest.mark.parametrize("u", [
        np.ones(1), [[1.0], [1.0]], np.ones((3, 2)), np.ones((3, 1, 1))],
        ids=["one-for-all-cells", "nested-list-of-two", "two-channels",
             "extra-axis"])
    def test_stack_input_shape_checked(self, u):
        """A stack of three one-input filters takes one input per cell,
        (3, 1); any other input raises DimensionMismatch and leaves the
        stack as it was."""
        rng = np.random.default_rng(6)
        N = 3
        stack = KalmanState(*(rng.standard_normal(shape) for shape in (
            (3, N), (3, N, N), (3, N, N), (3, N, N), (3, N, 1))), 0.5,
            ObservableDictionary(1))
        before = copy.deepcopy(stack)
        with pytest.raises(DimensionMismatch, match=r"\(3, 1\)"):
            kf_predict(stack, u)
        for name in ("psi", "P"):
            assert _same_bits(getattr(stack, name), getattr(before, name))

    def test_stack_shapes_checked(self):
        """P, Q and the model must match the estimate, and the estimate the
        dictionary, the model's size included (so kf_predict need not check
        it on every call)."""
        d = ObservableDictionary(1)  # N = 3
        for shapes in (
                ((2, 3), (3, 3, 3), (2, 3, 3), (2, 3, 3), (2, 3, 1)),  # P
                ((2, 3), (2, 3, 3), (3, 3, 3), (2, 3, 3), (2, 3, 1)),  # Q
                ((3,), (3, 3), (3, 3), (4, 4), (3, 1)),  # K
                ((3,), (3, 3), (3, 3), (3, 3), (4, 1)),  # B
                ((2, 3), (2, 3, 3), (2, 3, 3), (2, 3, 3), (3, 1)),  # B cells
                ((2, 4), (2, 4, 4), (2, 4, 4), (2, 4, 4), (2, 4, 1))):  # N
            with pytest.raises(DimensionMismatch):
                KalmanState(*map(np.zeros, shapes), 1.0, d)
        KalmanState(*map(np.zeros, ((2, 3), (2, 3, 3), (2, 3, 3), (2, 3, 3),
                                    (2, 3, 1))), 1.0, d)  # all match
