"""Tests for the recursive estimator: update rules, gating, variable
forgetting, the constant-trace bound, and the atomicity of step().

The update recursion is reachable only through step(); each update-rule test
drives one step whose gate is known to be open (warm-up, or eps_low = 0)."""

import copy
import math

import numpy as np
import pytest
import hypothesis
from hypothesis import given
from hypothesis import strategies as st

from koopman_adapt.edmd import collect_snapshots, fit
from koopman_adapt.errors import (
    CovarianceNotPD,
    DimensionMismatch,
    NonFiniteState,
    RankDeficientRegressor,
)
from koopman_adapt.observables import ObservableDictionary
from koopman_adapt.redmd import (
    RecursiveEstimator,
    RedmdSettings,
    init_from_batch,
    variable_forgetting_factor,
)

from conftest import no_runtime_warnings


def scalar_estimator(gamma=2.0, lam=1.0, k=0.0, **kwargs):
    settings = RedmdSettings(lambda0=lam, adaptive_lambda=False,
                             eps_low=0.0, eps_high=np.inf,
                             trace_max_factor=np.inf, m_op=2, **kwargs)
    d = ObservableDictionary(1, "identity")
    return RecursiveEstimator(np.array([[k]]), np.array([[gamma]]), d, settings)


def rls_stream(rng, n=2, p=1, steps=120, k_scale=0.6):
    """A generic (x, u, x_next) stream from a random stable linear system."""
    A = rng.standard_normal((n, n))
    A *= k_scale / max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, p))
    x = rng.standard_normal(n)
    out = []
    for _ in range(steps):
        u = rng.standard_normal(p)
        x_next = A @ x + B @ u + 0.1 * rng.standard_normal(n)
        out.append((x.copy(), u.copy(), x_next.copy()))
        x = x_next
    return out


def window_error_oracle(est):
    """The gate's window error from a fresh lift of the window's states,
    with the operations prediction_error_window applies to the lifts the
    window keeps (+inf during warm-up)."""
    if est._count < est.settings.m_op:
        return math.inf
    N, n = est.size, est.dictionary.n
    win = est._phi_win
    pred = est.K @ est.dictionary.lift_batch(win[:n, :-1])
    if est.p:
        pred = pred + est.B @ win[N:, :-1]
    err = (win[:n, 1:] - pred[:n]) / est._scales[:, None]
    return float(np.abs(err).max())


class TestSettings:
    @pytest.mark.parametrize("m_op", [2.5, 3.0])
    def test_non_integer_window_rejected(self, m_op):
        """A float window length failed only in the estimator's deque, with
        a TypeError."""
        with pytest.raises(ValueError, match="m_op must be an integer"):
            RedmdSettings(m_op=m_op)


class TestCorrectionVector:
    """The gain k = Gamma phi / (phi^T Gamma phi + lambda), read off the
    model change of one step."""

    def test_scalar_hand_case(self):
        est = scalar_estimator(gamma=2.0, lam=1.0)
        report = est.step(np.array([1.0]), None, np.array([1.0]))
        # innovation 1, gain 2 / (2 + 1)
        np.testing.assert_allclose(est.theta, [[2.0 / 3.0]])
        assert report.e_post == pytest.approx(1.0 / 3.0)

    def test_zero_regressor(self):
        """Zero regressor, zero gain: the model keeps its exact value."""
        est = scalar_estimator(k=0.4)
        est.step(np.zeros(1), None, np.array([9.9]))
        np.testing.assert_array_equal(est.theta, [[0.4]])

    def test_matches_posterior_gram_inverse(self):
        """At lambda=1, the gain equals phi^T Gamma_next with Gamma_next
        recomputed from scratch."""
        rng = np.random.default_rng(31)
        d = ObservableDictionary(2, "identity")
        phis = rng.standard_normal((3, 8))  # N+p = 3 with p=1
        gram = phis @ phis.T
        settings = RedmdSettings(lambda0=1.0, adaptive_lambda=False, m_op=2)
        est = RecursiveEstimator(np.zeros((2, 3)), np.linalg.inv(gram), d,
                                 settings)
        phi = rng.standard_normal(3)
        # zero model, unit first-row innovation: row 0 of Theta is the gain
        est.step(phi[:2], phi[2:], np.array([1.0, 0.0]))
        gamma_oracle = phi @ np.linalg.inv(gram + np.outer(phi, phi))
        np.testing.assert_allclose(est.theta[0], gamma_oracle, atol=1e-12)


class TestApplyUpdate:
    def test_zero_innovation_fixed_point(self):
        rng = np.random.default_rng(5)
        d = ObservableDictionary(2, "identity")
        theta = rng.standard_normal((2, 3))
        settings = RedmdSettings(lambda0=0.95, adaptive_lambda=False, m_op=2)
        est = RecursiveEstimator(theta, np.eye(3), d, settings)
        phi = rng.standard_normal(3)
        report = est.step(phi[:2], phi[2:], theta @ phi)  # perfect prediction
        assert report.updated and report.e_post == 0.0
        np.testing.assert_array_equal(est.theta, theta)


class TestUpdateCovariance:
    def test_zero_phi_identity(self):
        est = scalar_estimator(gamma=2.0, lam=1.0)
        est.step(np.zeros(1), None, np.array([1.0]))
        np.testing.assert_array_equal(est.Gamma, [[2.0]])

    def test_scalar_woodbury_consistency(self):
        est = scalar_estimator(gamma=2.0, lam=1.0)
        est.step(np.array([1.0]), None, np.zeros(1))
        np.testing.assert_allclose(est.Gamma, [[2.0 / 3.0]])
        np.testing.assert_allclose(est.Gamma, [[1.0 / (0.5 + 1.0)]])

    def test_direct_inversion_oracle(self):
        rng = np.random.default_rng(77)
        d = ObservableDictionary(3, "identity")
        for _ in range(100):
            A = rng.standard_normal((4, 4))
            gamma0 = A @ A.T + 0.5 * np.eye(4)
            settings = RedmdSettings(lambda0=1.0, adaptive_lambda=False, m_op=2)
            est = RecursiveEstimator(np.zeros((3, 4)), gamma0, d, settings)
            phi = rng.standard_normal(4)
            est.step(phi[:3], phi[3:], np.zeros(3))  # one warm-up update
            direct = np.linalg.inv(np.linalg.inv(gamma0) + np.outer(phi, phi))
            assert np.max(np.abs(est.Gamma - direct)) < 1e-10

    def test_symmetry_after_update(self):
        rng = np.random.default_rng(13)
        d = ObservableDictionary(2, "identity")
        A = rng.standard_normal((3, 3))
        settings = RedmdSettings(lambda0=0.92, adaptive_lambda=False, m_op=2,
                                 eps_low=0.0)
        est = RecursiveEstimator(np.zeros((2, 3)), A @ A.T + np.eye(3), d,
                                 settings)
        for _ in range(50):
            phi = rng.standard_normal(3)
            assert est.step(phi[:2], phi[2:], rng.standard_normal(2)).updated
            assert np.max(np.abs(est.Gamma - est.Gamma.T)) == 0.0


class TestPredictionErrorWindow:
    """The window is filled through step(); a zero covariance freezes the
    model, so the window error is read against a known Theta."""

    def test_exact_model_zero_error(self):
        rng = np.random.default_rng(3)
        d = ObservableDictionary(1, "identity")
        settings = RedmdSettings(m_op=5, adaptive_lambda=False)
        est = RecursiveEstimator(np.array([[0.9, 0.2]]), np.zeros((2, 2)), d,
                                 settings)
        x = np.array([1.0])
        for _ in range(5):
            u = rng.standard_normal(1)
            x_new = 0.9 * x + 0.2 * u
            report = est.step(x, u, x_new)
            x = x_new
        assert report.window_error == 0.0
        assert est.prediction_error_window() == 0.0

    def test_warmup_sentinel(self):
        est = scalar_estimator()
        report = est.step(np.array([1.0]), None, np.array([1.0]))
        assert report.window_error == math.inf
        assert est.prediction_error_window() == math.inf

    def test_two_step_hand_case(self):
        """Model K=0.9 on data from K=0.8 starting at x0=1, m_op=2."""
        d = ObservableDictionary(1, "identity")
        settings = RedmdSettings(m_op=2, adaptive_lambda=False)
        est = RecursiveEstimator(np.array([[0.9]]), np.zeros((1, 1)), d,
                                 settings)
        est.step(np.array([1.0]), None, np.array([0.8]))
        report = est.step(np.array([0.8]), None, np.array([0.64]))
        assert report.window_error == pytest.approx(0.1)
        assert est.prediction_error_window() == pytest.approx(0.1)

    def test_state_scales_normalize(self):
        d = ObservableDictionary(2, "identity")
        settings = RedmdSettings(m_op=2, state_scales=(1.0, 10.0),
                                 adaptive_lambda=False)
        est = RecursiveEstimator(np.eye(2), np.zeros((2, 2)), d, settings)
        est.step(np.array([0.0, 0.0]), None, np.array([0.05, 0.5]))
        report = est.step(np.array([0.05, 0.5]), None, np.zeros(2))
        # raw errors (0.05, 0.5); scaled (0.05, 0.05)
        assert report.window_error == pytest.approx(0.05)
        assert est.prediction_error_window() == pytest.approx(0.05)


class TestVariableForgetting:
    def test_zero_error_gives_one(self):
        assert variable_forgetting_factor(1.0, 0.3, 0.0) == 1.0

    def test_huge_error_clamps(self):
        assert variable_forgetting_factor(1.0, 0.3, 1e6, lambda_min=0.9) == 0.9

    def test_hand_case(self):
        assert variable_forgetting_factor(1.0, 0.5, 1.0) == 0.5

    def test_estimator_lambda_bounds(self):
        rng = np.random.default_rng(8)
        est = scalar_estimator()
        est.settings.adaptive_lambda = True
        for _ in range(30):
            x, x_next = rng.standard_normal(1), rng.standard_normal(1) * 0.5
            lam = est.step(x, None, x_next).lam
            assert est.settings.lambda_min <= lam <= 1.0

    def test_sigma0_positive(self):
        with pytest.raises(ValueError):
            variable_forgetting_factor(0.0, 0.5, 1.0)


class TestTraceBound:
    """Each update scales Gamma back to trace_max when it exceeds it; a
    zero-regressor step isolates the scaling from the downdate."""

    def test_scaling_to_bound(self):
        d = ObservableDictionary(1, "identity")
        settings = RedmdSettings(trace_max_factor=1.0, m_op=2,
                                 adaptive_lambda=False)
        est = RecursiveEstimator(np.zeros((1, 1)), np.eye(1), d, settings)
        est.Gamma = np.array([[2.0]])  # trace 2, bound 1
        est.step(np.zeros(1), None, np.zeros(1))
        np.testing.assert_allclose(est.Gamma, [[1.0]])

    def test_under_bound_unchanged(self):
        d = ObservableDictionary(1, "identity")
        settings = RedmdSettings(trace_max_factor=10.0, m_op=2,
                                 adaptive_lambda=False)
        est = RecursiveEstimator(np.zeros((1, 1)), np.eye(1), d, settings)
        before = est.Gamma.copy()
        est.step(np.zeros(1), None, np.zeros(1))
        np.testing.assert_array_equal(est.Gamma, before)

    def test_scaling_preserves_directions(self):
        rng = np.random.default_rng(4)
        d = ObservableDictionary(2, "identity")
        A = rng.standard_normal((2, 2))
        gamma0 = A @ A.T + np.eye(2)
        settings = RedmdSettings(trace_max_factor=0.5, m_op=2,
                                 adaptive_lambda=False)
        est = RecursiveEstimator(np.zeros((2, 2)), gamma0, d, settings)
        est.Gamma = gamma0 * 100.0
        est.step(np.zeros(2), None, np.zeros(2))
        ratio = est.Gamma / gamma0
        np.testing.assert_allclose(ratio, ratio[0, 0])
        assert np.all(np.linalg.eigvalsh(est.Gamma) > 0)

    def test_bound_applied_before_gain(self):
        """After warm-up, the gain is computed from the bounded Gamma:
        2 -> 1 gives gain 1/2, not 2/3."""
        d = ObservableDictionary(1, "identity")
        settings = RedmdSettings(trace_max_factor=1.0, m_op=2, eps_low=0.0,
                                 adaptive_lambda=False)
        est = RecursiveEstimator(np.zeros((1, 1)), np.eye(1), d, settings)
        est.step(np.zeros(1), None, np.zeros(1))  # warm-up fills the buffer
        est.Gamma = np.array([[2.0]])
        report = est.step(np.array([1.0]), None, np.array([1.0]))
        assert report.updated
        np.testing.assert_allclose(est.theta, [[0.5]])
        np.testing.assert_allclose(est.Gamma, [[0.5]])


class TestStep:
    def test_gate_closed_model_bitwise_unchanged(self):
        """Perfect model, full buffer: no update, model untouched."""
        rng = np.random.default_rng(21)
        d = ObservableDictionary(1, "identity")
        settings = RedmdSettings(m_op=5, eps_low=1e-6, adaptive_lambda=False)
        est = RecursiveEstimator(np.array([[0.9, 0.2]]), np.eye(2), d, settings)
        x = np.array([1.0])
        reports = []
        for _ in range(20):
            u = rng.standard_normal(1)
            x_next = 0.9 * x + 0.2 * u
            theta_before = est.theta.copy()
            reports.append(est.step(x, u, x_next))
            if not reports[-1].updated:
                assert (est.theta == theta_before).all()
            x = x_next
        assert not any(r.updated for r in reports[5:])

    def test_warmup_updates_unconditionally(self):
        rng = np.random.default_rng(2)
        d = ObservableDictionary(1, "identity")
        settings = RedmdSettings(m_op=10, eps_low=1e9, eps_high=1e9,
                                 adaptive_lambda=False)
        est = RecursiveEstimator(np.array([[0.0, 0.0]]), 100 * np.eye(2), d,
                                 settings)
        x = np.array([0.5])
        for k in range(9):
            u = rng.standard_normal(1)
            x_next = 0.7 * x + 0.3 * u
            report = est.step(x, u, x_next)
            assert report.updated
            assert report.window_error == math.inf
            x = x_next

    def test_tracks_parameter_change(self):
        """Scalar plant K: 0.9 -> 0.6 at sample 500 with fixed forgetting."""
        rng = np.random.default_rng(123)
        d = ObservableDictionary(1, "identity")
        settings = RedmdSettings(lambda0=0.95, adaptive_lambda=False,
                                 eps_low=0.0, eps_high=np.inf,
                                 trace_max_factor=np.inf, m_op=10)
        est = RecursiveEstimator(np.array([[0.0, 0.0]]), 100 * np.eye(2), d,
                                 settings)
        x = np.array([1.0])
        errors = []
        for k in range(1000):
            k_true = 0.9 if k < 500 else 0.6
            u = rng.uniform(-1.0, 1.0, size=1)
            x_next = k_true * x + 0.2 * u
            pred = est.theta @ np.array([x[0], u[0]])
            errors.append(abs(pred[0] - x_next[0]))
            est.step(x, u, x_next)
            x = x_next
        assert min(errors[500:700]) < 1e-3
        assert max(errors[900:]) < 1e-3

    def test_lambda_constant_when_gate_closed(self):
        rng = np.random.default_rng(6)
        d = ObservableDictionary(1, "identity")
        settings = RedmdSettings(m_op=4, eps_low=1e-3, adaptive_lambda=True,
                                 lambda0=0.97)
        est = RecursiveEstimator(np.array([[0.9, 0.2]]), np.eye(2), d, settings)
        x = np.array([1.0])
        lams = []
        for _ in range(15):
            u = rng.standard_normal(1)
            x_next = 0.9 * x + 0.2 * u
            r = est.step(x, u, x_next)
            lams.append(r.lam)
            x = x_next
        # warm-up holds lambda0; closed gate afterwards keeps it constant
        assert all(l == 0.97 for l in lams)


class TestInitFromBatch:
    def test_scalar_closed_form(self):
        xs = [1.0]
        for _ in range(30):
            xs.append(0.9 * xs[-1])
        pairs = [(np.array([v]), None) for v in xs]
        est = init_from_batch(collect_snapshots(pairs),
                              ObservableDictionary(1, "identity"))
        np.testing.assert_allclose(est.theta, [[0.9]], rtol=1e-12)
        gram = sum(v * v for v in xs[:-1])
        np.testing.assert_allclose(est.Gamma, [[1.0 / gram]], rtol=1e-12)

    def test_lifts_each_snapshot_matrix_once(self, monkeypatch):
        """The offline init reuses the regressor of the batch fit: X and Xp
        are lifted once each, and Theta0 and Gamma0 equal the fit's model
        and the inverse Gram of a fresh [lift(X); U], bit for bit."""
        rng = np.random.default_rng(41)
        stream = rls_stream(rng, n=2, p=1, steps=60)
        pairs = [(x, u) for x, u, _ in stream] + [(stream[-1][2], np.zeros(1))]
        snapshots = collect_snapshots(pairs)
        d = ObservableDictionary(2, "trig")
        model, _ = fit(snapshots, d)
        G = np.vstack([d.lift_batch(snapshots.X), snapshots.U])
        inv_gram = np.linalg.inv(G @ G.T)
        lifted = []
        lift_batch = ObservableDictionary.lift_batch

        def counting(self, X):
            lifted.append(X)
            return lift_batch(self, X)

        monkeypatch.setattr(ObservableDictionary, "lift_batch", counting)
        est = init_from_batch(snapshots, d)
        assert len(lifted) == 2
        np.testing.assert_array_equal(est.theta, np.hstack([model.K, model.B]))
        np.testing.assert_array_equal(est.Gamma,
                                      (inv_gram + inv_gram.T) / 2.0)

    def test_rank_deficient_batch_raises(self):
        """The exact Gram inverse needs a full-rank regressor; a batch
        without one raises from the fit, with no fallback model."""
        pairs = [(np.array([1.0, 1.0]), None)] * 10
        with pytest.raises(RankDeficientRegressor):
            init_from_batch(collect_snapshots(pairs),
                            ObservableDictionary(2, "identity"))

    def test_data_gamma_is_spd(self):
        rng = np.random.default_rng(14)
        stream = rls_stream(rng, n=2, p=1, steps=60)
        pairs = [(x, u) for x, u, _ in stream] + [(stream[-1][2], np.zeros(1))]
        est = init_from_batch(collect_snapshots(pairs),
                              ObservableDictionary(2, "identity"))
        np.linalg.cholesky(est.Gamma)  # raises if not SPD


class TestInvariants:
    def test_lambda_bounds_over_run(self):
        rng = np.random.default_rng(19)
        d = ObservableDictionary(2, "identity")
        settings = RedmdSettings(m_op=8, eps_low=1e-9, eps_high=1e-3,
                                 lambda_min=0.9, adaptive_lambda=True)
        est = RecursiveEstimator(np.zeros((2, 3)), 10 * np.eye(3), d, settings)
        for x, u, x_next in rls_stream(rng, steps=200):
            r = est.step(x, u, x_next)
            assert 0.9 <= r.lam <= 1.0

    def test_trace_bound_after_every_step(self):
        rng = np.random.default_rng(29)
        d = ObservableDictionary(2, "identity")
        settings = RedmdSettings(m_op=8, eps_low=0.0, lambda0=0.9,
                                 adaptive_lambda=False, trace_max_factor=2.0)
        est = RecursiveEstimator(np.zeros((2, 3)), np.eye(3), d, settings)
        for x, u, x_next in rls_stream(rng, steps=300):
            r = est.step(x, u, x_next)
            assert r.trace_gamma <= est.trace_max + 1e-12

    def test_gamma_symmetric_through_run(self):
        rng = np.random.default_rng(39)
        d = ObservableDictionary(2, "identity")
        settings = RedmdSettings(m_op=8, eps_low=0.0, lambda0=0.95,
                                 adaptive_lambda=True)
        est = RecursiveEstimator(np.zeros((2, 3)), np.eye(3), d, settings)
        for x, u, x_next in rls_stream(rng, steps=200):
            est.step(x, u, x_next)
            assert np.max(np.abs(est.Gamma - est.Gamma.T)) == 0.0
            np.linalg.cholesky(est.Gamma)  # and positive definite


def _state(est):
    """Everything step() may mutate, copied."""
    return (est.theta.copy(), est.Gamma.copy(), est.lam, est.sigma_e,
            est.Sigma0, est._count, est._phi_win.copy(), list(est._err_buf))


def _assert_same_state(a, b):
    for va, vb in zip(a, b):
        np.testing.assert_array_equal(va, vb)


class TestAtomicStep:
    """A rejected sample leaves the estimator exactly as it was."""

    @pytest.fixture
    def warm_estimator(self):
        rng = np.random.default_rng(41)
        d = ObservableDictionary(2, "identity")
        settings = RedmdSettings(m_op=4, eps_low=0.0, lambda0=0.97,
                                 adaptive_lambda=True)
        est = RecursiveEstimator(np.zeros((2, 3)), np.eye(3), d, settings)
        for x, u, x_next in rls_stream(rng, steps=12):
            est.step(x, u, x_next)
        return est

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["x", "u", "x_next"])
    def test_nonfinite_sample_rejected_without_mutation(self, warm_estimator,
                                                        where, bad):
        sample = {"x": np.array([0.3, -0.2]), "u": np.array([0.5]),
                  "x_next": np.array([0.1, 0.4])}
        sample[where][-1] = bad
        before = _state(warm_estimator)
        with pytest.raises(NonFiniteState):
            warm_estimator.step(sample["x"], sample["u"], sample["x_next"])
        _assert_same_state(_state(warm_estimator), before)
        # the estimator carries on as if the sample never arrived
        assert warm_estimator.step(np.array([0.3, -0.2]), np.array([0.5]),
                                   np.array([0.1, 0.4])).updated

    @pytest.mark.parametrize("k, x, x_next", [
        (0.0, 1e200, 0.0),       # phi^T Gamma phi overflows the denominator
        (-1e308, 1.0, 1e308),    # the innovation overflows the model
    ])
    def test_overflowing_update_rejected_without_mutation(self, k, x, x_next):
        """A finite sample whose update overflows raises CovarianceNotPD,
        without overflow warnings, with Theta and Gamma untouched."""
        est = scalar_estimator(gamma=1.0, k=k)
        theta, gamma = est.theta.copy(), est.Gamma.copy()
        with no_runtime_warnings(), pytest.raises(CovarianceNotPD):
            est.step(np.array([x]), None, np.array([x_next]))
        np.testing.assert_array_equal(est.theta, theta)
        np.testing.assert_array_equal(est.Gamma, gamma)


@hypothesis.settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       lambda_min=st.floats(0.5, 1.0),
       m_op=st.integers(2, 8),
       eps_low=st.floats(0.0, 0.3),
       trace_max_factor=st.floats(0.01, 20.0),
       noise=st.floats(0.0, 0.3))
def test_step_invariants_over_random_streams(seed, lambda_min, m_op, eps_low,
                                             trace_max_factor, noise):
    """lambda in [lambda_min, 1], tr Gamma within the bound, Gamma exactly
    symmetric and PD after every step; a closed gate leaves Theta and Gamma
    bitwise unchanged."""
    rng = np.random.default_rng(seed)
    s = RedmdSettings(lambda_min=lambda_min, m_op=m_op, eps_low=eps_low,
                      eps_high=max(eps_low, 0.05), n0=10.0,
                      trace_max_factor=trace_max_factor, adaptive_lambda=True)
    est = RecursiveEstimator(np.zeros((2, 3)), np.eye(3),
                             ObservableDictionary(2, "identity"), s)
    stream = rls_stream(rng, steps=30) + rls_stream(rng, steps=30)
    for x, u, x_next in stream:
        x_next = x_next + noise * rng.standard_normal(2)
        theta, gamma = est.theta.copy(), est.Gamma.copy()
        report = est.step(x, u, x_next)
        assert lambda_min <= report.lam <= 1.0
        assert report.trace_gamma <= est.trace_max * (1.0 + 1e-12)
        assert (est.Gamma == est.Gamma.T).all()
        np.linalg.cholesky(est.Gamma)  # raises if not PD
        if not report.updated:
            assert (est.theta == theta).all() and (est.Gamma == gamma).all()


@hypothesis.settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       p=st.integers(0, 2),
       family=st.sampled_from(["identity", "trig", "monomial"]),
       degree=st.integers(2, 3), m_op=st.integers(2, 12),
       eps_low=st.floats(0.0, 0.3),
       trace_max_factor=st.sampled_from([1.0, 1.5, 10.0, np.inf]))
def test_incremental_window_equals_full_recompute(seed, n, p, family, degree,
                                                  m_op, eps_low,
                                                  trace_max_factor):
    """The window error step() reports equals, bit for bit, a full recompute
    on a copy holding the Theta the gate saw: through warm-up, the first
    full step, gate openings, closed-gate runs and trace-bound hits, with
    zero to two inputs and lifted sizes from 1 to 19."""
    rng = np.random.default_rng(seed)
    d = ObservableDictionary(n, family, degree)
    s = RedmdSettings(lambda_min=0.9, m_op=m_op, eps_low=eps_low,
                      eps_high=max(eps_low, 0.05), n0=10.0,
                      trace_max_factor=trace_max_factor,
                      state_scales=np.linspace(1.0, 3.0, n))
    q = d.size + p
    est = RecursiveEstimator(np.zeros((d.size, q)), np.eye(q), d, s)
    # the second system is a parameter change that reopens the gate
    stream = (rls_stream(rng, n=n, p=max(p, 1), steps=40)
              + rls_stream(rng, n=n, p=max(p, 1), steps=40))
    for x, u, x_next in stream:
        theta = est.theta
        report = est.step(x, u[:p] if p else None, x_next)
        ref = copy.deepcopy(est)
        ref.theta = theta
        assert report.window_error == window_error_oracle(ref)
        if est._count >= m_op:
            # the lifted window step() keeps equals a fresh lift of its
            # state rows
            np.testing.assert_array_equal(est._phi_win[:d.size],
                                          d.lift_batch(est._phi_win[:n]))


@pytest.mark.parametrize("eps_low", [0.0, 1e300])
def test_step_never_relifts_the_window(monkeypatch, eps_low):
    """step() lifts only the newest sample, gate open or closed (eps_low =
    1e300 keeps it shut after warm-up on this stream): it never
    calls the batch lift, and it calls prediction_error_window once per
    sample from the window's first full one on. Each reported window error
    equals the full recompute on a copy holding the Theta the gate saw, bit
    for bit, and reading the window error leaves the estimator as it was."""
    calls = {"prediction_error_window": 0, "lift_batch": 0}
    for owner, name in ((RecursiveEstimator, "prediction_error_window"),
                        (ObservableDictionary, "lift_batch")):
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    s = RedmdSettings(m_op=5, eps_low=eps_low, eps_high=np.inf)
    est = RecursiveEstimator(np.zeros((2, 3)), np.eye(3),
                             ObservableDictionary(2, "identity"), s)
    stream = rls_stream(np.random.default_rng(8), steps=30)
    for k, (x, u, x_next) in enumerate(stream, 1):
        theta, before = est.theta, dict(calls)
        report = est.step(x, u, x_next)
        assert calls == {
            "prediction_error_window": (before["prediction_error_window"]
                                        + (k >= s.m_op)),
            "lift_batch": before["lift_batch"]}
        ref = copy.deepcopy(est)
        ref.theta = theta
        assert report.window_error == window_error_oracle(ref)
    assert calls["prediction_error_window"] == len(stream) - (s.m_op - 1)
    before = copy.deepcopy(vars(est))
    assert math.isfinite(est.prediction_error_window())
    np.testing.assert_equal(vars(est), before)


def _chain(stream, feed):
    """The stream's samples as step() receives them. "chained": each x is
    the previous x_next object; "copies": a fresh copy of it; "broken":
    every third x differs from the previous x_next, by one ulp or by the
    sign of a zero."""
    xs = [stream[0][0]] + [x_next for _, _, x_next in stream]
    xs[40][1] = 0.0  # a zero the chain then breaks by its sign
    out = []
    for k, (_, u, _) in enumerate(stream):
        x = xs[k]
        if feed == "copies":
            x = x.copy()
        elif feed == "broken" and k % 3 == 1:
            x = x.copy()
            if k == 40:
                x[1] = -0.0  # equal by value, not by bytes
            else:
                x[0] = np.nextafter(x[0], np.inf)
        out.append((x, u, xs[k + 1]))
    return out


@pytest.mark.parametrize("feed", ["chained", "copies", "broken"])
def test_lift_reuse_matches_fresh_lifts_bitwise(feed):
    """Reusing the previous successor's lift for an equal start state gives
    the estimator of one that lifts both states of every sample, bit for
    bit: Theta, Gamma, the regressor window and every report."""
    rng = np.random.default_rng(23)
    stream = rls_stream(rng, steps=60) + rls_stream(rng, steps=60)
    d = ObservableDictionary(2, "trig")
    s = RedmdSettings(m_op=10, eps_low=0.05, eps_high=0.2, n0=10.0,
                      lambda_min=0.9)
    q = d.size + 1
    est = RecursiveEstimator(np.zeros((d.size, q)), np.eye(q), d, s)
    fresh = copy.deepcopy(est)
    samples = _chain(stream, feed)
    assert (samples[40][0][1] == 0.0
            and math.copysign(1.0, samples[40][0][1])
            == (-1.0 if feed == "broken" else 1.0))
    for x, u, x_next in samples:
        report = est.step(x, u, x_next)
        fresh._next_key = None  # forget the successor: lift x afresh
        assert repr(report) == repr(fresh.step(x, u, x_next))
        for name in ("theta", "Gamma", "_phi_win"):
            assert (getattr(est, name).tobytes()
                    == getattr(fresh, name).tobytes())


def test_lift_reuse_keeps_the_shape_check():
    """A start state with the previous successor's bytes but the wrong
    shape is still rejected."""
    est = RecursiveEstimator(np.zeros((2, 3)), np.eye(3),
                             ObservableDictionary(2, "identity"),
                             RedmdSettings(m_op=4))
    x_next = np.array([0.1, 0.4])
    est.step(np.array([0.3, -0.2]), np.array([0.5]), x_next)
    with pytest.raises(DimensionMismatch):
        est.step(x_next.reshape(1, 2), np.array([0.5]), x_next)
