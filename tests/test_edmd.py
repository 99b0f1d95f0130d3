"""Tests for snapshot handling, the full-row-rank pseudo-inverse and the
batch EDMD fit."""

import numpy as np
import pytest

from koopman_adapt.edmd import (
    SnapshotSet,
    _as_input,
    collect_snapshots,
    fit,
    pinv_full_row_rank,
)
from koopman_adapt.errors import (
    DimensionMismatch,
    NonFiniteState,
    RankDeficientRegressor,
    TooFewSamples,
)
from koopman_adapt.observables import ObservableDictionary

from conftest import FunctionDictionary


def scalar_decay_trajectory(k_true=0.9, x0=1.0, steps=50):
    xs = [np.array([x0])]
    for _ in range(steps - 1):
        xs.append(k_true * xs[-1])
    return [(x, None) for x in xs]


@pytest.fixture
def invariant_subspace_dict():
    """[x1, x2, x1^2] is invariant for x1' = a x1, x2' = b x2 + c x1^2."""
    return FunctionDictionary(
        2, [lambda x: x[0], lambda x: x[1], lambda x: x[0] ** 2])


def invariant_subspace_data(a=0.9, b=0.5, c=0.4, n_traj=6, steps=15, seed=0):
    """Trajectories of a system whose lifted dynamics are exactly linear."""
    rng = np.random.default_rng(seed)
    K_true = np.array([[a, 0.0, 0.0], [0.0, b, c], [0.0, 0.0, a * a]])
    sets = []
    for _ in range(n_traj):
        x = rng.uniform(-1.0, 1.0, size=2)
        pairs = [(x.copy(), None)]
        for _ in range(steps):
            x = np.array([a * x[0], b * x[1] + c * x[0] ** 2])
            pairs.append((x.copy(), None))
        sets.append(collect_snapshots(pairs))
    # side by side, so no pair crosses from one trajectory into the next
    merged = SnapshotSet(np.hstack([s.X for s in sets]),
                         np.hstack([s.Xp for s in sets]),
                         np.hstack([s.U for s in sets]))
    return merged, K_true


class TestAsInput:
    def test_float_vector_taken_as_is(self):
        u = np.array([0.5, -1.0])
        assert _as_input(u, 2) is u

    @pytest.mark.parametrize("u, want", [
        (0.5, [0.5]), ([1, 2], [1.0, 2.0]), (np.array(3.0), [3.0]),
        (np.array([1, 2]), [1.0, 2.0]), (None, [])])
    def test_other_forms_converted(self, u, want):
        got = _as_input(u)
        assert got.dtype == np.float64 and got.ndim == 1
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("u", [np.zeros(3), np.zeros((2, 1)),
                                   np.zeros((1, 2)), [1, 2, 3], None])
    def test_wrong_shape_rejected(self, u):
        with pytest.raises(DimensionMismatch, match="input of shape"):
            _as_input(u, 2)


class TestCollectSnapshots:
    def test_minimal_pair(self):
        s = collect_snapshots([(np.array([1.0]), np.array([0.5])),
                               (np.array([2.0]), np.array([0.7]))])
        assert s.X.shape[1] == 1
        np.testing.assert_array_equal(s.X, [[1.0]])
        np.testing.assert_array_equal(s.Xp, [[2.0]])
        np.testing.assert_array_equal(s.U, [[0.5]])

    def test_shift_structure(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        s = collect_snapshots([(np.array([v]), None) for v in vals])
        np.testing.assert_array_equal(s.X, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(s.Xp, [[2.0, 3.0, 4.0]])
        assert s.p == 0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            collect_snapshots([(np.array([1.0]), None)])


def penrose_residuals(A, Ap):
    """Max relative residual of the four Penrose conditions."""
    na = np.linalg.norm(A)
    np_ = np.linalg.norm(Ap)
    return max(
        np.linalg.norm(A @ Ap @ A - A) / max(na, 1e-300),
        np.linalg.norm(Ap @ A @ Ap - Ap) / max(np_, 1e-300),
        np.linalg.norm((A @ Ap).T - A @ Ap) / max(1.0, np_ * na),
        np.linalg.norm((Ap @ A).T - Ap @ A) / max(1.0, np_ * na),
    )


class TestPinvFullRowRank:
    def test_identity(self):
        np.testing.assert_allclose(pinv_full_row_rank(np.eye(2)), np.eye(2))

    def test_diagonal_wide(self):
        A = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        expected = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
        np.testing.assert_allclose(pinv_full_row_rank(A), expected)

    def test_residual_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.standard_normal((3, 5))
            Ap = pinv_full_row_rank(A)
            assert np.linalg.norm(A @ Ap @ A - A) < 1e-10

    def test_penrose_conditions(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.standard_normal((4, 7))
            assert penrose_residuals(A, pinv_full_row_rank(A)) < 1e-8

    def test_rank_deficient_raises(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(RankDeficientRegressor) as info:
            pinv_full_row_rank(A)
        assert info.value.cond > 1e12

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteState):
            pinv_full_row_rank(np.array([[1.0, np.nan]]))


class TestFit:
    def test_scalar_autonomous_decay(self):
        s = collect_snapshots(scalar_decay_trajectory())
        model, _ = fit(s, ObservableDictionary(1, "identity"))
        np.testing.assert_allclose(model.K, [[0.9]], rtol=1e-12)
        assert model.B.shape == (1, 0)

    def test_scalar_with_input(self):
        rng = np.random.default_rng(42)
        x = np.array([0.3])
        pairs = []
        for _ in range(80):
            u = rng.standard_normal(1)
            pairs.append((x.copy(), u))
            x = 0.5 * x + 0.2 * u
        pairs.append((x.copy(), np.zeros(1)))
        model, _ = fit(collect_snapshots(pairs),
                       ObservableDictionary(1, "identity"))
        np.testing.assert_allclose(model.K, [[0.5]], atol=1e-10)
        np.testing.assert_allclose(model.B, [[0.2]], atol=1e-10)

    def test_recovers_lifted_space_generator(self, invariant_subspace_dict):
        snapshots, K_true = invariant_subspace_data()
        model, _ = fit(snapshots, invariant_subspace_dict)
        rel = (np.linalg.norm(model.K - K_true, "fro")
               / np.linalg.norm(K_true, "fro"))
        assert rel < 1e-8

    def test_rank_deficient_raises_with_cond(self):
        # constant trajectory: regressor rows are collinear
        pairs = [(np.array([1.0, 1.0]), None)] * 10
        with pytest.raises(RankDeficientRegressor) as info:
            fit(collect_snapshots(pairs), ObservableDictionary(2, "identity"))
        assert info.value.cond > 1e12

    def test_overflowing_successor_lift_is_nonfinite_state(self):
        """A successor whose lift overflows while lift(X) stays finite is a
        NonFiniteState, not the model's bare ValueError."""
        rng = np.random.default_rng(31)
        X = rng.standard_normal((1, 20))
        Xp = rng.standard_normal((1, 20))
        Xp[0, 7] = 1e200  # its square overflows
        U = rng.standard_normal((1, 20))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState):
                fit(SnapshotSet(X, Xp, U),
                    ObservableDictionary(1, "monomial", 2))

    def test_returns_the_stacked_regressor(self, invariant_subspace_dict):
        """The second result is the regressor [lift(X); U] the model was
        fitted on, bit for bit."""
        snapshots, _ = invariant_subspace_data(seed=3)
        _, G = fit(snapshots, invariant_subspace_dict)
        np.testing.assert_array_equal(G, np.vstack([
            invariant_subspace_dict.lift_batch(snapshots.X), snapshots.U]))

    def test_column_reordering_invariance(self, invariant_subspace_dict):
        snapshots, _ = invariant_subspace_data(seed=5)
        rng = np.random.default_rng(17)
        perm = rng.permutation(snapshots.X.shape[1])
        shuffled = type(snapshots)(snapshots.X[:, perm], snapshots.Xp[:, perm],
                                   snapshots.U[:, perm])
        m1, _ = fit(snapshots, invariant_subspace_dict)
        m2, _ = fit(shuffled, invariant_subspace_dict)
        np.testing.assert_allclose(m1.K, m2.K, atol=1e-9)

    def test_least_squares_optimality(self, invariant_subspace_dict):
        """No sampled perturbation of the fit may reduce the residual."""
        snapshots, _ = invariant_subspace_data(seed=9, steps=8)
        # make the data non-exact so the residual is nonzero
        noisy = type(snapshots)(
            snapshots.X, snapshots.Xp + 1e-3 * np.sin(snapshots.Xp),
            snapshots.U)
        model, _ = fit(noisy, invariant_subspace_dict)
        d = invariant_subspace_dict
        G = np.vstack([d.lift_batch(noisy.X), noisy.U])
        PsiXp = d.lift_batch(noisy.Xp)
        KB = np.hstack([model.K, model.B])
        base = np.linalg.norm(PsiXp - KB @ G, "fro")
        rng = np.random.default_rng(23)
        for _ in range(20):
            delta = rng.standard_normal(KB.shape)
            delta *= 1e-3 / np.linalg.norm(delta, "fro")
            perturbed = np.linalg.norm(PsiXp - (KB + delta) @ G, "fro")
            assert perturbed >= base - 1e-12


class TestRollout:
    def test_lifted_rollout_matches_generator(self, invariant_subspace_dict):
        """Powers of the fitted K carry the lift of x0 along the true
        trajectory: the dictionary spans an invariant subspace."""
        snapshots, _ = invariant_subspace_data()
        model, _ = fit(snapshots, invariant_subspace_dict)
        a, b, c = 0.9, 0.5, 0.4
        x = np.array([0.7, -0.3])
        psi = invariant_subspace_dict.lift(x)
        for _ in range(20):
            x = np.array([a * x[0], b * x[1] + c * x[0] ** 2])
            psi = model.K @ psi
            np.testing.assert_allclose(psi[:2], x, atol=1e-8)
