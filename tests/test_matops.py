"""Tests for the full-row-rank pseudo-inverse behind the batch fit, and for
the matrix-inversion lemma that the oracles keep as a verification
helper."""

import numpy as np
import pytest

from koopman_adapt.edmd import pinv_full_row_rank
from koopman_adapt.errors import (
    NonFiniteState,
    NotSquare,
    RankDeficientRegressor,
)
from koopman_adapt.oracles import SingularInner, woodbury


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


class TestWoodbury:
    def test_zero_b_collapses_to_a(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3)) + 4 * np.eye(3)
        B = np.zeros((3, 2))
        C = np.eye(2)
        D = rng.standard_normal((2, 3))
        np.testing.assert_allclose(woodbury(A, B, C, D), A)

    def test_scalar_case(self):
        one = np.array([[1.0]])
        np.testing.assert_allclose(woodbury(one, one, one, one), [[0.5]])

    def test_direct_inversion_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            A = rng.standard_normal((4, 4)) + 5 * np.eye(4)
            C = rng.standard_normal((2, 2)) + 5 * np.eye(2)
            B = rng.standard_normal((4, 2))
            D = rng.standard_normal((2, 4))
            direct = np.linalg.inv(np.linalg.inv(A) + B @ np.linalg.inv(C) @ D)
            assert np.max(np.abs(woodbury(A, B, C, D) - direct)) < 1e-10

    def test_singular_inner_raises(self):
        A = np.array([[1.0]])
        B = np.array([[1.0]])
        C = np.array([[-1.0]])
        D = np.array([[1.0]])
        with pytest.raises(SingularInner):
            woodbury(A, B, C, D)

    def test_not_square_rejected(self):
        with pytest.raises(NotSquare):
            woodbury(np.zeros((2, 3)), np.zeros((2, 1)), np.eye(1),
                     np.zeros((1, 2)))

    def test_nonconformable_raises(self):
        with pytest.raises(ValueError):
            woodbury(np.eye(3), np.zeros((3, 2)), np.eye(2), np.zeros((3, 3)))
