"""Tests for lifting dictionaries and projections."""

import numpy as np
import pytest

from koopman_adapt.errors import DimensionMismatch
from koopman_adapt.observables import (
    dictionary_from_functions,
    identity_dictionary,
    make_dictionary,
    monomial_dictionary,
    trig_dictionary,
)


@pytest.fixture
def sin_product_dict():
    """The dictionary [x1, x2, sin(x1), x1*x2]."""
    return dictionary_from_functions(
        2,
        [lambda x: x[0], lambda x: x[1],
         lambda x: np.sin(x[0]), lambda x: x[0] * x[1]],
        names=("x1", "x2", "sin(x1)", "x1*x2"),
    )


class TestLift:
    def test_at_origin(self, sin_product_dict):
        np.testing.assert_array_equal(
            sin_product_dict.lift(np.zeros(2)), np.zeros(4))

    def test_analytic_point(self, sin_product_dict):
        psi = sin_product_dict.lift(np.array([np.pi / 2, 1.0]))
        np.testing.assert_allclose(psi, [np.pi / 2, 1.0, 1.0, np.pi / 2])

    def test_identity_dictionary_is_identity(self):
        d = identity_dictionary(3)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3)
        np.testing.assert_array_equal(d.lift(x), x)

    def test_deterministic_bitwise(self, sin_product_dict):
        x = np.array([0.31, -2.7])
        a = sin_product_dict.lift(x)
        b = sin_product_dict.lift(x)
        assert (a == b).all()

    def test_dimension_mismatch(self, sin_product_dict):
        with pytest.raises(DimensionMismatch):
            sin_product_dict.lift(np.zeros(3))


class TestLiftBatch:
    def test_single_column_reduces_to_lift(self, sin_product_dict):
        x = np.array([0.4, 1.2])
        np.testing.assert_array_equal(
            sin_product_dict.lift_batch(x[:, None])[:, 0],
            sin_product_dict.lift(x))

    def test_column_permutation(self, sin_product_dict):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((2, 6))
        perm = rng.permutation(6)
        np.testing.assert_array_equal(
            sin_product_dict.lift_batch(X[:, perm]),
            sin_product_dict.lift_batch(X)[:, perm])

    def test_identity_dictionary_passthrough(self):
        d = identity_dictionary(2)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((2, 5))
        np.testing.assert_array_equal(d.lift_batch(X), X)

    def test_shape_check(self, sin_product_dict):
        with pytest.raises(DimensionMismatch):
            sin_product_dict.lift_batch(np.zeros((3, 4)))


class TestProjections:
    def test_state_round_trip(self, sin_product_dict):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(2)
        np.testing.assert_array_equal(
            sin_product_dict.project_state(sin_product_dict.lift(x)), x)

    def test_identity_case(self):
        d = identity_dictionary(3)
        psi = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(d.project_state(psi), psi)

    def test_truncation(self):
        d = dictionary_from_functions(
            2, [lambda x: x[0], lambda x: x[1],
                lambda x: x[0] ** 2, lambda x: x[1] ** 2])
        np.testing.assert_array_equal(
            d.project_state(np.array([1.0, 2.0, 3.0, 4.0])), [1.0, 2.0])

    def test_output_first_coordinate(self, sin_product_dict):
        psi = sin_product_dict.lift(np.array([3.0, -1.0]))
        assert sin_product_dict.output_projection() @ psi == 3.0

    def test_output_arbitrary_index(self):
        d = dictionary_from_functions(
            2, [lambda x: x[0], lambda x: x[1], lambda x: x[0] * x[1]],
            output_index=1)
        assert d.output_projection() @ np.array([5.0, 7.0, 9.0]) == 7.0

    def test_output_matches_state_coordinate(self):
        d = trig_dictionary(2, output_index=1)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2)
        assert d.output_projection() @ d.lift(x) == x[1]

    def test_projection_matrices(self, sin_product_dict):
        row = sin_product_dict.output_projection()
        np.testing.assert_array_equal(row, [1, 0, 0, 0])


class TestFamilies:
    def test_trig_size(self):
        assert trig_dictionary(2).size == 6

    def test_trig_values(self):
        d = trig_dictionary(1)
        np.testing.assert_allclose(
            d.lift(np.array([np.pi])), [np.pi, np.sin(np.pi), -1.0], atol=1e-15)

    def test_monomial_size_n2_d2(self):
        # x1, x2, x1^2, x1*x2, x2^2
        assert monomial_dictionary(2, 2).size == 5

    def test_monomial_values(self):
        d = monomial_dictionary(2, 2)
        np.testing.assert_allclose(
            d.lift(np.array([2.0, 3.0])), [2.0, 3.0, 4.0, 6.0, 9.0])

    def test_monomial_names(self):
        d = monomial_dictionary(2, 3)
        assert "x1^2" in d.names and "x1*x2" in d.names and "x1^2*x2" in d.names

    def test_make_dictionary_dispatch(self):
        assert make_dictionary("identity", 2).family == "identity"
        assert make_dictionary("trig", 2).family == "trig"
        assert make_dictionary("monomial", 2, degree=3).size == 2 + 3 + 4
        with pytest.raises(ValueError):
            make_dictionary("fourier", 2)

    def test_identity_prefix_enforced(self):
        with pytest.raises(ValueError):
            dictionary_from_functions(
                2, [lambda x: x[1], lambda x: x[0], lambda x: x[0] ** 2])

    def test_output_index_range(self):
        with pytest.raises(ValueError):
            identity_dictionary(2, output_index=5)
