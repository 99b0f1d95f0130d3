"""Tests for lifting dictionaries and projections."""

from itertools import combinations_with_replacement

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from koopman_adapt.errors import DimensionMismatch
from koopman_adapt.observables import ObservableDictionary

FAMILIES = [ObservableDictionary(2, "identity"), ObservableDictionary(2),
            ObservableDictionary(2, "monomial", 3)]


def callable_observables(family, n, degree):
    """The dictionary rows as one callable per observable, written the way
    the dictionary held them before its lifts became closed forms: each
    indexes the state as x[i] and broadcasts over a trailing sample axis."""
    funcs = [lambda x, i=i: x[i] for i in range(n)]
    if family == "trig":
        for i in range(n):
            funcs.append(lambda x, i=i: np.sin(x[i]))
            funcs.append(lambda x, i=i: np.cos(x[i]))
    elif family == "monomial":
        for deg in range(2, degree + 1):
            for idx in combinations_with_replacement(range(n), deg):
                funcs.append(lambda x, idx=idx: np.prod(x[list(idx)], axis=0))
    return funcs


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@hypothesis.settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       family=st.sampled_from(["identity", "trig", "monomial"]),
       degree=st.integers(1, 4), M=st.integers(1, 60))
def test_closed_forms_equal_the_callables_bit_for_bit(seed, n, family, degree,
                                                      M):
    """lift and lift_batch give exactly the bits of evaluating the callables
    one at a time, on a single state and stacked over a batch, for states of
    magnitude 1e-3 to 1e4; the first n rows are the states themselves."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, M)) * 10.0 ** rng.uniform(-3.0, 4.0, (n, M))
    d = ObservableDictionary(n, family, degree)
    funcs = callable_observables(family, n, degree)
    assert d.size == len(funcs)
    batch = d.lift_batch(X)
    assert same_bits(batch, np.stack([np.broadcast_to(f(X), (M,))
                                      for f in funcs]).astype(float))
    assert same_bits(batch[:n], X)
    # the gate window lifts a slice of a wider array
    assert same_bits(d.lift_batch(np.hstack([X, X[:, :1]])[:, :-1]), batch)
    for j in range(M):
        psi = d.lift(X[:, j])
        assert same_bits(psi, np.array([f(X[:, j]) for f in funcs],
                                       dtype=float))
        assert same_bits(psi, batch[:, j])


class TestLift:
    def test_at_origin(self):
        np.testing.assert_array_equal(
            ObservableDictionary(2, "monomial", 2).lift(np.zeros(2)),
            np.zeros(5))

    def test_analytic_point(self):
        psi = ObservableDictionary(2).lift(np.array([np.pi / 2, 0.0]))
        np.testing.assert_allclose(psi, [np.pi / 2, 0.0, 1.0, 0.0, 0.0, 1.0],
                                   atol=1e-15)

    def test_identity_dictionary_is_identity(self):
        d = ObservableDictionary(3, "identity")
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3)
        np.testing.assert_array_equal(d.lift(x), x)

    def test_deterministic_bitwise(self):
        x = np.array([0.31, -2.7])
        for d in FAMILIES:
            assert same_bits(d.lift(x), d.lift(x))

    def test_dimension_mismatch(self):
        for d in FAMILIES:
            for bad in (np.zeros(3), np.zeros((2, 1))):
                with pytest.raises(DimensionMismatch):
                    d.lift(bad)


class TestLiftBatch:
    def test_single_column_reduces_to_lift(self):
        x = np.array([0.4, 1.2])
        for d in FAMILIES:
            assert same_bits(d.lift_batch(x[:, None])[:, 0], d.lift(x))

    def test_column_permutation(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((2, 6))
        perm = rng.permutation(6)
        for d in FAMILIES:
            np.testing.assert_array_equal(d.lift_batch(X[:, perm]),
                                          d.lift_batch(X)[:, perm])

    def test_identity_dictionary_passthrough(self):
        d = ObservableDictionary(2, "identity")
        rng = np.random.default_rng(4)
        X = rng.standard_normal((2, 5))
        np.testing.assert_array_equal(d.lift_batch(X), X)

    def test_shape_check(self):
        for d in FAMILIES:
            for bad in (np.zeros((3, 4)), np.zeros(2), np.zeros((2, 2, 2))):
                with pytest.raises(DimensionMismatch):
                    d.lift_batch(bad)


class TestProjections:
    def test_output_first_coordinate(self):
        d = ObservableDictionary(2)
        assert d.lift(np.array([3.0, -1.0]))[d.output_index] == 3.0

    def test_output_arbitrary_index(self):
        d = ObservableDictionary(2, "monomial", 2, 1)
        assert d.lift(np.array([5.0, 7.0]))[d.output_index] == 7.0

    def test_output_matches_state_coordinate(self):
        d = ObservableDictionary(2, output_index=1)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2)
        assert d.lift(x)[d.output_index] == x[1]


class TestFamilies:
    def test_trig_size(self):
        assert ObservableDictionary(2).size == 6

    def test_trig_values(self):
        d = ObservableDictionary(1)
        np.testing.assert_allclose(
            d.lift(np.array([np.pi])), [np.pi, np.sin(np.pi), -1.0], atol=1e-15)

    def test_monomial_size_n2_d2(self):
        # x1, x2, x1^2, x1*x2, x2^2
        assert ObservableDictionary(2, "monomial", 2).size == 5

    def test_monomial_values(self):
        d = ObservableDictionary(2, "monomial", 2)
        np.testing.assert_allclose(
            d.lift(np.array([2.0, 3.0])), [2.0, 3.0, 4.0, 6.0, 9.0])

    def test_monomial_row_order(self):
        # x1, x2, then x1^2, x1*x2, x2^2, then x1^3, x1^2*x2, x1*x2^2, x2^3
        d = ObservableDictionary(2, "monomial", 3)
        np.testing.assert_array_equal(
            d.lift(np.array([2.0, 3.0])),
            [2.0, 3.0, 4.0, 6.0, 9.0, 8.0, 12.0, 18.0, 27.0])

    def test_family_dispatch(self):
        assert ObservableDictionary(2, "identity").size == 2
        assert ObservableDictionary(2).size == 6  # trig is the default
        assert ObservableDictionary(2, "monomial", 3).size == 2 + 3 + 4
        assert ObservableDictionary(3, "monomial", 1).size == 3
        for args in ((2, "fourier"), (0, "trig"), (2, "monomial", 0),
                     (2, "trig", 0), (2, "monomial", 400),
                     (2, "monomial", 1000000)):
            with pytest.raises(ValueError):
                ObservableDictionary(*args)

    def test_output_index_range(self):
        with pytest.raises(ValueError):
            ObservableDictionary(2, "identity", output_index=5)
        with pytest.raises(ValueError):
            ObservableDictionary(2, output_index=-1)
        # the output is measured from the state: an index past n is refused
        # even where the lifted vector (here N = 6) has that row
        with pytest.raises(ValueError, match="state coordinate"):
            ObservableDictionary(2, "trig", output_index=2)
