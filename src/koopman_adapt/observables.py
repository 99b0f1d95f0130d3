"""Lifting dictionaries: the map from plant states to lifted coordinates.

A dictionary is one of three closed-form families over the state x:
identity (x), trig (x, then sin x_i and cos x_i per coordinate) and monomial
(x, then every monomial of total degree 2..degree). Each starts with the
coordinate maps, so recovering the state is exact truncation (``[I | 0]``).
A single state is lifted as a one-column batch, so ``lift(x)`` is a column
of ``lift_batch`` by construction. A lifted size above MAX_LIFTED is
refused, counted before any monomial is built.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

from .errors import DimensionMismatch

# the largest lifted size N: at the caps MAX_WINDOW and MAX_STACKED, the gate
# window's (N + p) m_op floats stay within 0.5 GB and the controller's
# (H + 1) N^2 within 70 MB
MAX_LIFTED = 64


@dataclass(frozen=True)
class ObservableDictionary:
    """An ordered basis of observables over the plant state space.

    Attributes:
        n: State dimension.
        family: "identity", "trig" or "monomial".
        degree: Highest total degree of the monomial family (>= 1; the
                other families ignore it).
        output_index: The state coordinate measured as the scalar output.

    Its lifted size N is at most MAX_LIFTED.
    """

    n: int
    family: str = "trig"
    degree: int = 2
    output_index: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.n}")
        if self.family not in ("identity", "trig", "monomial"):
            raise ValueError(f"unknown dictionary family {self.family!r}; "
                             "expected identity, trig, or monomial")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if not 0 <= self.output_index < self.n:
            raise ValueError(f"output_index must address a state coordinate "
                             f"(< {self.n}), got {self.output_index}")
        if self.size > MAX_LIFTED:
            raise ValueError(f"lifted size must be <= {MAX_LIFTED}, got "
                             f"{self.size}")

    @cached_property
    def size(self) -> int:
        """Lifted dimension N: n, 3n, or C(n + degree, n) - 1, the count of
        the monomials of total degree 1..degree."""
        if self.family == "monomial":
            return math.comb(self.n + self.degree, self.n) - 1
        return 3 * self.n if self.family == "trig" else self.n

    @cached_property
    def _monomials(self) -> tuple:
        """Index tuples of the degree 2..degree monomials, in row order."""
        return tuple(idx for deg in range(2, self.degree + 1) for idx
                     in combinations_with_replacement(range(self.n), deg))

    def _lift(self, X: np.ndarray) -> np.ndarray:
        """The (N, M) lift of an (n, M) float array of states."""
        n = self.n
        if self.family == "trig":
            out = np.empty((3 * n, X.shape[1]))
            out[:n] = X
            out[n::2] = np.sin(X)  # rows n + 2i: sin x_i
            out[n + 1::2] = np.cos(X)  # rows n + 2i + 1: cos x_i
            return out
        if self.family == "monomial":
            return np.concatenate([X] + [
                np.prod(X[list(idx)], axis=0, keepdims=True)
                for idx in self._monomials])
        return X.copy()

    def lift(self, x) -> np.ndarray:
        """Evaluate all observables at one state (n,), or at each state of
        a stack (C, n); the first n entries equal x."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n,) or x.ndim > 2:
            raise DimensionMismatch(
                f"expected state of shape ({self.n},) or (C, {self.n}), "
                f"got {x.shape}")
        if x.ndim == 1:
            return self._lift(x[:, None])[:, 0]
        return np.ascontiguousarray(self._lift(x.T).T)

    def lift_batch(self, X) -> np.ndarray:
        """Columnwise lift of an (n, M) snapshot matrix to (N, M)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise DimensionMismatch(
                f"expected snapshots of shape ({self.n}, M), got {X.shape}")
        return self._lift(X)
