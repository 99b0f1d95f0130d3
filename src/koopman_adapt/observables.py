"""Lifting dictionaries: the map from plant states to lifted coordinates and
the projections back to state and output space.

Every dictionary starts with the identity coordinate maps, so recovering the
state from a lifted vector is exact truncation (the projection ``[I | 0]``). Observable functions must accept both a single state
``(n,)`` and a batch ``(n, M)`` and broadcast over the trailing axis; all
built-in families do.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch

_PROBE_RNG_SEED = 0x0B5E


@dataclass(frozen=True)
class ObservableDictionary:
    """An ordered basis of observable functions over the plant state space.

    Attributes:
        n: State dimension.
        funcs: Observable functions; the first ``n`` are the coordinate maps.
        names: Human-readable name per observable.
        output_index: Index of the scalar output within the lifted vector.
        family: Which built-in family produced this dictionary ("custom"
                for user-supplied functions).
    """

    n: int
    funcs: tuple[Callable, ...]
    names: tuple[str, ...]
    output_index: int = 0
    family: str = "custom"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.n}")
        if len(self.funcs) < self.n:
            raise ValueError(
                f"need at least n={self.n} observables, got {len(self.funcs)}")
        if len(self.names) != len(self.funcs):
            raise ValueError("names and funcs must have equal length")
        if not 0 <= self.output_index < len(self.funcs):
            raise ValueError(
                f"output_index {self.output_index} out of range for "
                f"N={len(self.funcs)}")
        self._check_identity_prefix()

    def _check_identity_prefix(self):
        probe = np.random.default_rng(_PROBE_RNG_SEED).uniform(
            -1.7, 1.7, size=(self.n, 3))
        for i in range(self.n):
            got = np.asarray(self.funcs[i](probe), dtype=float)
            if got.shape != (3,) or not np.allclose(got, probe[i], atol=0.0):
                raise ValueError(
                    f"observable {i} is not the coordinate map x[{i}]; the "
                    "first n observables must be the identity maps")

    @property
    def size(self) -> int:
        """Lifted dimension N."""
        return len(self.funcs)

    def lift(self, x) -> np.ndarray:
        """Evaluate all observables at one state; first n entries equal x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(
                f"expected state of shape ({self.n},), got {x.shape}")
        return np.array([f(x) for f in self.funcs], dtype=float)

    def lift_batch(self, X) -> np.ndarray:
        """Columnwise lift of an (n, M) snapshot matrix to (N, M)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise DimensionMismatch(
                f"expected snapshots of shape ({self.n}, M), got {X.shape}")
        return np.stack([np.broadcast_to(f(X), (X.shape[1],))
                         for f in self.funcs]).astype(float)

    def project_state(self, psi) -> np.ndarray:
        """First n components of a lifted vector (P_x = [I | 0])."""
        psi = np.asarray(psi, dtype=float)
        if psi.shape != (self.size,):
            raise DimensionMismatch(
                f"expected lifted vector of shape ({self.size},), got {psi.shape}")
        return psi[: self.n].copy()

    def output_projection(self) -> np.ndarray:
        """The (N,) one-hot row extracting the output from lifted coordinates."""
        row = np.zeros(self.size)
        row[self.output_index] = 1.0
        return row


def _coordinate(i: int) -> Callable:
    return lambda x: x[i]


def identity_dictionary(n: int, output_index: int = 0) -> ObservableDictionary:
    """The trivial dictionary: lifted space equals state space (N = n)."""
    funcs = tuple(_coordinate(i) for i in range(n))
    names = tuple(f"x{i + 1}" for i in range(n))
    return ObservableDictionary(n, funcs, names, output_index, family="identity")


def trig_dictionary(n: int, output_index: int = 0) -> ObservableDictionary:
    """Identity maps plus sin and cos of every coordinate (N = 3n)."""
    funcs = list(_coordinate(i) for i in range(n))
    names = [f"x{i + 1}" for i in range(n)]
    for i in range(n):
        funcs.append(lambda x, i=i: np.sin(x[i]))
        names.append(f"sin(x{i + 1})")
        funcs.append(lambda x, i=i: np.cos(x[i]))
        names.append(f"cos(x{i + 1})")
    return ObservableDictionary(n, tuple(funcs), tuple(names), output_index,
                                family="trig")


def _monomial_name(idx: tuple[int, ...]) -> str:
    parts = []
    for i in sorted(set(idx)):
        k = idx.count(i)
        parts.append(f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}")
    return "*".join(parts)


def monomial_dictionary(n: int, degree: int,
                        output_index: int = 0) -> ObservableDictionary:
    """Identity maps plus all monomials of total degree 2..degree."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    funcs = list(_coordinate(i) for i in range(n))
    names = [f"x{i + 1}" for i in range(n)]
    for deg in range(2, degree + 1):
        for idx in combinations_with_replacement(range(n), deg):
            funcs.append(lambda x, idx=idx: np.prod(x[list(idx)], axis=0))
            names.append(_monomial_name(idx))
    return ObservableDictionary(n, tuple(funcs), tuple(names), output_index,
                                family="monomial")


def dictionary_from_functions(n: int, funcs: Sequence[Callable],
                              names: Sequence[str] | None = None,
                              output_index: int = 0) -> ObservableDictionary:
    """Build a custom dictionary from explicit observable callables.

    Callables must index the state as ``x[i]`` and use numpy ufuncs so they
    broadcast over a trailing sample axis. The first n must be the
    coordinate maps (verified on probe points).
    """
    funcs = tuple(funcs)
    if names is None:
        names = tuple(f"psi{j + 1}" for j in range(len(funcs)))
    return ObservableDictionary(n, funcs, tuple(names), output_index,
                                family="custom")


def make_dictionary(family: str, n: int, degree: int = 2,
                    output_index: int = 0) -> ObservableDictionary:
    """Config entry point: build a dictionary by family name."""
    if family == "identity":
        return identity_dictionary(n, output_index)
    if family == "trig":
        return trig_dictionary(n, output_index)
    if family == "monomial":
        return monomial_dictionary(n, degree, output_index)
    raise ValueError(f"unknown dictionary family {family!r}; "
                     "expected identity, trig, or monomial")
