"""Shared fixtures."""

import contextlib
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from koopman_adapt.observables import ObservableDictionary

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Tier-1 draws the same examples on every run and replays no stored failure;
# "explore" (pytest --hypothesis-profile=explore --hypothesis-seed=S)
# searches afresh from S and prints a failure's reproduction blob. A test's
# own @settings takes its unset fields from the profile loaded when its
# module is imported, and its max_examples wins over either profile.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None,
                          print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def perfbench():
    """Loader for the benchmark's modules (``perfbench/<name>.py``), which
    are scripts rather than a package."""
    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


@contextlib.contextmanager
def no_runtime_warnings():
    """Fails the test when a RuntimeWarning (an overflow, say) escapes the
    block: a numerical abort is reported by its error alone."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    leaked = [str(w.message) for w in caught
              if issubclass(w.category, RuntimeWarning)]
    assert not leaked, leaked


class FunctionDictionary:
    """Test fake: a lifting dictionary over n states whose observables are
    explicit callables, each taking an (n, M) state batch and broadcasting
    over M; the first n must be the coordinate maps x[i]. It borrows the
    library dictionary's lift paths and shape checks; only its rows
    differ."""

    lift = ObservableDictionary.lift
    lift_batch = ObservableDictionary.lift_batch

    def __init__(self, n, funcs, output_index=0):
        self.n, self.funcs, self.output_index = n, tuple(funcs), output_index
        self.size = len(self.funcs)

    def _lift(self, X):
        return np.stack([np.broadcast_to(f(X), (X.shape[1],))
                         for f in self.funcs]).astype(float)

