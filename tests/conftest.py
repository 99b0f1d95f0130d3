"""Shared fixtures."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
