"""Golden traces: every 10th sample of two closed-loop runs and one oracle
value, checked against numbers recorded from the library.

The runs are what ``simulate default-config`` runs and the benchmark's
``saturating`` scenario at seed 12345 (its config text read from
``perfbench/workloads.py``); the oracle is ``oracle recursive-batch``. A
change that keeps the arithmetic must reproduce them to 1e-12 relative; one
that changes the arithmetic on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden_trace.py

and says why in the change log.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from koopman_adapt.config import assemble, loads
from koopman_adapt.harness import default_config, run_closed_loop
from koopman_adapt.oracles import ORACLES

GOLDEN = Path(__file__).with_name("golden_trace.json")
EVERY = 10
RTOL = 1e-12
FIELDS = ("u", "x_hat", "lam", "trace_gamma", "e_cum")


def _sampled(result) -> dict:
    assert not result.aborted, result.reason
    records = result.records[::EVERY]
    return {name: np.array([np.atleast_1d(getattr(r, name)) for r in records])
            for name in FIELDS}


def collect(workloads) -> dict:
    """The golden values, computed now."""
    return {
        "simulate-default": _sampled(run_closed_loop(default_config())),
        "saturating-12345": _sampled(run_closed_loop(assemble(loads(
            workloads.config_text("saturating", 12345))))),
        "oracle-recursive-batch": ORACLES["recursive-batch"](),
    }


def mismatches(actual: dict, golden: dict) -> list:
    """The (trace, field) pairs whose values leave RTOL of the golden ones."""
    bad = []
    for key, ref in golden.items():
        if isinstance(ref, float):
            if not np.isclose(actual[key], ref, rtol=RTOL, atol=0):
                bad.append((key, None))
            continue
        for name, values in ref.items():
            got = actual[key][name]
            if got.shape != values.shape or not np.allclose(
                    got, values, rtol=RTOL, atol=0):
                bad.append((key, name))
    return bad


@pytest.fixture(scope="module")
def golden():
    raw = json.loads(GOLDEN.read_text())
    return {key: value if isinstance(value, float)
            else {name: np.array(v) for name, v in value.items()}
            for key, value in raw.items()}


def test_golden_values_reproduce(perfbench, golden):
    actual = collect(perfbench("workloads"))
    assert mismatches(actual, golden) == []


def test_golden_check_catches_a_one_key_change(golden):
    """state_scales only rescales the gate's window error, yet the default
    run no longer matches."""
    cfg = default_config()
    cfg = dataclasses.replace(cfg, redmd=dataclasses.replace(
        cfg.redmd, state_scales=(1.0, 4.0)))
    actual = _sampled(run_closed_loop(cfg))
    bad = mismatches({"simulate-default": actual},
                     {"simulate-default": golden["simulate-default"]})
    assert bad


if __name__ == "__main__":
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    values = collect(module)
    # one line per field
    lines = []
    for key, value in values.items():
        if isinstance(value, float):
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
            continue
        body = ",\n".join(f"  {json.dumps(name)}: {json.dumps(v.tolist())}"
                          for name, v in value.items())
        lines.append(f" {json.dumps(key)}: {{\n{body}\n }}")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}")
