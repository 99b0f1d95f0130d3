"""What the benchmark (perfbench/) relies on in the library: every
workload's config assembles, and every layer boundary its tracer wraps
still exists and is reached by a closed-loop run."""

import dataclasses

import pytest

from koopman_adapt import harness
from koopman_adapt.config import assemble, loads

WORKLOADS = ("compare-default", "adapt-every-step", "saturating")
# Spans a short closed-loop run must record once the tracer is installed.
LAYERS = ("harness.run_closed_loop", "harness.prepare_estimator",
          "harness.generate_training_data", "plants.step_plant",
          "plants.measure", "observer.kf_correct", "observer.kf_predict",
          "observer.kf_estimate_state", "redmd.init_from_batch", "edmd.fit",
          "redmd.step", "mpc.rebuild", "mpc.solve")


@pytest.fixture
def tracer(perfbench, monkeypatch):
    """The benchmark's tracer module; every attribute it patches into the
    library is put back when the test ends."""
    module = perfbench("tracer")
    patch = module._patch

    def restoring_patch(owner, attr, wrapper_of):
        if hasattr(owner, attr):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))
        patch(owner, attr, wrapper_of)

    monkeypatch.setattr(module, "_patch", restoring_patch)
    return module


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_traces_through_the_library(perfbench, tracer, name):
    workloads = perfbench("workloads")
    assert set(workloads.WORKLOADS) == set(WORKLOADS)
    cfg = assemble(loads(workloads.config_text(name, 12345)))
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run,
                                                           t_sim=0.2))
    spans = tracer.Tracer()
    tracer.install(spans)
    result = harness.run_closed_loop(cfg)
    assert not result.aborted, result.reason
    missing = set(LAYERS) - set(spans.names)
    assert not missing, f"layers never traced: {sorted(missing)}"
    assert spans.names.count("mpc.solve") == len(result.records)
    # the counters the per-layer split reads from the step and solve results
    assert {"redmd.updates", "mpc.pg_iters", "mpc.pg_active",
            "mpc.pg_capped"} <= set(spans.counts)
