"""What the benchmark (perfbench/) relies on in the library: every
workload's config assembles, every layer boundary its tracer wraps still
exists and is reached by a closed-loop run, and a comparison sweep is one
traced closed-loop run that counts what its cells run alone count."""

import dataclasses
import json

import numpy as np
import pytest

from koopman_adapt import harness
from koopman_adapt.config import assemble, loads

WORKLOADS = ("compare-default", "adapt-every-step", "saturating")
# Spans a short closed-loop run must record once the tracer is installed.
LAYERS = ("harness.run_closed_loop", "harness.prepare_estimator",
          "harness.generate_training_data", "plants.step_plant",
          "plants.measure", "observer.kf_correct", "observer.kf_predict",
          "observer.kf_estimate_state", "redmd.init_from_batch", "edmd.fit",
          "redmd.step", "redmd.prediction_error_window", "mpc.rebuild",
          "mpc.solve")


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
    """A run ten samples longer than the gate window's warm-up reaches
    every layer, the gate window once per estimator step after it."""
    workloads = perfbench("workloads")
    assert set(workloads.WORKLOADS) == set(WORKLOADS)
    cfg = assemble(loads(workloads.config_text(name, 12345)))
    t_sim = (cfg.redmd.m_op + 10) * cfg.plant.dt
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run,
                                                           t_sim=t_sim))
    spans = tracer.Tracer()
    tracer.install(spans)
    result = harness.run_closed_loop(cfg)
    assert not result.aborted, result.reason
    missing = set(LAYERS) - set(spans.names)
    assert not missing, f"layers never traced: {sorted(missing)}"
    assert spans.names.count("mpc.solve") == len(result.records)
    assert (spans.names.count("redmd.prediction_error_window")
            == spans.names.count("redmd.step") - (cfg.redmd.m_op - 1))
    # the counters the per-layer split reads from the step and solve results
    assert {"redmd.updates", "mpc.pg_iters", "mpc.pg_active",
            "mpc.pg_capped"} <= set(spans.counts)


def test_comparison_sweep_traces_one_run_per_cell(perfbench, tracer,
                                                  tmp_path):
    """A sweep runs its cells in lockstep: one traced run_closed_loop span
    holds every cell's plant steps, a with-changes cell's from its first
    change on. Its deterministic counts are the sum over its cells run one
    at a time, less the prefix each with-changes config shares with its
    nominal one, and the per-layer split computes on the written trace.
    The sweep is saturating's scenario, whose input bounds bind, so that
    no count is 0."""
    workloads = perfbench("workloads")
    cfg = assemble(loads(workloads.config_text("saturating", 12345)))
    events = tuple((0.1, name, value)
                   for _, name, value in cfg.schedule.events)
    cfg = dataclasses.replace(
        cfg, run=dataclasses.replace(cfg.run, t_sim=0.3),
        schedule=dataclasses.replace(cfg.schedule, events=events))
    steps, fork = 30, 10
    spans = tracer.Tracer()
    tracer.install(spans)

    def tally():
        return np.array([spans.counts["redmd.updates"],
                         spans.names.count("mpc.rebuild"),
                         spans.counts["mpc.pg_iters"],
                         spans.names.count("plants.step_plant")])

    comparison = harness.run_comparison(cfg)
    assert len(comparison.cells) == 16
    assert all(c.ok for c in comparison.cells)
    assert spans.names.count(tracer.CELL) == 1
    parents = [spans.names[spans.parent[i]]
               for i, name in enumerate(spans.names)
               if name == "plants.step_plant"]
    assert set(parents) == {tracer.CELL, "harness.generate_training_data"}
    assert parents.count(tracer.CELL) == 16 * steps - 8 * fork
    path = tmp_path / "trace.json"
    spans.dump(path, values=[c.normalized_error for c in comparison.cells],
               wall_s=1.0)
    metrics = tracer.layer_metrics(json.loads(path.read_text()), 1.0, 1.0)
    # intervals between successive plant steps of the one run
    assert metrics["harness.samples"][0] == 16 * steps - 8 * fork - 1
    # the same counts from the cells run one at a time
    start = tally()
    estimator = harness.prepare_estimator(cfg)
    prefix = np.zeros(4, dtype=int)
    for cell in comparison.cells:
        cell_cfg = harness._cell_config(cfg, cell.variant, cell.with_changes,
                                        cell.speed)
        harness.run_closed_loop(cell_cfg, estimator=estimator)
        if cell.with_changes:  # its first samples, which a sweep runs once
            before = tally()
            harness.run_closed_loop(dataclasses.replace(
                cell_cfg, run=dataclasses.replace(
                    cell_cfg.run, t_sim=fork * cfg.plant.dt)),
                estimator=estimator)
            prefix += tally() - before
    alone = tally() - start - 2 * prefix
    keys = ("redmd.updates", "mpc.rebuild.calls", "mpc.pg_iters",
            "plants.step_plant.calls")
    assert ({key: metrics[key][0] for key in keys}
            == dict(zip(keys, alone.tolist())))


@pytest.mark.parametrize("name, t_sim", [("saturating", None),
                                         ("adapt-every-step", 0.5)])
def test_single_run_passes_the_benchmark_checks(perfbench, name, t_sim):
    """A single-run workload's unit passes the benchmark's own checks,
    which read the trace through its truth value, its length, its
    records[1:] slice, the rows' x, x_hat, u and updated, and the
    harness's metric and energy."""
    workloads = perfbench("workloads")
    cfg = assemble(loads(workloads.config_text(name, 12345)))
    if t_sim is not None:
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run,
                                                               t_sim=t_sim))
    outcome = workloads.check_unit(name, cfg,
                                   workloads.run_unit(name, cfg))
    assert outcome.failures == {}
    assert outcome.samples == round(cfg.run.t_sim / cfg.plant.dt)
