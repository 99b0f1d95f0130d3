"""Span tracer for the per-layer split, installed from outside the library.

``install`` replaces each layer's public function, where the harness looks
it up, with a wrapper that records a span: name, start, end, parent span
and the closed-loop run (one per cell) it belongs to. Spans stay in memory
and are written out once, at the end. Only the traced child process calls
``install``; the timed runs never see the wrappers.

``layer_metrics`` turns one written trace into the per-layer metrics.
Self time is a span's duration minus the durations of its direct children,
so nesting such as ``redmd.step`` > ``redmd.prediction_error_window`` >
``observables.lift_batch`` is split without double counting.
"""

import functools
import json
from collections import Counter
from time import perf_counter_ns

import numpy as np

ROOT = "harness.unit"
CELL = "harness.run_closed_loop"
# Counts that must repeat exactly across two traced runs at one seed.
DETERMINISTIC = ("redmd.updates", "mpc.rebuild.calls", "mpc.pg_iters",
                 "mpc.pg_capped", "plants.step_plant.calls")


class Tracer:
    """In-memory span store; one parallel list per span field."""

    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.run: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._runs = 0

    def open(self, name: str, new_run: bool = False) -> int:
        i = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if new_run:
            self._runs += 1
            run = self._runs
        else:
            run = self.run[parent] if parent >= 0 else 0
        self.names.append(name)
        self.parent.append(parent)
        self.run.append(run)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def dump(self, path, **extra) -> None:
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        with open(path, "w") as fh:
            json.dump({"names": table,
                       "name": [index[n] for n in self.names],
                       "start": self.start, "end": self.end,
                       "parent": self.parent, "run": self.run,
                       "counts": dict(self.counts), **extra}, fh)


def _wrap(tracer: Tracer, name: str, fn, new_run=False, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name, new_run)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _patch(owner, attr: str, wrapper_of) -> None:
    """Replace owner.attr, failing loudly if the layer no longer has it."""
    if not hasattr(owner, attr):
        raise AttributeError(f"{owner.__name__} has no {attr}; the traced "
                             "layer boundary moved")
    setattr(owner, attr, wrapper_of(getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    """Wrap the layer functions the closed loop calls."""
    from koopman_adapt import harness, mpc, observables, redmd

    def traced(name, **kw):
        return lambda fn: _wrap(tracer, name, fn, **kw)

    counts = tracer.counts
    _patch(harness, "run_closed_loop", traced(CELL, new_run=True))
    _patch(harness, "prepare_estimator", traced("harness.prepare_estimator"))
    _patch(harness, "generate_training_data",
           traced("harness.generate_training_data"))
    for fn in ("step_plant", "measure", "apply_schedule"):
        _patch(harness, fn, traced(f"plants.{fn}"))
    for fn in ("kf_correct", "kf_predict", "kf_estimate_state"):
        _patch(harness, fn, traced(f"observer.{fn}"))
    _patch(harness, "init_from_batch", traced("redmd.init_from_batch"))
    _patch(redmd, "fit", traced("edmd.fit"))

    def count_update(args, report):
        counts["redmd.updates"] += bool(report.updated)

    est = redmd.RecursiveEstimator
    _patch(est, "step", traced("redmd.step", after=count_update))
    _patch(est, "prediction_error_window",
           traced("redmd.prediction_error_window"))
    _patch(observables.ObservableDictionary, "lift_batch",
           traced("observables.lift_batch"))
    _patch(mpc.CondensedMpc, "__init__", traced("mpc.rebuild"))
    _patch(mpc.CondensedMpc, "solve",
           lambda solve: _traced_solve(tracer, solve))


def _traced_solve(tracer: Tracer, solve):
    """mpc.solve span; reads the projected-gradient counts via return_info
    and hands the caller the result shape it asked for."""
    counts = tracer.counts

    @functools.wraps(solve)
    def wrapper(self, psi0, w_window, return_info=False):
        i = tracer.open("mpc.solve")
        try:
            u0, plan, info = solve(self, psi0, w_window, return_info=True)
        finally:
            tracer.close(i)
        iters = info["pg_iterations"]
        counts["mpc.pg_iters"] += iters
        counts["mpc.pg_active"] += iters > 1
        counts["mpc.pg_capped"] += (self.cfg.constrained
                                    and iters >= self.cfg.max_pg_iters)
        return (u0, plan, info) if return_info else (u0, plan)
    return wrapper


# -- analysis -----------------------------------------------------------------

def _spans(trace):
    names = np.asarray(trace["names"])[np.asarray(trace["name"], dtype=int)]
    start = np.asarray(trace["start"], dtype=np.int64)
    dur = np.asarray(trace["end"], dtype=np.int64) - start
    parent = np.asarray(trace["parent"], dtype=int)
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    return names, dur, dur - child, parent, np.asarray(trace["run"])


def layer_metrics(trace, traced_wall_s: float, untraced_wall_s: float):
    """Per-layer metrics of one trace as {name: (value, unit)}."""
    names, dur, self_ns, parent, run = _spans(trace)
    counts = trace["counts"]
    out = {}

    def stat(name):
        sel = names == name
        return int(sel.sum()), float(dur[sel].sum()) / 1e9, \
            float(self_ns[sel].sum()) / 1e9

    # harness: sample interval = time between successive closed-loop
    # step_plant exits of one cell.
    end = np.asarray(trace["end"], dtype=np.int64)
    loop_step = (names == "plants.step_plant") & (parent >= 0)
    loop_step[loop_step] = names[parent[loop_step]] == CELL
    gaps = np.concatenate([np.diff(end[loop_step & (run == r)])
                           for r in np.unique(run[loop_step])]) / 1e3
    out["harness.sample_us_p50"] = (float(np.percentile(gaps, 50)), "us")
    out["harness.sample_us_p99"] = (float(np.percentile(gaps, 99)), "us")
    out["harness.samples"] = (int(gaps.size), "count")
    harness_self = float(self_ns[np.char.startswith(names, "harness.")].sum())
    out["harness.self_s"] = (harness_self / 1e9, "s")
    out["harness.generate_training_data.busy_s"] = (
        stat("harness.generate_training_data")[1], "s")
    out["harness.trace_overhead_frac"] = (
        traced_wall_s / untraced_wall_s - 1.0, "1")

    calls, busy, _ = stat("plants.step_plant")
    out["plants.step_plant.calls"] = (calls, "count")
    out["plants.step_plant.busy_s"] = (busy, "s")
    out["plants.step_plant.us_per_call"] = (1e6 * busy / max(calls, 1), "us")
    out["plants.measure.busy_s"] = (stat("plants.measure")[1], "s")
    calls, busy, _ = stat("plants.apply_schedule")
    out["plants.apply_schedule.calls"] = (calls, "count")
    out["plants.apply_schedule.busy_s"] = (busy, "s")

    steps, _, step_self = stat("redmd.step")
    updates = counts.get("redmd.updates", 0)
    out["redmd.step.calls"] = (steps, "count")
    out["redmd.step.self_s"] = (step_self, "s")
    calls, busy, _ = stat("redmd.prediction_error_window")
    out["redmd.prediction_error_window.calls"] = (calls, "count")
    out["redmd.prediction_error_window.busy_s"] = (busy, "s")
    out["redmd.updates"] = (updates, "count")
    out["redmd.gate_open_frac"] = (updates / max(steps, 1), "1")
    out["redmd.init_from_batch.busy_s"] = (stat("redmd.init_from_batch")[1],
                                           "s")

    out["edmd.fit.busy_s"] = (stat("edmd.fit")[1], "s")
    calls, busy, _ = stat("observables.lift_batch")
    out["observables.lift_batch.calls"] = (calls, "count")
    out["observables.lift_batch.busy_s"] = (busy, "s")

    for layer in ("rebuild", "solve"):
        calls, busy, _ = stat(f"mpc.{layer}")
        out[f"mpc.{layer}.calls"] = (calls, "count")
        out[f"mpc.{layer}.busy_s"] = (busy, "s")
        out[f"mpc.{layer}.us_per_call"] = (1e6 * busy / max(calls, 1), "us")
    solves = out["mpc.solve.calls"][0]
    out["mpc.pg_iters"] = (counts.get("mpc.pg_iters", 0), "count")
    out["mpc.pg_active_frac"] = (counts.get("mpc.pg_active", 0)
                                 / max(solves, 1), "1")
    out["mpc.pg_capped"] = (counts.get("mpc.pg_capped", 0), "count")

    for fn in ("kf_correct", "kf_predict", "kf_estimate_state"):
        out[f"observer.{fn}.busy_s"] = (stat(f"observer.{fn}")[1], "s")
    return out
