"""Closed-loop experiment harness.

One run wires together the live recursive model, the lifted-space MPC, the
lifted-space Kalman filter, and a scheduled time-varying plant. Per sample:
measure, correct the observer (first: it reads no model), step the estimator
and hand its model over, solve the MPC from the observer's lifted estimate,
actuate, and predict the observer forward. The estimator always runs; the
adaptivity variant only decides which consumers receive its model updates.

The comparison sweep mirrors the four-variant adaptivity study: every
variant runs without and, when the config has one, with the change schedule
at each configured reference speed, reporting the cumulated quadratic
tracking error normalized by the reference energy. Its cells run in
lockstep: one closed loop over the rows of one table of stacked columns.
"""

import copy
import csv
import functools
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np
# numpy loads its random module on first use; load it with this module
# so that the first run's timing does not include it
from numpy.random import default_rng

from .config import (VARIANTS, ExperimentConfig, _steps, _train_steps,
                     assemble, loads)
from .edmd import SnapshotSet
from .errors import EmptyTrace, NumericalError
from .mpc import CondensedMpc
from .observer import (
    KalmanState,
    init_kalman,
    kf_correct,
    kf_estimate_state,
    kf_predict,
)
from .plants import apply_schedule, measure, step_plant
from .redmd import RecursiveEstimator, StepReport, init_from_batch
from .references import build_reference, energy, running_energy

_TRAIN_STREAM = 0
_RUN_STREAM = 1


class Trace(np.recarray):
    """A run's trace, one row per closed-loop sample: truth, measurements,
    estimate, action, reference, estimator diagnostics, and the running
    error metric. ``records.x`` is a column, ``records[k].x`` a row's
    field. The record is packed, its bytes its fields' alone."""

    @classmethod
    def empty(cls, shape, n: int, p: int) -> "Trace":
        return np.zeros(shape, dtype=[
            ("t", float), ("x", float, (n,)), ("x_meas", float, (n,)),
            ("x_hat", float, (n,)), ("u", float, (p,)), ("w", float, (n,)),
            ("lam", float), ("trace_gamma", float), ("updated", bool),
            ("e_post", float), ("window_error", float),
            ("e_cum", float)]).view(cls)

    def __bool__(self) -> bool:  # as a list's: empty is false
        return len(self) > 0


@dataclass
class RunResult:
    """A run's trace and how it ended: aborted by a NumericalError, whose
    type, time and message the reason gives, or run to the end."""

    records: Trace
    aborted: bool = False
    reason: str = ""


def generate_training_data(cfg: ExperimentConfig) -> SnapshotSet:
    """Sum-of-sinusoids excitation run on the nominal plant.

    The excitation mixes six log-spaced tones with seeded phases plus
    white noise, all scaled by run.train_amplitude; states are recorded
    through the noisy measurement path. Only the plant steps go sample by
    sample.
    """
    plant, run, n = cfg.plant, cfg.run, cfg.plant.n
    rng = default_rng([run.seed, _TRAIN_STREAM])
    steps = _train_steps(cfg)
    freqs = np.geomspace(0.3, 4.0, 6)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=6)
    # every draw at once, in the order a per-sample loop makes them: row k
    # holds sample k's input draw, then its n + 1 sensor draws; the last
    # sample has no input, so its sensor draws start the last row
    z = rng.standard_normal((steps + 1, n + 2))
    t = np.arange(steps) * plant.dt
    tones = np.sin(2.0 * np.pi * freqs * t[:, None] + phases).sum(axis=1) / 6.0
    U = (run.train_amplitude * (tones + 0.25 * z[:-1, 0]))[None, :]
    states = [np.zeros(n)]
    for k in range(steps):
        states.append(step_plant(plant, states[-1], U[:, k]))
    x_meas, _ = measure(plant, np.array(states),
                        np.concatenate((z[:-1, 1:], z[-1:, :-1])),
                        cfg.dictionary.output_index)
    return SnapshotSet(x_meas[:-1].T.copy(), x_meas[1:].T.copy(), U)


def prepare_estimator(cfg: ExperimentConfig) -> RecursiveEstimator:
    """Offline init: excitation run, batch fit, exact-Gram covariance."""
    return init_from_batch(generate_training_data(cfg), cfg.dictionary,
                           cfg.redmd)


class _Cells:
    """The live cells of a lockstep run, one row each. Its columns carry a
    leading cell axis: the stacked filter kf, whose rows hold the observers'
    models, the plant states x (C, n), each row's index into the run's
    sensor draws, and the trace rows (C, steps), each field viewed in trace.
    Its lists, named in OBJECTS, hold per row what still runs cell by cell:
    its configs' reference, the plant, the estimator, the solver, and the
    members, (slot, config) pairs with the (cell, config) index of the
    result as slot, whose configs differ only in their schedules and have
    applied the same change events so far, before next_event."""

    OBJECTS = ("w", "plant", "est", "solver", "members", "next_event")

    def __init__(self, kf: KalmanState, x, source, records, *objects: list):
        self.kf, self.x, self.source, self.records = kf, x, source, records
        self.trace = {name: records[name] for name in records.dtype.names}
        for name, values in zip(self.OBJECTS, objects, strict=True):
            setattr(self, name, values)

    def take(self, rows: list) -> "_Cells":
        """A table of the given rows, in order: copies of their columns and
        filter rows, and their objects, which the run rebinds but does not
        change, apart from the estimator and the solver's working set: a
        repeated row gets a copy of each."""
        cells = _Cells(self.kf.take(rows), self.x[rows], self.source[rows],
                       np.take(self.records, rows, axis=0),
                       *([getattr(self, name)[r] for r in rows]
                         for name in self.OBJECTS))
        for i, r in enumerate(rows):
            if rows.index(r) < i:
                cells.est[i] = copy.deepcopy(self.est[r])
                cells.solver[i] = copy.copy(self.solver[r])
        return cells

    def split(self, t: float) -> "_Cells":
        """At the top of the sample at time t, a row whose next_event t
        reaches (the first sample reaches -inf) keeps the members whose
        applied events are its first member's; each other set takes a new
        row at the end, an exact copy, as their runs are the same so far. A
        part applying an event at or after next_event rebuilds its plant."""
        rows, parts = list(range(len(self.est))), []
        for j in [j for j, e in enumerate(self.next_event) if e <= t]:
            groups = {}  # the members by applied events, first member's first
            for member in self.members[j]:
                groups.setdefault(member[1].schedule.applied(t),
                                  []).append(member)
            for i, (applied, members) in enumerate(groups.items()):
                parts.append((len(rows) if i else j, applied, members))
                rows += [j] if i else []
        cells = self.take(rows) if len(rows) > len(self.est) else self
        for j, applied, members in parts:
            cells.members[j], schedule = members, members[0][1].schedule
            if applied and applied[-1][0] >= cells.next_event[j]:
                cells.plant[j] = apply_schedule(cells.plant[j], schedule, t)
            cells.next_event[j] = min(
                (e[0] for _, c in members
                 for e in c.schedule.events[len(applied):]), default=math.inf)
        return cells

    def hand_over(self, j: int) -> None:
        """Hand one snapshot of row j's updated model to the controller and
        to the observer's filter row, as the row's variant adapts them."""
        cfg = self.members[j][0][1]
        if cfg.run.variant != "static-static":
            model = self.est[j].model
            if cfg.run.variant != "adaptive-obs":
                self.solver[j] = CondensedMpc(model, cfg.mpc)
            if cfg.run.variant != "adaptive-ctrl":
                self.kf.K[j], self.kf.B[j] = model.K, model.B

    def end(self, out: list, ended: dict, t: float = 0.0) -> "_Cells":
        """End the rows in ended, each mapped to the count of trace rows it
        wrote and to the NumericalError that aborted it in the sample at
        time t, or None: give each member its RunResult in out, with a copy
        of those rows (the first a view when no row is left). The rest."""
        for j, (written, exc) in ended.items():
            records = self.records[j, :written].view(Trace)
            records.w = self.w[j][:, :written].T
            records.e_cum = running_energy(records.w - records.x)
            reason = (f"{type(exc).__name__} at t={t:.6g}: {exc}"
                      if exc is not None else "")
            for m, ((i, col), _) in enumerate(self.members[j]):
                out[i][col] = RunResult(
                    records if m == 0 and len(ended) == len(self.est)
                    else records.copy(), exc is not None, reason)
        return self.take([j for j in range(len(self.est)) if j not in ended])


def run_closed_loop(cfg: ExperimentConfig, estimator=None, *,
                    _cells: list | None = None):
    """Run one closed-loop scenario and return its trace.

    An already-initialized estimator may be passed to share one offline fit
    across runs (it is deep-copied, never mutated). The reference is the
    config's, build_reference of its run's spec.

    The loop runs over the rows of one cell table, _Cells, one row here.
    Per sample, the sensor and the filter's correction run on its columns
    for all live cells, one pass steps each row's estimator, controller and
    plant, and the filter predicts the rows left; each phase writes its
    trace columns: each cell's numbers are those of its run alone, to the
    bit. A NumericalError ends its cell alone, in that one pass, with the
    rows it wrote and the time of its sample in its reason;
    _Cells.take cuts the filter and every column to the rest, as it copies
    rows where cells split.

    ``_cells`` (used by run_comparison) runs a list of cells in this one
    call and returns, per cell, its configs' RunResults. A cell is
    ``(configs, estimator)``: a run's arguments with a list of configs that
    differ only in their schedules, run as one until their applied change
    events differ (see _Cells.split). Each cell draws its noise from its
    configs' seed and tracks their reference; all share cfg's plant shape,
    dictionary, horizon, observer settings and length.
    """
    specs = [([cfg], estimator)] if _cells is None else _cells
    plant, H, steps = cfg.plant, cfg.mpc.horizon, _steps(cfg)
    reference_of = functools.cache(  # each distinct reference once
        lambda spec: build_reference(spec, steps + H + 1, plant.dt))
    seeds, rows = {}, []  # each seed's index; each cell's row of the table
    for i, (cfgs, est) in enumerate(specs):
        w = reference_of(cfgs[0].run.reference)
        est = prepare_estimator(cfgs[0]) if est is None else copy.deepcopy(est)
        model = est.model
        rows.append((
            init_kalman(w[:, 0], cfg.observer, model=model),
            w[:, 0], seeds.setdefault(cfgs[0].run.seed, len(seeds)), w,
            cfgs[0].plant, est, CondensedMpc(model, cfgs[0].mpc),
            [((i, j), c) for j, c in enumerate(cfgs)], -math.inf))
    kf, x, source, *objects = zip(*rows)
    draws = np.array([default_rng([seed, _RUN_STREAM]).standard_normal(
        (steps, plant.n + 1)) for seed in seeds])  # n + 1 draws per sample
    cells = _Cells(KalmanState.stack(kf), np.array(x), np.array(source),
                   Trace.empty((len(rows), steps), plant.n, plant.p).view(
                       np.ndarray), *map(list, objects))
    out = [[None] * len(cfgs) for cfgs, _ in specs]
    for k in range(steps):
        if not cells.est:
            break
        t = k * plant.dt
        cells = cells.split(t)
        rec, x = cells.trace, cells.x
        x_meas, y_meas = measure(plant, x, draws[cells.source, k],
                                 cfg.dictionary.output_index)
        rec["t"][:, k], rec["x"][:, k], rec["x_meas"][:, k] = t, x, x_meas
        prev_meas, prev_u = rec["x_meas"][:, k - 1], rec["u"][:, k - 1]
        kf_correct(cells.kf, y_meas)  # the correction reads no model
        rec["x_hat"][:, k] = kf_estimate_state(cells.kf)
        psi, u, ended = cells.kf.psi, rec["u"][:, k], {}
        for j, est in enumerate(cells.est):
            written = k
            try:  # the transition into this sample, or the warm-up sentinels
                r = (est.step(prev_meas[j], prev_u[j], x_meas[j]) if k else
                     StepReport(False, est.lam, est.trace_gamma, math.nan,
                                math.inf))
                if r.updated:
                    cells.hand_over(j)
                for name, value in vars(r).items():  # its trace columns
                    rec[name][j, k] = value
                u[j], _ = cells.solver[j].solve(
                    psi[j], cells.w[j][:, k + 1: k + 1 + H])
                written = k + 1
                cells.x[j] = step_plant(cells.plant[j], cells.x[j], u[j])
            except NumericalError as exc:
                ended[j] = (written, exc)
        if ended:  # the filter predicts on the cells left, if any
            cells = cells.end(out, ended, t)
        kf_predict(cells.kf, cells.trace["u"][:, k])
    cells.end(out, dict.fromkeys(range(len(cells.est)), (steps, None)))
    return out if _cells is not None else out[0][0]


def compute_metric(records) -> float:
    """Final cumulated quadratic tracking error of a trace."""
    if not records:
        raise EmptyTrace("no records to compute a metric from")
    return float(records.e_cum[-1])


def reference_energy(records) -> float:
    """Sum of squared reference norms over a trace (the normalizer)."""
    if not records:
        raise EmptyTrace("no records to compute reference energy from")
    return energy(records.w)


def normalized_error(records) -> float:
    """Final cumulated error over the reference energy; inf when the
    reference has no energy."""
    norm = reference_energy(records)
    return compute_metric(records) / norm if norm > 0 else math.inf


@dataclass(frozen=True)
class CellResult:
    """One comparison cell: a (variant, schedule, speed) run outcome."""

    variant: str
    with_changes: bool
    speed: float
    normalized_error: float
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ComparisonResult:
    cells: list


def _cell_config(cfg: ExperimentConfig, variant: str, with_changes: bool,
                 speed: float) -> ExperimentConfig:
    run = replace(cfg.run, variant=variant,
                  reference=replace(cfg.run.reference, speed=speed))
    schedule = cfg.schedule if with_changes else type(cfg.schedule)(())
    return replace(cfg, run=run, schedule=schedule)


def _cell_result(cfg: ExperimentConfig, result: RunResult) -> CellResult:
    """The comparison cell of a run of cfg."""
    key = (cfg.run.variant, bool(cfg.schedule.events), cfg.run.reference.speed)
    if result.aborted:
        return CellResult(*key, math.nan, f"aborted: {result.reason}")
    return CellResult(*key, normalized_error(result.records), "ok")


def run_comparison(cfg: ExperimentConfig) -> ComparisonResult:
    """Run all variants x {no changes, changes} x the run's speeds; the
    with-changes half runs only when some change event acts within the
    run.

    The offline fit is shared across cells (each gets a deep copy). All
    cells run in lockstep in one run_closed_loop call, one cell per speed
    and variant standing for its nominal and its with-changes config, so
    that they run as one up to the first change event. Cells are reported
    by half, then speed, then variant.
    """
    # without a change that acts within the run (by the last sample) the
    # with-changes half would repeat the nominal one
    halves = ((False, True)
              if cfg.schedule.applied((_steps(cfg) - 1) * cfg.plant.dt)
              else (False,))
    estimator = prepare_estimator(cfg)
    cells = [([_cell_config(cfg, variant, h, speed) for h in halves],
              estimator) for speed in cfg.run.speeds for variant in VARIANTS]
    results = run_closed_loop(cfg, _cells=cells)
    return ComparisonResult([
        _cell_result(cfgs[h], runs[h]) for h in range(len(halves))
        for (cfgs, _), runs in zip(cells, results)])


# -- reporting ----------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_trace_csv(path, records) -> None:
    """Trace CSV: one row per sample, 17 significant digits, LF endings."""
    if not records:
        raise EmptyTrace("refusing to write an empty trace")
    n = records.x.shape[1]
    p = records.u.shape[1]
    header = (["t"]
              + [f"x{i + 1}" for i in range(n)]
              + [f"xmeas{i + 1}" for i in range(n)]
              + [f"xhat{i + 1}" for i in range(n)]
              + [f"u{j + 1}" for j in range(p)]
              + [f"w{i + 1}" for i in range(n)]
              + ["lambda", "trace_gamma", "updated", "e_post",
                 "window_error", "e_cum"])
    # the flag becomes 1.0 / 0.0, which _fmt writes as 1 / 0
    table = np.column_stack([records[name] for name in records.dtype.names])
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in table)


def write_summary_csv(path, comparison: ComparisonResult) -> None:
    """Comparison summary CSV: one row per cell."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant", "with_changes", "speed",
                         "normalized_error", "status"])
        for c in comparison.cells:
            writer.writerow([c.variant, "1" if c.with_changes else "0",
                             _fmt(c.speed), _fmt(c.normalized_error),
                             c.status])


def format_comparison_table(comparison: ComparisonResult) -> str:
    """Human-readable table: variants as rows, scenario columns."""
    cells = {(c.variant, c.with_changes, c.speed): c for c in comparison.cells}
    cols = sorted({(wc, s) for _, wc, s in cells})
    head = ["variant".ljust(16)]
    for wc, s in cols:
        tag = "chg" if wc else "nom"
        head.append(f"{tag}@{s:g}".rjust(12))
    lines = ["  ".join(head)]
    for variant in VARIANTS:
        row = [variant.ljust(16)]
        for wc, s in cols:
            cell = cells[variant, wc, s]
            row.append((f"{cell.normalized_error:.4e}" if cell.ok
                        else "failed").rjust(12))
        lines.append("  ".join(row))
    return "\n".join(lines)


# -- default scenario -----------------------------------------------------------

def default_config() -> ExperimentConfig:
    """The built-in default scenario (what `default-config` resolves to),
    read from the packaged pendulum_default.cfg."""
    text = resources.files(__package__).joinpath(
        "pendulum_default.cfg").read_text()
    return assemble(loads(text))
