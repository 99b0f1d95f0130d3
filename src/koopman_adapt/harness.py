"""Closed-loop experiment harness.

One run wires together the live recursive model, the lifted-space MPC, the
lifted-space Kalman filter, and a scheduled time-varying plant. Per sample:
measure, feed the previous transition to the estimator, correct the
observer, solve the MPC from the observer's lifted estimate, actuate, and
predict the observer forward. The estimator always runs; the adaptivity
variant only decides which consumers receive its model updates.

The comparison sweep mirrors the four-variant adaptivity study: every
variant runs without and, when the config has one, with the change schedule
at each configured reference speed, reporting the cumulated quadratic
tracking error normalized by the reference energy. Its cells run in
lockstep, as one closed loop over a leading cell axis.
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

from .config import VARIANTS, ExperimentConfig, assemble, loads
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
from .references import build_reference

_TRAIN_STREAM = 0
_RUN_STREAM = 1


class Trace(np.recarray):
    """A run's trace, one row per closed-loop sample: truth, measurements,
    estimate, action, reference, estimator diagnostics, and the running
    error metric. ``records.x`` is a column, ``records[k].x`` a row's
    field. Its padding is zero, in a copy too, so that its bytes repeat."""

    @classmethod
    def empty(cls, steps: int, n: int, p: int) -> "Trace":
        return np.zeros(steps, dtype=np.dtype([
            ("t", float), ("x", float, (n,)), ("x_meas", float, (n,)),
            ("x_hat", float, (n,)), ("u", float, (p,)), ("w", float, (n,)),
            ("lam", float), ("trace_gamma", float), ("updated", bool),
            ("e_post", float), ("window_error", float), ("e_cum", float)],
            align=True)).view(cls)

    def copy(self) -> "Trace":  # ndarray.copy leaves the padding undefined
        out = np.zeros(self.shape, self.dtype).view(type(self))
        out[...] = self
        return out

    def __bool__(self) -> bool:  # as a list's: empty is false
        return len(self) > 0


@dataclass
class RunResult:
    """A full trace plus the models in play at the end of the run."""

    records: Trace
    aborted: bool = False
    reason: str = ""
    initial_model: object = None
    controller_model: object = None
    observer_model: object = None


def generate_training_data(cfg: ExperimentConfig) -> SnapshotSet:
    """Sum-of-sinusoids excitation run on the nominal plant.

    The excitation mixes six log-spaced tones with seeded phases plus
    white noise, all scaled by run.train_amplitude; states are recorded
    through the noisy measurement path. Only the plant steps go sample by
    sample.
    """
    plant = cfg.plant
    run = cfg.run
    n = plant.n
    rng = default_rng([run.seed, _TRAIN_STREAM])
    steps = max(2, round(run.train_duration / plant.dt))
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


def _steps(cfg: ExperimentConfig) -> int:
    return max(1, round(cfg.run.t_sim / cfg.plant.dt))


class _Cell:
    """One cell of a lockstep run: its closed loop's state apart from its
    row of the run's stacked filter, its plant state x, its reference w
    and its sensor draws z. It stands for its members, (slot, config)
    pairs with the (cell, config) index of the result as slot, whose
    configs differ only in their schedules and have applied the same events
    so far; next_event is the first event time after those."""

    def __init__(self, members: list, est: RecursiveEstimator,
                 w: np.ndarray, z: np.ndarray, records: Trace):
        cfg = members[0][1]
        self.members, self.cfg, self.next_event = members, cfg, -math.inf
        self.est, self.w, self.z, self.records = est, w, z, records
        self.plant, self.applied = cfg.plant, 0  # events applied to it
        self.x = w[:, 0].copy()
        self.adapt_ctrl = cfg.run.variant in ("adaptive-ctrl", "adaptive-both")
        self.adapt_obs = cfg.run.variant in ("adaptive-obs", "adaptive-both")
        self.initial_model = self.obs_model = est.model
        self.solver = CondensedMpc(self.initial_model, cfg.mpc)
        self.written = 0  # rows of records filled so far
        self.report = self.prev_meas = self.prev_u = None

    def split(self, t: float) -> list:
        """At the top of the sample at time t, which reaches next_event
        (the first sample reaches the initial -inf): keep the members
        whose applied events at t are the first member's, return a copy of
        this cell for each other set, and rebuild each part's plant if its
        applied events grew. A copy is exact, as its members' runs equal
        this cell's so far; it copies what the run changes in place, the
        estimator and the trace's rows."""
        groups = {}  # the members by applied events, first member's first
        for member in self.members:
            groups.setdefault(member[1].schedule.applied(t), []).append(member)
        parts = [self] + [copy.copy(self) for _ in range(len(groups) - 1)]
        for part, (applied, members) in zip(parts, groups.items()):
            if part is not self:
                part.est = copy.deepcopy(self.est)
                part.records = self.records.copy()
            part.members, part.cfg = members, members[0][1]
            part.next_event = min((e[0] for _, c in members
                                   for e in c.schedule.events[len(applied):]),
                                  default=math.inf)
            if len(applied) > part.applied:
                part.plant = apply_schedule(part.plant, part.cfg.schedule, t)
                part.applied = len(applied)
        return parts[1:]

    def update(self, k: int, x_meas) -> bool:
        """Sample k's estimator step and model handover; whether the
        observer took a new model."""
        est = self.est
        if k:  # the transition into this sample
            report = est.step(self.prev_meas, self.prev_u, x_meas)
        else:  # no transition yet: the warm-up sentinels
            report = StepReport(False, est.lam, est.trace_gamma, math.nan,
                                math.inf)
        self.report = report
        if not (report.updated and (self.adapt_ctrl or self.adapt_obs)):
            return False
        model = est.model  # one snapshot serves both consumers
        if self.adapt_ctrl:
            self.solver = CondensedMpc(model, self.cfg.mpc)
        if self.adapt_obs:
            self.obs_model = model
        return self.adapt_obs

    def end(self, out: list, exc: NumericalError | None = None,
            t: float = 0.0) -> None:
        """End the cell with the rows written (aborted by exc in the sample
        at time t when exc is given), fill in their running error, each
        row's err @ err summed in order, and give each member its RunResult
        in out, with its own rows."""
        records = self.records[:self.written]
        err = records.w - records.x
        records.e_cum = np.cumsum((err[:, None, :] @ err[:, :, None])[:, 0, 0])
        reason = (f"{type(exc).__name__} at t={t:.6g}: {exc}"
                  if exc is not None else "")
        result = RunResult(records, exc is not None, reason,
                           self.initial_model, self.solver.model,
                           self.obs_model)
        for m, ((i, j), _) in enumerate(self.members):
            out[i][j] = replace(result, records=records.copy()) if m else result


def _drop(ended: list, live: list, kf: KalmanState, *arrays) -> tuple:
    """The live cells but the ended ones (indices into live), with their
    rows of the filter kf and of each array."""
    keep = [j for j in range(len(live)) if j not in ended]
    return ([live[j] for j in keep], kf.take(keep),
            *(a[keep] for a in arrays))


def run_closed_loop(cfg: ExperimentConfig, estimator=None, reference=None,
                    *, _cells: list | None = None):
    """Run one closed-loop scenario and return its trace.

    An already-initialized estimator may be passed to share one offline fit
    across runs (it is deep-copied, never mutated). A reference array
    (n, >= steps + horizon) of finite values overrides the configured
    reference generator.

    The loop runs over a leading axis of cells, one cell here. Per sample,
    the sensor and the Kalman filter run once for all live cells; the
    estimator, the controller and the plant run cell by cell, and a cell's
    running error is summed over its whole trace when it ends. Each cell's
    numbers are those of its run alone, to the bit. A NumericalError ends
    its cell alone, with the rows it wrote, and the cell leaves the stacked
    filter and arrays; its reason says the time of the sample it ended in.

    ``_cells`` (used by run_comparison) runs a list of cells in this one
    call and returns, per cell, its configs' RunResults. A cell is
    ``(configs, estimator, reference)``: a run's arguments with a list of
    configs that differ only in their schedules, run as one until their
    applied change events differ (see _Cell.split). Each cell draws its
    noise from its configs' seed; all share cfg's plant shape, dictionary,
    horizon, observer settings and length.
    """
    cells = [([cfg], estimator, reference)] if _cells is None else _cells
    plant, dictionary, H = cfg.plant, cfg.dictionary, cfg.mpc.horizon
    n, steps = plant.n, _steps(cfg)
    # each distinct reference and seed once; n + 1 sensor draws per sample
    reference_of = functools.cache(
        lambda spec: build_reference(spec, steps + H + 1, plant.dt))
    draws_of = functools.cache(lambda seed: default_rng(
        [seed, _RUN_STREAM]).standard_normal((steps, n + 1)))
    live, out = [], []
    for i, (cfgs, est, w) in enumerate(cells):
        run = cfgs[0].run
        if w is None:
            w = reference_of(run.reference)
        else:
            w = np.asarray(w, dtype=float)
            if (w.ndim != 2 or w.shape[0] != n or w.shape[1] < steps + H
                    or not np.isfinite(w).all()):
                raise ValueError(f"reference override must be ({n}, >= "
                                 f"{steps + H}) and finite")
        if est is None:
            est = prepare_estimator(cfgs[0])
        live.append(_Cell([((i, j), c) for j, c in enumerate(cfgs)],
                          copy.deepcopy(est), w, draws_of(run.seed),
                          Trace.empty(steps, n, plant.p)))
        out.append([None] * len(cfgs))
    kf = KalmanState.stack([init_kalman(dictionary, c.w[:, 0], cfg.observer,
                                        model=c.initial_model) for c in live])
    for k in range(steps):
        if not live:
            break
        t = k * plant.dt
        parts = [(j, part) for j, c in enumerate(live)
                 if c.next_event <= t for part in c.split(t)]
        if parts:  # each part's rows are copies of its parent's
            kf = kf.take([*range(len(live)), *(j for j, _ in parts)])
            live += [part for _, part in parts]
        x_true = np.array([c.x for c in live])
        x_meas, y_meas = measure(plant, x_true,
                                 np.array([c.z[k] for c in live]),
                                 dictionary.output_index)
        ended = []
        for j, c in enumerate(live):
            try:
                if c.update(k, x_meas[j]):
                    kf.K[j], kf.B[j] = c.obs_model.K, c.obs_model.B
            except NumericalError as exc:
                c.end(out, exc, t)
                ended.append(j)
        if ended:  # the rest of the sample runs on the cells left, if any
            live, kf, x_true, x_meas, y_meas = _drop(
                ended, live, kf, x_true, x_meas, y_meas)
        kf_correct(kf, dictionary, y_meas)
        x_hat = kf_estimate_state(kf, dictionary)
        u, ended = np.empty((len(live), plant.p)), []
        for j, c in enumerate(live):
            w = c.w
            u0, _ = c.solver.solve(kf.psi[j], w[:, k + 1: k + 1 + H])
            r = c.report
            # the running error is filled in when the cell ends
            c.records[k] = (t, x_true[j], x_meas[j], x_hat[j], u0, w[:, k],
                            r.lam, r.trace_gamma, r.updated, r.e_post,
                            r.window_error, 0.0)
            c.written = k + 1
            u[j] = u0
            try:
                c.x = step_plant(c.plant, c.x, u0)
            except NumericalError as exc:
                c.end(out, exc, t)
                ended.append(j)
            else:
                c.prev_meas, c.prev_u = x_meas[j], u0
        if ended:
            live, kf, u = _drop(ended, live, kf, u)
        kf_predict(kf, u)
    for c in live:
        c.end(out)
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
    # each row's w @ w (the same dot as for one vector), summed in order
    w = records.w
    return float(np.cumsum(np.matmul(w[:, None, :], w[:, :, None]))[-1])


def normalized_error(records) -> float:
    """Final cumulated error over the reference energy; inf when the
    reference has no energy (a zero hold, say)."""
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
    """Run all variants x {no changes, changes} x reference speeds (the
    run's speeds for a rest-to-rest reference, else the reference's own);
    the with-changes half runs only when some change event acts within
    the run.

    The offline fit is shared across cells (each gets a deep copy). All
    cells run in lockstep in one run_closed_loop call, one cell per speed
    and variant standing for its nominal and its with-changes config, so
    that they run as one up to the first change event. Cells are reported
    by half, then speed, then variant.
    """
    # only the rest-to-rest reference reads its speed; without a change
    # that acts within the run (by the last sample) the with-changes half
    # would repeat the nominal one
    reference = cfg.run.reference
    speeds = (cfg.run.speeds if reference.kind == "rest-to-rest"
              else (reference.speed,))
    halves = ((False, True)
              if cfg.schedule.applied((_steps(cfg) - 1) * cfg.plant.dt)
              else (False,))
    estimator = prepare_estimator(cfg)
    cells = [([_cell_config(cfg, variant, h, speed) for h in halves],
              estimator, None) for speed in speeds for variant in VARIANTS]
    results = run_closed_loop(cfg, _cells=cells)
    return ComparisonResult([
        _cell_result(cfgs[h], runs[h]) for h in range(len(halves))
        for (cfgs, _, _), runs in zip(cells, results)])


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
