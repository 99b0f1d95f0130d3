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
from .plants import PlantState, apply_schedule, measure, step_plant
from .redmd import RecursiveEstimator, StepReport, init_from_batch
from .references import build_reference

_TRAIN_STREAM = 0
_RUN_STREAM = 1


class Trace(np.recarray):
    """A run's trace, one row per closed-loop sample: truth, measurements,
    estimate, action, reference, estimator diagnostics, and the running
    error metric. ``records.x`` is a column, ``records[k].x`` a row's
    field."""

    @classmethod
    def empty(cls, steps: int, n: int, p: int) -> "Trace":
        return cls((steps,), dtype=np.dtype([
            ("t", float), ("x", float, (n,)), ("x_meas", float, (n,)),
            ("x_hat", float, (n,)), ("u", float, (p,)), ("w", float, (n,)),
            ("lam", float), ("trace_gamma", float), ("updated", bool),
            ("e_post", float), ("window_error", float), ("e_cum", float)],
            align=True))

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
    state = PlantState(np.zeros(n))
    states = [state.x]
    for k in range(steps):
        state = step_plant(plant, state, U[:, k])
        states.append(state.x)
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
    rows of the run's stacked arrays (see _Rows), and its reference w."""

    def __init__(self, cfg: ExperimentConfig, est: RecursiveEstimator,
                 w: np.ndarray, records: Trace):
        self._set_config(cfg)
        self.est, self.w, self.records = est, w, records
        self.state = PlantState(w[:, 0].copy(), 0.0)
        self.adapt_ctrl = cfg.run.variant in ("adaptive-ctrl", "adaptive-both")
        self.adapt_obs = cfg.run.variant in ("adaptive-obs", "adaptive-both")
        self.initial_model = self.ctrl_model = self.obs_model = est.model
        self.solver = CondensedMpc(self.initial_model, cfg.mpc)
        self.written = 0  # rows of records filled so far
        self.report = self.prev_meas = self.prev_u = None
        self.result = None  # set when the cell ends

    def _set_config(self, cfg: ExperimentConfig) -> None:
        self.cfg, self.plant = cfg, cfg.plant
        # event times not yet reached; the plant is rebuilt once per
        # distinct time
        self.pending = [e[0] for e in reversed(cfg.schedule.events)]

    def twin(self, cfg: ExperimentConfig) -> "_Cell":
        """A copy of this cell running cfg from here on, exact when cfg
        differs from this cell's config only by change events that act
        from here on. It copies what the rest of the run changes in place:
        the estimator and the trace's rows; the models, the solver and the
        plant state are only ever rebound."""
        twin = copy.copy(self)
        twin._set_config(cfg)
        if self.result is not None:  # ended here, so its twin ends here too
            twin.result = replace(self.result,
                                  records=self.result.records.copy())
        else:
            twin.est = copy.deepcopy(self.est)
            twin.records = self.records.copy()
        return twin

    def update(self, k: int, t: float, x_meas) -> bool:
        """Sample k's estimator step and model handover, on the plant in
        force at time t; whether the observer took a new model."""
        if self.pending and self.pending[-1] <= t:
            self.plant = apply_schedule(self.plant, self.cfg.schedule, t)
            while self.pending and self.pending[-1] <= t:
                self.pending.pop()
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
            self.ctrl_model = model
            self.solver = CondensedMpc(model, self.cfg.mpc)
        if self.adapt_obs:
            self.obs_model = model
        return self.adapt_obs

    def end(self, exc: NumericalError | None = None) -> None:
        """End the cell with the rows written, aborted when exc is given,
        and fill in their running error: each row's err @ err as for one
        vector, summed in order."""
        records = self.records[:self.written]
        err = records.w - records.x
        records.e_cum = np.cumsum((err[:, None, :] @ err[:, :, None])[:, 0, 0])
        self.result = RunResult(
            records, exc is not None,
            f"{type(exc).__name__}: {exc}" if exc is not None else "",
            self.initial_model, self.ctrl_model, self.obs_model)


@dataclass
class _Rows:
    """The live cells' rows of a lockstep run, stacked on a leading cell
    axis in the order of its live cells: the filter and the observer models
    (K, B, in the shape kf_predict takes)."""

    kf: KalmanState
    K: np.ndarray
    B: np.ndarray

    def take(self, rows) -> "_Rows":
        """Copies of the given rows, in order."""
        kf = self.kf
        return _Rows(replace(kf, psi=kf.psi[rows], P=kf.P[rows],
                             Q=kf.Q[rows]),
                     self.K[rows], self.B[rows])


def run_closed_loop(cfg: ExperimentConfig, estimator=None, reference=None,
                    *, _cells: tuple | None = None):
    """Run one closed-loop scenario and return its trace.

    An already-initialized estimator may be passed to share one offline fit
    across runs (it is deep-copied, never mutated). A reference array
    (n, >= steps + horizon) overrides the configured reference generator.

    The loop runs over a leading axis of cells, one cell here. Per sample,
    the sensor and the Kalman filter run once for all live cells; the
    estimator, the controller and the plant run cell by cell, and a cell's
    running error is summed over its whole trace when it ends. Each cell's
    numbers are those of its run alone, to the bit. A NumericalError ends
    its cell alone, with the rows it wrote, and the cell leaves the stacked
    arrays.

    ``_cells`` (used by run_comparison) makes this one call run a sweep's
    cells and return a list of their RunResults: given ``(pairs, k)``,
    cfg's cell of each (variant, speed) pair without changes, then, when k
    is not None, each with cfg's changes. A cell with changes starts at the
    top of sample k as a copy of its nominal twin's loop state there, which
    is exact when no change acts before sample k.
    """
    if _cells is None:
        cfgs, twin_k, twin_cfgs = [cfg], None, []
    else:
        pairs, twin_k = _cells
        cfgs = [_cell_config(cfg, v, False, s) for v, s in pairs]
        twin_cfgs = ([] if twin_k is None
                     else [_cell_config(cfg, v, True, s) for v, s in pairs])
    plant, dictionary, H = cfg.plant, cfg.dictionary, cfg.mpc.horizon
    n, steps = plant.n, _steps(cfg)
    if reference is None:  # each distinct reference once
        refs = {spec: build_reference(spec, steps + H + 1, plant.dt)
                for spec in {c.run.reference for c in cfgs}}
        ws = [refs[c.run.reference] for c in cfgs]
    else:
        ws = [np.asarray(reference, dtype=float)]
        if ws[0].shape[0] != n or ws[0].shape[1] < steps + H:
            raise ValueError(f"reference override must be ({n}, >= "
                             f"{steps + H})")
    if estimator is None:
        estimator = prepare_estimator(cfg)
    cells = [_Cell(c, copy.deepcopy(estimator), w,
                   Trace.empty(steps, n, plant.p))
             for c, w in zip(cfgs, ws)]
    filters = [init_kalman(dictionary, c.w[:, 0], c.cfg.observer,
                           model=c.initial_model) for c in cells]
    kf = filters[0]
    rows = _Rows(replace(kf, psi=np.stack([f.psi for f in filters]),
                         P=np.stack([f.P for f in filters]),
                         Q=np.stack([f.Q for f in filters])),
                 np.stack([c.obs_model.K for c in cells]),
                 np.stack([c.obs_model.B for c in cells]))
    live = list(cells)  # the cells not ended, in the order of rows
    # n + 1 sensor draws per sample, the same for every cell
    draws = default_rng([cfg.run.seed, _RUN_STREAM]).standard_normal(
        (steps, n + 1))
    for k in range(steps):
        if k == twin_k:
            twins = [c.twin(tc) for c, tc in zip(cells, twin_cfgs)]
            cells = cells + twins
            rows = rows.take(list(range(len(live))) * 2)
            live = live + [c for c in twins if c.result is None]
        if not live:
            continue
        t = k * plant.dt
        x_true = np.array([c.state.x for c in live])
        x_meas, y_meas = measure(plant, x_true,
                                 draws[k:k + 1].repeat(len(live), 0),
                                 dictionary.output_index)
        ended = False
        for j, c in enumerate(live):
            try:
                if c.update(k, t, x_meas[j]):
                    rows.K[j], rows.B[j] = c.obs_model.K, c.obs_model.B
            except NumericalError as exc:
                c.end(exc)
                ended = True
        if ended:
            keep = [j for j, c in enumerate(live) if c.result is None]
            live, rows = [live[j] for j in keep], rows.take(keep)
            x_true, x_meas, y_meas = x_true[keep], x_meas[keep], y_meas[keep]
            if not live:
                continue
            ended = False
        kf = rows.kf
        kf_correct(kf, dictionary, y_meas)
        x_hat = kf_estimate_state(kf, dictionary)
        u = []
        for j, c in enumerate(live):
            w = c.w
            u0, _ = c.solver.solve(kf.psi[j], w[:, k + 1: k + 1 + H])
            r = c.report
            # the running error is filled in when the cell ends
            c.records[k] = (t, x_true[j], x_meas[j], x_hat[j], u0, w[:, k],
                            r.lam, r.trace_gamma, r.updated, r.e_post,
                            r.window_error, 0.0)
            c.written = k + 1
            try:
                c.state = step_plant(c.plant, c.state, u0)
            except NumericalError as exc:
                c.end(exc)
                ended = True
                continue
            c.prev_meas, c.prev_u = x_meas[j], u0
            u.append(u0)
        if ended:
            keep = [j for j, c in enumerate(live) if c.result is None]
            live, rows = [live[j] for j in keep], rows.take(keep)
            if not live:
                continue
        kf_predict(rows.kf, rows, np.array(u))
    for c in live:
        c.end()
    results = [c.result for c in cells]
    return results if _cells is not None else results[0]


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


def _first_change_sample(cfg: ExperimentConfig):
    """The first sample k at which the loop applies cfg's first change
    event (its test is event_time <= k * dt), or None when no sample
    reaches one."""
    if not cfg.schedule.events:
        return None
    first = cfg.schedule.events[0][0]
    return next((k for k in range(_steps(cfg))
                 if first <= k * cfg.plant.dt), None)


def _cell_config(cfg: ExperimentConfig, variant: str, with_changes: bool,
                 speed: float) -> ExperimentConfig:
    run = replace(cfg.run, variant=variant,
                  reference=replace(cfg.run.reference, speed=speed))
    schedule = cfg.schedule if with_changes else type(cfg.schedule)(())
    return replace(cfg, run=run, schedule=schedule)


def _cell_result(variant: str, with_changes: bool, speed: float,
                 result: RunResult) -> CellResult:
    if result.aborted:
        return CellResult(variant, with_changes, speed, math.nan,
                          f"aborted: {result.reason}")
    return CellResult(variant, with_changes, speed,
                      normalized_error(result.records), "ok")


def run_comparison(cfg: ExperimentConfig) -> ComparisonResult:
    """Run all variants x {no changes, changes} x reference speeds (the
    run's speeds for a rest-to-rest reference, else the reference's own);
    the with-changes half runs only when some change event acts within
    the run.

    The offline fit is shared across cells (each gets a deep copy). All
    cells run in lockstep in one run_closed_loop call: a cell with changes
    repeats its nominal twin up to the first change event, so it starts
    there from a copy of the twin's loop state. Cells are reported by
    half, then speed, then variant.
    """
    # only the rest-to-rest reference reads its speed; without a change
    # that acts within the run the with-changes half would repeat the
    # nominal one
    reference = cfg.run.reference
    speeds = (cfg.run.speeds if reference.kind == "rest-to-rest"
              else (reference.speed,))
    pairs = [(variant, speed) for speed in speeds for variant in VARIANTS]
    change_k = _first_change_sample(cfg)
    halves = (False,) if change_k is None else (False, True)
    results = run_closed_loop(cfg, prepare_estimator(cfg),
                              _cells=(pairs, change_k))
    return ComparisonResult([
        _cell_result(variant, with_changes, speed, result)
        for (with_changes, (variant, speed)), result in zip(
            [(h, pair) for h in halves for pair in pairs], results)])


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
