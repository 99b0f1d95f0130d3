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
tracking error normalized by the reference energy.
"""

import copy
import csv
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .config import VARIANTS, ExperimentConfig, assemble, loads
from .edmd import SnapshotSet, collect_snapshots
from .errors import EmptyTrace, NumericalError
from .mpc import CondensedMpc
from .observer import init_kalman, kf_correct, kf_estimate_state, kf_predict
from .plants import PlantState, apply_schedule, measure, step_plant
from .redmd import RecursiveEstimator, init_from_batch
from .references import build_reference

_TRAIN_STREAM = 0
_RUN_STREAM = 1


@dataclass(frozen=True)
class StepRecord:
    """One closed-loop sample: truth, measurements, estimate, action,
    reference, estimator diagnostics, and the running error metric."""

    t: float
    x: np.ndarray
    x_meas: np.ndarray
    x_hat: np.ndarray
    u: np.ndarray
    w: np.ndarray
    lam: float
    trace_gamma: float
    updated: bool
    e_post: float
    window_error: float
    e_cum: float


@dataclass
class RunResult:
    """A full trace plus the models in play at the end of the run."""

    records: list
    aborted: bool = False
    reason: str = ""
    initial_model: object = None
    controller_model: object = None
    observer_model: object = None


def generate_training_data(cfg: ExperimentConfig) -> SnapshotSet:
    """Sum-of-sinusoids excitation run on the nominal plant.

    The excitation mixes six log-spaced tones with seeded phases plus
    white noise, all scaled by run.train_amplitude; states are recorded
    through the noisy measurement path.
    """
    plant = cfg.plant
    run = cfg.run
    rng = np.random.default_rng([run.seed, _TRAIN_STREAM])
    steps = max(2, round(run.train_duration / plant.dt))
    freqs = np.geomspace(0.3, 4.0, 6)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=6)
    state = PlantState(np.zeros(plant.n))
    pairs = []
    amp = run.train_amplitude
    for k in range(steps):
        t = k * plant.dt
        tone = np.sum(np.sin(2.0 * np.pi * freqs * t + phases)) / 6.0
        u = np.array([amp * (tone + 0.25 * rng.standard_normal())])
        x_meas, _ = measure(plant, state, rng, cfg.dictionary.output_index)
        pairs.append((x_meas, u))
        state = step_plant(plant, state, u)
    x_meas, _ = measure(plant, state, rng, cfg.dictionary.output_index)
    pairs.append((x_meas, np.zeros(plant.p)))
    return collect_snapshots(pairs)


def prepare_estimator(cfg: ExperimentConfig) -> RecursiveEstimator:
    """Offline init: excitation run, batch fit, exact-Gram covariance."""
    return init_from_batch(generate_training_data(cfg), cfg.dictionary,
                           cfg.redmd)


def run_closed_loop(cfg: ExperimentConfig, estimator=None,
                    reference=None) -> RunResult:
    """Run one closed-loop scenario and return its trace.

    An already-initialized estimator may be passed to share one offline fit
    across runs (it is deep-copied, never mutated). A reference array
    (n, >= steps + horizon) overrides the configured reference generator.
    """
    run = cfg.run
    plant = cfg.plant
    dictionary = cfg.dictionary
    steps = max(1, round(run.t_sim / plant.dt))
    H = cfg.mpc.horizon
    if reference is None:
        w_full = build_reference(run.reference, steps + H + 1, plant.dt)
    else:
        w_full = np.asarray(reference, dtype=float)
        if w_full.shape[0] != plant.n or w_full.shape[1] < steps + H:
            raise ValueError(
                f"reference override must be ({plant.n}, >= {steps + H})")
    est = copy.deepcopy(estimator) if estimator is not None \
        else prepare_estimator(cfg)
    adapt_ctrl = run.variant in ("adaptive-ctrl", "adaptive-both")
    adapt_obs = run.variant in ("adaptive-obs", "adaptive-both")
    initial_model = est.model
    ctrl_model = initial_model
    obs_model = initial_model
    solver = CondensedMpc(ctrl_model, cfg.mpc)
    kf = init_kalman(dictionary, w_full[:, 0], cfg.observer,
                     model=initial_model)
    rng = np.random.default_rng([run.seed, _RUN_STREAM])
    state = PlantState(w_full[:, 0].copy(), 0.0)
    records: list[StepRecord] = []
    e_cum = 0.0
    prev_meas = None
    prev_u = None
    aborted = False
    reason = ""
    # event times not yet reached; the plant is rebuilt once per distinct time
    pending = [e[0] for e in reversed(cfg.schedule.events)]
    try:
        for k in range(steps):
            t = k * plant.dt
            if pending and pending[-1] <= t:
                plant = apply_schedule(plant, cfg.schedule, t)
                while pending and pending[-1] <= t:
                    pending.pop()
            x_true = state.x
            x_meas, y_meas = measure(plant, state, rng,
                                     dictionary.output_index)
            if prev_meas is not None:
                report = est.step(prev_meas, prev_u, x_meas)
                if report.updated:
                    if adapt_ctrl:
                        ctrl_model = est.model
                        solver = CondensedMpc(ctrl_model, cfg.mpc)
                    if adapt_obs:
                        obs_model = est.model
                lam, trace_gamma = report.lam, report.trace_gamma
                updated, e_post = report.updated, report.e_post
                window_error = report.window_error
            else:
                lam, trace_gamma = est.lam, float(np.trace(est.Gamma))
                updated, e_post, window_error = False, math.nan, math.inf
            kf_correct(kf, dictionary, y_meas)
            x_hat = kf_estimate_state(kf, dictionary)
            u0, _ = solver.solve(kf.psi, w_full[:, k + 1: k + 1 + H])
            w_k = w_full[:, k]
            err = w_k - x_true
            e_cum += float(err @ err)
            records.append(StepRecord(
                t, x_true.copy(), x_meas, x_hat, u0.copy(), w_k.copy(),
                lam, trace_gamma, updated, e_post, window_error, e_cum))
            state = step_plant(plant, state, u0)
            kf_predict(kf, obs_model, u0)
            prev_meas, prev_u = x_meas, u0
    except NumericalError as exc:
        aborted = True
        reason = f"{type(exc).__name__}: {exc}"
    return RunResult(records, aborted, reason, initial_model, ctrl_model,
                     obs_model)


def compute_metric(records) -> float:
    """Final cumulated quadratic tracking error of a trace."""
    if not records:
        raise EmptyTrace("no records to compute a metric from")
    return records[-1].e_cum


def reference_energy(records) -> float:
    """Sum of squared reference norms over a trace (the normalizer)."""
    if not records:
        raise EmptyTrace("no records to compute reference energy from")
    return float(sum(r.w @ r.w for r in records))


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

    def get(self, variant: str, with_changes: bool, speed: float) -> CellResult:
        for c in self.cells:
            if (c.variant == variant and c.with_changes == with_changes
                    and c.speed == speed):
                return c
        raise KeyError((variant, with_changes, speed))


def _comparison_cells(cfg: ExperimentConfig):
    # only the rest-to-rest reference reads its speed; without a schedule
    # the with-changes half would repeat the nominal one
    reference = cfg.run.reference
    speeds = (cfg.run.speeds if reference.kind == "rest-to-rest"
              else (reference.speed,))
    halves = (False, True) if cfg.schedule.events else (False,)
    for with_changes in halves:
        for speed in speeds:
            for variant in VARIANTS:
                yield variant, with_changes, speed


def _cell_config(cfg: ExperimentConfig, variant: str, with_changes: bool,
                 speed: float) -> ExperimentConfig:
    run = replace(cfg.run, variant=variant,
                  reference=replace(cfg.run.reference, speed=speed))
    schedule = cfg.schedule if with_changes else type(cfg.schedule)(())
    return replace(cfg, run=run, schedule=schedule)


def _run_cell(cfg: ExperimentConfig, estimator, variant: str,
              with_changes: bool, speed: float) -> CellResult:
    cell_cfg = _cell_config(cfg, variant, with_changes, speed)
    result = run_closed_loop(cell_cfg, estimator=estimator)
    if result.aborted:
        return CellResult(variant, with_changes, speed, math.nan,
                          f"aborted: {result.reason}")
    norm = reference_energy(result.records)
    value = compute_metric(result.records) / norm if norm > 0 else math.inf
    return CellResult(variant, with_changes, speed, value, "ok")


def run_comparison(cfg: ExperimentConfig) -> ComparisonResult:
    """Run all variants x {no changes, changes} x reference speeds (the
    run's speeds for a rest-to-rest reference, else the reference's own);
    the with-changes half runs only when the config has a schedule.

    The offline fit is shared across cells (each gets a deep copy); cells
    run sequentially in a fixed order.
    """
    estimator = prepare_estimator(cfg)
    return ComparisonResult([
        _run_cell(cfg, estimator, variant, with_changes, speed)
        for variant, with_changes, speed in _comparison_cells(cfg)])


# -- reporting ----------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_trace_csv(path, records) -> None:
    """Trace CSV: one row per sample, 17 significant digits, LF endings."""
    if not records:
        raise EmptyTrace("refusing to write an empty trace")
    n = records[0].x.shape[0]
    p = records[0].u.shape[0]
    header = (["t"]
              + [f"x{i + 1}" for i in range(n)]
              + [f"xmeas{i + 1}" for i in range(n)]
              + [f"xhat{i + 1}" for i in range(n)]
              + [f"u{j + 1}" for j in range(p)]
              + [f"w{i + 1}" for i in range(n)]
              + ["lambda", "trace_gamma", "updated", "e_post",
                 "window_error", "e_cum"])
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in records:
            row = ([_fmt(r.t)]
                   + [_fmt(v) for v in r.x]
                   + [_fmt(v) for v in r.x_meas]
                   + [_fmt(v) for v in r.x_hat]
                   + [_fmt(v) for v in r.u]
                   + [_fmt(v) for v in r.w]
                   + [_fmt(r.lam), _fmt(r.trace_gamma),
                      "1" if r.updated else "0",
                      _fmt(r.e_post), _fmt(r.window_error), _fmt(r.e_cum)])
            writer.writerow(row)


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
