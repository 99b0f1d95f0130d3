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
# numpy loads its random module on first use; load it with this module
# so that the first run's timing does not include it
from numpy.random import default_rng

from .config import VARIANTS, ExperimentConfig, assemble, loads
from .edmd import SnapshotSet
from .errors import EmptyTrace, NumericalError
from .mpc import CondensedMpc
from .observer import init_kalman, kf_correct, kf_estimate_state, kf_predict
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


@dataclass
class _Fork:
    """A closed loop's state at the top of sample k, saved by a run without
    changes for its with-changes twin to resume from."""

    k: int
    saved: tuple | None = None


def run_closed_loop(cfg: ExperimentConfig, estimator=None, reference=None,
                    *, _fork: _Fork | None = None) -> RunResult:
    """Run one closed-loop scenario and return its trace.

    An already-initialized estimator may be passed to share one offline fit
    across runs (it is deep-copied, never mutated). A reference array
    (n, >= steps + horizon) overrides the configured reference generator.

    ``_fork`` (used by run_comparison): a fork with nothing saved receives
    this run's loop state at the top of sample ``_fork.k``; one with a
    saved state starts this run from it. That is exact when the saving
    run's config differs from this one only by change events that act at
    ``_fork.k`` or later.
    """
    run = cfg.run
    plant = cfg.plant
    dictionary = cfg.dictionary
    steps = _steps(cfg)
    H = cfg.mpc.horizon
    if reference is None:
        w_full = build_reference(run.reference, steps + H + 1, plant.dt)
    else:
        w_full = np.asarray(reference, dtype=float)
        if w_full.shape[0] != plant.n or w_full.shape[1] < steps + H:
            raise ValueError(
                f"reference override must be ({plant.n}, >= {steps + H})")
    adapt_ctrl = run.variant in ("adaptive-ctrl", "adaptive-both")
    adapt_obs = run.variant in ("adaptive-obs", "adaptive-both")
    saved = _fork.saved if _fork is not None else None
    fork_at = _fork.k if _fork is not None and saved is None else -1
    if saved is None:
        k0 = 0
        est = copy.deepcopy(estimator) if estimator is not None \
            else prepare_estimator(cfg)
        initial_model = ctrl_model = obs_model = est.model
        solver = CondensedMpc(initial_model, cfg.mpc)
        kf = init_kalman(dictionary, w_full[:, 0], cfg.observer,
                         model=initial_model)
        state = PlantState(w_full[:, 0].copy(), 0.0)
        records = Trace.empty(steps, plant.n, plant.p)
        e_cum = 0.0
    else:  # the saved copies become this run's own state
        k0 = _fork.k
        (state, est, kf, records, e_cum, prev_meas, prev_u,
         initial_model, ctrl_model, obs_model, solver) = saved
    # n + 1 sensor draws per sample, the same for a resumed run
    draws = default_rng([run.seed, _RUN_STREAM]).standard_normal(
        (steps, plant.n + 1))
    aborted = False
    reason = ""
    written = k0  # rows of records filled so far
    # event times not yet reached; the plant is rebuilt once per distinct time
    pending = [e[0] for e in reversed(cfg.schedule.events)]
    try:
        for k in range(k0, steps):
            if k == fork_at:
                # copy what the rest of this run changes: the estimator in
                # place, the filter by rebinding psi and P, the trace's
                # rows; models and solvers never change
                _fork.saved = (state, copy.deepcopy(est), copy.copy(kf),
                               records.copy(), e_cum, prev_meas, prev_u,
                               initial_model, ctrl_model, obs_model, solver)
            t = k * plant.dt
            if pending and pending[-1] <= t:
                plant = apply_schedule(plant, cfg.schedule, t)
                while pending and pending[-1] <= t:
                    pending.pop()
            x_true = state.x
            x_meas, y_meas = measure(plant, x_true, draws[k],
                                     dictionary.output_index)
            if k:  # the transition into this sample
                report = est.step(prev_meas, prev_u, x_meas)
            else:  # no transition yet: the warm-up sentinels
                report = StepReport(False, est.lam, float(np.trace(est.Gamma)),
                                    math.nan, math.inf)
            if report.updated and (adapt_ctrl or adapt_obs):
                model = est.model  # one snapshot serves both consumers
                if adapt_ctrl:
                    ctrl_model = model
                    solver = CondensedMpc(model, cfg.mpc)
                if adapt_obs:
                    obs_model = model
            kf_correct(kf, dictionary, y_meas)
            x_hat = kf_estimate_state(kf, dictionary)
            u0, _ = solver.solve(kf.psi, w_full[:, k + 1: k + 1 + H])
            w_k = w_full[:, k]
            err = w_k - x_true
            e_cum += float(err @ err)
            records[k] = (t, x_true, x_meas, x_hat, u0, w_k, report.lam,
                          report.trace_gamma, report.updated, report.e_post,
                          report.window_error, e_cum)
            written = k + 1
            state = step_plant(plant, state, u0)
            kf_predict(kf, obs_model, u0)
            prev_meas, prev_u = x_meas, u0
    except NumericalError as exc:
        aborted = True
        reason = f"{type(exc).__name__}: {exc}"
    return RunResult(records[:written], aborted, reason, initial_model,
                     ctrl_model, obs_model)


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


def _run_pair(cfg: ExperimentConfig, estimator, variant: str, speed: float,
              halves: tuple, fork_k) -> list:
    """The (variant, speed) cell of each half. The two cells differ only
    in the schedule, so given a fork sample the with-changes one resumes
    from the loop state its twin reached there."""
    fork = _Fork(fork_k) if fork_k is not None else None
    return [_cell_result(variant, with_changes, speed, run_closed_loop(
                _cell_config(cfg, variant, with_changes, speed),
                estimator=estimator, _fork=fork))
            for with_changes in halves]


def run_comparison(cfg: ExperimentConfig) -> ComparisonResult:
    """Run all variants x {no changes, changes} x reference speeds (the
    run's speeds for a rest-to-rest reference, else the reference's own);
    the with-changes half runs only when some change event acts within
    the run.

    The offline fit is shared across cells (each gets a deep copy). Each
    (variant, speed) pair runs its two cells back to back: the cell with
    changes repeats its nominal twin up to the first change event, so it
    resumes from a copy of the twin's loop state there. Cells are reported
    by half, then speed, then variant.
    """
    # only the rest-to-rest reference reads its speed; without a change
    # that acts within the run the with-changes half would repeat the
    # nominal one, and a change at sample 0 leaves no prefix to share
    reference = cfg.run.reference
    speeds = (cfg.run.speeds if reference.kind == "rest-to-rest"
              else (reference.speed,))
    change_k = _first_change_sample(cfg)
    halves = (False,) if change_k is None else (False, True)
    fork_k = change_k or None
    estimator = prepare_estimator(cfg)
    pairs = [_run_pair(cfg, estimator, variant, speed, halves, fork_k)
             for speed in speeds for variant in VARIANTS]
    return ComparisonResult([pair[h] for h in range(len(halves))
                             for pair in pairs])


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
