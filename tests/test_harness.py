"""Tests for the closed-loop harness: loop bookkeeping, metric, training
data, variants, and the comparison sweep."""

import copy
import math
import pickle
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from koopman_adapt import harness
from koopman_adapt.config import (
    VARIANTS,
    ExperimentConfig,
    RunSettings,
    assemble,
    loads,
)
from koopman_adapt.edmd import KoopmanModel, collect_snapshots, fit
from koopman_adapt.errors import (
    EmptyTrace,
    IllConditionedHessian,
    NonFiniteState,
    NumericalError,
    RankDeficientRegressor,
)
from koopman_adapt.harness import (
    compute_metric,
    default_config,
    format_comparison_table,
    generate_training_data,
    normalized_error,
    prepare_estimator,
    reference_energy,
    run_closed_loop,
    run_comparison,
    write_trace_csv,
)
from koopman_adapt.mpc import MpcConfig
from koopman_adapt.observables import ObservableDictionary
from koopman_adapt.observer import ObserverSettings
from koopman_adapt.plants import (
    ChangeSchedule,
    PlantModel,
    apply_schedule,
    measure,
    step_plant,
)
from koopman_adapt.redmd import RedmdSettings, StepReport
from koopman_adapt.references import ReferenceSpec, build_reference

TINY_TEXT = """\
[plant]
kind = pendulum
dt = 0.001
substeps = 1
noise_y = 0.0
noise_x = 0.0

[redmd]
m_op = 5

[mpc]
horizon = 5

[run]
t_sim = 0.01
train_duration = 1.0
seed = 3
"""


@pytest.fixture(scope="module")
def tiny_cfg():
    return assemble(loads(TINY_TEXT))


@pytest.fixture(scope="module")
def tiny_estimator(tiny_cfg):
    return prepare_estimator(tiny_cfg)


def linear_step(plant, x, u):
    """A stand-in for step_plant: RK4 of dx/dt = A x + B u over one sample
    time in the plant's substeps, a plant the identity dictionary lifts
    exactly."""
    A = np.array([[0.0, 1.0], [-4.0, -0.8]])
    B = np.array([[0.0], [1.5]])
    u = np.asarray(u, dtype=float).reshape(1)
    h = plant.dt / plant.substeps
    for _ in range(plant.substeps):
        k1 = A @ x + B @ u
        k2 = A @ (x + 0.5 * h * k1) + B @ u
        k3 = A @ (x + 0.5 * h * k2) + B @ u
        k4 = A @ (x + h * k3) + B @ u
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def linear_matched_config():
    """Exact-lifted-space scenario: with linear_step as the plant, the
    identity dictionary, no noise; the pendulum plant gives the shapes and
    timing."""
    return ExperimentConfig(
        plant=PlantModel(dt=0.01, substeps=8),
        schedule=ChangeSchedule(()),
        dictionary=ObservableDictionary(2, "identity"),
        redmd=RedmdSettings(m_op=10, eps_low=1e-9, adaptive_lambda=False),
        mpc=MpcConfig(horizon=20, Qy=np.eye(2), Ru=1e-9 * np.eye(1)),
        observer=ObserverSettings(q=0.0, r=1e-12, p0=0.0),
        run=RunSettings(t_sim=3.0, seed=11, variant="static-static",
                        reference=ReferenceSpec(),
                        train_duration=5.0, train_amplitude=1.0,
                        speeds=(1.0,)),
    )


class TestRunBookkeeping:
    def test_record_count_and_monotone_metric(self, tiny_cfg, tiny_estimator):
        result = run_closed_loop(tiny_cfg, estimator=tiny_estimator)
        assert not result.aborted
        assert len(result.records) == 10
        e = [r.e_cum for r in result.records]
        assert all(b >= a for a, b in zip(e, e[1:]))

    def test_determinism_bitwise(self, tiny_cfg, tiny_estimator):
        a = run_closed_loop(tiny_cfg, estimator=tiny_estimator)
        b = run_closed_loop(tiny_cfg, estimator=tiny_estimator)
        for ra, rb in zip(a.records, b.records):
            assert ra.t == rb.t
            assert (ra.x == rb.x).all()
            assert (ra.u == rb.u).all()
            assert ra.e_cum == rb.e_cum

    def test_same_bytes_packed_record(self, tiny_cfg, tiny_estimator):
        """Two runs of one config give the same trace bytes, and so the
        same pickle; the record is packed, its bytes its fields' alone."""
        a = run_closed_loop(tiny_cfg, estimator=tiny_estimator).records
        b = run_closed_loop(tiny_cfg, estimator=tiny_estimator).records
        assert a.dtype.itemsize == sum(
            a.dtype.fields[name][0].itemsize for name in a.dtype.names)
        assert a.tobytes() == b.tobytes()
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_each_measured_state_lifted_once(self, tiny_cfg, tiny_estimator,
                                             monkeypatch):
        """Two single-state lifts per sample: the estimator's newest
        measurement (the one before it is reused) and the filter's relift
        after its correction; plus the first measurement and the filter's
        initial state."""
        calls = []
        lift = ObservableDictionary.lift

        def counted(self, x):
            calls.append(1)
            return lift(self, x)
        monkeypatch.setattr(ObservableDictionary, "lift", counted)
        result = run_closed_loop(tiny_cfg, estimator=tiny_estimator)
        assert len(calls) == 2 * len(result.records) + 1

    def test_passed_estimator_not_mutated(self, tiny_cfg, tiny_estimator):
        theta_before = tiny_estimator.theta.copy()
        run_closed_loop(tiny_cfg, estimator=tiny_estimator)
        assert (tiny_estimator.theta == theta_before).all()

    def test_nonfinite_measurement_aborts_with_partial_trace(
            self, tiny_cfg, tiny_estimator, monkeypatch):
        """A NaN sample reaching the estimator ends the run as a
        NumericalError with the samples before it kept."""
        calls = []

        def nan_on_fifth(plant, x, z, output_index):
            x_meas, y_meas = measure(plant, x, z, output_index)
            calls.append(None)
            if len(calls) == 5:
                return np.full_like(x_meas, np.nan), np.full_like(y_meas,
                                                                  np.nan)
            return x_meas, y_meas

        monkeypatch.setattr(harness, "measure", nan_on_fifth)
        result = run_closed_loop(tiny_cfg, estimator=tiny_estimator)
        assert result.aborted
        assert result.reason.startswith("NonFiniteState at t=0.004: ")
        assert len(result.records) == 4

    def test_error_after_the_row_keeps_that_sample(
            self, tiny_cfg, tiny_estimator, monkeypatch):
        """A plant step that fails at sample 3 comes after that sample's
        row is written, so the partial trace ends with it; the reason
        says the sample's time."""
        full = run_closed_loop(tiny_cfg, estimator=tiny_estimator).records
        calls = []

        def fail_on_fourth(plant, x, u):
            calls.append(None)
            if len(calls) == 4:
                raise NonFiniteState("plant state went non-finite")
            return step_plant(plant, x, u)

        monkeypatch.setattr(harness, "step_plant", fail_on_fourth)
        result = run_closed_loop(tiny_cfg, estimator=tiny_estimator)
        assert result.aborted
        assert result.reason == ("NonFiniteState at t=0.003: plant state "
                                 "went non-finite")
        assert len(result.records) == 4
        assert result.records[-1].t == 3 * tiny_cfg.plant.dt
        assert_same_trace(result.records, full[:4])

    def test_mpc_rebuild_abort_says_its_time(self, tiny_cfg, tiny_estimator,
                                             monkeypatch):
        """A controller rebuild that fails on the first model update, at
        sample 1, ends the run before that sample's row, with its time."""
        mpc, built = harness.CondensedMpc, []

        def fail_on_second(model, cfg):
            built.append(model)
            if len(built) == 2:
                raise IllConditionedHessian("Hessian too ill-conditioned")
            return mpc(model, cfg)

        monkeypatch.setattr(harness, "CondensedMpc", fail_on_second)
        result = run_closed_loop(tiny_cfg, estimator=tiny_estimator)
        assert result.aborted
        assert result.reason == ("IllConditionedHessian at t=0.001: Hessian "
                                 "too ill-conditioned")
        assert len(result.records) == 1
        # the solver that ran is the offline model's; the failed build was
        # handed the update's model
        offline = tiny_estimator.K
        assert (built[0].K == offline).all()
        assert not (built[1].K == offline).all()

    def test_schedule_applied_once_per_event_time(
            self, tiny_cfg, tiny_estimator, monkeypatch):
        """The plant is rebuilt at the first sample reaching each distinct
        event time, and every sample sees the plant that applying the
        schedule at its own time would give."""
        schedule = ChangeSchedule(((0.0025, "d", 0.2), (0.0025, "m", 0.5),
                                   (0.0055, "d", 0.3), (1.0, "m", 2.0)))
        cfg = replace(tiny_cfg, schedule=schedule)
        dt = cfg.plant.dt
        applied, stepped = [], []

        def spy_schedule(plant, schedule, t):
            applied.append(t)
            return apply_schedule(plant, schedule, t)

        def spy_step(plant, x, u):
            stepped.append(plant)
            return step_plant(plant, x, u)

        monkeypatch.setattr(harness, "apply_schedule", spy_schedule)
        monkeypatch.setattr(harness, "step_plant", spy_step)
        result = run_closed_loop(cfg, estimator=tiny_estimator)
        assert not result.aborted
        assert applied == [3 * dt, 6 * dt]
        assert stepped == [
            apply_schedule(cfg.plant, schedule, k * dt)
            for k in range(len(stepped))]


class TestModelMatchedClosedLoop:
    def test_tracks_achievable_reference_tightly(self, monkeypatch):
        # the training run and the loop both step harness.step_plant
        monkeypatch.setattr(harness, "step_plant", linear_step)
        cfg = linear_matched_config()
        steps = round(cfg.run.t_sim / cfg.plant.dt)
        H = cfg.mpc.horizon
        # achievable reference: an actual trajectory of the plant
        w = np.zeros((2, steps + H + 1))
        for k in range(1, steps + H + 1):
            u = np.array([1.2 * np.sin(2.0 * np.pi * 0.4 * (k - 1) * cfg.plant.dt)])
            w[:, k] = linear_step(cfg.plant, w[:, k - 1], u)
        # the run tracks it in place of the config's stroke
        monkeypatch.setattr(harness, "build_reference",
                            lambda spec, num_samples, dt: w[:, :num_samples])
        result = run_closed_loop(cfg)
        assert not result.aborted
        assert (result.records.w == w[:, :steps].T).all()
        tail = result.records[steps // 2:]
        worst = max(float(np.linalg.norm(r.w - r.x)) for r in tail)
        assert worst < 1e-6


class TestMetric:
    def test_perfect_tracking_zero(self, tiny_cfg, tiny_estimator):
        records = run_closed_loop(
            tiny_cfg, estimator=tiny_estimator).records.copy()
        records.w = records.x
        records.e_cum = 0.0
        assert compute_metric(records) == 0.0

    def test_single_record_value(self, tiny_cfg, tiny_estimator):
        records = run_closed_loop(
            tiny_cfg, estimator=tiny_estimator).records[:1].copy()
        records.w = records.x + np.array([2.0, 0.0])
        records.e_cum = 4.0
        assert compute_metric(records) == 4.0

    def test_concatenation_additivity(self, tiny_cfg, tiny_estimator):
        records = run_closed_loop(tiny_cfg, estimator=tiny_estimator).records
        whole = compute_metric(records)
        first = compute_metric(records[:5])
        second_increments = whole - first
        total = first + second_increments
        assert total == pytest.approx(whole, rel=1e-15)

    def test_no_reference_energy_normalizes_to_inf(self, tiny_cfg,
                                                   tiny_estimator):
        """A trace whose reference has no energy has an infinite normalized
        error, not a division by zero."""
        records = run_closed_loop(
            tiny_cfg, estimator=tiny_estimator).records.copy()
        records.w = 0.0
        assert reference_energy(records) == 0.0
        assert normalized_error(records) == math.inf

    def test_empty_trace_raises(self):
        with pytest.raises(EmptyTrace):
            compute_metric([])
        with pytest.raises(EmptyTrace):
            reference_energy([])
        with pytest.raises(EmptyTrace):
            compute_metric(harness.Trace.empty(0, 2, 1))

    def test_reference_energy_is_the_in_order_sum(self):
        """Bit for bit each row's w @ w added up in sample order, over
        references spanning twelve decades."""
        records = harness.Trace.empty(1000, 2, 1)
        rng = np.random.default_rng(5)
        records.w = (rng.standard_normal((1000, 2))
                     * 10.0 ** rng.integers(-6, 6, (1000, 1)))
        total = 0.0
        for w in records.w:
            total += w @ w
        assert reference_energy(records) == total


def reference_training_data(cfg):
    """The per-sample excitation run generate_training_data must reproduce
    bit for bit: each sample's tone summed on its own, the snapshots
    collected from (x, u) pairs, the RNG drawn from sample by sample."""
    plant, run = cfg.plant, cfg.run
    rng = np.random.default_rng([run.seed, harness._TRAIN_STREAM])

    def sensor_draws():  # the state noise, then the output noise
        return np.append(rng.standard_normal(plant.n), rng.standard_normal())

    steps = max(2, round(run.train_duration / plant.dt))
    freqs = np.geomspace(0.3, 4.0, 6)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=6)
    x = np.zeros(plant.n)
    pairs = []
    for k in range(steps):
        t = k * plant.dt
        tone = np.sum(np.sin(2.0 * np.pi * freqs * t + phases)) / 6.0
        u = np.array([run.train_amplitude
                      * (tone + 0.25 * rng.standard_normal())])
        x_meas, _ = measure(plant, x, sensor_draws(),
                            cfg.dictionary.output_index)
        pairs.append((x_meas, u))
        x = step_plant(plant, x, u)
    x_meas, _ = measure(plant, x, sensor_draws(),
                        cfg.dictionary.output_index)
    pairs.append((x_meas, np.zeros(plant.p)))
    return collect_snapshots(pairs)


class TestTrainingData:
    @pytest.mark.parametrize("dt", [0.01, 0.037])
    @pytest.mark.parametrize("seed", [12345, 7, 2000007])
    def test_matches_per_sample_reference_bitwise(self, seed, dt):
        cfg = default_config()
        cfg = replace(cfg, plant=replace(cfg.plant, dt=dt),
                      run=replace(cfg.run, seed=seed))
        got, want = generate_training_data(cfg), reference_training_data(cfg)
        for name in ("X", "Xp", "U"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))

    def test_deterministic(self, tiny_cfg):
        a = generate_training_data(tiny_cfg)
        b = generate_training_data(tiny_cfg)
        assert (a.X == b.X).all() and (a.U == b.U).all()

    def test_zero_amplitude_degenerate(self, tiny_cfg):
        cfg = replace(tiny_cfg,
                      run=replace(tiny_cfg.run, train_amplitude=0.0))
        snapshots = generate_training_data(cfg)
        assert np.allclose(snapshots.X, snapshots.X[:, :1])
        with pytest.raises(RankDeficientRegressor):
            fit(snapshots, cfg.dictionary)

    def test_default_excitation_well_conditioned(self):
        cfg = default_config()
        snapshots = generate_training_data(cfg)
        G = np.vstack([cfg.dictionary.lift_batch(snapshots.X), snapshots.U])
        assert np.linalg.cond(G @ G.T) < 1e8


@pytest.fixture(scope="module")
def short_cfg():
    cfg = default_config()
    return replace(cfg, run=replace(cfg.run, t_sim=1.5))


@pytest.fixture(scope="module")
def short_cfg_estimator(short_cfg):
    return prepare_estimator(short_cfg)


@pytest.fixture
def handover_spy(monkeypatch):
    """Watches the handover where it happens: counts the controller builds
    and records the filter's K at every predict, one per sample."""
    mpc, predict = harness.CondensedMpc, harness.kf_predict
    spy = SimpleNamespace(builds=0, filter_K=[])

    def counting_build(model, cfg):
        spy.builds += 1
        return mpc(model, cfg)

    def recording_predict(kf, u):
        spy.filter_K.append(kf.K.copy())
        predict(kf, u)

    monkeypatch.setattr(harness, "CondensedMpc", counting_build)
    monkeypatch.setattr(harness, "kf_predict", recording_predict)
    return spy


class TestVariantIsolation:
    """Per variant, the controller is built once plus once per update when
    it adapts, and the filter predicts through the offline model until the
    first update, and through another from then on when it adapts."""

    @staticmethod
    def run(short_cfg, estimator, spy, variant):
        """The variant's update count, and per sample whether the filter
        predicted through the offline model and whether no update had run
        yet."""
        cfg = replace(short_cfg, run=replace(short_cfg.run, variant=variant))
        updated = run_closed_loop(cfg, estimator=estimator).records.updated
        assert len(spy.filter_K) == len(updated)
        return (int(updated.sum()),
                [bool((K[0] == estimator.K).all()) for K in spy.filter_K],
                (np.cumsum(updated) == 0).tolist())

    def test_adaptive_ctrl_keeps_observer_model(
            self, short_cfg, short_cfg_estimator, handover_spy):
        updates, offline, _ = self.run(short_cfg, short_cfg_estimator,
                                       handover_spy, "adaptive-ctrl")
        assert updates > 0
        assert handover_spy.builds == 1 + updates
        assert all(offline)

    def test_adaptive_obs_keeps_controller_model(
            self, short_cfg, short_cfg_estimator, handover_spy):
        updates, offline, before = self.run(short_cfg, short_cfg_estimator,
                                            handover_spy, "adaptive-obs")
        assert updates > 0
        assert handover_spy.builds == 1
        assert offline == before

    def test_adaptive_both_snapshots_each_update_once(
            self, short_cfg, short_cfg_estimator, handover_spy, monkeypatch):
        """Controller and observer share one model snapshot per update."""
        built = []
        post_init = KoopmanModel.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(KoopmanModel, "__post_init__", counting)
        updates, offline, before = self.run(short_cfg, short_cfg_estimator,
                                            handover_spy, "adaptive-both")
        assert updates > 0
        assert len(built) == 1 + updates  # the initial model, then one each
        assert handover_spy.builds == 1 + updates
        assert offline == before

    def test_static_static_freezes_both(self, short_cfg, short_cfg_estimator,
                                        handover_spy):
        updates, offline, _ = self.run(short_cfg, short_cfg_estimator,
                                       handover_spy, "static-static")
        assert updates > 0
        assert handover_spy.builds == 1
        assert all(offline)


ONE_EVENT = ChangeSchedule(((0.005, "m", 0.8),))

# The default scenario cut to 1 s, for the fork of the with-changes cells.
SHORT_T_SIM = 1.0
SHORT_DT = 0.01
FORK_K = 40


def short_changes_config(first_event):
    """The short default scenario whose mass changes at first_event and
    whose friction changes 0.25 s later."""
    cfg = default_config()
    assert cfg.plant.dt == SHORT_DT
    return replace(cfg, run=replace(cfg.run, t_sim=SHORT_T_SIM),
                   schedule=ChangeSchedule(((first_event, "m", 0.8),
                                            (first_event + 0.25, "d", 0.12))))


def _cell_config_of(cfg, cell):
    return harness._cell_config(cfg, cell.variant, cell.with_changes,
                                cell.speed)


def plain_loop(cfg, estimator):
    """The closed loop of one config as the harness docstring states it,
    the oracle the lockstep loop is held to: one cell, no stack and no
    forks, a 1-D filter and the schedule applied every sample. It steps the
    estimator and hands its model over before it corrects the filter, where
    the lockstep loop corrects first: their agreement to the bit is the
    test that the correction reads no model. It calls the library's layer
    functions through the harness module, so that a fault a test injects
    there reaches both loops. Returns the run's RunResult; a NumericalError
    ends it as it ends a cell."""
    h, plant, dictionary = harness, cfg.plant, cfg.dictionary
    steps, H, variant = h._steps(cfg), cfg.mpc.horizon, cfg.run.variant
    w = build_reference(cfg.run.reference, steps + H + 1, plant.dt)
    z = np.random.default_rng([cfg.run.seed, h._RUN_STREAM]).standard_normal(
        (steps, plant.n + 1))
    est = copy.deepcopy(estimator)
    model = est.model
    solver = h.CondensedMpc(model, cfg.mpc)
    kf = h.init_kalman(w[:, 0], cfg.observer, model=model)
    records, x, e_cum = h.Trace.empty(steps, plant.n, plant.p), w[:, 0], 0.0
    written = 0
    for k in range(steps):
        t = k * plant.dt
        try:
            stepped = h.apply_schedule(plant, cfg.schedule, t)
            x_meas, y_meas = h.measure(stepped, x, z[k],
                                       dictionary.output_index)
            report = (est.step(records.x_meas[k - 1], records.u[k - 1],
                               x_meas) if k else
                      StepReport(False, est.lam, est.trace_gamma, math.nan,
                                 math.inf))
            if report.updated and variant != "static-static":
                model = est.model
                if variant in ("adaptive-ctrl", "adaptive-both"):
                    solver = h.CondensedMpc(model, cfg.mpc)
                if variant in ("adaptive-obs", "adaptive-both"):
                    kf.K, kf.B = model.K, model.B
            h.kf_correct(kf, y_meas)
            u, _ = solver.solve(kf.psi, w[:, k + 1: k + 1 + H])
            err = w[:, k] - x
            e_cum += err @ err
            records[k] = (t, x, x_meas, h.kf_estimate_state(kf),
                          u, w[:, k], report.lam, report.trace_gamma,
                          report.updated, report.e_post, report.window_error,
                          e_cum)
            written = k + 1
            x = h.step_plant(stepped, x, u)
            h.kf_predict(kf, u)
        except NumericalError as exc:
            return h.RunResult(records[:written], True,
                               f"{type(exc).__name__} at t={t:.6g}: {exc}")
    return h.RunResult(records)


def assert_same_trace(a, b):
    """Equal length, layout and bits in every column and in the whole
    record."""
    assert len(a) == len(b)
    assert a.dtype == b.dtype
    for name in a.dtype.names:
        assert a[name].tobytes() == b[name].tobytes(), name
    assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def short_estimator():
    return prepare_estimator(short_changes_config(0.0))


@pytest.fixture
def sweep_spy(monkeypatch, short_estimator):
    """Records the RunResults of each run_closed_loop call of a sweep, in
    reporting order (by half, then cell), and counts the plant steps the
    harness takes; the sweep's offline fit is short_estimator, so every
    counted step is a closed-loop one."""
    run, step = harness.run_closed_loop, harness.step_plant
    spy = SimpleNamespace(runs=[], plant_steps=0)

    def recording_run(cfg, *, _cells):
        results = run(cfg, _cells=_cells)
        spy.runs.append([cell[h] for h in range(len(_cells[0][0]))
                         for cell in results])
        return results

    def counting_step(*args):
        spy.plant_steps += 1
        return step(*args)

    monkeypatch.setattr(harness, "run_closed_loop", recording_run)
    monkeypatch.setattr(harness, "step_plant", counting_step)
    monkeypatch.setattr(harness, "prepare_estimator",
                        lambda cfg: short_estimator)
    return spy


class TestComparison:
    def test_cell_shape(self, tiny_cfg):
        cfg = replace(tiny_cfg, schedule=ONE_EVENT,
                      run=replace(tiny_cfg.run, speeds=(1.0, 2.0)))
        comparison = run_comparison(cfg)
        assert len(comparison.cells) == 16
        assert all(c.ok for c in comparison.cells)

    def test_no_schedule_runs_only_the_nominal_half(self, tiny_cfg):
        """Without a schedule the with-changes half would repeat the
        nominal one, so it does not run."""
        assert not tiny_cfg.schedule.events
        cfg = replace(tiny_cfg, run=replace(tiny_cfg.run, speeds=(1.0, 2.0)))
        comparison = run_comparison(cfg)
        assert len(comparison.cells) == 8
        assert not any(c.with_changes for c in comparison.cells)
        assert all(c.ok for c in comparison.cells)
        assert "chg@" not in format_comparison_table(comparison)

    @pytest.mark.parametrize("t_sim, halves", [
        (0.5, 1),    # the default events at 4 s come after the last sample
        (4.0, 1),    # the last sample is at 3.99 s
        (4.01, 2),   # the last sample is at 4 s: the change acts there
    ])
    def test_changes_after_the_run_run_only_the_nominal_half(
            self, sweep_spy, t_sim, halves):
        """A schedule whose events all come after the last sample would
        give with-changes cells equal to the nominal ones, so they do not
        run."""
        cfg = default_config()
        cfg = replace(cfg, run=replace(cfg.run, t_sim=t_sim))
        comparison = run_comparison(cfg)
        # one run_closed_loop call runs every cell
        assert len(sweep_spy.runs) == 1
        assert len(sweep_spy.runs[0]) == len(comparison.cells) == 8 * halves
        assert all(c.ok for c in comparison.cells)
        assert ("chg@" in format_comparison_table(comparison)) == (halves > 1)

    # -- the cells run in lockstep; a cell runs its nominal and with-changes
    # configs as one until the first change, then splits --------------------

    @pytest.mark.parametrize("first_event, fork_k", [
        (FORK_K * SHORT_DT, FORK_K),                       # on the grid
        (FORK_K * SHORT_DT + SHORT_DT / 2, FORK_K + 1),    # off the grid
        (0.0, None),                                       # at sample 0
        (SHORT_T_SIM, None),                               # after the end
    ])
    def test_changed_cells_match_runs_from_scratch(self, sweep_spy,
                                                   short_estimator,
                                                   first_event, fork_k):
        """Each cell of the sweep, whether its configs split on the grid,
        off it, at the first sample or not at all, equals the plain loop of
        its config."""
        cfg = short_changes_config(first_event)
        steps = round(SHORT_T_SIM / SHORT_DT)
        halves = (False, True) if first_event < SHORT_T_SIM else (False,)
        comparison = run_comparison(cfg)
        cells = 8 * len(halves)
        # closed-loop plant steps: the full cells less the shared prefixes,
        # fork_k samples each, which a with-changes cell shares with its
        # nominal one
        assert sweep_spy.plant_steps == cells * steps - 8 * (fork_k or 0)
        # one run_closed_loop call runs every cell, in reporting order:
        # by half, then speed, then variant
        assert len(sweep_spy.runs) == 1
        swept = sweep_spy.runs[0]
        assert [(c.variant, c.with_changes, c.speed)
                for c in comparison.cells] == [
            (v, h, s) for h in halves for s in cfg.run.speeds
            for v in VARIANTS]
        assert len(swept) == cells
        assert all(c.ok for c in comparison.cells)
        for cell, result in zip(comparison.cells, swept):
            scratch = plain_loop(_cell_config_of(cfg, cell), short_estimator)
            assert not scratch.aborted
            assert cell.normalized_error == normalized_error(scratch.records)
            assert_same_trace(result.records, scratch.records)

    @pytest.mark.parametrize("nan_sample", [
        FORK_K - 10, FORK_K - 1, FORK_K, FORK_K + 1, FORK_K + 10])
    def test_abort_before_or_after_the_fork(self, sweep_spy, short_estimator,
                                            monkeypatch, nan_sample):
        """A NaN measurement at one sample aborts every cell, before the
        split (the unsplit cell ends both its configs), in the sample of
        the split (the parts split, then end) or after (each part ends on
        its own), with the statuses and rows of the plain loop."""
        measure = harness.measure
        cfg = short_changes_config(FORK_K * SHORT_DT)
        # every cell draws its sensor noise from its configs' seed, one
        # seeded stream for the whole sweep
        nan_draws = np.random.default_rng(
            [cfg.run.seed, harness._RUN_STREAM]).standard_normal(
            (round(SHORT_T_SIM / SHORT_DT), cfg.plant.n + 1))[nan_sample]

        def nan_measure(plant, x, z, output_index):
            x_meas, y_meas = measure(plant, x, z, output_index)
            if (z == nan_draws).all():
                x_meas = x_meas * math.nan
            return x_meas, y_meas

        monkeypatch.setattr(harness, "measure", nan_measure)
        comparison = run_comparison(cfg)
        assert len(sweep_spy.runs) == 1
        for cell, result in zip(comparison.cells, sweep_spy.runs[0]):
            scratch = plain_loop(_cell_config_of(cfg, cell), short_estimator)
            assert scratch.aborted
            assert len(scratch.records) == nan_sample
            assert cell.status == f"aborted: {scratch.reason}"
            assert math.isnan(cell.normalized_error)
            assert_same_trace(result.records, scratch.records)

    def test_abort_in_some_cells_leaves_the_others(self, sweep_spy,
                                                   short_estimator,
                                                   monkeypatch):
        """A plant failure on the changed plant (m = 0.8) five samples
        after the split ends each with-changes cell of the first speed
        alone, with the status and rows of its plain loop; the other cells,
        those of the second speed whose rows come after the ended ones
        included, run on as in a clean sweep, bit for bit, and no NumPy
        warning is raised."""
        cfg = short_changes_config(FORK_K * SHORT_DT)
        clean = run_comparison(cfg)
        (clean_runs,) = sweep_spy.runs
        step = harness.step_plant

        def failing_sixth_step(cell_of):
            """A plant step that fails on the sixth step a cell takes on
            the changed plant, at sample FORK_K + 5; cell_of(plant) names
            the cell a step is on, or is None for a cell that runs on."""
            steps_on = {}

            def failing_step(plant, x, u):
                cell = cell_of(plant) if plant.m == 0.8 else None
                if cell is not None:
                    steps_on[cell] = steps_on.get(cell, 0) + 1
                    if steps_on[cell] == 6:
                        raise NonFiniteState("plant state went non-finite")
                return step(plant, x, u)
            return failing_step

        # a part of the sweep keeps its plant, so a plant's id names its
        # cell; the plants are held, so that each id stays its own. The
        # sweep steps its cells in reporting order, so the first changed
        # plants it steps are those of the first speed's cells
        held = {}

        def first_speed_cell(plant):
            held.setdefault(id(plant), plant)
            first = list(held).index(id(plant)) < len(VARIANTS)
            return id(plant) if first else None

        monkeypatch.setattr(harness, "step_plant",
                            failing_sixth_step(first_speed_cell))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comparison = run_comparison(cfg)
        runs = sweep_spy.runs[1]
        for cell, result, before, clean_result in zip(
                comparison.cells, runs, clean.cells, clean_runs):
            if not (cell.with_changes and cell.speed == cfg.run.speeds[0]):
                assert cell == before
                assert_same_trace(result.records, clean_result.records)
                continue
            # the plain loop is one cell, whose plant is rebuilt each sample
            monkeypatch.setattr(harness, "step_plant",
                                failing_sixth_step(lambda plant: 0))
            scratch = plain_loop(_cell_config_of(cfg, cell), short_estimator)
            assert scratch.aborted and result.aborted
            assert cell.status == f"aborted: {scratch.reason}"
            assert len(result.records) == len(scratch.records) == FORK_K + 6
            assert_same_trace(result.records, scratch.records)
        assert sum(not c.ok for c in comparison.cells) == len(VARIANTS)

    def test_two_abort_phases_in_one_sample(self, short_estimator,
                                            monkeypatch):
        """In one sample K, a failed plant step ends one cell after its
        row, and a NaN measurement ends the next in its estimator's step,
        before its row; a third, whose row comes after both, runs on. Each
        equals its plain loop under the same fault, with K + 1 rows, K rows
        and the whole run, and no NumPy warning is raised."""
        base = replace(short_changes_config(0.0), schedule=ChangeSchedule(()))
        K, steps, n = FORK_K, round(SHORT_T_SIM / SHORT_DT), base.plant.n
        fail_cfg, nan_cfg, clean_cfg = (
            replace(base, run=replace(base.run, seed=seed), plant=replace(
                base.plant, m=base.plant.m * scale))
            for seed, scale in ((1, 1.25), (2, 1.0), (3, 1.0)))
        nan_draws = np.random.default_rng(
            [nan_cfg.run.seed, harness._RUN_STREAM]).standard_normal(
            (steps, n + 1))[K]
        measure, step = harness.measure, harness.step_plant

        def nan_measure(plant, x, z, output_index):
            """NaN measurements for the draws of nan_cfg's sample K."""
            x_meas, y_meas = measure(plant, x, z, output_index)
            hit = (z == nan_draws).all(axis=-1)
            return (np.where(hit[..., None], math.nan, x_meas),
                    np.where(hit, math.nan, y_meas))

        def failing_step():
            """A plant step that fails on fail_cfg's plant at sample K."""
            steps_on = []

            def failing(plant, x, u):
                if plant.m == fail_cfg.plant.m:
                    steps_on.append(None)
                    if len(steps_on) == K + 1:
                        raise NonFiniteState("plant state went non-finite")
                return step(plant, x, u)
            return failing

        cfgs = (fail_cfg, nan_cfg, clean_cfg)
        monkeypatch.setattr(harness, "measure", nan_measure)
        monkeypatch.setattr(harness, "step_plant", failing_step())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = run_closed_loop(
                base, _cells=[([c], short_estimator) for c in cfgs])
        for c, (result,), rows in zip(cfgs, results, (K + 1, K, steps)):
            monkeypatch.setattr(harness, "step_plant", failing_step())
            want = plain_loop(c, short_estimator)
            assert (result.aborted, result.reason) == (want.aborted,
                                                       want.reason)
            assert len(result.records) == len(want.records) == rows
            assert_same_trace(result.records, want.records)
        assert [r.reason.split(":")[0] for (r,) in results] == [
            f"NonFiniteState at t={K * SHORT_DT:.6g}"] * 2 + [""]

    def test_a_cell_splits_where_its_configs_applied_events_differ(
            self, short_estimator, monkeypatch):
        """One cell standing for three configs (no changes; a change at t1;
        that change and a second at t2, both off the sample grid) runs as
        one up to the first sample at or after t1, as two up to the first
        at or after t2, then as three. Each config's trace is that of its
        plain loop."""
        cfg = short_changes_config(0.305)  # events at 0.305 s and 0.555 s
        e1, e2 = cfg.schedule.events
        cfgs = [replace(cfg, schedule=ChangeSchedule(events))
                for events in ((), (e1,), (e1, e2))]
        k1, k2, steps = 31, 56, round(SHORT_T_SIM / SHORT_DT)
        applied, plant_steps = [], []
        schedule, step = harness.apply_schedule, harness.step_plant

        def spy_schedule(plant, schedule_, t):
            applied.append(t)
            return schedule(plant, schedule_, t)

        def counting_step(*args):
            plant_steps.append(None)
            return step(*args)

        monkeypatch.setattr(harness, "apply_schedule", spy_schedule)
        monkeypatch.setattr(harness, "step_plant", counting_step)
        (results,) = run_closed_loop(
            cfg, _cells=[(cfgs, short_estimator)])
        # the part with both changes rebuilds its plant once at k1; the
        # part with the second change splits off at k2 and rebuilds there
        assert applied == [k1 * SHORT_DT, k2 * SHORT_DT]
        # three runs from scratch, less the prefixes they share
        assert len(plant_steps) == 3 * steps - k1 - k2
        assert len(results) == 3
        for c, result in zip(cfgs, results):
            assert not result.aborted
            assert_same_trace(result.records,
                              plain_loop(c, short_estimator).records)

    def test_a_cell_whose_configs_never_split(self, short_estimator,
                                              monkeypatch):
        """One cell standing for two configs, the second's only change
        falling after the last sample, runs as one row to the end. Each
        config's trace is that of its plain loop, and the two share no
        memory."""
        cfg = short_changes_config(0.0)
        cfgs = [replace(cfg, schedule=ChangeSchedule(events))
                for events in ((), ((SHORT_T_SIM, "m", 0.8),))]
        plant_steps, step = [], harness.step_plant

        def counting_step(*args):
            plant_steps.append(None)
            return step(*args)

        monkeypatch.setattr(harness, "step_plant", counting_step)
        (results,) = run_closed_loop(
            cfg, _cells=[(cfgs, short_estimator)])
        assert len(plant_steps) == round(SHORT_T_SIM / SHORT_DT)  # one row
        for c, result in zip(cfgs, results):
            assert not result.aborted
            assert_same_trace(result.records,
                              plain_loop(c, short_estimator).records)
        assert not np.shares_memory(results[0].records, results[1].records)

    @staticmethod
    def assert_every_cell_equals_the_plain_loop(cfg):
        """Every cell of the sweep of cfg, from its own seed's offline fit,
        equals the plain loop of its config bit for bit."""
        estimator = prepare_estimator(cfg)
        cells = [([harness._cell_config(cfg, variant, h, speed)
                   for h in (False, True)], estimator)
                 for speed in cfg.run.speeds for variant in VARIANTS]
        results = run_closed_loop(cfg, _cells=cells)
        for (cfgs, _), runs in zip(cells, results):
            for c, result in zip(cfgs, runs):
                want = plain_loop(c, estimator)
                assert (result.aborted, result.reason) == (want.aborted,
                                                           want.reason)
                assert_same_trace(result.records, want.records)

    @pytest.mark.parametrize("seed", [12345, 3009016])
    def test_every_cell_at_two_seeds_equals_the_plain_loop(self, seed):
        """Every cell of a short sweep, with its own seed's offline fit
        and noise, equals the plain loop of its config bit for bit, at the
        reference seed and at one whose adaptive observers diverge in the
        full-length run."""
        cfg = short_changes_config(FORK_K * SHORT_DT)
        self.assert_every_cell_equals_the_plain_loop(
            replace(cfg, run=replace(cfg.run, seed=seed)))

    @pytest.mark.parametrize("seed", [12345, 3009016])
    def test_every_bound_cell_at_two_seeds_equals_the_plain_loop(self, seed):
        """Under the saturating workload's +-2 input bounds, which bind in
        about a third of the short sweep's solves, before and after its
        cells split: each twin warm-starts its box QP from its own working
        set, as its plain loop's solver does, so every cell still equals
        its plain loop bit for bit."""
        cfg = short_changes_config(FORK_K * SHORT_DT)
        self.assert_every_cell_equals_the_plain_loop(replace(
            cfg, run=replace(cfg.run, seed=seed),
            mpc=replace(cfg.mpc, u_min=[-2.0], u_max=[2.0])))

    def test_cells_from_several_seeds_in_one_call(self, monkeypatch):
        """The cells of the sweeps at two seeds, each with its own offline
        fit and sensor noise, give in one call the results of their own
        sweeps."""
        run = harness.run_closed_loop
        sweeps = []

        def recording_run(cfg, *, _cells):
            results = run(cfg, _cells=_cells)
            sweeps.append((_cells, results))
            return results

        monkeypatch.setattr(harness, "run_closed_loop", recording_run)
        cfg = short_changes_config(FORK_K * SHORT_DT)
        for seed in (12345, 3009016):
            run_comparison(replace(cfg, run=replace(cfg.run, seed=seed)))
        (cells_a, alone_a), (cells_b, alone_b) = sweeps
        assert cells_a[0][1] is not cells_b[0][1]  # one offline fit each
        together = run(cfg, _cells=cells_a + cells_b)
        assert len(together) == len(alone_a) + len(alone_b) == 16
        for got, alone in zip(together, alone_a + alone_b):
            assert len(got) == len(alone) == 2
            for result, want in zip(got, alone):
                assert result.aborted == want.aborted
                assert_same_trace(result.records, want.records)

    def test_sweep_leaves_no_state_behind(self, sweep_spy, short_estimator):
        """The shared estimator is never mutated and a second sweep repeats
        the first bit for bit."""
        before = pickle.dumps(short_estimator)
        cfg = short_changes_config(FORK_K * SHORT_DT)
        first = run_comparison(cfg).cells
        assert pickle.dumps(short_estimator) == before
        assert run_comparison(cfg).cells == first

    def test_scaled_scenario_preserves_ordering(self):
        """Scaling the stroke amplitude leaves the four-variant ordering
        of the with-changes cells unchanged."""
        cfg = default_config()
        cfg = replace(cfg, run=replace(
            cfg.run, speeds=(3.0,),
            reference=replace(cfg.run.reference,
                              amplitude=0.8 * cfg.run.reference.amplitude)))
        comparison = run_comparison(cfg)
        vals = {c.variant: c.normalized_error for c in comparison.cells
                if c.with_changes and c.speed == 3.0}
        assert len(vals) == 4
        assert vals["adaptive-both"] < min(vals["adaptive-ctrl"],
                                           vals["adaptive-obs"])
        assert max(vals["adaptive-ctrl"],
                   vals["adaptive-obs"]) < vals["static-static"]


class TestTraceCsv:
    def test_header_and_row_count(self, tiny_cfg, tiny_estimator, tmp_path):
        result = run_closed_loop(tiny_cfg, estimator=tiny_estimator)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.records)
        lines = path.read_text().splitlines()
        assert lines[0] == ("t,x1,x2,xmeas1,xmeas2,xhat1,xhat2,u1,w1,w2,"
                            "lambda,trace_gamma,updated,e_post,window_error,"
                            "e_cum")
        assert len(lines) == 11

    def test_warmup_sentinels_serialized(self, tiny_cfg, tiny_estimator,
                                         tmp_path):
        result = run_closed_loop(tiny_cfg, estimator=tiny_estimator)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.records)
        first = path.read_text().splitlines()[1].split(",")
        assert first[13] == "nan"
        assert first[14] == "inf"

    def test_refuses_empty(self, tmp_path):
        with pytest.raises(EmptyTrace):
            write_trace_csv(tmp_path / "x.csv", [])
