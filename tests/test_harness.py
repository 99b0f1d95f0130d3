"""Tests for the closed-loop harness: loop bookkeeping, metric, training
data, variants, and the comparison sweep."""

import dataclasses
import math
import pickle
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
from koopman_adapt.errors import EmptyTrace, RankDeficientRegressor
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
from koopman_adapt.observables import ObservableDictionary, identity_dictionary
from koopman_adapt.observer import ObserverSettings
from koopman_adapt.plants import (
    ChangeSchedule,
    PlantState,
    apply_schedule,
    make_linear2nd,
    measure,
    step_plant,
)
from koopman_adapt.redmd import RedmdSettings
from koopman_adapt.references import ReferenceSpec

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


def linear_matched_config():
    """Exact-lifted-space plant: linear dynamics with identity dictionary."""
    A = np.array([[0.0, 1.0], [-4.0, -0.8]])
    B = np.array([[0.0], [1.5]])
    plant = make_linear2nd(A, B, noise_y=0.0, noise_x=0.0, dt=0.01, substeps=8)
    return ExperimentConfig(
        plant=plant,
        schedule=ChangeSchedule(()),
        dictionary=identity_dictionary(2),
        redmd=RedmdSettings(m_op=10, eps_low=1e-9, adaptive_lambda=False),
        mpc=MpcConfig(horizon=20, Qy=np.eye(2), Ru=1e-9 * np.eye(1)),
        observer=ObserverSettings(q=0.0, r=1e-12, p0=0.0),
        run=RunSettings(t_sim=3.0, seed=11, variant="static-static",
                        reference=ReferenceSpec("hold", amplitude=0.0),
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
        cfg = replace(tiny_cfg, observer=replace(tiny_cfg.observer,
                                                 relift_after_correct=True))
        monkeypatch.setattr(ObservableDictionary, "lift", counted)
        result = run_closed_loop(cfg, estimator=tiny_estimator)
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
                return np.full_like(x_meas, np.nan), math.nan
            return x_meas, y_meas

        monkeypatch.setattr(harness, "measure", nan_on_fifth)
        result = run_closed_loop(tiny_cfg, estimator=tiny_estimator)
        assert result.aborted
        assert result.reason.startswith("NonFiniteState")
        assert len(result.records) == 4


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

        def spy_step(plant, state, u):
            stepped.append(dict(plant.params))
            return step_plant(plant, state, u)

        monkeypatch.setattr(harness, "apply_schedule", spy_schedule)
        monkeypatch.setattr(harness, "step_plant", spy_step)
        result = run_closed_loop(cfg, estimator=tiny_estimator)
        assert not result.aborted
        assert applied == [3 * dt, 6 * dt]
        assert stepped == [
            dict(apply_schedule(cfg.plant, schedule, k * dt).params)
            for k in range(len(stepped))]


class TestModelMatchedClosedLoop:
    def test_tracks_achievable_reference_tightly(self):
        cfg = linear_matched_config()
        steps = round(cfg.run.t_sim / cfg.plant.dt)
        H = cfg.mpc.horizon
        # achievable reference: an actual trajectory of the plant
        state = PlantState(np.zeros(2))
        w = np.zeros((2, steps + H + 1))
        for k in range(1, steps + H + 1):
            u = np.array([1.2 * np.sin(2.0 * np.pi * 0.4 * (k - 1) * cfg.plant.dt)])
            state = step_plant(cfg.plant, state, u)
            w[:, k] = state.x
        result = run_closed_loop(cfg, reference=w)
        assert not result.aborted
        tail = result.records[steps // 2:]
        worst = max(float(np.linalg.norm(r.w - r.x)) for r in tail)
        assert worst < 1e-6


class TestMetric:
    def test_perfect_tracking_zero(self, tiny_cfg, tiny_estimator):
        result = run_closed_loop(tiny_cfg, estimator=tiny_estimator)
        records = [replace(r, w=r.x, e_cum=0.0) for r in result.records]
        assert compute_metric(records) == 0.0

    def test_single_record_value(self, tiny_cfg, tiny_estimator):
        r = run_closed_loop(tiny_cfg, estimator=tiny_estimator).records[0]
        r = replace(r, w=r.x + np.array([2.0, 0.0]), e_cum=4.0)
        assert compute_metric([r]) == 4.0

    def test_concatenation_additivity(self, tiny_cfg, tiny_estimator):
        records = run_closed_loop(tiny_cfg, estimator=tiny_estimator).records
        whole = compute_metric(records)
        first = compute_metric(records[:5])
        second_increments = whole - first
        total = first + second_increments
        assert total == pytest.approx(whole, rel=1e-15)

    def test_empty_trace_raises(self):
        with pytest.raises(EmptyTrace):
            compute_metric([])
        with pytest.raises(EmptyTrace):
            reference_energy([])


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
    state = PlantState(np.zeros(plant.n))
    pairs = []
    for k in range(steps):
        t = k * plant.dt
        tone = np.sum(np.sin(2.0 * np.pi * freqs * t + phases)) / 6.0
        u = np.array([run.train_amplitude
                      * (tone + 0.25 * rng.standard_normal())])
        x_meas, _ = measure(plant, state.x, sensor_draws(),
                            cfg.dictionary.output_index)
        pairs.append((x_meas, u))
        state = step_plant(plant, state, u)
    x_meas, _ = measure(plant, state.x, sensor_draws(),
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


class TestVariantIsolation:
    def test_adaptive_ctrl_keeps_observer_model(self, short_cfg):
        cfg = replace(short_cfg, run=replace(short_cfg.run,
                                             variant="adaptive-ctrl"))
        result = run_closed_loop(cfg)
        assert sum(r.updated for r in result.records) > 0
        assert (result.observer_model.K == result.initial_model.K).all()
        assert (result.observer_model.B == result.initial_model.B).all()
        assert not (result.controller_model.K == result.initial_model.K).all()

    def test_adaptive_obs_keeps_controller_model(self, short_cfg):
        cfg = replace(short_cfg, run=replace(short_cfg.run,
                                             variant="adaptive-obs"))
        result = run_closed_loop(cfg)
        assert (result.controller_model.K == result.initial_model.K).all()
        assert not (result.observer_model.K == result.initial_model.K).all()

    def test_adaptive_both_snapshots_each_update_once(self, short_cfg,
                                                      monkeypatch):
        """Controller and observer share one model snapshot per update."""
        estimator = prepare_estimator(short_cfg)
        cfg = replace(short_cfg, run=replace(short_cfg.run,
                                             variant="adaptive-both"))
        built = []
        post_init = KoopmanModel.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(KoopmanModel, "__post_init__", counting)
        result = run_closed_loop(cfg, estimator=estimator)
        updates = sum(r.updated for r in result.records)
        assert updates > 0
        assert len(built) == 1 + updates  # the initial model, then one each
        assert result.controller_model is result.observer_model

    def test_static_static_freezes_both(self, short_cfg):
        cfg = replace(short_cfg, run=replace(short_cfg.run,
                                             variant="static-static"))
        result = run_closed_loop(cfg)
        assert (result.controller_model.K == result.initial_model.K).all()
        assert (result.observer_model.K == result.initial_model.K).all()


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


def assert_same_trace(a, b):
    assert len(a) == len(b)
    for f in dataclasses.fields(harness.StepRecord):
        np.testing.assert_array_equal(
            np.array([getattr(r, f.name) for r in a]),
            np.array([getattr(r, f.name) for r in b]), err_msg=f.name)


@pytest.fixture(scope="module")
def short_estimator():
    return prepare_estimator(short_changes_config(0.0))


@pytest.fixture
def sweep_spy(monkeypatch, short_estimator):
    """Records each run_closed_loop call of a sweep and counts the plant
    steps the harness takes; the sweep's offline fit is short_estimator,
    so every counted step is a closed-loop one. ``run_closed_loop`` is the
    unwrapped function, for runs from scratch."""
    run, step = harness.run_closed_loop, harness.step_plant
    spy = SimpleNamespace(runs=[], plant_steps=0, run_closed_loop=run)

    def recording_run(cfg, *args, **kwargs):
        result = run(cfg, *args, **kwargs)
        spy.runs.append((cfg, result))
        return result

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
        assert len(sweep_spy.runs) == len(comparison.cells) == 8 * halves
        assert all(c.ok for c in comparison.cells)
        assert ("chg@" in format_comparison_table(comparison)) == (halves > 1)

    @pytest.mark.parametrize("kind", ["sinusoid", "hold"])
    def test_speed_columns_only_for_rest_to_rest(self, tiny_cfg, kind):
        """Only the rest-to-rest reference reads its speed: any other
        reference runs one column, at its own speed, whatever the run's
        speeds."""
        cfg = replace(tiny_cfg, schedule=ONE_EVENT, run=replace(
            tiny_cfg.run, speeds=(1.0, 2.0),
            reference=replace(tiny_cfg.run.reference, kind=kind, speed=1.5)))
        comparison = run_comparison(cfg)
        assert len(comparison.cells) == 8
        assert {c.speed for c in comparison.cells} == {1.5}
        assert all(c.ok for c in comparison.cells)

    # -- the with-changes cell resumes from its nominal twin --------------

    @pytest.mark.parametrize("first_event, fork_k", [
        (FORK_K * SHORT_DT, FORK_K),                       # on the grid
        (FORK_K * SHORT_DT + SHORT_DT / 2, FORK_K + 1),    # off the grid
        (0.0, None),                                       # at sample 0
        (SHORT_T_SIM, None),                               # after the end
    ])
    def test_changed_cells_match_runs_from_scratch(self, sweep_spy,
                                                   short_estimator,
                                                   first_event, fork_k):
        cfg = short_changes_config(first_event)
        steps = round(SHORT_T_SIM / SHORT_DT)
        halves = (False, True) if first_event < SHORT_T_SIM else (False,)
        assert (harness._first_change_sample(cfg) or None) == fork_k
        comparison = run_comparison(cfg)
        cells = 8 * len(halves)
        # closed-loop plant steps: the full cells less the shared prefixes
        assert sweep_spy.plant_steps == cells * steps - 8 * (fork_k or 0)
        # one run_closed_loop call per cell
        swept = {(c.run.variant, bool(c.schedule.events),
                  c.run.reference.speed): result
                 for c, result in sweep_spy.runs}
        assert len(sweep_spy.runs) == len(swept) == cells
        # reported by half, then speed, then variant
        assert [(c.variant, c.with_changes, c.speed)
                for c in comparison.cells] == [
            (v, h, s) for h in halves for s in cfg.run.speeds
            for v in VARIANTS]
        assert all(c.ok for c in comparison.cells)
        for cell in comparison.cells:
            scratch = sweep_spy.run_closed_loop(
                _cell_config_of(cfg, cell), estimator=short_estimator)
            assert cell.normalized_error == normalized_error(scratch.records)
            assert_same_trace(
                swept[cell.variant, cell.with_changes, cell.speed].records,
                scratch.records)

    @pytest.mark.parametrize("nan_sample", [FORK_K - 10, FORK_K + 10])
    def test_abort_before_or_after_the_fork(self, sweep_spy, short_estimator,
                                            monkeypatch, nan_sample):
        """A NaN measurement at one sample aborts every cell, before the
        fork (no state saved: the twin runs from scratch) or after it (the
        twin resumes, then aborts), with the statuses of runs from
        scratch."""
        measure = harness.measure
        cfg = short_changes_config(FORK_K * SHORT_DT)
        # every cell draws its sensor noise from the one seeded stream
        nan_draws = np.random.default_rng(
            [cfg.run.seed, harness._RUN_STREAM]).standard_normal(
            (round(SHORT_T_SIM / SHORT_DT), cfg.plant.n + 1))[nan_sample]

        def nan_measure(plant, x, z, output_index):
            x_meas, y_meas = measure(plant, x, z, output_index)
            if np.array_equal(z, nan_draws):
                x_meas = x_meas * math.nan
            return x_meas, y_meas

        monkeypatch.setattr(harness, "measure", nan_measure)
        comparison = run_comparison(cfg)
        assert len(sweep_spy.runs) == 16
        for cell in comparison.cells:
            scratch = sweep_spy.run_closed_loop(
                _cell_config_of(cfg, cell), estimator=short_estimator)
            assert scratch.aborted
            assert cell.status == f"aborted: {scratch.reason}"
            assert math.isnan(cell.normalized_error)

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
