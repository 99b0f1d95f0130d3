"""Tests for the simulated plants, schedules, and sensors."""

import numpy as np
import pytest
from scipy.linalg import expm

from koopman_adapt.errors import (
    DimensionMismatch,
    NonFiniteState,
    UnknownParameter,
)
from koopman_adapt.plants import (
    EPS_COULOMB,
    ChangeSchedule,
    PlantState,
    apply_schedule,
    make_linear2nd,
    make_pendulum,
    measure,
    step_plant,
)


def pendulum_energy(plant, x):
    p = plant.params
    theta, omega = x
    return (0.5 * p["m"] * p["l"] ** 2 * omega ** 2
            + p["m"] * p["g"] * p["l"] * (1.0 - np.cos(theta)))


def reference_pendulum_rk4(plant, x, u):
    """The array-form pendulum RK4 the scalar integrator must reproduce."""
    p = plant.params

    def f(x):
        theta, omega = x
        ml2 = p["m"] * p["l"] * p["l"]
        torque = (u[0] - p["d"] * omega
                  - p["c"] * np.tanh(omega / EPS_COULOMB)
                  - p["m"] * p["g"] * p["l"] * np.sin(theta))
        return np.array([omega, torque / ml2])

    h = plant.dt / plant.substeps
    for _ in range(plant.substeps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


class TestStepPlant:
    def test_stable_equilibrium_fixed_point(self):
        plant = make_pendulum(dt=0.01, substeps=4)
        state = PlantState(np.zeros(2))
        out = step_plant(plant, state, [0.0])
        np.testing.assert_array_equal(out.x, np.zeros(2))
        assert out.t == pytest.approx(0.01)

    def test_energy_conservation_vs_fine_reference(self):
        """Frictionless unforced pendulum: coarse-step energy drift over
        1000 steps stays within 1e-6 relative of a 10x-finer reference."""
        coarse = make_pendulum(d=0.0, c=0.0, dt=1e-3, substeps=1)
        fine = make_pendulum(d=0.0, c=0.0, dt=1e-3, substeps=10)
        x0 = np.array([1.2, 0.0])
        e0 = pendulum_energy(coarse, x0)
        s_c = PlantState(x0)
        s_f = PlantState(x0)
        for _ in range(1000):
            s_c = step_plant(coarse, s_c, [0.0])
            s_f = step_plant(fine, s_f, [0.0])
        e_c = pendulum_energy(coarse, s_c.x)
        e_f = pendulum_energy(fine, s_f.x)
        assert abs(e_c - e_f) / e0 < 1e-6

    def test_linear_matches_exact_zoh_discretization(self):
        A = np.array([[0.0, 1.0], [-4.0, -0.8]])
        B = np.array([[0.0], [1.5]])
        plant = make_linear2nd(A, B, dt=1e-3, substeps=1)
        # exact ZOH: matrix exponential of the augmented system
        M = expm(np.block([[A, B], [np.zeros((1, 3))]]) * plant.dt)
        Ad, Bd = M[:2, :2], M[:2, 2:]
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(2)
            u = rng.standard_normal(1)
            stepped = step_plant(plant, PlantState(x), u)
            np.testing.assert_allclose(stepped.x, Ad @ x + Bd @ u.reshape(-1),
                                       atol=1e-8)

    def test_rk4_order_four(self):
        """Halving the substep shrinks the one-step error about 16x."""
        x0 = np.array([1.3, 2.0])
        errors = []
        reference = make_pendulum(d=0.0, dt=0.1, substeps=256)
        ref = step_plant(reference, PlantState(x0), [0.0]).x
        for substeps in (1, 2):
            plant = make_pendulum(d=0.0, dt=0.1, substeps=substeps)
            got = step_plant(plant, PlantState(x0), [0.0]).x
            errors.append(np.linalg.norm(got - ref))
        ratio = errors[0] / errors[1]
        assert 12.0 <= ratio <= 20.0

    def test_nonfinite_state_raises(self):
        plant = make_linear2nd(np.array([[100.0, 0.0], [0.0, 100.0]]),
                               np.zeros((2, 1)), dt=1.0, substeps=1)
        state = PlantState(np.array([1e307, 1e307]))
        with pytest.raises(NonFiniteState):
            step_plant(plant, state, [0.0])

    @pytest.mark.parametrize("substeps", [1, 3, 8])
    def test_pendulum_matches_array_rk4_bitwise(self, substeps):
        rng = np.random.default_rng(substeps)
        for trial in range(200):
            plant = make_pendulum(
                m=rng.uniform(0.1, 2.0), l=rng.uniform(0.2, 1.5),
                g=rng.uniform(1.0, 20.0), d=rng.uniform(0.0, 0.5),
                c=0.0 if trial % 4 == 0 else rng.uniform(0.0, 0.05),
                dt=rng.uniform(1e-3, 0.05), substeps=substeps)
            x = rng.standard_normal(2) * np.array([3.0, 10.0])
            if trial % 5 == 0:
                x[1] *= 1e-4  # inside the smoothed-friction band
            u = rng.standard_normal(1) * 5.0
            got = step_plant(plant, PlantState(x), u).x
            np.testing.assert_array_equal(
                got, reference_pendulum_rk4(plant, x, u))
            if trial % 10 == 0:
                # omega / EPS_COULOMB at the edge of the saturated-friction
                # shortcut, and below it where np.tanh is not yet +-1
                for v in (19.999, 20.0, 20.001, -19.999, -20.0, -20.001,
                          18.9, -18.9):
                    xv = np.array([x[0], v * EPS_COULOMB])
                    np.testing.assert_array_equal(
                        step_plant(plant, PlantState(xv), u).x,
                        reference_pendulum_rk4(plant, xv, u))

    def test_tanh_saturates_exactly(self):
        """The premise of the plant's friction shortcut: np.tanh(v) is
        exactly +-1.0 for |v| >= 20, so c * tanh(v) is exactly +-c there."""
        v = np.concatenate([np.linspace(20.0, 40.0, 20001),
                            [np.nextafter(20.0, np.inf), 1e3, 1e300, np.inf]])
        assert (np.tanh(v) == 1.0).all()
        assert (np.tanh(-v) == -1.0).all()
        for x in v[-4:]:  # the scalar path the integrator takes
            assert float(np.tanh(x)) == 1.0 and float(np.tanh(-x)) == -1.0

    @pytest.mark.parametrize("params, x, u", [
        ({}, [0.1, 0.0], [np.inf]),
        ({}, [1e308, 1e308], [0.0]),
        ({}, [np.nan, 0.0], [0.0]),
        ({"m": 1e-200, "l": 1e-100}, [0.1, 0.0], [0.0]),  # m l^2 underflows
    ], ids=["u_inf", "state_overflow", "state_nan", "inertia_underflow"])
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_pendulum_nonfinite_raises(self, params, x, u):
        plant = make_pendulum(c=0.002, dt=0.01, substeps=8, **params)
        with pytest.raises(NonFiniteState, match="non-finite at t=0.01"):
            step_plant(plant, PlantState(np.array(x)), u)

    def test_determinism_bitwise(self):
        plant = make_pendulum(dt=0.01, substeps=3)
        rng = np.random.default_rng(1)
        us = rng.standard_normal((1, 50))
        def run():
            s = PlantState(np.array([0.1, 0.0]))
            xs = []
            for k in range(50):
                s = step_plant(plant, s, us[:, k])
                xs.append(s.x)
            return np.stack(xs)
        np.testing.assert_array_equal(run(), run())

    @pytest.mark.parametrize("u", [0.3, [0.3], np.float32(0.3),
                                   np.array(0.3), np.array([0.3])])
    def test_input_forms_agree(self, u):
        """A float64 (p,) input is used as it is; scalars, lists and other
        dtypes are converted first, to the same step."""
        plant = make_pendulum(dt=0.01, substeps=2)
        state = PlantState(np.array([0.1, 0.2]))
        want = step_plant(plant, state,
                          np.asarray(u, dtype=np.float64).reshape(1)).x
        np.testing.assert_array_equal(step_plant(plant, state, u).x, want)

    @pytest.mark.parametrize("u", [np.zeros(2), np.zeros((1, 1)), None])
    def test_wrong_input_shape_rejected(self, u):
        with pytest.raises(DimensionMismatch, match="input of shape"):
            step_plant(make_pendulum(), PlantState(np.zeros(2)), u)


class TestSchedule:
    def test_empty_schedule_identity(self):
        plant = make_pendulum()
        assert apply_schedule(plant, ChangeSchedule(), 100.0) is plant

    def test_boundary_inclusive(self):
        plant = make_pendulum(m=0.4)
        schedule = ChangeSchedule(((5.0, "m", 0.8),))
        assert apply_schedule(plant, schedule, 4.9).params["m"] == 0.4
        assert apply_schedule(plant, schedule, 5.0).params["m"] == 0.8

    def test_later_event_wins(self):
        plant = make_pendulum(d=0.1)
        schedule = ChangeSchedule(((1.0, "d", 0.2), (2.0, "d", 0.3)))
        assert apply_schedule(plant, schedule, 1.5).params["d"] == 0.2
        assert apply_schedule(plant, schedule, 2.0).params["d"] == 0.3

    def test_idempotent(self):
        plant = make_pendulum()
        schedule = ChangeSchedule(((1.0, "m", 0.9),))
        once = apply_schedule(plant, schedule, 3.0)
        twice = apply_schedule(once, schedule, 3.0)
        assert once.params == twice.params

    def test_step_uses_the_scheduled_parameters(self):
        """After a change, the integrator runs on the new parameters, not
        on coefficients cached from the old ones."""
        plant = make_pendulum(m=0.4, d=0.04, c=0.002, dt=0.01, substeps=8)
        schedule = ChangeSchedule(((1.0, "m", 0.8), (1.0, "d", 0.12)))
        changed = apply_schedule(plant, schedule, 1.0)
        x, u = np.array([0.3, -0.7]), np.array([1.5])
        got = step_plant(changed, PlantState(x), u).x
        np.testing.assert_array_equal(
            got, reference_pendulum_rk4(changed, x, u))
        assert (got != step_plant(plant, PlantState(x), u).x).any()

    def test_unknown_parameter(self):
        plant = make_pendulum()
        with pytest.raises(UnknownParameter):
            apply_schedule(plant, ChangeSchedule(((0.0, "mass", 1.0),)), 1.0)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            ChangeSchedule(((2.0, "m", 1.0), (1.0, "m", 2.0)))


class TestMeasure:
    def test_noise_free_exact(self):
        plant = make_pendulum(noise_y=0.0, noise_x=0.0)
        x = np.array([0.3, -0.7])
        x_meas, y_meas = measure(plant, x,
                                 np.random.default_rng(0).standard_normal(3))
        np.testing.assert_array_equal(x_meas, x)
        assert y_meas == 0.3

    def test_seeded_stream_reproducible(self):
        """measure is a pure function of the states and the draws, the
        noise scaled per channel; one call over a trajectory equals one
        call per sample, bit for bit."""
        plant = make_pendulum(noise_y=0.01, noise_x=(0.01, 0.02))
        rng = np.random.default_rng(42)
        X, Z = rng.standard_normal((50, 2)), rng.standard_normal((50, 3))
        xs, ys = measure(plant, X, Z, output_coord=1)
        np.testing.assert_array_equal(xs, X + [0.01, 0.02] * Z[:, :2])
        np.testing.assert_array_equal(ys, X[:, 1] + 0.01 * Z[:, 2])
        for k in range(50):
            x_meas, y_meas = measure(plant, X[k], Z[k], output_coord=1)
            np.testing.assert_array_equal(x_meas, xs[k])
            assert y_meas == ys[k]
        again = measure(plant, X, Z, output_coord=1)
        np.testing.assert_array_equal(again[0], xs)
        np.testing.assert_array_equal(again[1], ys)

    def test_sample_variance_matches_config(self):
        plant = make_pendulum(noise_y=0.2, noise_x=0.0)
        rng = np.random.default_rng(7)
        _, ys = measure(plant, np.zeros((100_000, 2)),
                        rng.standard_normal((100_000, 3)))
        assert np.var(ys) == pytest.approx(0.04, rel=0.05)

    def test_output_coordinate_selectable(self):
        plant = make_pendulum(noise_y=0.0)
        _, y = measure(plant, np.array([0.3, -0.7]), np.zeros(3),
                       output_coord=1)
        assert y == -0.7

    @pytest.mark.parametrize("x_shape, z_shape", [
        ((2,), (2,)), ((3,), (4,)), ((5, 2), (3,)), ((5, 2), (4, 3))])
    def test_mismatched_shapes_rejected(self, x_shape, z_shape):
        with pytest.raises(DimensionMismatch):
            measure(make_pendulum(), np.zeros(x_shape), np.zeros(z_shape))

    def test_output_coordinate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="output_coord"):
            measure(make_pendulum(), np.zeros(2), np.zeros(3),
                    output_coord=2)
