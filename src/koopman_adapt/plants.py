"""The ground-truth plant: a friction-damped pendulum with named parameters
(mass m, length l, gravity g, viscous damping d, Coulomb friction c).
Integration is fixed-step RK4 under zero-order-hold input; mid-run changes
are timed parameter steps applied between samples.
"""

import math
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import ClassVar, Sequence

import numpy as np

from .edmd import _as_input
from .errors import DimensionMismatch, NonFiniteState, UnknownParameter

# Smooth Coulomb friction: tanh(velocity / EPS_COULOMB) in place of sign().
EPS_COULOMB = 1e-3
# np.tanh(v) is exactly +-1.0 for |v| >= 20 (from about 18.99 on), so there
# the friction term c * tanh(v) is exactly +-c without the call.
_TANH_SATURATES = 20.0

_PARAMS = ("m", "l", "g", "d", "c")


@dataclass(frozen=True)
class PlantModel:
    """The pendulum's parameters and its sensor/integration setup.

    State (theta, omega), one torque input. noise_x is the per-state
    measurement noise std (used by the identification path), a scalar or
    one value per state; noise_y the scalar output noise std (observer
    path). dt is the controller sample time, integrated in `substeps` RK4
    steps; the defaults, 1e-3 in one step, are not the shipped scenario's,
    0.01 in 8. noise_x_vector holds noise_x as a read-only length-n vector,
    validated once here, and pendulum_coeffs (d, c, m g l, m l^2) as floats.
    """

    n: ClassVar[int] = 2
    p: ClassVar[int] = 1

    m: float = 0.4
    l: float = 0.5
    g: float = 9.81
    d: float = 0.04
    c: float = 0.0
    noise_y: float = 0.0
    noise_x: Sequence[float] | float = 0.0
    dt: float = 1e-3
    substeps: int = 1
    noise_x_vector: np.ndarray = field(init=False, repr=False, compare=False)
    pendulum_coeffs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = self.substeps
        if not (0 < self.dt < math.inf and isinstance(s, Integral)
                and not isinstance(s, bool) and s >= 1):
            raise ValueError("need a finite dt > 0 and integer substeps >= 1")
        if not 0 <= self.noise_y < math.inf:
            raise ValueError("noise_y must be finite and >= 0")
        values = [getattr(self, k) for k in _PARAMS]
        if not all(map(math.isfinite, values)):
            raise ValueError("pendulum params must be finite")
        m, l, g, d, c = map(float, values)
        if m <= 0 or l <= 0 or g <= 0:
            raise ValueError("m, l, g must be positive")
        if d < 0 or c < 0:
            raise ValueError("d and c must be >= 0")
        object.__setattr__(self, "pendulum_coeffs",
                           (d, c, m * g * l, m * l * l))
        v = np.array(self.noise_x, dtype=float)
        if v.ndim == 0:
            v = np.full(self.n, float(v))
        if v.shape != (self.n,) or not ((0 <= v) & (v < np.inf)).all():
            raise ValueError(f"noise_x must be a finite nonnegative scalar "
                             f"or length-{self.n} list")
        v.flags.writeable = False
        object.__setattr__(self, "noise_x_vector", v)


@dataclass(frozen=True)
class ChangeSchedule:
    """Timed parameter steps (time, name, new value), time-sorted."""

    events: tuple = ()

    def __post_init__(self):
        times = [e[0] for e in self.events]
        if not all(map(math.isfinite, times)):
            raise ValueError("schedule event times must be finite")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("schedule events must be time-sorted")

    def applied(self, t: float) -> tuple:
        """The events of time <= t, in order."""
        return tuple(e for e in self.events if e[0] <= t)


def _pendulum_rk4(coeffs, theta: float, omega: float, u: float, h: float,
                  substeps: int) -> tuple[float, float]:
    """RK4 substeps of the pendulum on Python floats.

    Torque = u - d omega - c tanh(omega / EPS_COULOMB) - m g l sin(theta),
    divided by m l^2; stage states x + (h/2) k, combination
    x + (h/6) (k1 + 2 k2 + 2 k3 + k4), all evaluated left to right as the
    array form would be. np.tanh is kept because math.tanh differs from it
    in the last bit; where it saturates the friction term is exactly +-c.
    """
    d, c, mgl, ml2 = coeffs
    tanh, sin = np.tanh, math.sin
    eps, sat = EPS_COULOMB, _TANH_SATURATES
    hh = 0.5 * h
    h6 = h / 6.0
    # the four stages of accel(theta, omega) =
    #   ((u - d omega) - friction(omega) - m g l sin(theta)) / m l^2
    for _ in range(substeps):
        v = omega / eps
        f = c if v >= sat else -c if v <= -sat else c * float(tanh(v))
        a1 = ((u - d * omega) - f - mgl * sin(theta)) / ml2
        om2 = omega + hh * a1
        v = om2 / eps
        f = c if v >= sat else -c if v <= -sat else c * float(tanh(v))
        a2 = ((u - d * om2) - f - mgl * sin(theta + hh * omega)) / ml2
        om3 = omega + hh * a2
        v = om3 / eps
        f = c if v >= sat else -c if v <= -sat else c * float(tanh(v))
        a3 = ((u - d * om3) - f - mgl * sin(theta + hh * om2)) / ml2
        om4 = omega + h * a3
        v = om4 / eps
        f = c if v >= sat else -c if v <= -sat else c * float(tanh(v))
        a4 = ((u - d * om4) - f - mgl * sin(theta + h * om3)) / ml2
        theta = theta + h6 * (((omega + 2.0 * om2) + 2.0 * om3) + om4)
        omega = omega + h6 * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
    return theta, omega


def step_plant(plant: PlantModel, x, u) -> np.ndarray:
    """The state one sample time after x, under zero-order-hold input u,
    via RK4."""
    u, x = _as_input(u, plant.p), np.asarray(x, dtype=float)
    if x.shape != (plant.n,):
        raise DimensionMismatch(f"expected state of shape ({plant.n},), got "
                                f"{x.shape}")
    theta, omega = x.tolist()
    blow_up = "plant state became non-finite"
    try:
        theta, omega = _pendulum_rk4(plant.pendulum_coeffs, theta, omega,
                                     float(u[0]), plant.dt / plant.substeps,
                                     plant.substeps)
    except (ValueError, ZeroDivisionError) as exc:
        # math.sin(inf) and a zero m l^2 raise where arrays give inf/NaN
        raise NonFiniteState(blow_up) from exc
    if not (math.isfinite(theta) and math.isfinite(omega)):
        raise NonFiniteState(blow_up)
    return np.array((theta, omega))


def apply_schedule(plant: PlantModel, schedule: ChangeSchedule,
                   t: float) -> PlantModel:
    """Plant with all events of time <= t applied, in order (idempotent);
    an event changes one of m, l, g, d, c, never the sensor or timing."""
    events = schedule.applied(t)
    if not events:
        return plant
    for _, name, _ in events:
        if name not in _PARAMS:
            raise UnknownParameter(f"the pendulum has no parameter {name!r}")
    return replace(plant, **{name: value for _, name, value in events})


def measure(plant: PlantModel, x: np.ndarray, z: np.ndarray,
            output_coord: int = 0):
    """Noisy sensors, a pure function of the states x and the standard
    normal draws z: the full-state measurement x + noise_x z[..., :n] for
    the identification path and the scalar output
    x[..., output_coord] + noise_y z[..., n] for the observer path.

    The state axis is last, so one sample (x of shape (n,), z (n + 1,))
    and a trajectory (x (M, n), z (M, n + 1)) take the same call.
    """
    n = plant.n
    if not 0 <= output_coord < n:
        raise ValueError(f"output_coord {output_coord} out of range")
    if x.shape[-1:] != (n,) or z.shape != x.shape[:-1] + (n + 1,):
        raise DimensionMismatch(
            f"need states (..., {n}) and draws (..., {n + 1}) alike, got "
            f"{x.shape} and {z.shape}")
    x_meas = x + plant.noise_x_vector * z[..., :n]
    y_meas = x[..., output_coord] + plant.noise_y * z[..., n]
    return x_meas, y_meas
