"""Ground-truth continuous-time plants with scheduled parameter changes.

Two kinds: a friction-damped pendulum (the nonlinear benchmark) and a
generic linear second-order system kept as the oracle-friendly test plant.
Integration is fixed-step RK4 under zero-order-hold input; mid-run changes
are timed parameter steps applied between samples.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .edmd import _as_input
from .errors import DimensionMismatch, NonFiniteState, UnknownParameter

# Smooth Coulomb friction: tanh(velocity / EPS_COULOMB) in place of sign().
EPS_COULOMB = 1e-3
# np.tanh(v) is exactly +-1.0 for |v| >= 20 (from about 18.99 on), so there
# the friction term c * tanh(v) is exactly +-c without the call.
_TANH_SATURATES = 20.0

_PENDULUM_PARAMS = ("m", "l", "g", "d", "c")
_LINEAR_PARAMS = ("A", "B")


@dataclass(frozen=True)
class PlantModel:
    """A plant kind plus its named parameters and sensor/integration setup.

    noise_x is the per-state measurement noise std (used by the
    identification path), a scalar or one value per state; noise_y the
    scalar output noise std (observer path). dt is the controller sample
    time, integrated in `substeps` RK4 steps. noise_x_vector holds noise_x
    as a read-only length-n vector, validated once here, and
    pendulum_coeffs a pendulum's (d, c, m g l, m l^2) as floats.
    """

    kind: str
    params: Mapping
    noise_y: float = 0.0
    noise_x: Sequence[float] | float = 0.0
    dt: float = 1e-3
    substeps: int = 1
    noise_x_vector: np.ndarray = field(init=False, repr=False, compare=False)
    pendulum_coeffs: tuple | None = field(default=None, init=False,
                                          repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("pendulum", "linear2nd"):
            raise ValueError(f"unknown plant kind {self.kind!r}")
        if not 0 < self.dt < math.inf or self.substeps < 1:
            raise ValueError("need a finite dt > 0 and substeps >= 1")
        if not 0 <= self.noise_y < math.inf:
            raise ValueError("noise_y must be finite and >= 0")
        if self.kind == "pendulum":
            p = self.params
            missing = [k for k in _PENDULUM_PARAMS if k not in p]
            if missing:
                raise ValueError(f"pendulum params missing {missing}")
            if not all(math.isfinite(p[k]) for k in _PENDULUM_PARAMS):
                raise ValueError("pendulum params must be finite")
            if p["m"] <= 0 or p["l"] <= 0 or p["g"] <= 0:
                raise ValueError("m, l, g must be positive")
            if p["d"] < 0 or p["c"] < 0:
                raise ValueError("d and c must be >= 0")
            m, l, g, d, c = (float(p[k]) for k in _PENDULUM_PARAMS)
            object.__setattr__(self, "pendulum_coeffs",
                               (d, c, m * g * l, m * l * l))
        else:
            A = np.asarray(self.params["A"], dtype=float)
            B = np.asarray(self.params["B"], dtype=float)
            if A.shape[0] != A.shape[1] or B.shape[0] != A.shape[0]:
                raise DimensionMismatch(
                    f"linear2nd needs square A and conformable B, got "
                    f"{A.shape} and {B.shape}")
        v = np.array(self.noise_x, dtype=float)
        if v.ndim == 0:
            v = np.full(self.n, float(v))
        if v.shape != (self.n,) or not ((0 <= v) & (v < np.inf)).all():
            raise ValueError(f"noise_x must be a finite nonnegative scalar "
                             f"or length-{self.n} list")
        v.flags.writeable = False
        object.__setattr__(self, "noise_x_vector", v)

    @property
    def n(self) -> int:
        return 2 if self.kind == "pendulum" else \
            np.asarray(self.params["A"]).shape[0]

    @property
    def p(self) -> int:
        return 1 if self.kind == "pendulum" else \
            np.asarray(self.params["B"]).shape[1]


@dataclass(frozen=True)
class PlantState:
    x: np.ndarray
    t: float = 0.0


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


def make_pendulum(m=0.4, l=0.5, g=9.81, d=0.04, c=0.0, **kwargs) -> PlantModel:
    return PlantModel("pendulum", {"m": m, "l": l, "g": g, "d": d, "c": c},
                      **kwargs)


def make_linear2nd(A, B, **kwargs) -> PlantModel:
    return PlantModel("linear2nd",
                      {"A": np.asarray(A, dtype=float),
                       "B": np.asarray(B, dtype=float)}, **kwargs)


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


def _blow_up(plant: PlantModel, state: PlantState) -> NonFiniteState:
    return NonFiniteState(
        f"plant state became non-finite at t={state.t + plant.dt:.6g}")


def step_plant(plant: PlantModel, state: PlantState, u) -> PlantState:
    """Advance one sample time under zero-order-hold input via RK4."""
    u = _as_input(u, plant.p)
    x = np.asarray(state.x, dtype=float)
    h = plant.dt / plant.substeps
    if plant.kind == "pendulum":
        theta, omega = x.tolist()
        try:
            theta, omega = _pendulum_rk4(plant.pendulum_coeffs, theta, omega,
                                         float(u[0]), h, plant.substeps)
        except (ValueError, ZeroDivisionError) as exc:
            # math.sin(inf) and a zero m l^2 raise where arrays give inf/NaN
            raise _blow_up(plant, state) from exc
        if not (math.isfinite(theta) and math.isfinite(omega)):
            raise _blow_up(plant, state)
        return PlantState(np.array((theta, omega)), state.t + plant.dt)
    else:
        # dx/dt = A x + B u; blow-up surfaces as NonFiniteState below, not
        # as overflow warnings
        A, B = plant.params["A"], plant.params["B"]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(plant.substeps):
                k1 = A @ x + B @ u
                k2 = A @ (x + 0.5 * h * k1) + B @ u
                k3 = A @ (x + 0.5 * h * k2) + B @ u
                k4 = A @ (x + h * k3) + B @ u
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(x).all():
        raise _blow_up(plant, state)
    return PlantState(x, state.t + plant.dt)


def apply_schedule(plant: PlantModel, schedule: ChangeSchedule,
                   t: float) -> PlantModel:
    """Plant with all events of time <= t applied, in order (idempotent)."""
    allowed = _PENDULUM_PARAMS if plant.kind == "pendulum" else _LINEAR_PARAMS
    params = dict(plant.params)
    changed = False
    for time, name, value in schedule.events:
        if time > t:
            break
        if name not in allowed:
            raise UnknownParameter(
                f"plant kind {plant.kind!r} has no parameter {name!r}")
        params[name] = value
        changed = True
    return replace(plant, params=params) if changed else plant


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
