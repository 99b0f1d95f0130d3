"""Reference trajectory generation for the tracking experiments.

The stroke analog is a cyclic rest-to-rest quintic: position blends from 0
to the amplitude and back with zero boundary velocity/acceleration, with
optional holds between strokes. The stroke duration is derived from the
requested peak velocity. A reference has one read-only (position, velocity)
row per sample, the planar state the controller tracks. One in-order sum of
squared row norms, running_energy, gives the tracking error and its normalizer.
"""

import math
from dataclasses import dataclass

import numpy as np

# Peak of the quintic blend derivative s'(tau) = 30 tau^2 - 60 tau^3 + 30 tau^4.
_QUINTIC_PEAK = 15.0 / 8.0


@dataclass(frozen=True)
class ReferenceSpec:
    """A rest-to-rest reference: cyclic strokes of the given amplitude whose
    peak velocity equals `speed`, separated by `hold` seconds of dwell."""

    amplitude: float = 0.5
    speed: float = 1.0
    hold: float = 0.25

    def __post_init__(self):
        if not all(map(math.isfinite,
                       (self.amplitude, self.speed, self.hold))):
            raise ValueError("amplitude, speed and hold must be finite")
        if self.speed <= 0 or self.amplitude == 0:
            raise ValueError("rest-to-rest needs speed > 0 and amplitude != 0")
        if self.hold < 0:
            raise ValueError("hold must be >= 0")

    def stroke_duration(self) -> float:
        """Duration giving the requested peak velocity for one stroke."""
        return _QUINTIC_PEAK * abs(self.amplitude) / self.speed


def _quintic(tau: np.ndarray):
    """Smooth 0 -> 1 blend with zero velocity/acceleration at both ends."""
    s = 10.0 * tau ** 3 - 15.0 * tau ** 4 + 6.0 * tau ** 5
    ds = 30.0 * tau ** 2 - 60.0 * tau ** 3 + 30.0 * tau ** 4
    return s, ds


def build_reference(spec: ReferenceSpec, num_samples: int,
                    dt: float) -> np.ndarray:
    """Read-only reference (num_samples, 2): position and velocity columns."""
    if num_samples < 1 or dt <= 0:
        raise ValueError("need num_samples >= 1 and dt > 0")
    t = np.arange(num_samples) * dt
    D = spec.stroke_duration()
    period = 2.0 * (D + spec.hold)
    phase = np.mod(t, period)
    pos = np.zeros_like(t)
    vel = np.zeros_like(t)
    # segment 1: forward stroke
    m = phase < D
    s, ds = _quintic(phase[m] / D)
    pos[m] = spec.amplitude * s
    vel[m] = spec.amplitude * ds / D
    # segment 2: hold at amplitude
    m = (phase >= D) & (phase < D + spec.hold)
    pos[m] = spec.amplitude
    # segment 3: return stroke
    m = (phase >= D + spec.hold) & (phase < 2.0 * D + spec.hold)
    s, ds = _quintic((phase[m] - D - spec.hold) / D)
    pos[m] = spec.amplitude * (1.0 - s)
    vel[m] = -spec.amplitude * ds / D
    # segment 4: hold at zero (already zeros)
    w = np.column_stack([pos, vel])
    w.flags.writeable = False
    return w


def running_energy(w: np.ndarray) -> np.ndarray:
    """In-order running sums of the rows' w @ w of w (samples, n); inf from
    an overflow on. Of the tracking errors w - x it is the trace's e_cum."""
    with np.errstate(over="ignore"):
        return np.cumsum(np.matmul(w[:, None, :], w[:, :, None]))


def energy(w: np.ndarray) -> float:
    """The last of running_energy(w): its rows' w @ w summed in order."""
    return float(running_energy(w)[-1])
