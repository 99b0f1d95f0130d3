"""Reference trajectory generation for the tracking experiments.

The stroke analog is a cyclic rest-to-rest quintic: position blends from 0
to the amplitude and back with zero boundary velocity/acceleration, with
optional holds between strokes. The stroke duration is derived from the
requested peak velocity. References carry position and velocity rows so the
controller tracks the full planar state.
"""

import math
from dataclasses import dataclass

import numpy as np

# Peak of the quintic blend derivative s'(tau) = 30 tau^2 - 60 tau^3 + 30 tau^4.
_QUINTIC_PEAK = 15.0 / 8.0


@dataclass(frozen=True)
class ReferenceSpec:
    """Reference kind and parameters.

    rest-to-rest: cyclic strokes of the given amplitude whose peak velocity
    equals `speed`, separated by `hold` seconds of dwell.
    sinusoid: amplitude and frequency (Hz).
    hold: constant position at `amplitude`.
    """

    kind: str = "rest-to-rest"
    amplitude: float = 0.5
    speed: float = 1.0
    hold: float = 0.25
    freq: float = 0.5

    def __post_init__(self):
        if self.kind not in ("rest-to-rest", "sinusoid", "hold"):
            raise ValueError(f"unknown reference kind {self.kind!r}")
        if not all(map(math.isfinite, (self.amplitude, self.speed,
                                       self.hold, self.freq))):
            raise ValueError("amplitude, speed, hold and freq must be finite")
        if self.kind == "rest-to-rest" and (self.speed <= 0 or self.amplitude == 0):
            raise ValueError("rest-to-rest needs speed > 0 and amplitude != 0")
        if self.kind == "sinusoid" and self.freq <= 0:
            raise ValueError("sinusoid needs freq > 0")
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
    """Sampled reference (2, num_samples): position and velocity rows."""
    if num_samples < 1 or dt <= 0:
        raise ValueError("need num_samples >= 1 and dt > 0")
    t = np.arange(num_samples) * dt
    if spec.kind == "hold":
        w = np.zeros((2, num_samples))
        w[0] = spec.amplitude
        return w
    if spec.kind == "sinusoid":
        omega = 2.0 * np.pi * spec.freq
        return np.vstack([spec.amplitude * np.sin(omega * t),
                          spec.amplitude * omega * np.cos(omega * t)])
    return _rest_to_rest(spec, t)


def _rest_to_rest(spec: ReferenceSpec, t: np.ndarray) -> np.ndarray:
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
    return np.vstack([pos, vel])
