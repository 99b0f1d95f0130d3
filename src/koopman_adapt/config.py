"""Experiment configuration: a line-oriented config grammar and the
assembly of validated component settings from it.

Grammar (one nesting level, INI-style):

    [section]
    key = value        # trailing comments allowed

Every key has one kind, declared in ``_KEYS``, and its value is parsed by
that kind alone: an integer, a float, a flag (``true`` or ``false``), a
string (optionally quoted), a comma list of floats, ``data`` or a float,
or the plant change schedule as (time, name, value) groups::

    schedule = (4.0, m, 0.8), (4.0, d, 0.12)

An unknown section or key, a key repeated within a section, or a value its
key's kind refuses is a ConfigError naming the line and the key.
"""

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .mpc import MpcConfig
from .observables import ObservableDictionary
from .observer import ObserverSettings
from .plants import ChangeSchedule, PlantModel, apply_schedule, make_pendulum
from .redmd import RedmdSettings
from .references import ReferenceSpec

VARIANTS = ("static-static", "adaptive-ctrl", "adaptive-obs", "adaptive-both")


# -- grammar -----------------------------------------------------------------

def _flag(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


def _string(text: str) -> str:
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        text = text[1:-1]
    if not text:
        raise ValueError("empty string")
    return text


def _floats(text: str) -> list:
    """One float or a comma list of floats, as a list."""
    return [float(v) for v in text.split(",")]


def _float_or_floats(text: str):
    """A single float stays a scalar (noise_x broadcasts it per state)."""
    values = _floats(text)
    return values[0] if len(values) == 1 else values


def _events(text: str) -> list:
    """Comma-separated (time, name, value) groups."""
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("expected (time, name, value) groups")
    events = []
    for group in re.split(r"\)\s*,\s*\(", text[1:-1]):
        parts = group.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected (time, name, value), got ({group})")
        events.append((float(parts[0]), _string(parts[1].strip()),
                       float(parts[2])))
    return events


def _data_or_float(text: str):
    return "data" if _string(text) == "data" else float(text)


# Each key's kind: the parser of its value text.
_KEYS = {
    "plant": {"kind": _string, "m": float, "l": float, "g": float,
              "d": float, "c": float, "noise_y": float,
              "noise_x": _float_or_floats, "dt": float, "substeps": int,
              "schedule": _events},
    "dict": {"family": _string, "degree": int, "output_index": int},
    "redmd": {"lambda0": float, "lambda_min": float, "m_op": int,
              "eps_low": float, "eps_high": float, "n0": float,
              "mu_sigma": float, "trace_max_factor": float,
              "gamma_init": _data_or_float, "state_scales": _floats,
              "adaptive_lambda": _flag},
    "mpc": {"horizon": int, "qy": _floats, "ru": _floats,
            "terminal_weight": float, "u_min": _floats, "u_max": _floats,
            "max_pg_iters": int, "pg_tol": float},
    "observer": {"q": float, "r": float, "joseph": _flag,
                 "relift_after_correct": _flag, "p0": float},
    "run": {"t_sim": float, "seed": int, "variant": _string,
            "ref_kind": _string, "ref_amplitude": float, "ref_speed": float,
            "ref_hold": float, "ref_freq": float, "train_duration": float,
            "train_amplitude": float, "speeds": _floats},
}


def loads(text: str) -> dict:
    """Parse config text into {section: {key: value}}, each value parsed
    by its key's kind."""
    sections: dict = {}
    name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            sections.setdefault(name, {})
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if name is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        where = f"line {lineno}: [{name}] {key}"
        if key not in _KEYS[name]:
            raise ConfigError(f"{where}: unknown key")
        if key in sections[name]:
            raise ConfigError(f"{where}: key repeated in the section")
        try:
            sections[name][key] = _KEYS[name][key](value)
        except ValueError as exc:
            raise ConfigError(
                f"{where}: invalid value {value!r}: {exc}") from exc
    return sections


# -- assembly -----------------------------------------------------------------

@dataclass
class RunSettings:
    """The [run] section: scenario length, seeding, variant, reference, and
    offline-training excitation."""

    t_sim: float = 8.0
    seed: int = 12345
    variant: str = "adaptive-both"
    reference: ReferenceSpec = field(default_factory=ReferenceSpec)
    train_duration: float = 20.0
    train_amplitude: float = 1.5
    speeds: tuple = (1.0, 2.0)

    def __post_init__(self):
        self.speeds = tuple(self.speeds)
        if not 0 < self.t_sim < math.inf:
            raise ConfigError(f"t_sim must be finite and > 0, got {self.t_sim}")
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0 < self.train_duration < math.inf:
            raise ConfigError("train_duration must be finite and > 0")
        if not all(map(math.isfinite, (self.train_amplitude, *self.speeds))):
            raise ConfigError("train_amplitude and speeds must be finite")
        if len(set(self.speeds)) < len(self.speeds):
            raise ConfigError(f"speeds must not repeat, got {self.speeds}")


@dataclass
class ExperimentConfig:
    """Everything a closed-loop run needs, fully constructed and validated."""

    plant: PlantModel
    schedule: ChangeSchedule
    dictionary: ObservableDictionary
    redmd: RedmdSettings
    mpc: MpcConfig
    observer: ObserverSettings
    run: RunSettings


def _build(section: str, factory, *args, **kwargs):
    """factory(*args, **kwargs), with a rejected value reported as a
    ConfigError on the section."""
    try:
        return factory(*args, **kwargs)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid [{section}] section: {exc}") from exc


def assemble(sections: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed sections, with defaults for
    everything except what the sections override."""
    plant_sec = dict(sections.get("plant", {}))
    kind = plant_sec.pop("kind", "pendulum")
    if kind != "pendulum":
        raise ConfigError(
            f"config files support only the pendulum plant, got {kind!r}")
    events = tuple(plant_sec.pop("schedule", ()))
    plant = _build("plant", make_pendulum, **plant_sec)
    schedule = _build("plant", ChangeSchedule, events)
    for time, _, _ in events:  # every parameter set the run will reach
        _build("plant", apply_schedule, plant, schedule, time)

    dictionary = _build("dict", ObservableDictionary, plant.n,
                        **sections.get("dict", {}))
    if dictionary.output_index >= plant.n:
        raise ConfigError(
            "dict.output_index must address a state coordinate "
            f"(< {plant.n}) so the plant output is measurable")

    redmd = _build("redmd", RedmdSettings, **sections.get("redmd", {}))
    if redmd.state_scales is not None and len(redmd.state_scales) != plant.n:
        raise ConfigError(f"redmd.state_scales needs {plant.n} entries, got "
                          f"{len(redmd.state_scales)}")

    mpc_sec = dict(sections.get("mpc", {}))
    mpc = _build("mpc", MpcConfig, horizon=mpc_sec.pop("horizon", 15),
                 Qy=np.diag(mpc_sec.pop("qy", [100.0, 1.0])),
                 Ru=np.diag(mpc_sec.pop("ru", [0.01])), **mpc_sec)
    if mpc.Qy.shape != (plant.n, plant.n):
        raise ConfigError(
            f"mpc.qy needs {plant.n} diagonal entries, got {mpc.Qy.shape[0]}")
    if not ((0 <= np.diag(mpc.Qy)) & (np.diag(mpc.Qy) < np.inf)).all():
        raise ConfigError("mpc.qy entries must be finite and >= 0")
    if mpc.Ru.shape != (plant.p, plant.p):
        raise ConfigError(
            f"mpc.ru needs {plant.p} diagonal entries, got {mpc.Ru.shape[0]}")
    for key in ("u_min", "u_max"):
        bound = getattr(mpc, key)
        if bound is not None and bound.shape != (plant.p,):
            raise ConfigError(
                f"mpc.{key} needs {plant.p} entries, got {bound.size}")

    observer = _build("observer", ObserverSettings,
                      **sections.get("observer", {}))

    run_sec = dict(sections.get("run", {}))
    ref_keys = [key for key in run_sec if key.startswith("ref_")]
    reference = _build("run", ReferenceSpec,
                       **{key[4:]: run_sec.pop(key) for key in ref_keys})
    run = _build("run", RunSettings, reference=reference, **run_sec)
    for speed in run.speeds:  # the reference of every comparison cell
        _build("run", replace, reference, speed=speed)
    return ExperimentConfig(plant, schedule, dictionary, redmd, mpc,
                            observer, run)


def load_config_file(path) -> ExperimentConfig:
    """Read, parse, and assemble a config file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return assemble(loads(text))
