"""Experiment configuration: a line-oriented config grammar and the
assembly of validated component settings from it.

Grammar (one nesting level, INI-style):

    [section]
    key = value        # trailing comments allowed

A key appears at most once in a section. Values are parsed as, in order:
booleans ``true``/``false``, integers, floats, quoted or bare strings.
Comma-separated values form a list of scalars; parenthesized groups form a
list of tuples, which is how plant change schedules are written::

    schedule = (4.0, m, 0.8), (4.0, d, 0.12)

``dumps``/``loads`` round-trip bit-exactly (floats are written with 17
significant digits).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .mpc import MpcConfig
from .observables import ObservableDictionary, make_dictionary
from .observer import ObserverSettings
from .plants import ChangeSchedule, PlantModel, apply_schedule, make_pendulum
from .redmd import RedmdSettings
from .references import ReferenceSpec

VARIANTS = ("static-static", "adaptive-ctrl", "adaptive-obs", "adaptive-both")


# -- raw grammar -------------------------------------------------------------

def _parse_scalar(token: str):
    token = token.strip()
    if token.lower() == "true":
        return True
    if token.lower() == "false":
        return False
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ConfigError(f"unbalanced ')' in value {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ConfigError(f"unbalanced '(' in value {text!r}")
    parts.append("".join(cur))
    return parts


def _parse_value(text: str):
    text = text.strip()
    parts = [p.strip() for p in _split_top_level(text)]
    parts = [p for p in parts if p]
    if not parts:
        raise ConfigError(f"empty value in {text!r}")
    parsed = []
    for part in parts:
        if part.startswith("(") and part.endswith(")"):
            inner = [s.strip() for s in part[1:-1].split(",")]
            parsed.append(tuple(_parse_scalar(s) for s in inner if s))
        else:
            parsed.append(_parse_scalar(part))
    if len(parsed) == 1 and not isinstance(parsed[0], tuple):
        return parsed[0]
    return parsed


def loads(text: str) -> dict:
    """Parse config text into {section: {key: value}}."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(
                f"line {lineno}: key {key!r} repeated in [{current}]")
        sections[current][key] = _parse_value(value)
    return sections


def _format_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return "(" + ", ".join(_format_scalar(s) for s in v) + ")"
    if isinstance(v, list):
        return ", ".join(_format_value(s) for s in v)
    return _format_scalar(v)


def dumps(sections: dict) -> str:
    """Format {section: {key: value}} back to config text."""
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        for key, value in body.items():
            lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    return "\n".join(lines)


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
        if not 0 < self.t_sim < math.inf:
            raise ConfigError(f"t_sim must be finite and > 0, got {self.t_sim}")
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0 < self.train_duration < math.inf:
            raise ConfigError("train_duration must be finite and > 0")
        if not all(map(math.isfinite, (self.train_amplitude, *self.speeds))):
            raise ConfigError("train_amplitude and speeds must be finite")


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


_SECTION_KEYS = {
    "plant": {"kind", "m", "l", "g", "d", "c", "noise_y", "noise_x", "dt",
              "substeps", "schedule"},
    "dict": {"family", "degree", "output_index"},
    "redmd": {"lambda0", "lambda_min", "m_op", "eps_low", "eps_high", "n0",
              "mu_sigma", "trace_max_factor", "gamma_init", "state_scales",
              "adaptive_lambda"},
    "mpc": {"horizon", "qy", "ru", "terminal_weight", "u_min", "u_max",
            "max_pg_iters", "pg_tol"},
    "observer": {"q", "r", "joseph", "relift_after_correct", "p0"},
    "run": {"t_sim", "seed", "variant", "ref_kind", "ref_amplitude",
            "ref_speed", "ref_hold", "ref_freq", "train_duration",
            "train_amplitude", "speeds"},
}


# Keys whose values must be integers (a bool is not one); a float such as
# 2.5 would otherwise be truncated or fail deep inside a run.
_INT_KEYS = {("plant", "substeps"), ("dict", "degree"),
             ("dict", "output_index"), ("redmd", "m_op"), ("mpc", "horizon"),
             ("run", "seed")}


def _check_keys(sections: dict) -> None:
    for name, body in sections.items():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        unknown = set(body) - _SECTION_KEYS[name]
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{name}]: {sorted(unknown)}")
        for key, value in body.items():
            if (name, key) in _INT_KEYS and (isinstance(value, bool)
                                             or not isinstance(value, int)):
                raise ConfigError(
                    f"[{name}] {key} must be an integer, got {value!r}")


def _as_list(v) -> list:
    return v if isinstance(v, list) else [v]


def assemble(sections: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed sections, with defaults for
    everything except what the sections override."""
    _check_keys(sections)
    plant_sec = dict(sections.get("plant", {}))
    kind = plant_sec.pop("kind", "pendulum")
    if kind != "pendulum":
        raise ConfigError(
            f"config files support only the pendulum plant, got {kind!r}")
    schedule_raw = plant_sec.pop("schedule", [])
    events = []
    for ev in _as_list(schedule_raw) if schedule_raw else []:
        if not (isinstance(ev, tuple) and len(ev) == 3):
            raise ConfigError(
                f"schedule events must be (time, name, value), got {ev!r}")
        events.append((float(ev[0]), str(ev[1]), float(ev[2])))
    try:
        plant = make_pendulum(**plant_sec)
        schedule = ChangeSchedule(tuple(events))
        for time, _, _ in events:  # every parameter set the run will reach
            apply_schedule(plant, schedule, time)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid [plant] section: {exc}") from exc

    dict_sec = sections.get("dict", {})
    try:
        dictionary = make_dictionary(
            dict_sec.get("family", "trig"), plant.n,
            degree=dict_sec.get("degree", 2),
            output_index=dict_sec.get("output_index", 0))
    except ValueError as exc:
        raise ConfigError(f"invalid [dict] section: {exc}") from exc
    if dictionary.output_index >= plant.n:
        raise ConfigError(
            "dict.output_index must address a state coordinate "
            f"(< {plant.n}) so the plant output is measurable")

    redmd_sec = dict(sections.get("redmd", {}))
    if "state_scales" in redmd_sec:
        redmd_sec["state_scales"] = tuple(
            float(v) for v in _as_list(redmd_sec["state_scales"]))
    if "gamma_init" in redmd_sec and not isinstance(redmd_sec["gamma_init"], str):
        redmd_sec["gamma_init"] = float(redmd_sec["gamma_init"])
    for key in ("lambda0", "lambda_min", "eps_low", "eps_high", "n0",
                "mu_sigma", "trace_max_factor"):
        if key in redmd_sec:
            redmd_sec[key] = float(redmd_sec[key])
    try:
        redmd = RedmdSettings(**redmd_sec)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid [redmd] section: {exc}") from exc

    mpc_sec = dict(sections.get("mpc", {}))
    try:
        qy = np.diag([float(v) for v in _as_list(mpc_sec.pop("qy", [100.0, 1.0]))])
        ru = np.diag([float(v) for v in _as_list(mpc_sec.pop("ru", [0.01]))])
        bounds = {}
        for key in ("u_min", "u_max"):
            if key in mpc_sec:
                bounds[key] = np.asarray(
                    [float(v) for v in _as_list(mpc_sec.pop(key))])
        mpc = MpcConfig(horizon=mpc_sec.pop("horizon", 15), Qy=qy, Ru=ru,
                        terminal_weight=float(mpc_sec.pop("terminal_weight", 1.0)),
                        max_pg_iters=mpc_sec.pop("max_pg_iters", 200),
                        pg_tol=float(mpc_sec.pop("pg_tol", 1e-8)),
                        **bounds)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid [mpc] section: {exc}") from exc
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

    obs_sec = dict(sections.get("observer", {}))
    for key in ("q", "r", "p0"):
        if key in obs_sec:
            obs_sec[key] = float(obs_sec[key])
    try:
        observer = ObserverSettings(**obs_sec)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid [observer] section: {exc}") from exc

    run_sec = dict(sections.get("run", {}))
    try:
        ref = ReferenceSpec(
            kind=run_sec.pop("ref_kind", "rest-to-rest"),
            amplitude=float(run_sec.pop("ref_amplitude", 0.5)),
            speed=float(run_sec.pop("ref_speed", 1.0)),
            hold=float(run_sec.pop("ref_hold", 0.25)),
            freq=float(run_sec.pop("ref_freq", 0.5)),
        )
        speeds = tuple(float(v)
                       for v in _as_list(run_sec.pop("speeds", [1.0, 2.0])))
        run = RunSettings(
            t_sim=float(run_sec.pop("t_sim", 8.0)),
            seed=run_sec.pop("seed", 12345),
            variant=run_sec.pop("variant", "adaptive-both"),
            reference=ref,
            train_duration=float(run_sec.pop("train_duration", 20.0)),
            train_amplitude=float(run_sec.pop("train_amplitude", 1.5)),
            speeds=speeds,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid [run] section: {exc}") from exc
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
