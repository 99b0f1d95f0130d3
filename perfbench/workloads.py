"""The benchmark's workloads: config generation from a seed, one unit of
work through the public entry points, and the checks on its outputs.

Each input of a workload is a config file in the library's config grammar,
written from the built-in pendulum scenario plus per-workload overrides,
with the input's seed as ``[run] seed``. The scenario text lives here rather
than being read from the library, so that the measured work stays fixed
while the library changes; at seed 12345 ``compare-default`` must reproduce
the library's published comparison table, which ties the two together.

Checks on every unit: no aborted cell, the expected sample count, finite
outputs; compare-default reproduces the exact table at seed 12345;
adapt-every-step updates on every sample; saturating reaches its input
bound and never exceeds it. Over a run's inputs, compare-default keeps the
adaptivity ordering on the median errors (ordering_failures).
"""

import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from koopman_adapt import harness
from koopman_adapt.config import load_config_file

# The built-in scenario (``default-config``), as written in the grammar.
_BASE = {
    "plant": {
        "kind": "pendulum", "m": "0.4", "l": "0.5", "g": "9.81",
        "d": "0.04", "c": "0.002", "noise_y": "0.0005",
        "noise_x": "0.0005, 0.005", "dt": "0.01", "substeps": "8",
        "schedule": "(4.0, m, 0.8), (4.0, d, 0.12)",
    },
    "dict": {"family": "trig", "output_index": "0"},
    "redmd": {
        "lambda0": "1.0", "lambda_min": "0.95", "m_op": "50",
        "eps_low": "0.0075", "eps_high": "0.012", "n0": "10",
        "mu_sigma": "10", "trace_max_factor": "10", "gamma_init": "data",
        "state_scales": "1.0, 5.0",
    },
    "mpc": {
        "horizon": "20", "qy": "100.0, 1.0", "ru": "0.01",
        "terminal_weight": "5.0", "u_min": "-10.0", "u_max": "10.0",
        "max_pg_iters": "200", "pg_tol": "1e-8",
    },
    "observer": {
        "q": "0.01", "r": "1e-6", "joseph": "true",
        "relift_after_correct": "true", "p0": "0.01",
    },
    "run": {
        "t_sim": "12.0", "seed": "12345", "variant": "adaptive-both",
        "ref_kind": "rest-to-rest", "ref_amplitude": "0.6",
        "ref_speed": "2.0", "ref_hold": "0.05", "train_duration": "3.0",
        "train_amplitude": "1.5", "speeds": "2.0, 3.0",
    },
}


def _switching_schedule(t_end: float, period: float) -> str:
    """m 0.4 <-> 0.8 and d 0.04 <-> 0.12, switching every `period` s."""
    events = []
    k = 1
    while k * period < t_end:
        heavy = k % 2 == 1
        t = k * period
        events.append(f"({t!r}, m, {0.8 if heavy else 0.4!r})")
        events.append(f"({t!r}, d, {0.12 if heavy else 0.04!r})")
        k += 1
    return ", ".join(events)


# Per-workload overrides of _BASE. Why each was chosen is in BENCHMARK.json,
# and for adapt-every-step, which BENCHMARK.json leaves out, in layers.json.
_OVERRIDES = {
    "compare-default": {},
    "adapt-every-step": {
        "plant": {"schedule": _switching_schedule(60.0, 4.0)},
        "redmd": {"eps_low": "0.0"},
        "run": {"t_sim": "60.0"},
    },
    "saturating": {
        "mpc": {"u_min": "-2.0", "u_max": "2.0"},
    },
}

WORKLOADS = tuple(_OVERRIDES)

# Inputs per run, derived from the run's seed. tracking_error is
# deterministic for one input but its quartile spread over seeds is 15-20 %
# of the median, and on adapt-every-step about one seed in six lands near a
# quarter of the usual error; saturating's cost per sample also depends on
# the input (how often the bounds bind). A run therefore reports the median
# error over several inputs and its throughput over all of them.
SEEDS_PER_RUN = {"compare-default": 5, "adapt-every-step": 5, "saturating": 12}
_SEED_STRIDE = 1_000_003

# compare-default at seed 12345: the normalized error of every cell, in
# run_comparison order (no changes, then changes; speed 2, then 3; variants
# in harness order). These are the values behind the README table.
REFERENCE_SEED = 12345
REFERENCE_TABLE = (
    3.1262652580415575e-05, 3.2276375304163134e-05,
    3.173019263950166e-05, 3.2477389637717586e-05,
    0.0001318020749885063, 0.00013859206996219046,
    0.00012677359096930022, 0.00013280513608517985,
    0.01568147302838586, 0.014322612111012649,
    0.004213334569862006, 0.0029394722592100543,
    0.07857450226827302, 0.06740209649328953,
    0.009838186948253703, 0.004255077685720934,
)
# Relative tolerance for a reassociated reproduction (ROADMAP).
REFERENCE_RTOL = 1e-12

SATURATION_BOUND = 2.0


def config_text(name: str, seed: int) -> str:
    """The workload's config file, in the library's grammar."""
    lines = [f"# perfbench workload {name}, seed {seed}"]
    for section, body in _BASE.items():
        body = {**body, **_OVERRIDES[name].get(section, {})}
        if section == "run":
            body["seed"] = str(seed)
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
        lines.append("")
    return "\n".join(lines)


def run_seeds(name: str, seed: int) -> list:
    """The seeds of one run's inputs; the first is the run's own seed."""
    return [seed + k * _SEED_STRIDE for k in range(SEEDS_PER_RUN[name])]


def load_workload(name: str, seed: int, work_dir: Path):
    """Write the workload's config file and load it through the library."""
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / f"{name}-{seed}.cfg"
    path.write_text(config_text(name, seed))
    return load_config_file(path)


@dataclass
class Outcome:
    """What one unit of work produced, and which of its cells failed."""

    cells: int
    samples: int
    tracking_error: float
    values: tuple
    failures: dict = field(default_factory=dict)  # cell index -> reason
    # compare-default: {speed: {variant: normalized error}} of the cells
    # with changes, for the adaptivity ordering (see ordering_failures)
    change_errors: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_unit(name: str, cfg, estimator=None):
    """One unit of the workload through the public entry points.

    compare-default is one run_comparison sweep; the others are one
    run_closed_loop run, from the given estimator or from a fresh
    prepare_estimator when it is None.
    """
    if name == "compare-default":
        return harness.run_comparison(cfg)
    return harness.run_closed_loop(cfg, estimator=estimator)


def check_unit(name: str, cfg, result) -> Outcome:
    """Check the outputs of one unit; see the module docstring."""
    if name == "compare-default":
        return _check_comparison(cfg, result)
    return _check_run(name, cfg, result)


def _steps(cfg) -> int:
    return max(1, round(cfg.run.t_sim / cfg.plant.dt))


def _check_comparison(cfg, comparison) -> Outcome:
    cells = comparison.cells
    failures = {}
    for i, c in enumerate(cells):
        if not c.ok:
            failures[i] = c.status
        elif not math.isfinite(c.normalized_error):
            failures[i] = f"non-finite error {c.normalized_error}"
    values = tuple(c.normalized_error for c in cells)
    samples = _steps(cfg) * sum(c.ok for c in cells)
    both = [c.normalized_error for c in cells
            if c.with_changes and c.variant == "adaptive-both"]
    tracking = float(np.mean(both)) if both else math.nan
    if failures:
        return Outcome(len(cells), samples, tracking, values, failures)
    change_errors = {}
    for c in cells:
        if c.with_changes:
            change_errors.setdefault(c.speed, {})[c.variant] = \
                c.normalized_error
    if cfg.run.seed == REFERENCE_SEED:
        if len(values) != len(REFERENCE_TABLE):
            failures.update(dict.fromkeys(
                range(len(cells)),
                f"{len(values)} cells, expected {len(REFERENCE_TABLE)}"))
        for i, (got, want) in enumerate(zip(values, REFERENCE_TABLE)):
            if abs(got - want) > REFERENCE_RTOL * abs(want):
                failures[i] = (f"{got!r} differs from the reference table "
                               f"value {want!r}")
    return Outcome(len(cells), samples, tracking, values, failures,
                   change_errors)


def ordering_held(errors: dict) -> bool:
    """adaptive-both < {adaptive-ctrl, adaptive-obs} < static-static."""
    one_sided = (errors["adaptive-ctrl"], errors["adaptive-obs"])
    return (errors["adaptive-both"] < min(one_sided)
            and max(one_sided) < errors["static-static"])


def ordering_failures(outcomes) -> list:
    """The adaptivity ordering on each variant's median error over the
    given inputs, per change column; a list of what broke.

    Single inputs break it now and then: at seed 2000007 the adaptive-obs
    cell at speed 2 ends at 5.45 against 0.0152 for static-static, and at
    3009016 adaptive-obs and adaptive-both end near 24 with no error
    raised. So the ordering is enforced on the median over a run's inputs,
    and counted per input.
    """
    columns = [o.change_errors for o in outcomes if o.change_errors]
    broken = []
    for speed in columns[0] if columns else ():
        median = {v: statistics.median(c[speed][v] for c in columns)
                  for v in columns[0][speed]}
        if not ordering_held(median):
            broken.append(f"adaptivity ordering broken at speed {speed} on "
                          f"the median over {len(columns)} inputs: {median}")
    return broken


def _check_run(name, cfg, result) -> Outcome:
    records = result.records
    failures = []
    if result.aborted:
        failures.append(f"aborted after {len(records)} samples: "
                        f"{result.reason}")
    elif len(records) != _steps(cfg):
        failures.append(f"{len(records)} samples, expected {_steps(cfg)}")
    tracking = math.nan
    if records and not result.aborted:
        tracking = (harness.compute_metric(records)
                    / harness.reference_energy(records))
        finite = all(np.isfinite(r.x).all() and np.isfinite(r.x_hat).all()
                     and np.isfinite(r.u).all() for r in records)
        if not (finite and math.isfinite(tracking)):
            failures.append("non-finite state, estimate, input or error")
    if name == "adapt-every-step":
        skipped = sum(not r.updated for r in records[1:])
        if skipped:
            failures.append(f"gate held closed on {skipped} samples with "
                            "eps_low = 0")
    if name == "saturating" and records:
        u_abs = max(float(np.abs(r.u).max()) for r in records)
        if u_abs > SATURATION_BOUND:
            failures.append(f"input {u_abs} exceeds the bound "
                            f"{SATURATION_BOUND}")
        elif u_abs < SATURATION_BOUND:
            failures.append(f"input bound never reached (max |u| {u_abs})")
    samples = len(records) if not result.aborted else 0
    return Outcome(1, samples, tracking, (tracking,),
                   {0: "; ".join(failures)} if failures else {})
