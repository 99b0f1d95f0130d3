"""Closed-loop benchmark of the koopman-adapt loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare-default --seed 12345 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics. A run has several inputs
derived from its seed (workloads.SEEDS_PER_RUN). It runs each input's unit
of work once and repeats them while ``--seconds`` allow; before each unit
it times ``prepare_estimator`` on that input a few times (``setup_s`` is
the median).
``samples_per_s`` is the closed-loop samples of all units over their
summed wall time, ``tracking_error`` the median over the inputs and
``peak_rss_mb`` the process's high-water RSS.

``--trace 1`` measures the per-layer split at the run's own seed: an
untraced unit in this process, two traced units, each in a child process
of its own that wraps the library's layer functions (see tracer.py), and a
second untraced unit. The two traced runs must agree exactly on their
counts, and every unit must reproduce the first one's numbers.

Load is one process with one thread, cells run one after another. Every
unit's outputs are checked (see workloads.py); a failed check counts its
cells into ``failed`` and makes the exit code 1. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 2 means there is no library source to
benchmark next to this directory.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench"

SETUPS_PER_UNIT = 4
TRACED_RUNS = 2
# Whole command, traced children included, ends well inside 180 s.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--span-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _pin_environment() -> None:
    """Sequential sweep, single-threaded BLAS; must precede numpy import."""
    os.environ.pop("KOOPMAN_ADAPT_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _finite(v):
    return v if isinstance(v, int) or math.isfinite(v) else None


def _report(metrics: dict, attempted: int, failed: int, reasons) -> bool:
    """Print the metrics by name and unit, then the JSON result line."""
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} 1 "
          f"({failed} of {attempted} cells)")
    for reason in reasons:
        print(f"FAILED: {reason}")
    correct = failed == 0 and not reasons
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": _finite(value), "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return correct


def _print_orderings(outcomes) -> None:
    import workloads

    held = [workloads.ordering_held(errors) for o in outcomes
            for errors in o.change_errors.values()]
    if held:
        print(f"adaptivity ordering held in {sum(held)} of {len(held)} "
              "single-input change columns")


def _end_to_end(name: str, seed: int, seconds: float) -> bool:
    from koopman_adapt import harness
    import workloads

    cfgs = [workloads.load_workload(name, s, WORK)
            for s in workloads.run_seeds(name, seed)]
    # Each input runs once, then the inputs repeat round robin while another
    # unit fits in --seconds. Before each unit its input is set up a few
    # times, so the set-up timings sample the whole run.
    outcomes, walls, setup = [], [], []
    started = time.perf_counter()
    while True:
        k = len(outcomes) % len(cfgs)
        for _ in range(SETUPS_PER_UNIT):
            t0 = time.perf_counter()
            estimator = harness.prepare_estimator(cfgs[k])
            setup.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        result = workloads.run_unit(name, cfgs[k], estimator)
        walls.append(time.perf_counter() - t0)
        outcomes.append(workloads.check_unit(name, cfgs[k], result))
        elapsed = time.perf_counter() - started
        if (len(outcomes) >= len(cfgs)
                and elapsed * (1 + 1 / len(outcomes)) > seconds):
            break
    reasons = [f"unit {k} cell {i}: {why}" for k, o in enumerate(outcomes)
               for i, why in sorted(o.failures.items())]
    failed = sum(o.failed for o in outcomes)
    for k, o in enumerate(outcomes[len(cfgs):], len(cfgs)):
        if not o.failures and o.values != outcomes[k % len(cfgs)].values:
            failed += o.cells
            reasons.append(f"unit {k} is not bit-identical to unit "
                           f"{k % len(cfgs)}, which had the same input")
    if not failed:
        broken = workloads.ordering_failures(outcomes[:len(cfgs)])
        failed += len(broken) * 4 * len(cfgs)
        reasons += broken
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"units = {len(outcomes)}, inputs = {len(cfgs)}, samples = "
          f"{sum(o.samples for o in outcomes)}")
    print("unit seconds = " + " ".join(f"{w:.3f}" for w in walls))
    _print_orderings(outcomes[:len(cfgs)])
    return _report({
        "samples_per_s": (sum(o.samples for o in outcomes) / sum(walls),
                          "samples/s"),
        "setup_s": (statistics.median(setup), "s"),
        "tracking_error": (statistics.median(
            o.tracking_error for o in outcomes[:len(cfgs)]), "1"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }, sum(o.cells for o in outcomes), failed, reasons)


def _untraced(name: str, cfg):
    import workloads

    t0 = time.perf_counter()
    result = workloads.run_unit(name, cfg)
    wall = time.perf_counter() - t0
    return workloads.check_unit(name, cfg, result), wall


def _layers(name: str, seed: int, started: float) -> bool:
    import tracer
    import workloads

    cfg = workloads.load_workload(name, seed, WORK)
    reference, untraced_s = _untraced(name, cfg)
    attempted, failed = reference.cells, reference.failed
    _print_orderings([reference])
    reasons = [f"untraced cell {i}: {why}"
               for i, why in sorted(reference.failures.items())]
    traces = []
    for k in range(TRACED_RUNS):
        path = WORK / f"trace-{name}-{k}.json"
        path.unlink(missing_ok=True)
        remaining = started + DEADLINE_S - time.perf_counter()
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--span-out", str(path)]
        attempted += reference.cells
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True,
                           timeout=max(1.0, remaining / (TRACED_RUNS + 1 - k)))
            with open(path) as fh:
                trace = json.load(fh)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            failed += reference.cells
            reasons.append(f"traced run {k}: {exc}")
            continue
        if trace["values"] != list(reference.values):
            failed += reference.cells
            reasons.append(f"traced run {k} changed the numbers: "
                           f"{trace['values']} vs {list(reference.values)}")
        traces.append(trace)
    # A second untraced unit after the traced ones; the overhead compares
    # the faster of each pair, as the host only ever slows a unit down.
    again, wall = _untraced(name, cfg)
    attempted += again.cells
    if again.values != reference.values:
        failed += again.cells
        reasons.append("second untraced unit is not bit-identical to the "
                       "first")
    untraced_s = min(untraced_s, wall)
    if not traces:
        return _report({}, attempted, failed, reasons)
    traced_s = min(t["wall_s"] for t in traces)
    runs = [tracer.layer_metrics(t, traced_s, untraced_s) for t in traces]
    for later in runs[1:]:
        for key in tracer.DETERMINISTIC:
            if later[key][0] != runs[0][key][0]:
                failed += reference.cells
                reasons.append(f"{key} differs between traced runs: "
                               f"{runs[0][key][0]} vs {later[key][0]}")
    print(f"untraced_s = {untraced_s:.6g} s, traced_s = {traced_s:.6g} s")
    return _report(runs[0], attempted, failed, reasons)


def _traced_child(name: str, seed: int, out: str) -> int:
    import tracer
    import workloads

    cfg = workloads.load_workload(name, seed, WORK)
    spans = tracer.Tracer()
    tracer.install(spans)
    root = spans.open(tracer.ROOT)
    result = workloads.run_unit(name, cfg)
    spans.close(root)
    outcome = workloads.check_unit(name, cfg, result)
    spans.dump(out, values=list(outcome.values),
               wall_s=(spans.end[root] - spans.start[root]) / 1e9)
    return 0


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    if not (SRC / "koopman_adapt" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}; run this from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path.insert(0, str(SRC))
    import numpy
    import koopman_adapt
    import workloads

    if Path(koopman_adapt.__file__).resolve().parent != SRC / "koopman_adapt":
        print(f"perfbench: imported koopman_adapt from "
              f"{koopman_adapt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.span_out:
        return _traced_child(args.workload, args.seed, args.span_out)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} "
          f"numpy={numpy.__version__}")
    if args.trace:
        ok = _layers(args.workload, args.seed, started)
    else:
        ok = _end_to_end(args.workload, args.seed, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
