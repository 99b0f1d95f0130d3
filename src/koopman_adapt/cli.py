"""Command-line harness.

Subcommands:
    simulate <config>  one closed-loop run; writes the trace CSV
    compare <config>   four-variant sweep (the with-changes half only when
                       a change acts within the run); writes the summary CSV
                       and prints the comparison table
    oracle <name>      run a named verification oracle

``<config>`` is a config file path or the literal ``default-config`` for
the built-in scenario. Exit codes: 0 success, 1 configuration error,
2 numerical abort.
"""

import argparse
import sys

from .config import ExperimentConfig, load_config_file
from .errors import ConfigError, KoopmanAdaptError, NumericalError
from .harness import (
    compute_metric,
    default_config,
    format_comparison_table,
    normalized_error,
    run_closed_loop,
    run_comparison,
    write_summary_csv,
    write_trace_csv,
)
from .oracles import ORACLES

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def _resolve_config(spec: str) -> ExperimentConfig:
    if spec == "default-config":
        return default_config()
    return load_config_file(spec)


def _cmd_simulate(args) -> int:
    cfg = _resolve_config(args.config)
    result = run_closed_loop(cfg)
    if result.records:
        write_trace_csv(args.out, result.records)
    if result.aborted:
        print(f"run aborted after {len(result.records)} samples: "
              f"{result.reason}", file=sys.stderr)
        print(f"partial trace -> {args.out}", file=sys.stderr)
        return EXIT_NUMERICAL
    metric = compute_metric(result.records)
    print(f"{len(result.records)} samples, final cumulated error "
          f"{metric:.6g} (normalized {normalized_error(result.records):.6g})"
          f" -> {args.out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _resolve_config(args.config)
    comparison = run_comparison(cfg)
    write_summary_csv(args.out, comparison)
    print(format_comparison_table(comparison))
    print(f"summary -> {args.out}")
    failed = [c for c in comparison.cells if not c.ok]
    if failed:
        for c in failed:
            print(f"cell ({c.variant}, changes={c.with_changes}, "
                  f"speed={c.speed}) failed: {c.status}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_oracle(args) -> int:
    try:
        oracle = ORACLES[args.name]
    except KeyError:
        print(f"unknown oracle {args.name!r}; available: "
              f"{', '.join(sorted(ORACLES))}", file=sys.stderr)
        return EXIT_CONFIG
    err = oracle()
    print(f"oracle {args.name}: max relative error {err:.3e}")
    return EXIT_OK if err < 1e-8 else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopman-adapt",
        description="Recursive Koopman identification with an adaptive "
                    "MPC + Kalman loop: simulate, compare, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="single closed-loop run")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default="trace.csv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="four-variant comparison sweep")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--out", default="summary.csv")
    p_cmp.set_defaults(func=_cmd_compare)

    p_orc = sub.add_parser("oracle", help="run a named verification oracle")
    p_orc.add_argument("name")
    p_orc.set_defaults(func=_cmd_oracle)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except KoopmanAdaptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
