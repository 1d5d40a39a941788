"""Command-line interface: run, benchmark, and validate scenarios.

Exit codes: 0 success, 2 configuration error, 3 unexpected singularity
guard, 4 integration failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import benchmark_derivatives, format_bench_table
from .dynamics import PARAMETERIZATIONS
from .errors import ConfigError
from .scenario import load_scenario, resolve_output_dir, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_INTEGRATION = 4

_PARAM_CHOICES = list(PARAMETERIZATIONS) + ["all"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatflight",
        description=(
            "Propagate 3DOF point-mass flight over a rotating central body in "
            "singularity-free quaternion parameterizations (plus spherical and "
            "Cartesian baselines)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="propagate a scenario and write CSV trajectories")
    run.add_argument("config", help="scenario YAML file")
    run.add_argument(
        "--param",
        action="append",
        choices=_PARAM_CHOICES,
        help="parameterization(s) to run (default: the scenario's list)",
    )
    run.add_argument("--out", help="output directory (default: $QUATFLIGHT_OUTPUT_DIR or .)")
    run.add_argument(
        "--compare",
        action="store_true",
        help="also write a cross-parameterization comparison report",
    )

    bench = sub.add_parser("bench", help="time derivative evaluations per parameterization")
    bench.add_argument("config", help="scenario YAML file")
    bench.add_argument("--evals", type=int, default=1_000_000, help="evaluations per parameterization")
    bench.add_argument("--json", dest="json_path", help="also write the table as JSON")

    val = sub.add_parser("validate", help="check a scenario file and print a summary")
    val.add_argument("config", help="scenario YAML file")
    return parser


def _selected_params(args):
    if not args.param or "all" in args.param:
        return None if not args.param else tuple(PARAMETERIZATIONS)
    return tuple(dict.fromkeys(args.param))


def cmd_run(args) -> int:
    config = load_scenario(args.config)
    results, report, exit_code = run_scenario(
        config, params=_selected_params(args), outdir=args.out, compare=args.compare
    )
    for res in results:
        status = res.event.kind
        if res.guard_tripped and res.name in config.stop.expected_guards:
            status += " (expected)"
        t_end = res.event.t_event
        line = f"{config.name} [{res.name}] -> {status} at t={t_end:.3f} s"
        if res.event.message:
            line += f" ({res.event.message})"
        if res.csv_path:
            line += f" -> {res.csv_path}"
        print(line)
    if report is not None:
        worst = {
            key: max(errs[0]) if errs[0] else float("nan")
            for key, errs in report.pair_errors.items()
        }
        for key, err in sorted(worst.items()):
            print(f"max position difference {key}: {err:.6e} m")
    return exit_code


def cmd_bench(args) -> int:
    config = load_scenario(args.config)
    try:
        rows = benchmark_derivatives(config, args.evals)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(format_bench_table(rows))
    if args.json_path:
        payload = [row.__dict__ for row in rows]
        out = resolve_output_dir(None) / args.json_path if "/" not in args.json_path else args.json_path
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    config = load_scenario(args.config)
    print(f"{config.name}: valid")
    print(f"  initial state: {config.initial_state.kind}")
    print(f"  parameterizations: {', '.join(config.parameterizations)}")
    print(f"  bank mode: {config.controls.bank_mode}")
    print(f"  integrator: {config.integrator.method}")
    stop = f"t_final={config.stop.t_final:g} s"
    if config.stop.radius is not None:
        stop += f", radius={config.stop.radius:g} m"
    print(f"  stop: {stop}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"run": cmd_run, "bench": cmd_bench, "validate": cmd_validate}[args.command]
    try:
        code = command(args)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        code = EXIT_CONFIG
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
