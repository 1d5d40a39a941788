"""Command-line interface: run, benchmark, and validate scenarios.

Exit codes: 0 success, 2 configuration error, 3 unexpected singularity
guard, 4 integration failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import MIN_EVALS, benchmark_form, format_bench_table
from .dynamics import PARAMETERIZATIONS
from .errors import ConfigError
from .propagation import DERIVATIVE_FAILURES, stop_for
from .scenario import exit_code_for, load_scenario, resolve_output_dir, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2

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
        when = f"{t_end:.3f}" if abs(t_end) < 1e9 else f"{t_end:.6e}"
        line = f"{config.name} [{res.name}] -> {status} at t={when} s"
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


def _bench_json_path(json_path):
    """Where the bench JSON goes, created before any form is timed; None without a path.

    A bare file name goes into the output directory.  A file that cannot be
    created or opened for writing is a ``ConfigError``, so it costs no timing.
    """
    if not json_path:
        return None
    out = resolve_output_dir(None) / json_path if "/" not in json_path else json_path
    try:
        open(out, "a").close()
    except OSError as exc:
        raise ConfigError([f"output file: {exc}"]) from exc
    return out


def cmd_bench(args) -> int:
    config = load_scenario(args.config)
    if args.evals < MIN_EVALS:
        raise ConfigError([f"--evals must be at least {MIN_EVALS}, got {args.evals}"])
    out = _bench_json_path(args.json_path)
    rows, stops = [], {}
    for name in config.parameterizations:
        try:
            rows.append(benchmark_form(name, config, args.evals))
        except DERIVATIVE_FAILURES as exc:
            stops[name] = stop_for(exc)
    print(format_bench_table(rows))
    for name, (kind, message) in stops.items():
        print(f"{name}: {kind} ({message})")
    if out is not None:
        with open(out, "w") as fh:
            json.dump([row.__dict__ for row in rows], fh, indent=2)
        print(f"wrote {out}")
    kinds = {name: kind for name, (kind, _) in stops.items()}
    return exit_code_for(kinds, config.stop.expected_guards)


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
