#!/usr/bin/env python3
"""Layered benchmark of quatflight, run from the root of a source checkout.

    python3 perfbench/run.py --workload entry_compare --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout.  Every input is
generated from ``--seed``.  With ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json`` are measured with no instrumentation beyond one wrapper
per form-propagation; with ``--trace 1`` the per-layer metrics come from a
traced run, which also times untraced units of the same inputs to report
the tracing overhead.  Human-readable lines go first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_program():
    """Import quatflight from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import quatflight

    where = Path(quatflight.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"quatflight imported from {where}, not from {SRC}")
    return quatflight


def run(workload: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Measure one workload; return the result object the last line prints."""
    import numpy

    import quatflight
    import tracing
    import workloads

    if workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir = OUT / f"work-{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[workload](seed, workdir, size or workloads.Size())
        m = w.measure(seconds, trace, SRC)
        samples = w.derivative_samples() if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"perfbench {workload} seed={seed} trace={int(trace)} iterations={m['iterations']} "
        f"python {sys.version.split()[0]} numpy {numpy.__version__} quatflight {quatflight.__version__}"
    )
    if trace:
        traced = [end - start for start, end in m["traced"]]
        metrics = tracing.layer_metrics(
            w.tracer,
            traced,
            [end - start for start, end in m["untraced"]],
            samples,
            w.evals_to_accuracy(),
            w.size.rhs_calls,
        )
        problems = tracing.self_time_problems(w.tracer.self_times(), sum(traced))
        if problems:
            raise RuntimeError("; ".join(problems))
        notes = {}
        total = sum(metrics[f"self_s.{layer}"] for layer in tracing.LAYERS)
        for layer in tracing.LAYERS:
            notes[f"self_s.{layer}"] = f"{metrics[f'self_s.{layer}'] / total:6.1%} of traced unit"
        trace_path = OUT / f"trace-{workload}-{seed}.json"
        w.tracer.write(trace_path, metrics)
        print(
            f"  spans in {trace_path.relative_to(ROOT)}; layer self times add up to the traced unit time, "
            "none negative"
        )
    else:
        metrics, notes = w.end_to_end(m)

    declared = declared_metrics(trace)
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: extra {sorted(set(metrics) - set(declared))}, "
            f"missing {sorted(set(declared) - set(metrics))}"
        )
    tally = w.tally
    for name in declared:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {metrics[name]:>14.6g} {declared[name]}{note}")
    print(f"  form-propagations: attempted {tally.attempted}, failed {tally.failed}, "
          f"stopped early {tally.stopped} (fail_ratio {1.0 - tally.ok_ratio():.4f}), wrong outputs {tally.wrong}")
    for kind, (count, example) in tally.kinds.items():
        print(f"    {count} x {kind}; first: {example}")
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
