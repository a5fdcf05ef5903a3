"""Command-line front end.

Subcommands: ``run`` a scenario script, ``sweep`` over K or m, ``validate``
a script file, and ``demo`` the bundled scenarios.  Machine-parseable
``key=value`` summary lines go to stdout; diagnostics go to stderr.

Exit codes: 0 success, 1 validation/usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import MhmrError, ConfigurationError
from .scenario import (
    BUILTIN_SCRIPT_NAMES,
    RunRecord,
    ScenarioRunner,
    ScenarioScript,
    builtin_script,
    run_scenario,
    sweep_scripts,
    sweep_summary_rows,
)

OUTPUT_ROOT_ENV = "MHMR_OUTPUT_ROOT"


def _default_out(name: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV, "mhmr_out")
    return Path(root) / name


def _apply_overrides(script: ScenarioScript, overrides: list[str]) -> ScenarioScript:
    """``section.key=value`` edits applied to the script dictionary.

    Overriding is equivalent to editing the script file; unknown keys are
    rejected by name.
    """
    data = script.to_dict()
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigurationError(f"override {item!r} is not key=value")
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigurationError(f"override references unknown field {key!r}")
            node = node[part]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigurationError(f"override references unknown field {key!r}")
        try:
            node[leaf] = json.loads(raw)
        except json.JSONDecodeError:
            node[leaf] = raw
    return ScenarioScript.from_dict(data)


def _load_script(args) -> ScenarioScript:
    path = Path(args.script)
    if not path.exists():
        raise ConfigurationError(f"script file not found: {path}")
    script = ScenarioScript.from_json(path)
    if getattr(args, "override", None):
        script = _apply_overrides(script, args.override)
    if getattr(args, "trajectory", False):
        script = replace(script, record_trajectory=True)
    return script


def _emit_summary(record: RunRecord) -> None:
    s = record.summary
    print(f"name={s['name']}")
    print(f"m={s['m']}")
    print(f"converged={str(s['converged']).lower()}")
    print(f"convergence_time_s={_scalar(s['convergence_time_s'])}")
    print(f"total_initial_error={_scalar(s['total_initial_error'])}")
    print(f"final_sigma={','.join(format(v, '.9g') for v in s['final_sigma'])}")
    print(f"max_t_l={_scalar(s['max_t_l'])}")


def _scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _cmd_run(args) -> int:
    script = _load_script(args)
    record = run_scenario(script, base_dir=Path(args.script).parent)
    outdir = Path(args.out) if args.out else _default_out(script.name)
    record.write(outdir)
    print(f"out={outdir}")
    _emit_summary(record)
    return 0


def _cmd_validate(args) -> int:
    script = _load_script(args)
    # Set up as ``run`` does, so that trace files are read and checked too.
    ScenarioRunner(script, base_dir=Path(args.script).parent)
    print(f"name={script.name}")
    print("valid=true")
    return 0


def _run_sweep_worker(data: dict, base_dir: Path) -> RunRecord:
    return run_scenario(ScenarioScript.from_dict(data), base_dir=base_dir)


def _sweep_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigurationError(f"sweep value {text.strip()!r} is not a finite number")
    return value


def _cmd_sweep(args) -> int:
    script = _load_script(args)
    values = [_sweep_value(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigurationError("no sweep values given")
    outroot = Path(args.out) if args.out else _default_out(f"{script.name}_sweep_{args.axis}")

    scripts = sweep_scripts(script, args.axis, values)
    base_dir = Path(args.script).parent
    # A process pool may start all its workers at once, so start no idle ones.
    jobs = max(1, min(args.jobs, len(scripts)))
    if jobs > 1:
        # Runs are independent and deterministic, so parallel execution
        # gives the same records as the sequential path.
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(
                pool.map(
                    _run_sweep_worker,
                    [s.to_dict() for s in scripts],
                    [base_dir] * len(scripts),
                )
            )
    else:
        records = [run_scenario(s, base_dir=base_dir) for s in scripts]
    for record in records:
        record.write(outroot / record.summary["name"])

    rows = sweep_summary_rows(args.axis, values, records)
    outroot.mkdir(parents=True, exist_ok=True)
    with open(outroot / "sweep_summary.csv", "w", newline="") as fh:
        fh.write(
            f"{args.axis},converged,convergence_time_s,total_initial_error,"
            "final_transition_error\n"
        )
        for row in rows:
            fh.write(
                f"{_scalar(row[args.axis])},{str(row['converged']).lower()},"
                f"{_scalar(row['convergence_time_s'])},"
                f"{_scalar(row['total_initial_error'])},"
                f"{_scalar(row['final_transition_error'])}\n"
            )
    print(f"out={outroot}")
    for row in rows:
        print(
            f"sweep_{args.axis}={_scalar(row[args.axis])} "
            f"convergence_time_s={_scalar(row['convergence_time_s'])}"
        )
    return 0


def _cmd_demo(args) -> int:
    name = args.name.lower()
    script = builtin_script(name)
    if name == "s1":
        # Paired runs: the headline claim is that allocation keeps the
        # system lap time at or below the no-allocation baseline.
        with_alloc = run_scenario(script)
        without = run_scenario(replace(script, allocation_enabled=False))
        t_with = with_alloc.summary["max_t_l"]
        t_without = without.summary["max_t_l"]
        verdict = "PASS" if t_with is not None and t_with <= t_without else "FAIL"
        _emit_summary(with_alloc)
        print(f"max_t_l_without_allocation={_scalar(t_without)}")
        print(f"t_l_with_le_without={verdict}")
        record = with_alloc
    else:
        record = run_scenario(script)
        _emit_summary(record)
        if name == "s4":
            sigma3 = record.summary["final_sigma"][2]
            print(f"sigma_r3_zero={'PASS' if sigma3 == 0.0 else 'FAIL'}")
        if name == "s2":
            # Full coverage despite the failure: survivors absorb the
            # failed robot's area while the total stays at one.
            sigma3 = record.summary["final_sigma"][2]
            print(f"sigma_r3_final={_scalar(sigma3)}")
            print(f"sigma_r3_reallocated={'PASS' if sigma3 < 0.01 else 'FAIL'}")
        if name == "s3":
            final = record.summary["final_sigma"]
            target = record.summary["final_sigma_proposed"]
            err = max(abs(a - b) for a, b in zip(final, target))
            print(f"equilibrium_match={'PASS' if err < 1e-6 else 'FAIL'}")
    if args.out:
        record.write(Path(args.out))
        print(f"out={args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhmr",
        description="Adaptive multi-human multi-robot workload allocation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario script")
    run_p.add_argument("--script", required=True, help="path to a scenario JSON file")
    run_p.add_argument("--out", help="output directory (default under $%s)" % OUTPUT_ROOT_ENV)
    run_p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a script field, e.g. params.K=10",
    )
    run_p.add_argument("--trajectory", action="store_true", help="record decimated trajectories")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="validate a scenario script")
    val_p.add_argument("--script", required=True)
    val_p.set_defaults(func=_cmd_validate)

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep over K or m")
    sweep_p.add_argument("--script", required=True)
    sweep_p.add_argument("--axis", required=True, choices=("K", "m"))
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--out")
    sweep_p.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE"
    )
    sweep_p.add_argument(
        "--jobs", type=int, default=1, help="worker processes running the sweep's scenarios"
    )
    sweep_p.set_defaults(func=_cmd_sweep)

    demo_p = sub.add_parser("demo", help="run a bundled scenario")
    demo_p.add_argument("name", choices=BUILTIN_SCRIPT_NAMES)
    demo_p.add_argument("--out")
    demo_p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MhmrError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
