"""Command-line front end.

Subcommands: ``run`` a scenario script, ``sweep`` over K or m, ``validate``
a script file, and ``demo`` the bundled scenarios.  Machine-parseable
``key=value`` lines go to stdout, all through :func:`_emit` and its one
value formatter; the summary, sweep-summary and demo verdict keys are listed
once each, in ``SUMMARY_KEYS``, ``SWEEP_KEYS`` and ``DEMO_LINES``.  Error
lines go to stderr.

Exit codes: 0 success, 1 validation/usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from .errors import MhmrError, ConfigurationError
from .scenario import (
    BUILTIN_SCRIPT_NAMES,
    SWEEP_AXES,
    ScenarioRunner,
    ScenarioScript,
    builtin_script,
    run_scenario,
    sweep_scripts,
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


# The ``run`` and ``demo`` summary lines, one key each, in this order.
SUMMARY_KEYS = (
    "name", "m", "converged", "convergence_time_s", "total_initial_error", "final_sigma", "max_t_l"
)
# The columns of ``sweep_summary.csv`` after the swept value.
SWEEP_KEYS = ("converged", "convergence_time_s", "total_initial_error", "final_transition_error")


def _format(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, list):
        return ",".join(format(v, ".9g") for v in value)
    return str(value)


#: What :func:`_emit` percent-encodes in a value: whitespace, which would
#: split the field, and ``%`` itself.
_ESCAPED = re.compile(r"[\s%]")


def _percent(match: re.Match) -> str:
    """``%XX`` of each UTF-8 byte of the matched character."""
    return "".join(f"%{byte:02X}" for byte in match.group().encode())


def _emit(*fields: tuple[str, object]) -> None:
    """Write one stdout line of ``key=value`` fields, each value
    percent-encoded where :data:`_ESCAPED` says."""
    print(" ".join(f"{key}={_ESCAPED.sub(_percent, _format(value))}" for key, value in fields))


def _cmd_run(args) -> int:
    script = _load_script(args)
    record = run_scenario(script, base_dir=Path(args.script).parent)
    outdir = Path(args.out) if args.out else _default_out(script.name)
    record.write(outdir)
    _emit(("out", outdir))
    for key in SUMMARY_KEYS:
        _emit((key, record.summary[key]))
    return 0


def _cmd_validate(args) -> int:
    script = _load_script(args)
    # Set up as ``run`` does, so that trace files are read and checked too.
    ScenarioRunner(script, base_dir=Path(args.script).parent)
    _emit(("name", script.name))
    _emit(("valid", True))
    return 0


def _sweep_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigurationError(f"sweep value {text.strip()!r} is not a finite number")
    return value


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
    script = _load_script(args)
    values = [_sweep_value(v) for v in args.values.split(",") if v.strip()]
    outroot = Path(args.out) if args.out else _default_out(f"{script.name}_sweep_{args.axis}")

    scripts = sweep_scripts(script, args.axis, values)
    base_dirs = [Path(args.script).parent] * len(scripts)
    # A process pool may start all its workers at once, so start no idle ones.
    jobs = min(args.jobs, len(scripts))
    if jobs > 1:
        # A checked script pickles whole, so the workers run the very scripts
        # that ``sweep_scripts`` returned, as the sequential path does.
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run_scenario, scripts, base_dirs))
    else:
        records = list(map(run_scenario, scripts, base_dirs))
    for record in records:
        record.write(outroot / record.summary["name"])

    outroot.mkdir(parents=True, exist_ok=True)
    with open(outroot / "sweep_summary.csv", "w", newline="") as fh:
        fh.write(",".join((args.axis, *SWEEP_KEYS)) + "\n")
        for value, record in zip(values, records):
            row = (value, *(record.summary[key] for key in SWEEP_KEYS))
            fh.write(",".join(map(_format, row)) + "\n")
    _emit(("out", outroot))
    for value, record in zip(values, records):
        time_s = record.summary["convergence_time_s"]
        _emit((f"sweep_{args.axis}", value), ("convergence_time_s", time_s))
    return 0


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


# The lines each demo prints after its summary, one field each: a key and its
# value from the demo's summary ``s`` and, for s1 alone, the summary ``w`` of
# its paired no-allocation run.
DEMO_LINES = {
    "s1": (
        ("max_t_l_without_allocation", lambda s, w: w["max_t_l"]),
        (
            "t_l_with_le_without",
            lambda s, w: _verdict(s["max_t_l"] is not None and s["max_t_l"] <= w["max_t_l"]),
        ),
    ),
    # Full coverage despite the failure: survivors absorb the failed robot's
    # area while the total stays at one.
    "s2": (
        ("sigma_r3_final", lambda s, w: s["final_sigma"][2]),
        ("sigma_r3_reallocated", lambda s, w: _verdict(s["final_sigma"][2] < 0.01)),
    ),
    "s3": (
        (
            "equilibrium_match",
            lambda s, w: _verdict(
                max(abs(a - b) for a, b in zip(s["final_sigma"], s["final_sigma_proposed"])) < 1e-6
            ),
        ),
    ),
    "s4": (("sigma_r3_zero", lambda s, w: _verdict(s["final_sigma"][2] == 0.0)),),
}


def _cmd_demo(args) -> int:
    script = builtin_script(args.name)
    record = run_scenario(script)
    without = None
    if args.name == "s1":
        # Paired runs: the headline claim is that allocation keeps the
        # system lap time at or below the no-allocation baseline.
        without = run_scenario(replace(script, allocation_enabled=False)).summary
    for key in SUMMARY_KEYS:
        _emit((key, record.summary[key]))
    for key, value in DEMO_LINES[args.name]:
        _emit((key, value(record.summary, without)))
    if args.out:
        record.write(Path(args.out))
        _emit(("out", args.out))
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
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
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
    except (MhmrError, OSError) as exc:
        # Bad input (exit 1) or a fault while running a valid script (exit 2).
        runtime = isinstance(exc, MhmrError) and not isinstance(exc, ConfigurationError)
        print(f"{'runtime error' if runtime else 'error'}: {exc}", file=sys.stderr)
        return 2 if runtime else 1


if __name__ == "__main__":
    sys.exit(main())
