"""Golden records: the sha256 digest of every file of a set of runs.

``golden.json`` beside this file holds, for each run of ``RUNS``, the digest
of its ``cycles.csv``, ``laps.csv``, ``summary.json`` and ``trajectory.csv``
(``null`` for a file the run does not write).  ``test_golden.py`` checks the
table against the runs.  A change that moves a record on purpose re-pins the
table with

    PYTHONPATH=src python tests/golden.py

which rewrites ``golden.json`` and prints each file whose digest moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable

from mhmr.scenario import BUILTIN_SCRIPT_NAMES, ScenarioRunner, TopologyEdit, builtin_script

TABLE = Path(__file__).resolve().with_name("golden.json")
FILES = ("cycles.csv", "laps.csv", "summary.json", "trajectory.csv")


def _builtin(name: str, **changes) -> Callable[[], ScenarioRunner]:
    """A run of the bundled script ``name``, with every positions row
    recorded in full-sim, and ``changes`` replaced."""

    def runner() -> ScenarioRunner:
        script = builtin_script(name)
        script = replace(script, record_trajectory=script.mode == "full-sim", **changes)
        return ScenarioRunner(script)

    return runner


def _s3_add_robot() -> ScenarioRunner:
    runner = ScenarioRunner(builtin_script("s3"))
    runner.run_until(10.0)
    runner.apply_topology_edit(TopologyEdit("add_robot", 11))
    return runner


#: Run name -> a runner set up (and possibly part run) for it.
RUNS: dict[str, Callable[[], ScenarioRunner]] = {
    **{name: _builtin(name) for name in BUILTIN_SCRIPT_NAMES},
    "s1_no_allocation": _builtin("s1", allocation_enabled=False),
    "s3_add_robot_10s": _s3_add_robot,
}


def digests() -> dict[str, dict[str, str | None]]:
    """Run name -> file name -> sha256 of the file, ``None`` if not written."""
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, runner in RUNS.items():
            outdir = runner().run().write(Path(tmp) / name)
            table[name] = {file: _digest(outdir / file) for file in FILES}
    return table


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def moved(pinned: dict, current: dict) -> list[str]:
    """``run/file`` of every entry whose digest differs between the tables,
    or that only one of them has."""
    return [
        f"{name}/{file}"
        for name in sorted(pinned.keys() | current.keys())
        for file in FILES
        if pinned.get(name, {}).get(file, "missing") != current.get(name, {}).get(file, "missing")
    ]


def main() -> int:
    current = digests()
    pinned = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    TABLE.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    changed = moved(pinned, current)
    for entry in changed:
        print(f"moved {entry}")
    print(f"{TABLE.name}: {len(changed)} of {len(RUNS) * len(FILES)} entries moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
