"""Golden records: the sha256 digest of every file of a set of runs.

``golden.json`` beside this file holds, for each run of ``RUNS``, the digest
of its ``cycles.csv``, ``laps.csv``, ``summary.json`` and ``trajectory.csv``
(``null`` for a file the run does not write), and the run's ``frozen_frac``,
convergence time and ``max_t_l`` under ``stats``.  ``test_golden.py`` checks
the digests against the runs.  A change that moves a record on purpose
re-pins the table with

    PYTHONPATH=src python tests/golden.py

which rewrites ``golden.json`` and prints each file whose digest moved, and
the stats before and after of each run that moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

from mhmr.scenario import (
    BUILTIN_SCRIPT_NAMES,
    RunRecord,
    ScenarioRunner,
    ScenarioScript,
    TopologyEdit,
    builtin_script,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import patrol_script  # noqa: E402

TABLE = Path(__file__).resolve().with_name("golden.json")
FILES = ("cycles.csv", "laps.csv", "summary.json", "trajectory.csv")
STATS = ("frozen_frac", "convergence_time_s", "max_t_l")

#: The topology edits of ``test_scenario.TestRegionsFollowShares``, made at 100 s.
EDITS = {
    "add_robot": TopologyEdit("add_robot", 4, (2,), (5.0, 5.0)),
    "remove_robot": TopologyEdit("remove_robot", 3),
}


def _builtin(name: str, **changes) -> Callable[[Path], ScenarioRunner]:
    """A run of the bundled script ``name``, with every positions row
    recorded in full-sim, and ``changes`` replaced."""

    def runner(workdir: Path) -> ScenarioRunner:
        script = builtin_script(name)
        script = replace(script, record_trajectory=script.mode == "full-sim", **changes)
        return ScenarioRunner(script)

    return runner


def _s3_add_robot(workdir: Path) -> ScenarioRunner:
    runner = ScenarioRunner(builtin_script("s3"))
    runner.run_until(10.0)
    runner.apply_topology_edit(TopologyEdit("add_robot", 11))
    return runner


def _edited(name: str, edit: TopologyEdit) -> Callable[[Path], ScenarioRunner]:
    """The first 250 s of ``name``, with trajectories, and ``edit`` at 100 s."""

    def runner(workdir: Path) -> ScenarioRunner:
        script = builtin_script(name)
        events = tuple(ev for ev in script.events if ev.time_s <= 250.0)
        script = replace(script, duration_s=250.0, events=events, record_trajectory=True)
        runner = ScenarioRunner(script)
        runner.run_until(100.0)
        runner.apply_topology_edit(edit)
        return runner

    return runner


def _patrol(m: int) -> Callable[[Path], ScenarioRunner]:
    """The benchmark's seed-0 full-sim patrol of ``m`` robots over 60 s,
    with trajectories; its trace files are written to ``workdir``."""

    def runner(workdir: Path) -> ScenarioRunner:
        trace_dir = workdir / f"patrol_m{m}_traces"
        trace_dir.mkdir()
        data = {**patrol_script(m, 0, 60.0, trace_dir), "record_trajectory": True}
        return ScenarioRunner(ScenarioScript.from_dict(data), base_dir=trace_dir)

    return runner


#: Run name -> a runner set up (and possibly part run) for it, given a
#: scratch directory.
RUNS: dict[str, Callable[[Path], ScenarioRunner]] = {
    **{name: _builtin(name) for name in BUILTIN_SCRIPT_NAMES},
    "s1_no_allocation": _builtin("s1", allocation_enabled=False),
    "s3_add_robot_10s": _s3_add_robot,
    **{
        f"{name}_{kind}_250s": _edited(name, edit)
        for name in ("s1", "s2")
        for kind, edit in EDITS.items()
    },
    "patrol_m10_60s": _patrol(10),
    "patrol_m100_60s": _patrol(100),
}


def digests() -> dict[str, dict[str, Any]]:
    """Run name -> file name -> sha256 of the file, ``None`` if not written,
    and ``stats`` -> the run's :data:`STATS`."""
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, runner in RUNS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            record = runner(workdir).run()
            outdir = record.write(workdir / "out")
            table[name] = {file: _digest(outdir / file) for file in FILES}
            table[name]["stats"] = _stats(record)
    return table


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _stats(record: RunRecord) -> dict[str, Any]:
    """The share of allocation cycles frozen by ``q_f == 0`` (``None``
    without allocation), the convergence time and ``max_t_l``."""
    summary = record.summary
    frozen = None
    if summary["allocation_enabled"]:
        frozen = sum(row.q_f == 0.0 for row in record.cycles) / len(record.cycles)
    return {
        "frozen_frac": frozen,
        "convergence_time_s": summary["convergence_time_s"],
        "max_t_l": summary["max_t_l"],
    }


def moved(pinned: dict, current: dict) -> list[str]:
    """``run/file`` of every entry whose digest differs between the tables,
    or that only one of them has."""
    return [
        f"{name}/{file}"
        for name in sorted(pinned.keys() | current.keys())
        for file in FILES
        if pinned.get(name, {}).get(file, "missing") != current.get(name, {}).get(file, "missing")
    ]


def report(pinned: dict, current: dict) -> list[str]:
    """A line for each file whose digest moved, one with the stats before
    and after for each run that moved, and a count."""
    changed = moved(pinned, current)
    lines = [f"moved {entry}" for entry in changed]
    for name in sorted({entry.partition("/")[0] for entry in changed}):
        before = pinned.get(name, {}).get("stats", {})
        after = current.get(name, {}).get("stats", {})
        lines.append(f"{name}: " + ", ".join(
            f"{stat} {before.get(stat, 'missing')} -> {after.get(stat, 'missing')}" for stat in STATS
        ))
    lines.append(f"{TABLE.name}: {len(changed)} of {len(RUNS) * len(FILES)} entries moved")
    return lines


def main() -> int:
    current = digests()
    pinned = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    TABLE.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    print("\n".join(report(pinned, current)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
