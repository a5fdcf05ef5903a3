"""Timed runs of scenarios through the program's public calls, with the
correctness gate applied to every record.

A scenario is set up with ``ScenarioScript.from_dict`` and
``ScenarioRunner(...)``, advanced with one ``run_until`` call per cycle
period, finished with ``run()`` and written with ``RunRecord.write``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from mhmr import cli
from mhmr.scenario import ScenarioRunner, ScenarioScript

from workloads import Scenario

#: Shares of one cycle must sum to one within this (``math.fsum``).
SHARE_SUM_TOL = 1e-9

#: Record files whose bytes define a run's output.
RECORD_FILES = ("cycles.csv", "laps.csv", "summary.json")

#: The verdict line each ``mhmr demo`` must print.
DEMO_PASS_LINES = {
    "s1": "t_l_with_le_without=PASS",
    "s2": "sigma_r3_reallocated=PASS",
    "s3": "equilibrium_match=PASS",
    "s4": "sigma_r3_zero=PASS",
}


@dataclass
class ScenarioResult:
    label: str
    setup_s: float = 0.0
    #: Wall time of the ``run_until`` steps plus ``finalize_s``.
    run_s: float = 0.0
    sim_s: float = 0.0
    #: Wall time of each ``run_until`` step of one cycle period.
    cycle_s: list[float] = field(default_factory=list)
    #: Wall time of the closing ``run()`` call (the run summary).
    finalize_s: float = 0.0
    #: Wall time of each ``RunRecord.write`` of the record.
    write_s: list[float] = field(default_factory=list)
    #: Exact work counts; must repeat across passes.
    counts: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    #: Why the run failed the correctness gate; empty when it passed.
    problems: list[str] = field(default_factory=list)


def check_record(scenario: Scenario, runner: ScenarioRunner, record) -> list[str]:
    """The correctness gate for one finished run."""
    problems = []
    script = runner.script
    for row in record.cycles:
        for label, shares in (("sigma", row.sigma), ("sigma_proposed", row.sigma_proposed)):
            if any(not (0.0 <= s <= 1.0) for s in shares):
                problems.append(f"cycle {row.cycle}: {label} outside [0, 1]")
            elif abs(math.fsum(shares) - 1.0) > SHARE_SUM_TOL:
                problems.append(f"cycle {row.cycle}: {label} sums to {math.fsum(shares)!r}")
    # Cycles fire at t = 0, tau, ..., duration_s.
    expected = int(round(script.duration_s / script.params.tau)) + 1
    if record.summary.get("num_cycles") != expected or len(record.cycles) != expected:
        problems.append(
            f"num_cycles {record.summary.get('num_cycles')} ({len(record.cycles)} rows), "
            f"expected duration_s/tau + 1 = {expected}"
        )
    for idx in scenario.final_zero:
        share = record.summary["final_sigma"][idx]
        if share != 0.0:
            problems.append(f"final sigma_r{idx + 1} = {share!r}, expected exactly 0.0")
    return problems[:5]


def file_digests(outdir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in RECORD_FILES}


def run_scenario(scenario: Scenario, outdir: Path, writes: int = 1) -> ScenarioResult:
    """Set up, run and write one scenario (``writes`` times, to the same
    files), timing each part, then check it."""
    result = ScenarioResult(scenario.label)
    try:
        clock = time.perf_counter
        t0 = clock()
        script = ScenarioScript.from_dict(scenario.data)
        runner = ScenarioRunner(script, base_dir=scenario.base_dir)
        t1 = clock()
        tau = script.params.tau
        cycle_s = result.cycle_s
        for k in range(int(round(script.duration_s / tau)) + 1):
            start = clock()
            runner.run_until(k * tau)
            cycle_s.append(clock() - start)
        start = clock()
        record = runner.run()
        t2 = clock()
        for _ in range(writes):
            start_write = clock()
            record.write(outdir)
            result.write_s.append(clock() - start_write)
        result.setup_s, result.run_s, result.finalize_s = t1 - t0, t2 - t1, t2 - start
        result.sim_s = script.duration_s
        allocating = script.allocation_enabled
        result.counts = {
            "cycles": len(record.cycles),
            "allocation_cycles": len(record.cycles) if allocating else 0,
            "frozen_cycles": sum(1 for r in record.cycles if allocating and r.q_f == 0.0),
            "no_capable_cycles": sum(1 for r in record.cycles if r.note),
            "robot_steps": runner.n_steps * len(runner.robots),
            "laps": len(record.laps),
            "bytes": sum(p.stat().st_size for p in outdir.iterdir() if p.is_file()),
        }
        result.digests = file_digests(outdir)
        result.problems = check_record(scenario, runner, record)
    except Exception:
        result.problems = ["raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]]
    return result


def time_setups(scenarios: list[Scenario], repeats: int) -> list[float]:
    """Set-up seconds of the whole workload (script to constructed runner),
    once per repeat."""
    samples = []
    for _ in range(repeats):
        total = 0.0
        for sc in scenarios:
            start = time.perf_counter()
            ScenarioRunner(ScenarioScript.from_dict(sc.data), base_dir=sc.base_dir)
            total += time.perf_counter() - start
        samples.append(total)
    return samples


@dataclass
class DemoResult:
    name: str
    wall_s: float
    stdout: str
    digests: dict[str, str]
    bytes: int
    problem: Optional[str]


def run_cli_demo(name: str, outdir: Path) -> DemoResult:
    """``mhmr demo <name> --out <outdir>`` in-process; checks its PASS line."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["demo", name, "--out", str(outdir)])
    except Exception:
        code = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    wall = time.perf_counter() - start
    out = buf.getvalue()
    problem = None
    if code != 0:
        problem = f"mhmr demo {name} exited {code}"
    elif DEMO_PASS_LINES[name] not in out.splitlines():
        problem = f"mhmr demo {name} did not print {DEMO_PASS_LINES[name]}"
    if problem is not None:
        return DemoResult(name, wall, out, {}, 0, problem)
    written = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    return DemoResult(name, wall, out, file_digests(outdir), written, None)


@dataclass
class Pass:
    """One run of each scenario of a workload, then each ``mhmr demo``."""

    results: list[ScenarioResult]
    demos: list[DemoResult]

    @property
    def sim_rate(self) -> float:
        """Simulated seconds per wall second of running (set-up and writing
        excluded)."""
        return sum(r.sim_s for r in self.results) / sum(r.run_s for r in self.results)

    @property
    def wall_s(self) -> float:
        """Wall time of the program calls, as timed around them."""
        return sum(r.setup_s + r.run_s + sum(r.write_s) for r in self.results) + sum(
            d.wall_s for d in self.demos
        )

    def totals(self) -> dict[str, int]:
        """Work counts summed over the scenarios, plus demo output bytes."""
        out = {"bytes": sum(d.bytes for d in self.demos)}
        for res in self.results:
            for key, value in res.counts.items():
                out[key] = out.get(key, 0) + value
        return out

    def digests(self) -> dict[str, dict[str, str]]:
        out = {r.label: r.digests for r in self.results}
        out.update({f"cli_{d.name}": d.digests for d in self.demos})
        return out


def run_pass(
    scenarios: list[Scenario], cli_demos: tuple[str, ...], outroot: Path, writes: int = 1
) -> Pass:
    """Outputs go under ``outroot``; a later pass overwrites them."""
    return Pass(
        [run_scenario(sc, outroot / sc.label, writes) for sc in scenarios],
        [run_cli_demo(name, outroot / f"cli_{name}") for name in cli_demos],
    )
