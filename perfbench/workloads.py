"""Seeded inputs for the benchmark workloads.

A workload is a list of scenarios.  A scenario is a script dictionary for
``ScenarioScript.from_dict`` plus the directory its trace files are read
from.  The same seed always gives the same dictionaries and files; the
program only ever sees these generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from mhmr.scenario import builtin_script

TAU = 0.5
SIM_DT = 0.05


@dataclass(frozen=True)
class Scenario:
    """One script to set up, run cycle by cycle and write."""

    label: str
    data: dict[str, Any]
    base_dir: Optional[Path] = None
    #: Robot indices whose final share must be exactly 0.0.
    final_zero: tuple[int, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload exists; mirrored in BENCHMARK.json.
    why: str
    #: ``build(seed, workdir, smoke)`` writes any input files under
    #: ``workdir`` and returns the scenarios in run order.
    build: Callable[[int, Path, bool], list[Scenario]]
    #: Whether the scripts depend on the seed (the demo scripts do not).
    seeded: bool = True
    #: ``mhmr demo`` names whose PASS line the workload checks.
    cli_demos: tuple[str, ...] = ()


def _event(time_s: float, target: str, metric: str, profile: dict) -> dict:
    return {"time_s": time_s, "target": target, "metric": metric, "profile": profile}


def _operators(m: int) -> list[int]:
    """Operator ids of the ``alternating`` pattern: one per odd robot."""
    return [i for i in range(1, m + 1) if i % 2 == 1]


def alloc_script(m: int, seed: int, duration_s: float) -> dict[str, Any]:
    """Scaled s3: allocation-only, alternating topology, with step and ramp
    degradations of about 10 % of the agents spread over the run.

    Degraded values stay in [0.3, 0.95], so no cycle is left without a
    capable agent and no region goes empty.
    """
    rng = random.Random(f"alloc-{seed}-{m}-{duration_s}")
    agents = [("robot", r) for r in range(1, m + 1)]
    agents += [("operator", o) for o in _operators(m)]
    events = []
    for kind, ident in rng.sample(agents, max(1, round(0.1 * len(agents)))):
        if kind == "operator":
            metric = "operator_condition"
        else:
            metric = rng.choice(("robot_condition", "performance"))
        value = round(rng.uniform(0.3, 0.95), 4)
        if rng.random() < 0.5:
            profile = {"type": "step", "value": value}
        else:
            profile = {"type": "ramp", "value": value, "duration": round(rng.uniform(2.0, 10.0), 3)}
        time_s = round(rng.uniform(0.0, 0.9 * duration_s), 3)
        events.append(_event(time_s, f"{kind}:{ident}", metric, profile))
    events.sort(key=lambda e: (e["time_s"], e["target"], e["metric"]))
    return {
        "name": f"alloc_m{m}",
        "topology": {"m": m, "pattern": "alternating"},
        "workspace": {"origin": [0.0, 0.0], "width": 2.0 * m, "height": 5.0, "safety_gap": 0.01},
        "params": {"K": 5.0, "tau": TAU, "tau_star": 65.0, "v_max": 0.8, "sim_dt": SIM_DT},
        "placement": "center",
        "mode": "allocation-only",
        "duration_s": float(duration_s),
        "events": events,
    }


def write_stress_trace(path: Path, rng: random.Random, duration_s: float, period: float = 0.5) -> None:
    """Binary stress trace from a two-state Markov chain (stressed about a
    third of the time), sampled every ``period`` seconds over the run."""
    stressed = 0
    lines = ["time_s,stress"]
    for k in range(int(round(duration_s / period)) + 1):
        if rng.random() < (0.2 if stressed else 0.1):
            stressed = 1 - stressed
        lines.append(f"{k * period:.3f},{stressed}")
    path.write_text("\n".join(lines) + "\n")


def patrol_script(m: int, seed: int, duration_s: float, trace_dir: Path) -> dict[str, Any]:
    """Full-sim patrol, alternating topology, every operator following its
    own seeded binary stress trace (written under ``trace_dir``)."""
    rng = random.Random(f"patrol-{seed}-{m}-{duration_s}")
    events = []
    for o in _operators(m):
        name = f"stress_m{m}_s{seed}_op{o}.csv"
        write_stress_trace(trace_dir / name, rng, duration_s)
        events.append(
            _event(0.0, f"operator:{o}", "operator_condition", {"type": "stress_trace", "path": name})
        )
    return {
        "name": f"patrol_m{m}",
        "topology": {"m": m, "pattern": "alternating"},
        "workspace": {"origin": [0.0, 0.0], "width": 1.2 * m, "height": 10.0, "safety_gap": 0.05},
        "params": {
            "K": 0.5,
            "tau": TAU,
            "tau_star": 20.0,
            "v_max": 0.8,
            "sim_dt": SIM_DT,
            "window": 30,
        },
        "placement": "perimeter",
        "mode": "full-sim",
        "duration_s": float(duration_s),
        "events": events,
    }


def _build_alloc(seed: int, workdir: Path, smoke: bool) -> list[Scenario]:
    m, duration = (20, 5.0) if smoke else (1000, 60.0)
    return [Scenario(f"alloc_m{m}", alloc_script(m, seed, duration))]


def _build_patrol(seed: int, workdir: Path, smoke: bool) -> list[Scenario]:
    m, duration = (10, 5.0) if smoke else (100, 120.0)
    return [Scenario(f"patrol_m{m}", patrol_script(m, seed, duration, workdir), base_dir=workdir)]


def _build_demo(seed: int, workdir: Path, smoke: bool) -> list[Scenario]:
    """Bundled s1 (with and without allocation), s2, s3 and s4, in an order
    drawn from the seed.  The smoke size shortens s1 and s2."""
    scenarios = []
    for name in ("s1", "s2", "s3", "s4"):
        data = builtin_script(name).to_dict()
        if smoke and name in ("s1", "s2"):
            data["duration_s"] = 20.0
            data["events"] = [e for e in data["events"] if e["time_s"] <= 20.0]
        scenarios.append(Scenario(name, data, final_zero=(2,) if name == "s4" else ()))
        if name == "s1":
            scenarios.append(Scenario("s1_noalloc", {**data, "allocation_enabled": False}))
    random.Random(f"demo-{seed}").shuffle(scenarios)
    return scenarios


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "alloc_m1000",
            "allocation-only m=1000 with seeded degradations: team, allocation, geometry "
            "and transition do nearly all the work, patrol and metrics none",
            _build_alloc,
        ),
        Workload(
            "patrol_m100_stress",
            "full-sim m=100 with seeded binary stress traces: per-step patrol and "
            "timeline/stress_to_condition work dominate, allocation runs every 10th step",
            _build_patrol,
        ),
        Workload(
            "demo_s1_s4",
            "bundled s1-s4 at m=3 and m=10 with events, an emptied region, laps and "
            "mhmr demo checks: catches per-call overhead that only pays off at large m",
            _build_demo,
            seeded=False,
            cli_demos=("s1", "s2", "s3", "s4"),
        ),
    )
}
