"""Per-call timings of the layer functions at several team sizes.

Inputs are captured from the workload generators at each size m: the
allocation-only generator gives the snapshot, proposal, partition and a
short record; the full-sim stress generator gives the timelines and the
patrol state.  Each value is the median over repeated calls, in µs.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Callable

from mhmr.allocation import compute_input_vector, propose_allocation
from mhmr.geometry import partition_from_workload
from mhmr.patrol import able_velocity, commanded_velocity, required_velocity, step_robot
from mhmr.scenario import ScenarioRunner, ScenarioScript
from mhmr.transition import compute_q_f

from workloads import TAU, alloc_script, patrol_script

SIZES = (10, 100, 1000)

#: Metric prefixes.  ``patrol.step_all`` is one patrol step over all robots,
#: velocities included; ``scenario.snapshot_at`` reads the stress timelines;
#: ``scenario.write`` writes a record of ``WRITE_CYCLES`` cycles.
FUNCTIONS = (
    "allocation.compute_input_vector",
    "geometry.partition_from_workload",
    "transition.compute_q_f",
    "patrol.step_all",
    "scenario.snapshot_at",
    "scenario.write",
)

#: Capture time: about half of the seeded degradations have fired by then.
CAPTURE_T = 30.0
#: Cycles in the record that ``scenario.write`` writes.
WRITE_CYCLES = 10


def per_call_us(fn: Callable[[], object], budget_s: float, min_calls: int = 3) -> float:
    """Median µs per call after one warm-up call."""
    fn()
    samples = []
    spent = 0.0
    while len(samples) < min_calls or spent < budget_s:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        spent += elapsed
    return statistics.median(samples) * 1e6


def micro_timings(seed: int, workdir: Path, budget_s: float = 0.15) -> dict[str, float]:
    """``{"<layer>.<function>.us_m<m>": µs per call}`` for every size."""
    out: dict[str, float] = {}
    for m in SIZES:
        runner = ScenarioRunner(ScenarioScript.from_dict(alloc_script(m, seed, 60.0)))
        topology, workspace = runner.topology, runner.workspace
        snapshot = runner.snapshot_at(CAPTURE_T)
        proposed = propose_allocation(topology, snapshot)
        partition = partition_from_workload(workspace, proposed)
        failed = {i for i, s in enumerate(proposed.shares) if s == 0.0}
        positions = runner.positions
        runner.run_until((WRITE_CYCLES - 1) * TAU)
        record = runner.record

        sim_dir = workdir / f"micro_m{m}"
        sim_dir.mkdir(parents=True, exist_ok=True)
        sim = ScenarioRunner(
            ScenarioScript.from_dict(patrol_script(m, seed, 60.0, sim_dir)), base_dir=sim_dir
        )
        sim_snapshot = sim.snapshot_at(CAPTURE_T)
        params = sim.params

        def step_all() -> None:
            for rid, state in zip(sim.topology.robot_ids, sim.robots):
                v_able = able_velocity(sim_snapshot, sim.topology, rid, params.v_max)
                v_req = required_velocity(state.region, params.tau_star, params.v_max)
                step_robot(state, commanded_velocity(v_able, v_req), params.sim_dt)

        calls = {
            "allocation.compute_input_vector": lambda: compute_input_vector(topology, snapshot),
            "geometry.partition_from_workload": lambda: partition_from_workload(workspace, proposed),
            "transition.compute_q_f": lambda: compute_q_f(positions, partition, failed),
            "patrol.step_all": step_all,
            "scenario.snapshot_at": lambda: sim.snapshot_at(CAPTURE_T),
            "scenario.write": lambda: record.write(workdir / f"micro_write_m{m}"),
        }
        for prefix in FUNCTIONS:
            out[f"{prefix}.us_m{m}"] = per_call_us(calls[prefix], budget_s)
    return out
