"""Acceptance gate: one test per shipped claim, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
The large-team scalability point (m=500, 20 001 cycles) takes about 12 s.
"""

import math

import numpy as np
import pytest

from mhmr.allocation import propose_allocation
from mhmr.errors import NoCapableAgentError
from mhmr.geometry import Rect, boundary_distance
from mhmr.metrics import discrete_stress_to_condition, stress_to_condition, StressTrace
from mhmr.scenario import ScenarioScript, builtin_script, run_scenario
from mhmr.team import ConditionSnapshot, TeamTopology, WorkloadVector
from mhmr.transition import step_transition

from conftest import random_snapshot, random_topology
from test_geometry import sampled_boundary_distance

# Hand-derived equilibrium for the m=10 deteriorated team: operators 3 and 5
# at 0.8, robot 3 at 0.6 (or 0 when failed), robot 8 at 0.75, the rest 1.
S3_SCORES = [1.0, 1.0, 0.48, 1.0, 2.8 * 0.8 / 3, 1.0, 1.0, 0.75 / 2 * 1.75, 1.0, 1.0]
S4_SCORES = [1.0, 1.0, 0.0, 1.0, 2.8 * 0.8 / 3, 1.0, 1.0, 0.75 / 2 * 1.75, 1.0, 1.0]


def verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def s3_record():
    return run_scenario(builtin_script("s3"))


@pytest.fixture(scope="module")
def s4_record():
    return run_scenario(builtin_script("s4"))


def scaled_s3(m: int, K: float, duration_s: float) -> ScenarioScript:
    data = builtin_script("s3").to_dict()
    data["topology"] = {"m": m, "pattern": "alternating"}
    data["params"]["K"] = K
    data["duration_s"] = duration_s
    data["name"] = f"s3_m{m}_K{K}"
    return ScenarioScript.from_dict(data)


def test_criterion_01_uniform_baseline():
    ok = True
    for m in (2, 3, 10):
        for team in (
            TeamTopology.build(range(1, m + 1)),
            TeamTopology.build(
                range(1, m + 1),
                [i for i in range(1, m + 1) if i % 2 == 1],
                [(i, i) for i in range(1, m + 1) if i % 2 == 1],
            ),
        ):
            shares = propose_allocation(team, ConditionSnapshot.healthy(team)).shares
            ok = ok and bool(np.all(np.abs(shares - 1.0 / m) <= 1e-12))
    verdict(1, "uniform-baseline", ok)


def test_criterion_02_zero_gating():
    rng = np.random.default_rng(20240817)
    ok = True
    for case in range(1000):
        team = random_topology(rng)
        snap = random_snapshot(rng, team)
        victim = int(rng.choice(team.robot_ids))
        role = rng.choice(["robot", "performance", "operator"])
        rc = dict(snap.robot_condition)
        oc = dict(snap.operator_condition)
        rp = dict(snap.robot_performance)
        if role == "robot":
            rc[victim] = 0.0
        elif role == "performance":
            rp[victim] = 0.0
        else:
            operators = team.operators_of(victim)
            if operators:
                oc[int(rng.choice(operators))] = 0.0
            else:
                rc[victim] = 0.0
        try:
            shares = propose_allocation(
                team, ConditionSnapshot(rc, oc, rp)
            ).shares
        except NoCapableAgentError:
            continue
        if shares[team.robot_ids.index(victim)] != 0.0:
            ok = False
            break
    verdict(2, "zero-gating", ok, "1000 randomized topologies")


def test_criterion_03_s3_equilibrium(s3_record):
    total = math.fsum(S3_SCORES)
    final = s3_record.summary["final_sigma"]
    ok = s3_record.summary["converged"] is True
    for i, score in enumerate(S3_SCORES):
        ok = ok and abs(final[i] - score / total) <= 1e-6
    verdict(3, "s3-equilibrium", ok, f"converged at {s3_record.summary['convergence_time_s']}s")


def test_criterion_04_s4_failure(s4_record):
    total = math.fsum(S4_SCORES)
    final = s4_record.summary["final_sigma"]
    ok = final[2] == 0.0
    for i, score in enumerate(S4_SCORES):
        if i != 2:
            ok = ok and abs(final[i] - score / total) <= 1e-6
    for row in s4_record.cycles:
        ok = ok and abs(math.fsum(row.sigma) - 1.0) <= 1e-9
    verdict(4, "s4-failure-exact-zero", ok)


def test_criterion_05_transition_conservation():
    rng = np.random.default_rng(7)
    m = 8
    sigma = WorkloadVector.uniform(m)
    ok = True
    for _ in range(10_000):
        raw = rng.uniform(0.05, 1.0, size=m)
        proposed = WorkloadVector(raw / math.fsum(raw.tolist()))
        sigma = step_transition(sigma, proposed, float(rng.uniform(0.0, 0.999)))
        if abs(math.fsum(sigma.shares.tolist()) - 1.0) > 1e-12:
            ok = False
            break
    # Frozen-proposal decay against the closed form.
    cur = WorkloadVector(np.array([0.7, 0.3]))
    prop = WorkloadVector(np.array([0.2, 0.8]))
    k_e = 0.35
    sigma = cur
    for n in range(1, 51):
        sigma = step_transition(sigma, prop, k_e)
        expected = prop.shares + (1.0 - k_e) ** n * (cur.shares - prop.shares)
        ok = ok and bool(np.all(np.abs(sigma.shares - expected) <= 1e-9))
    verdict(5, "transition-conservation-and-decay", ok)


def test_criterion_06_k_ordering():
    times = []
    for K in (1.0, 3.0, 5.0, 10.0):
        record = run_scenario(scaled_s3(50, K, duration_s=2500.0))
        if not record.summary["converged"]:
            verdict(6, "k-ordering", False, f"K={K} did not converge")
        times.append(record.summary["convergence_time_s"])
    ok = all(b < a for a, b in zip(times, times[1:]))
    verdict(6, "k-ordering", ok, "convergence times " + ",".join(f"{t:g}" for t in times))


def test_criterion_07_m_scalability():
    ms = [20, 50, 100, 500]
    errors = []
    ok = True
    for m in ms:
        duration = 10_000.0 if m >= 500 else 2500.0
        record = run_scenario(scaled_s3(m, 5.0, duration_s=duration))
        ok = ok and record.summary["converged"] is True
        errors.append(record.summary["total_initial_error"])
    ok = ok and all(b < a for a, b in zip(errors, errors[1:]))
    verdict(
        7,
        "m-scalability",
        ok,
        "initial errors " + ",".join(f"{e:.4g}" for e in errors),
    )


def test_criterion_08_patrol_velocity_model():
    base = builtin_script("s1").to_dict()
    # Healthy run: every completed lap inside the 65 +/- 10 s band.
    healthy = dict(base, name="healthy", duration_s=300.0, events=[])
    record = run_scenario(ScenarioScript.from_dict(healthy))
    ok = bool(record.laps) and all(
        55.0 <= lap.lap_time_s <= 75.0 for lap in record.laps if not lap.transitional
    )

    # One operator drops to 0.5: without reallocation that robot's laps blow
    # the band; with reallocation the system lap time stays at or below the
    # without-allocation system lap time.
    drop = dict(
        base,
        name="opdrop",
        duration_s=500.0,
        events=[
            {
                "time_s": 150.0,
                "target": "operator:1",
                "metric": "operator_condition",
                "profile": {"type": "step", "value": 0.5},
            }
        ],
    )
    with_alloc = run_scenario(ScenarioScript.from_dict(drop))
    without = run_scenario(
        ScenarioScript.from_dict(dict(drop, allocation_enabled=False))
    )
    r1_laps = [lap.lap_time_s for lap in without.laps if lap.robot_id == 1]
    ok = ok and r1_laps and r1_laps[-1] > 75.0
    t_with = with_alloc.summary["max_t_l"]
    t_without = without.summary["max_t_l"]
    ok = ok and t_with is not None and t_with <= t_without
    verdict(
        8,
        "patrol-velocity-model",
        bool(ok),
        f"T_L with={t_with:.1f}s without={t_without:.1f}s",
    )


def test_criterion_09_geometry_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        rect = Rect(
            float(rng.uniform(-10, 10)),
            float(rng.uniform(-10, 10)),
            float(rng.uniform(0.05, 15)),
            float(rng.uniform(0.05, 15)),
        )
        point = (float(rng.uniform(-20, 30)), float(rng.uniform(-20, 30)))
        err = abs(boundary_distance(point, rect) - sampled_boundary_distance(point, rect))
        worst = max(worst, err)
    verdict(9, "geometry-oracle", worst < 1e-6, f"max error {worst:.2e} m")


def test_criterion_10_stress_pipeline():
    window = 30
    times = np.arange(60, dtype=float)
    stressed = StressTrace(times, np.ones(60))
    relaxed = StressTrace(times, np.zeros(60))
    ok = stress_to_condition(stressed, window, 59.0) == 0.0
    ok = ok and stress_to_condition(relaxed, window, 59.0) == 1.0
    ok = ok and discrete_stress_to_condition("low") == 0.75
    ok = ok and discrete_stress_to_condition("medium") == 0.5
    ok = ok and discrete_stress_to_condition("high") == 0.25
    verdict(10, "stress-pipeline", ok)


def test_criterion_11_replay_determinism(tmp_path):
    ok = True
    for name in ("s1", "s2", "s3", "s4"):
        script = builtin_script(name)
        a = run_scenario(script).write(tmp_path / f"{name}_a")
        b = run_scenario(script).write(tmp_path / f"{name}_b")
        ok = ok and (a / "cycles.csv").read_bytes() == (b / "cycles.csv").read_bytes()
    verdict(11, "replay-determinism", ok, "all bundled scripts byte-identical")
