"""Tests of the benchmark itself, at a smoke size that runs in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import measure  # noqa: E402
import run as bench  # noqa: E402
from tracer import TARGETS, Tracer, leaked_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@functools.lru_cache(maxsize=None)
def smoke_run(workload: str, trace: int) -> tuple[int, tuple[str, ...]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"]
        )
    return code, tuple(out.getvalue().strip().splitlines())


def smoke_metrics(workload: str, trace: int) -> dict:
    return json.loads(smoke_run(workload, trace)[1][-1])["metrics"]


def test_benchmark_json_lists_what_the_benchmark_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        bench.per_layer_spec()
    )
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, lines = smoke_run(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = bench.per_layer_spec() if trace else bench.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in spec]
    for name, unit, _ in spec:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        assert any(line.startswith(f"{name} = ") and f" {unit} (" in line for line in lines)
    assert any(line.startswith("failed_frac = 0.0 ratio (0 of ") for line in lines)


def test_layers_do_the_work_their_workload_is_for():
    alloc = smoke_metrics("alloc_m1000", 1)
    patrol = smoke_metrics("patrol_m100_stress", 1)
    for name in ("patrol.step_robot.calls", "metrics.stress_to_condition.calls"):
        assert alloc[name]["value"] == 0
        assert patrol[name]["value"] > 0
    assert alloc["team.operators_of.calls"]["value"] > 0
    assert smoke_metrics("demo_s1_s4", 1)["cli.demo.calls"]["value"] > 0


def _attribute_snapshot() -> dict[tuple[str, str], object]:
    """Every attribute of every ``mhmr`` module and of the classes they define."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mhmr" or name.startswith("mhmr.")):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    snap[(f"{name}.{key}", attr)] = raw
    return snap


def test_tracer_restores_every_patched_attribute():
    before = _attribute_snapshot()
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer:
            patched = set(leaked_wrappers())
            raise RuntimeError("inside the traced block")
    # Every target is wrapped while installed, at every place that held it.
    for _, module, cls, attr in TARGETS:
        assert (f"{module}.{cls}.{attr}" if cls else f"{module}.{attr}") in patched
    assert "mhmr.scenario.propose_allocation" in patched
    assert leaked_wrappers() == []
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_add_up_to_the_traced_wall_time(tmp_path):
    scenarios = WORKLOADS["patrol_m100_stress"].build(3, tmp_path, True)
    tracer = Tracer()
    with tracer:
        traced = measure.run_pass(scenarios, ("s4",), tmp_path / "out")
    assert all(not r.problems for r in traced.results) and traced.demos[0].problem is None
    self_times = tracer.self_times()
    assert self_times.min() >= -1e-9
    summary = tracer.summary()
    total_self = sum(s for _, s in summary.values())
    assert total_self == pytest.approx(tracer.root_time(), rel=1e-9)
    # Only the benchmark's own loop around the calls lies outside spans.
    assert total_self == pytest.approx(traced.wall_s, rel=0.05)
    assert summary["scenario.loop"][1] > 0
    assert summary["cli.demo"][0] == 1


def test_gate_rejects_a_record_that_breaks_an_invariant(tmp_path):
    scenario = WORKLOADS["alloc_m1000"].build(3, tmp_path, True)[0]
    runner = measure.ScenarioRunner(measure.ScenarioScript.from_dict(scenario.data))
    record = runner.run()
    assert measure.check_record(scenario, runner, record) == []
    row = record.cycles[1]
    record.cycles[1] = dataclasses.replace(row, sigma=(row.sigma[0] + 1e-6,) + row.sigma[1:])
    record.cycles.pop()
    problems = measure.check_record(dataclasses.replace(scenario, final_zero=(0,)), runner, record)
    assert len(problems) == 3
    assert "cycle 1: sigma sums to" in problems[0]
    assert "num_cycles" in problems[1] and "final sigma_r1" in problems[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    workload = WORKLOADS[name]

    def build(seed, sub):
        (tmp_path / sub).mkdir()
        return workload.build(seed, tmp_path / sub, True)

    first, again, other = build(7, "a"), build(7, "b"), build(8, "c")
    assert [s.data for s in first] == [s.data for s in again]
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    if workload.seeded:
        assert [s.data for s in other] != [s.data for s in first]


@pytest.mark.parametrize("samples", [20, 121, 242, 482, 8360])
def test_tail_percentile_leaves_ten_samples_beyond(samples):
    p = bench.tail_percentile(samples)
    assert p == 50.0 or samples - math.ceil(p / 100 * samples) >= bench.TAIL_BEYOND
    higher = [q for q in bench.TAIL_LADDER if q > p]
    assert all(samples - math.ceil(q / 100 * samples) < bench.TAIL_BEYOND for q in higher)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "demo_s1_s4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
