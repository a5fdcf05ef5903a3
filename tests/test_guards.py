"""Work and memory bounds on the benchmark's scaled scripts.

Each script runs once, with counters on the calls the bounds are about;
every test then checks one reading of that run:

- m = 1000 allocation-only (``alloc_script(1000, 0, 60.0)``): timeline walks,
  team-sized ``math.fsum`` calls and the tracemalloc peak of set-up, run and
  write;
- m = 100 full-sim (``patrol_script(100, 0, 120.0)``, 50 stress traces):
  timeline walks, scalar arc-point calls, the ``Rect`` objects built once
  the runner is set up, and the positions array it ends with;
- the bundled s1 and s3: allocation proposals (``compute_input_vector``).
"""

from __future__ import annotations

import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mhmr.allocation
import mhmr.patrol
from mhmr.geometry import Rect
from mhmr.metrics import ConditionTimeline
from mhmr.scenario import ScenarioRunner, ScenarioScript, builtin_script
from mhmr.team import EXACT_SUM_MIN

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import alloc_script, patrol_script  # noqa: E402


class Counter:
    """Counts the calls of ``owner.name`` while ``monkeypatch`` is active."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counting(*args):
            self.calls += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counting)


@pytest.fixture(scope="module")
def alloc_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("alloc_m1000")
    with pytest.MonkeyPatch.context() as mp:
        walks = Counter(mp, ConditionTimeline, "at")
        team_sums = 0
        fsum = math.fsum

        def counting_fsum(values):
            nonlocal team_sums
            values = list(values)
            team_sums += len(values) >= EXACT_SUM_MIN
            return fsum(values)

        mp.setattr(math, "fsum", counting_fsum)
        tracemalloc.start()
        try:
            script = ScenarioScript.from_dict(alloc_script(1000, 0, 60.0))
            ScenarioRunner(script).run().write(out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return {"walks": walks.calls, "team_sums": team_sums, "peak_bytes": peak}


@pytest.fixture(scope="module")
def patrol_run(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("patrol_m100")
    with pytest.MonkeyPatch.context() as mp:
        walks = Counter(mp, ConditionTimeline, "at")
        arc_points = Counter(mp, mhmr.patrol, "_arc_point")
        script = ScenarioScript.from_dict(patrol_script(100, 0, 120.0, trace_dir))
        runner = ScenarioRunner(script, base_dir=trace_dir)
        rects = Counter(mp, Rect, "__post_init__")
        runner.run()
    return {
        "walks": walks.calls,
        "arc_points": arc_points.calls,
        "rects": rects.calls,
        "positions": runner.positions,
    }


def test_alloc_m1000_walks_only_expired_timelines(alloc_run):
    # 150 timelines over 121 cycles; walking them all at every cycle would
    # take 18 150 calls.
    assert alloc_run["walks"] < 2000


def test_alloc_m1000_sums_no_team_sized_list(alloc_run):
    # Each cycle summed four team-sized lists with math.fsum (486 calls per
    # run); exact_sum and the share check now sum the arrays, and fall back
    # to math.fsum only where the certificate cannot decide.
    assert alloc_run["team_sums"] <= 5


def test_alloc_m1000_record_stays_small(alloc_run):
    # Rows that copied each cycle's arrays into tuples of Python floats
    # peaked at about 13 MB here; rows that keep the arrays, about 5 MB.
    assert alloc_run["peak_bytes"] <= 8e6


def test_patrol_m100_walks_a_trace_only_when_its_condition_changes(patrol_run):
    # 50 binary stress traces sampled at every one of the 241 cycles;
    # walking each trace at every sample would take 12 050 calls.
    assert patrol_run["walks"] < 9000


def test_patrol_m100_builds_no_rect_once_set_up(patrol_run):
    # Regions are stored as bound columns and changed for the whole team at
    # once; per-robot Rect objects were built at every rebuild.
    assert patrol_run["rects"] == 0


def test_patrol_m100_stores_positions_in_array_passes(patrol_run):
    # One scalar arc-point per stale robot per read took 23 974 calls; the
    # stale rows of a team this size are stored in one array pass.
    assert patrol_run["arc_points"] <= 1000


def test_patrol_m100_positions_are_one_read_only_array(patrol_run):
    positions = patrol_run["positions"]
    assert isinstance(positions, np.ndarray)
    assert positions.shape == (100, 2) and positions.dtype == np.float64
    assert not positions.flags.writeable


@pytest.mark.parametrize(("name", "cycles", "proposals"), [("s1", 1401, 145), ("s3", 241, 1)])
def test_builtin_proposes_once_per_snapshot(monkeypatch, name, cycles, proposals):
    # The condition snapshot changes at s1's events and through its ramp, in
    # 145 of its 1 401 cycles, and only at the first of s3's 241 cycles;
    # proposing at every cycle took one call per cycle.
    scores = Counter(monkeypatch, mhmr.allocation, "compute_input_vector")
    record = ScenarioRunner(builtin_script(name)).run()
    assert (len(record.cycles), scores.calls) == (cycles, proposals)
