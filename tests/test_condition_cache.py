"""The runner evaluates conditions only at timeline breakpoints.

``ConditionTimeline.at`` must never promise a value that holds until a time
the value changes before, and a runner that reuses step velocities between
breakpoints must write the same bytes as one that evaluates them on every
step (``PerStepRunner``, the reference kept here).
"""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhmr.errors import ConfigurationError
from mhmr.metrics import ConditionTimeline
from mhmr.patrol import commanded_velocity, required_velocity, step_robot
from mhmr.scenario import (
    BREAKPOINT_TOL,
    Event,
    ScenarioRunner,
    ScenarioScript,
    TopologyEdit,
    TrajectoryRow,
    builtin_script,
)
from test_kernels import reference_kappa

SIM_DT = 0.05
#: Grid steps checked after each event list (40 s at ``SIM_DT``).
HORIZON_STEPS = 800
LEVELS = ("low", "medium", "high")


class PerStepRunner(ScenarioRunner):
    """Reference: snapshot and velocities evaluated on every step, each
    robot stepped on its own by ``step_robot``."""

    def _step_robots(self, t: float) -> None:
        snapshot = self.snapshot_at(t)
        velocities = []
        for i, rid in enumerate(self.topology.robot_ids):
            if rid in self.forced_failed:
                velocities.append(0.0)
                continue
            v_able = reference_kappa(snapshot, self.topology, rid) * self.params.v_max
            v_req = required_velocity(
                self.robots[i].region, self.params.tau_star, self.params.v_max
            )
            velocities.append(commanded_velocity(v_able, v_req))
        for i, state in enumerate(self.robots):
            step_robot(state, velocities[i], self.dt)
        if self.script.record_trajectory and self.step_index % self._traj_every == 0:
            positions = self.fleet.positions().tolist()
            for i, rid in enumerate(self.topology.robot_ids):
                x, y = positions[i]
                self.record.trajectory.append(
                    TrajectoryRow(time_s=t, robot_id=rid, x=x, y=y, v=velocities[i])
                )


# ---------------------------------------------------------------------------
# (a) Timeline breakpoints


event_time = st.one_of(
    st.integers(0, 400).map(lambda k: k * SIM_DT),
    st.floats(0.0, 20.0).map(lambda x: round(x, 3)),
)
step_spec = st.tuples(event_time, st.just("step"), st.floats(0.0, 1.0))
ramp_spec = st.tuples(
    event_time,
    st.just("ramp"),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 8.0).map(lambda x: round(x, 3))),
)
# (first sample time, period, samples): the first sample may lie after the
# event, so offsets before the span are read too.
stress_spec = st.tuples(
    event_time,
    st.just("stress_trace"),
    st.tuples(
        st.sampled_from([0.0, 0.3, 2.0]),
        st.sampled_from([0.1, 0.25, 0.5, 1.0, 0.35]),
        st.lists(st.sampled_from("01"), min_size=1, max_size=30),
    ),
)
trace_spec = st.tuples(
    event_time,
    st.just("trace"),
    st.tuples(
        st.sampled_from([0.0, 0.3, 2.0]),
        st.sampled_from([0.1, 0.25, 0.5, 1.0, 0.35]),
        st.lists(st.sampled_from(LEVELS), min_size=1, max_size=30),
    ),
)
event_specs = st.lists(
    st.one_of(step_spec, ramp_spec, stress_spec, trace_spec), min_size=1, max_size=5
)


def build_profiles(specs, directory, prefix=""):
    """``(time_s, profile)`` of each spec of ``event_specs``; trace files are
    written to ``directory``."""
    profiles = []
    for n, (time_s, kind, arg) in enumerate(specs):
        if kind == "step":
            profile = {"type": "step", "value": arg}
        elif kind == "ramp":
            profile = {"type": "ramp", "value": arg[0], "duration": arg[1]}
        else:
            start, period, samples = arg
            rows = [f"{start + i * period:.6g},{v}" for i, v in enumerate(samples)]
            name = f"{prefix}trace{n}.csv"
            (directory / name).write_text("\n".join(["time_s,stress", *rows]) + "\n")
            profile = {"type": kind, "path": name}
        profiles.append((time_s, profile))
    return profiles


def build_timeline(specs, directory, window):
    events = [
        Event(time_s, "operator", 1, "operator_condition", profile)
        for time_s, profile in build_profiles(specs, directory)
    ]
    return ConditionTimeline(events, window, directory)


@settings(max_examples=150, deadline=None)
@given(
    specs=event_specs,
    window=st.integers(1, 6),
    starts=st.lists(st.integers(0, HORIZON_STEPS), min_size=1, max_size=6),
)
@example(  # a ramp that starts after a binary trace and outlives it
    specs=[
        (0.0, "stress_trace", (0.0, 0.5, list("0110100111"))),
        (1.2, "ramp", (0.3, 1.0)),
    ],
    window=2,
    starts=[0, 23, 25, 44, 45, 60],
)
@example(  # a ramp folded into a discrete-level trace
    specs=[
        (0.5, "trace", (0.3, 0.35, ["low", "high", "medium", "low"])),
        (0.7, "ramp", (0.0, 0.4)),
    ],
    window=1,
    starts=[0, 10, 14, 15, 30],
)
@example(  # a ramp that blends every value of a binary trace to one value
    specs=[
        (0.0, "stress_trace", (0.25, 0.5, list("0110100111000011"))),
        (1.0, "ramp", (0.5, 1.0)),
    ],
    window=2,
    starts=[0, 20, 30, 40, 45, 100],
)
def test_value_holds_until_breakpoint(tmp_path_factory, specs, window, starts):
    timeline = build_timeline(specs, tmp_path_factory.mktemp("traces"), window)
    for k in starts:
        t = k * SIM_DT
        value, until = timeline.at(t)
        assert until >= t
        # The runner reuses the value on every step it would not recompute.
        for k2 in itertools.count(k):
            t2 = k2 * SIM_DT
            if k2 > HORIZON_STEPS or t2 + BREAKPOINT_TOL >= until:
                break
            assert timeline.at(t2)[0] == value, (t, t2, until)


def test_breakpoints_of_simple_timelines(tmp_path):
    specs = [(2.0, "step", 0.5), (5.0, "ramp", (1.0, 4.0)), (12.0, "step", 0.2)]
    timeline = build_timeline(specs, tmp_path, 1)
    assert timeline.at(0.0) == (1.0, 2.0)
    assert timeline.at(3.0) == (0.5, 5.0)
    assert timeline.at(6.0) == (0.5 + 0.5 * 0.25, 6.0)  # the ramp moves every step
    assert timeline.at(9.0) == (1.0, 12.0)
    assert timeline.at(13.0) == (0.2, math.inf)
    trace = [(1.0, "stress_trace", (0.0, 0.5, list("0101")))]
    timeline = build_timeline(trace, tmp_path, 2)
    assert timeline.at(1.2)[1] == 1.5
    assert timeline.at(2.5)[1] == math.inf  # past the last sample


#: Times of the tightness property are multiples of 1/8 s, so that an event
#: time plus a sample time is exact and a bound can be compared with the
#: time at which the value changes.
EIGHTH = 0.125
exact_time = st.integers(0, 80).map(lambda k: k * EIGHTH)
exact_trace_arg = st.tuples(
    st.sampled_from([0.0, 0.25, 2.0]),
    st.sampled_from([0.125, 0.25, 0.5, 1.0, 0.375]),
)
exact_specs = st.lists(
    st.one_of(
        st.tuples(exact_time, st.just("step"), st.floats(0.0, 1.0)),
        st.tuples(
            exact_time,
            st.just("ramp"),
            st.tuples(st.floats(0.0, 1.0), st.integers(1, 40).map(lambda k: k * EIGHTH)),
        ),
        st.tuples(
            exact_time,
            st.just("stress_trace"),
            exact_trace_arg.flatmap(
                lambda a: st.lists(st.sampled_from("01"), min_size=1, max_size=30).map(lambda v: (*a, v))
            ),
        ),
        st.tuples(
            exact_time,
            st.just("trace"),
            exact_trace_arg.flatmap(
                lambda a: st.lists(st.sampled_from(LEVELS), min_size=1, max_size=30).map(lambda v: (*a, v))
            ),
        ),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(specs=exact_specs, window=st.integers(1, 8))
@example(  # a ramp that follows a binary trace and ends while it still changes
    specs=[
        (0.0, "stress_trace", (0.25, 0.5, list("0110100111000011"))),
        (1.0, "ramp", (0.5, 1.0)),
    ],
    window=2,
)
@example(  # a ramp that outlives a level trace
    specs=[
        (0.5, "trace", (0.0, 0.25, ["low", "low", "high", "medium", "medium", "low"])),
        (0.75, "ramp", (0.3, 4.0)),
    ],
    window=1,
)
@example(  # a binary trace whose first sample is after its event, then a step
    specs=[(1.0, "stress_trace", (2.0, 0.375, list("00011101"))), (6.0, "step", 0.5)],
    window=3,
)
def test_bound_is_the_next_change(tmp_path_factory, specs, window):
    """``at(t)[1]`` is ``t`` while a ramp moves; otherwise it is the first
    later time at which the value set by the last step or trace in force
    changes, capped by the next event time.  With no ramp after that step
    or trace, this is the first later time at which ``at`` itself
    changes."""
    directory = tmp_path_factory.mktemp("traces")
    timeline = build_timeline(specs, directory, window)
    # Every time at which a value may change: event times and trace samples.
    changes = sorted(
        {time_s for time_s, _, _ in specs}
        | {
            time_s + arg[0] + j * arg[1]
            for time_s, kind, arg in specs
            if kind in ("trace", "stress_trace")
            for j in range(len(arg[2]))
        }
    )
    midpoints = [(a + b) / 2 for a, b in zip(changes, changes[1:])]
    queries = [0.0, *changes, *midpoints, changes[-1] + 1.0]
    # Per count of events in force, the timeline of those up to the last
    # step or trace among them, and its value at each time of ``changes``.
    setters = {}
    for t in queries:
        value, until = timeline.at(t)
        in_force = [ev for ev in timeline.events if ev.time_s <= t]
        cap = min((ev.time_s for ev in timeline.events if ev.time_s > t), default=math.inf)
        n_set = max((n + 1 for n, ev in enumerate(in_force) if ev.profile["type"] != "ramp"), default=0)
        ramps = in_force[n_set:]
        if any((t - ev.time_s) / ev.profile["duration"] < 1.0 for ev in ramps):
            assert until == t, t
            continue
        if n_set not in setters:
            setter = ConditionTimeline(in_force[:n_set], window, directory)
            setters[n_set] = (setter, [setter.at(c)[0] for c in changes])
        setter, setter_values = setters[n_set]
        held = setter.at(t)[0]
        if not ramps:
            assert held == value, t
        change = next(
            (c for c, v in zip(changes, setter_values) if c > t and v != held), math.inf
        )
        assert until == min(change, cap), (t, value, until, change, cap)


def test_ramp_that_blends_every_trace_value_to_one_keeps_the_trace_bound(tmp_path):
    # Window-2 conditions of this trace are 0, 0.5 and 1; a ramp to 0.5
    # blends each of them to exactly 0.5 once it has ended.  The bound still
    # follows the trace, so the value is walked again at each of its changes.
    specs = [
        (0.0, "stress_trace", (0.25, 0.5, list("0110100111000011"))),
        (1.0, "ramp", (0.5, 1.0)),
    ]
    timeline = build_timeline(specs, tmp_path, 2)
    trace = build_timeline(specs[:1], tmp_path, 2)
    times = [2.0 + k * 0.125 for k in range(64)]
    assert {trace.at(t)[0] for t in times} == {0.0, 0.5, 1.0}
    assert [timeline.at(t) for t in times] == [(0.5, trace.at(t)[1]) for t in times]
    assert timeline.at(2.0)[1] < math.inf
    # While the ramp moves, it still bounds at the query time.
    assert timeline.at(1.5)[1] == 1.5


def test_ramp_whose_blends_differ_keeps_the_trace_bound(tmp_path):
    # 0.5 + (0.1 - 0.5) is not 0.1, so the blended value follows the trace.
    specs = [
        (0.0, "stress_trace", (0.25, 0.5, list("0110100111000011"))),
        (1.0, "ramp", (0.1, 1.0)),
    ]
    timeline = build_timeline(specs, tmp_path, 2)
    trace = build_timeline(specs[:1], tmp_path, 2)
    assert {timeline.at(t)[0] for t in (3.0, 4.5)} == {0.1, 0.5 + (0.1 - 0.5)}
    for t in (2.0, 2.75, 4.0, 5.25):
        assert timeline.at(t)[1] == trace.at(t)[1] < math.inf, t


# ---------------------------------------------------------------------------
# (b) Cached runner against the per-step reference


def written_bytes(runner_cls, script, outdir, base_dir=None, edits=()):
    runner = runner_cls(script, base_dir=base_dir)
    for t_stop, edit in edits:
        runner.run_until(t_stop)
        runner.apply_topology_edit(edit)
    runner.run().write(outdir)
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


def assert_same_records(script, tmp_path, base_dir=None, edits=()):
    expected = written_bytes(PerStepRunner, script, tmp_path / "per_step", base_dir, edits)
    actual = written_bytes(ScenarioRunner, script, tmp_path / "cached", base_dir, edits)
    assert set(actual) == set(expected)
    for name in expected:
        assert actual[name] == expected[name], name
    return expected


@pytest.mark.parametrize("name", ["s1", "s2"])
def test_builtin_full_sim_matches_per_step(name, tmp_path):
    script = dataclasses.replace(builtin_script(name), record_trajectory=True)
    files = assert_same_records(script, tmp_path)
    assert "trajectory.csv" in files


class CountingRunner(ScenarioRunner):
    """Counts the snapshots ``snapshot_at`` creates, not those it returns again."""

    def __init__(self, *args, **kwargs):
        self.snapshots = 0
        self._returned = None
        super().__init__(*args, **kwargs)

    def snapshot_at(self, t):
        snapshot = super().snapshot_at(t)
        if snapshot is not self._returned:
            self.snapshots += 1
            self._returned = snapshot
        return snapshot


def test_cycle_step_evaluates_conditions_once():
    # s1's ramp runs for 70 s, so its 1 400 steps evaluate the conditions,
    # and the 140 of them that are cycle steps reuse the cycle's snapshot
    # instead of taking a second one.  Outside the ramp, conditions are
    # evaluated at t = 0, at the three step events before the ramp and once
    # as it ends; every other cycle and step reuses the last snapshot.
    runner = CountingRunner(builtin_script("s1"))
    runner.run()
    assert runner.snapshots == 4 + 1400 + 1


def test_unchanged_conditions_are_evaluated_once():
    # s3 is allocation-only with every event at t = 0: its 241 cycles all
    # see the conditions of the first.
    runner = CountingRunner(builtin_script("s3"))
    record = runner.run()
    assert len(record.cycles) == 241
    assert runner.snapshots == 1


def stress_patrol_script(m, trace_dir, period, duration_s=60.0):
    """Full-sim patrol with every operator on a seeded binary stress trace,
    plus a robot that degrades along a ramp."""
    rng = random.Random(f"cache-{m}-{period}")
    events = []
    for o in range(1, m + 1, 2):
        stressed = 0
        rows = ["time_s,stress"]
        for k in range(int(round(duration_s / period)) + 1):
            if rng.random() < (0.2 if stressed else 0.1):
                stressed = 1 - stressed
            rows.append(f"{k * period:.3f},{stressed}")
        (trace_dir / f"op{o}.csv").write_text("\n".join(rows) + "\n")
        profile = {"type": "stress_trace", "path": f"op{o}.csv"}
        events.append(
            {"time_s": 0.0, "target": f"operator:{o}", "metric": "operator_condition",
             "profile": profile}
        )
    events.append(
        {"time_s": 12.3, "target": "robot:2", "metric": "robot_condition",
         "profile": {"type": "ramp", "value": 0.4, "duration": 7.0}}
    )
    return ScenarioScript.from_dict(
        {
            "name": f"stress_m{m}",
            "topology": {"m": m, "pattern": "alternating"},
            "workspace": {"origin": [0.0, 0.0], "width": 1.2 * m, "height": 10.0,
                          "safety_gap": 0.05},
            "params": {"K": 0.5, "tau": 0.5, "tau_star": 20.0, "v_max": 0.8,
                       "window": 6, "sim_dt": SIM_DT},
            "placement": "perimeter",
            "mode": "full-sim",
            "duration_s": duration_s,
            "record_trajectory": True,
            "events": events,
        }
    )


# 0.5 s samples fall on allocation cycles; 0.35 s samples fall between them.
@pytest.mark.parametrize("period", [0.5, 0.35])
def test_stress_trace_patrol_matches_per_step(period, tmp_path):
    script = stress_patrol_script(10, tmp_path, period)
    files = assert_same_records(script, tmp_path, base_dir=tmp_path)
    assert files["laps.csv"].count(b"\n") > 1


# Edits land just after an allocation cycle (or between two), so velocities
# cached at that cycle would otherwise be reused for the following steps.
@pytest.mark.parametrize(
    "edits",
    [
        [
            (100.0, TopologyEdit(kind="remove_robot", robot_id=3)),
            (200.25, TopologyEdit(kind="remove_edge", robot_id=1, operator_ids=(1,))),
            (300.0, TopologyEdit(kind="add_edge", robot_id=1, operator_ids=(1,))),
        ],
        [(400.5, TopologyEdit(kind="add_robot", robot_id=4, position=(1.0, 1.0)))],
    ],
    ids=["remove_and_reconnect", "add_robot"],
)
def test_topology_edits_match_per_step(edits, tmp_path):
    script = dataclasses.replace(builtin_script("s1"), record_trajectory=True)
    assert_same_records(script, tmp_path, edits=edits)


# ---------------------------------------------------------------------------
# (c) Incremental evaluation against a full walk

#: (target, metric) pairs a timeline of ``incremental_script`` may drive.
AGENT_METRICS = [
    ("robot:1", "robot_condition"),
    ("robot:1", "performance"),
    ("robot:2", "robot_condition"),
    ("robot:4", "performance"),
    ("operator:1", "operator_condition"),
    ("operator:3", "operator_condition"),
]
#: Edits tried between evaluations; one that does not fit the team of the
#: moment (an absent edge, a robot that exists) is skipped.
EDITS = [
    TopologyEdit(kind="remove_robot", robot_id=2),
    TopologyEdit(kind="remove_edge", robot_id=1, operator_ids=(1,)),
    TopologyEdit(kind="add_edge", robot_id=1, operator_ids=(1,)),
    TopologyEdit(kind="add_edge", robot_id=4, operator_ids=(3, 7)),
    TopologyEdit(kind="add_robot", robot_id=9, operator_ids=(1,)),
]
time_step = st.one_of(
    st.just(0.0),  # the same time again
    st.integers(1, 40).map(lambda k: k * SIM_DT),
    st.floats(0.0, 3.0).map(lambda x: round(x, 3)),
    st.floats(-10.0, 0.0),  # back in time
)
operations = st.lists(
    st.one_of(st.tuples(st.just("at"), time_step), st.tuples(st.just("edit"), st.sampled_from(EDITS))),
    min_size=1,
    max_size=25,
)


def incremental_script(timelines, directory, window):
    """Allocation-only team of four robots, robots 1 and 3 operated by
    operators 1 and 3, with a timeline of ``specs`` for each
    ``AGENT_METRICS[agent]`` in ``timelines``."""
    events = []
    for n, (agent, specs) in enumerate(timelines.items()):
        target, metric = AGENT_METRICS[agent]
        for time_s, profile in build_profiles(specs, directory, f"{n}_"):
            events.append({"time_s": time_s, "target": target, "metric": metric, "profile": profile})
    return ScenarioScript.from_dict(
        {
            "name": "incremental",
            "topology": {"m": 4, "pattern": "alternating"},
            "workspace": {"origin": [0.0, 0.0], "width": 8.0, "height": 4.0, "safety_gap": 0.01},
            "params": {"K": 0.5, "tau": 0.5, "tau_star": 20.0, "v_max": 0.8,
                       "window": window, "sim_dt": SIM_DT},
            "mode": "allocation-only",
            "duration_s": 40.0,
            "events": events,
        }
    )


def snapshot_bits(snapshot, topology):
    """Everything a snapshot shows, floats by their bits: the value array,
    the columns (``kappa`` among them) and each mapping in its key order."""
    mappings = (snapshot.robot_condition, snapshot.operator_condition, snapshot.robot_performance)
    return (
        snapshot.robot_condition._values.tobytes(),
        [column.tobytes() for column in snapshot.columns(topology)],
        [[(key, value.hex()) for key, value in dict(mapping).items()] for mapping in mappings],
    )


@settings(max_examples=120, deadline=None)
@given(
    timelines=st.dictionaries(st.integers(0, len(AGENT_METRICS) - 1), event_specs, max_size=5),
    window=st.integers(1, 6),
    ops=operations,
)
@example(  # a step and a ramp, evaluated forwards, again, backwards and past a disconnection
    timelines={
        0: [(2.0, "step", 0.5)],
        4: [(1.0, "ramp", (0.2, 3.0))],
        5: [(0.0, "stress_trace", (0.0, 0.5, list("0110100111")))],
    },
    window=2,
    ops=[
        ("at", 0.0), ("at", 1.5), ("at", 0.0), ("at", 1.95), ("at", 0.05), ("at", -3.0),
        ("edit", EDITS[1]), ("at", 0.5), ("edit", EDITS[2]), ("at", 0.0), ("at", 2.0),
    ],
)
def test_incremental_snapshot_is_a_full_walk(tmp_path_factory, timelines, window, ops):
    directory = tmp_path_factory.mktemp("traces")
    script = incremental_script(timelines, directory, window)
    runner = ScenarioRunner(script, base_dir=directory)
    applied, taken, t = [], [], 0.0
    # The last snapshot, the time of its walk and the bound it holds until;
    # ``None`` after an edit.
    last = None
    for op, arg in ops:
        if op == "edit":
            try:
                runner.apply_topology_edit(arg)
            except ConfigurationError:
                continue
            applied.append(arg)
            last = None
            continue
        t = max(0.0, t + arg)
        fresh = ScenarioRunner(script, base_dir=directory)
        for edit in applied:
            fresh.apply_topology_edit(edit)
        snapshot, expected = runner.snapshot_at(t), fresh.snapshot_at(t)
        if last is not None and (t == last[1] or (t > last[1] and t + BREAKPOINT_TOL < last[2])):
            assert snapshot is last[0], t
        else:
            assert all(snapshot is not kept for kept, _, _ in taken), (t, applied)
            last = (snapshot, t, runner._snapshot_until)
        bits = snapshot_bits(snapshot, runner.topology)
        assert bits == snapshot_bits(expected, fresh.topology), (t, applied)
        assert runner._snapshot_until == fresh._snapshot_until, t
        taken.append((snapshot, runner.topology, bits))
    # Later evaluations and edits leave an earlier snapshot as it was.
    for snapshot, topology, bits in taken:
        assert snapshot_bits(snapshot, topology) == bits


def test_snapshot_mappings_are_read_only():
    runner = ScenarioRunner(builtin_script("s3"))
    snapshot = runner.snapshot_at(0.0)
    with pytest.raises(TypeError):
        snapshot.robot_condition[3] = 1.0
    with pytest.raises(ValueError):
        snapshot.columns(runner.topology).condition[0] = 1.0


def test_only_expired_timelines_are_walked(monkeypatch):
    # Each robot's condition steps once, between two cycles (every 0.5 s):
    # its timeline is walked at t = 0 and at the first cycle after its
    # event, and at no other evaluation.
    n = 6
    events = [
        {"time_s": 1.2 + i, "target": f"robot:{i + 1}", "metric": "robot_condition",
         "profile": {"type": "step", "value": 0.5}}
        for i in range(n)
    ]
    script = ScenarioScript.from_dict(
        {
            "name": "steps",
            "topology": {"m": n, "pattern": "alternating"},
            "workspace": {"origin": [0.0, 0.0], "width": 12.0, "height": 4.0, "safety_gap": 0.01},
            "params": {"K": 0.5, "tau": 0.5, "tau_star": 20.0, "v_max": 0.8, "sim_dt": SIM_DT},
            "mode": "allocation-only",
            "duration_s": 10.0,
            "events": events,
        }
    )
    walks = []
    at = ConditionTimeline.at
    monkeypatch.setattr(ConditionTimeline, "at", lambda self, t: walks.append(t) or at(self, t))
    record = ScenarioRunner(script).run()
    assert len(record.cycles) == 21
    assert record.cycles[-1].kappa.tolist() == [0.5] * n
    assert len(walks) == 2 * n
