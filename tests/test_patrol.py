import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhmr import patrol
from mhmr.errors import ConfigurationError, MetricDomainError
from mhmr.geometry import Rect, boundary_distance, perimeter
from mhmr.patrol import (
    PatrolFleet,
    able_velocity,
    assign_region,
    commanded_velocity,
    required_velocity,
    step_all,
    step_robot,
    system_patrol_time,
)
from mhmr.team import ConditionSnapshot, TeamTopology


def one_robot(position):
    """The handle of the one robot of a new fleet, at ``position``."""
    return PatrolFleet([position]).robots[0]


def position(state):
    """The robot's ``(x, y)``, a new array."""
    return state.fleet.positions()[state.index].copy()


def simulate_laps(region, v, dt=0.05, sim_time=400.0):
    state = one_robot((region.x, region.y))
    assign_region(state, region)
    for _ in range(int(round(sim_time / dt))):
        step_robot(state, v, dt)
    return state.fleet


class TestVelocityModel:
    def test_able_velocity_takes_worst_condition(self):
        team = TeamTopology.build([1], [1, 2], [(1, 1), (1, 2)])
        snap = ConditionSnapshot(
            robot_condition={1: 0.9},
            operator_condition={1: 0.5, 2: 0.8},
            robot_performance={1: 1.0},
        )
        assert able_velocity(snap, team, 1, v_max=0.8) == pytest.approx(0.4)

    def test_able_velocity_autonomous(self):
        team = TeamTopology.build([1])
        snap = ConditionSnapshot(
            robot_condition={1: 0.75}, operator_condition={}, robot_performance={1: 1.0}
        )
        assert able_velocity(snap, team, 1, v_max=0.8) == pytest.approx(0.6)

    @pytest.mark.parametrize(
        "robot_condition, operator_condition, message",
        [
            ({1: 0.75}, {1: 1.0}, "missing robot condition for robot 2"),
            ({1: 0.75, 2: 1.5}, {1: 1.0}, "robot 2 condition"),
            ({1: 0.75, 2: 1.0}, {}, "missing operator condition for operator 1"),
        ],
        ids=["missing_robot", "robot_out_of_range", "missing_operator"],
    )
    def test_able_velocity_checks_the_whole_snapshot(
        self, robot_condition, operator_condition, message
    ):
        # Robot 1 is autonomous, but its kappa is a column of the checked
        # snapshot, so a bad metric of any agent raises.
        team = TeamTopology.build([1, 2], [1], [(2, 1)])
        snap = ConditionSnapshot(
            robot_condition=robot_condition,
            operator_condition=operator_condition,
            robot_performance={1: 1.0, 2: 1.0},
        )
        with pytest.raises((ConfigurationError, MetricDomainError), match=message):
            able_velocity(snap, team, 1, v_max=0.8)

    def test_required_velocity_clamped_at_v_max(self):
        # Perimeter 52 m at a 65 s threshold asks exactly 0.8 m/s; a longer
        # perimeter cannot ask for more than the robot's top speed.
        strip = Rect(0.0, 0.0, 14.0, 12.0)
        assert perimeter(strip) == 52.0
        assert required_velocity(strip, tau_star=65.0, v_max=0.8) == pytest.approx(0.8)
        long_strip = Rect(0.0, 0.0, 30.0, 12.0)
        assert required_velocity(long_strip, tau_star=65.0, v_max=0.8) == 0.8

    def test_required_velocity_scales_with_perimeter(self):
        small = Rect(0.0, 0.0, 5.0, 5.0)  # perimeter 20
        assert required_velocity(small, tau_star=65.0, v_max=0.8) == pytest.approx(20 / 65)

    def test_required_velocity_empty_region(self):
        assert required_velocity(None, tau_star=65.0, v_max=0.8) == 0.0

    def test_commanded_velocity_is_binding_limit(self):
        assert commanded_velocity(0.4, 0.6) == 0.4
        assert commanded_velocity(0.8, 0.3) == 0.3


class TestStepRobot:
    def test_lap_time_matches_perimeter_over_speed(self):
        region = Rect(0.0, 0.0, 10.0, 3.0)  # perimeter 26
        v = 0.65
        fleet = simulate_laps(region, v, sim_time=200.0)
        assert len(fleet.lap_times[0]) >= 4
        for t in fleet.lap_times[0]:
            assert t == pytest.approx(perimeter(region) / v, abs=1e-9)
        assert not any(fleet.lap_transitional[0])

    def test_stays_on_perimeter(self):
        region = Rect(1.0, 2.0, 6.0, 4.0)
        state = one_robot((1.0, 2.0))
        assign_region(state, region)
        for _ in range(2000):
            step_robot(state, 0.7, 0.05)
            assert boundary_distance(position(state), region) <= 1e-9

    def test_speed_bound(self):
        region = Rect(0.0, 0.0, 4.0, 4.0)
        state = one_robot((0.0, 0.0))
        assign_region(state, region)
        prev = position(state)
        for _ in range(1000):
            step_robot(state, 0.8, 0.05)
            # Straight-line displacement never exceeds v*dt (corners only
            # shorten it).
            assert math.hypot(*(position(state) - prev)) <= 0.8 * 0.05 + 1e-12
            prev = position(state)

    def test_zero_velocity_halts(self):
        region = Rect(0.0, 0.0, 4.0, 4.0)
        state = one_robot((0.0, 0.0))
        assign_region(state, region)
        step_robot(state, 0.0, 1.0)
        fleet = state.fleet
        assert fleet.positions().tolist() == [[0.0, 0.0]]
        assert fleet.time.item(0) == 1.0
        assert fleet.lap_times[0] == []

    def test_region_change_triggers_transit_and_transitional_lap(self):
        first = Rect(0.0, 0.0, 4.0, 4.0)
        second = Rect(10.0, 0.0, 4.0, 4.0)
        state = one_robot((0.0, 0.0))
        fleet = state.fleet
        assign_region(state, first)
        for _ in range(100):
            step_robot(state, 0.8, 0.05)
        assign_region(state, second)
        assert fleet.in_transit.item(0) and fleet.transitional.item(0)
        for _ in range(5000):
            step_robot(state, 0.8, 0.05)
        assert boundary_distance(position(state), second) <= 1e-9
        assert fleet.lap_transitional[0][0] is True
        # Laps completed entirely inside the new region are clean again.
        assert fleet.lap_transitional[0][-1] is False

    def test_initial_assignment_not_transitional(self):
        region = Rect(0.0, 0.0, 4.0, 4.0)
        state = one_robot((0.0, 0.0))
        assign_region(state, region)
        assert not state.fleet.transitional.item(0) and not state.fleet.in_transit.item(0)

    def test_tiny_region_jitter_ignored(self):
        region = Rect(0.0, 0.0, 4.0, 4.0)
        nudged = Rect(0.0, 0.0, 4.0 + 1e-9, 4.0)
        state = one_robot((0.0, 0.0))
        assign_region(state, region)
        assign_region(state, nudged)
        assert not state.fleet.transitional.item(0)

    def test_transit_distance_not_counted_toward_lap(self):
        region = Rect(0.0, 0.0, 4.0, 4.0)  # perimeter 16
        state = one_robot((-2.0, 0.0))
        lap_times = state.fleet.lap_times[0]
        assign_region(state, region)
        assert state.fleet.in_transit.item(0)
        v, dt = 0.8, 0.05
        for _ in range(2000):
            step_robot(state, v, dt)
            if lap_times:
                break
        # First lap takes transit time (2 m) plus a full perimeter.
        expected = (2.0 + 16.0) / v
        assert lap_times[0] == pytest.approx(expected, abs=1e-9)

    def test_rejects_bad_step_arguments(self):
        state = one_robot((0.0, 0.0))
        with pytest.raises(ConfigurationError):
            step_robot(state, -0.1, 0.05)
        with pytest.raises(ConfigurationError):
            step_robot(state, 0.5, 0.0)


# Regions share edges, one is small enough for several laps per step, and one
# differs from another by less than the region-change tolerance.
REGIONS = (
    None,
    Rect(0.0, 0.0, 4.0, 3.0),
    Rect(4.0, 0.0, 4.0, 3.0),
    Rect(0.0, 0.0, 4.0 + 5e-7, 3.0),
    Rect(1.0, 1.0, 0.1, 0.05),
    Rect(-3.0, 2.0, 2.0, 6.0),
)
START_POINTS = ((0.0, 0.0), (4.0, 1.2), (2.0, 1.5), (-1.0, -1.0), (1.05, 1.0), (9.0, 2.0))
speeds = st.one_of(st.sampled_from([0.0, 0.05, 0.8, 3.0, 25.0]), st.floats(0.0, 30.0))
robots_spec = st.lists(
    st.tuples(st.sampled_from(START_POINTS), st.integers(0, len(REGIONS) - 1)),
    min_size=1,
    max_size=6,
)
# ("step", speeds, dt, reuse the previous velocity array, which position to
# read afterwards: None, -1 for all, or one robot) or ("assign", robot, region).
step_op = st.tuples(
    st.just("step"),
    st.lists(speeds, min_size=6, max_size=6),
    st.sampled_from([0.05, 0.25]),
    st.booleans(),
    st.one_of(st.none(), st.integers(-1, 5)),
)
assign_op = st.tuples(st.just("assign"), st.integers(0, 5), st.integers(0, len(REGIONS) - 1))


def robot_state(state):
    """What the fleet of the handle ``state`` holds of its robot."""
    fleet, i = state.fleet, state.index
    return (
        fleet.arc.item(i), fleet.lap_progress.item(i), fleet.time.item(i),
        fleet.lap_start_time.item(i), state.region, fleet.in_transit.item(i),
        fleet.transitional.item(i), fleet.lap_times[i], fleet.lap_transitional[i],
    )


def assert_same_state(fleet, reference):
    for state, ref in zip(fleet.robots, reference):
        assert robot_state(state) == robot_state(ref), state.index


class TestStepAll:
    @settings(max_examples=300, deadline=None)
    @given(robots_spec, st.lists(st.one_of(step_op, assign_op), max_size=40))
    def test_matches_step_robot_loop(self, robots, ops):
        fleet = PatrolFleet([point for point, _ in robots])
        reference = [PatrolFleet([point]).robots[0] for point, _ in robots]
        for (_, region), state, ref in zip(robots, fleet.robots, reference):
            assign_region(state, REGIONS[region])
            assign_region(ref, REGIONS[region])
        n = len(robots)
        v = None
        for op in ops:
            if op[0] == "assign":
                _, i, region = op
                assert assign_region(fleet.robots[i % n], REGIONS[region]) == assign_region(
                    reference[i % n], REGIONS[region]
                )
            else:
                _, speeds_, dt, reuse, read = op
                if v is None or not reuse:
                    v = np.array(speeds_[:n])
                step_all(fleet, v, dt)
                for state, speed in zip(reference, v.tolist()):
                    step_robot(state, speed, dt)
                if read == -1:
                    assert fleet.positions().tolist() == [position(ref).tolist() for ref in reference]
                elif read is not None and read < n:
                    assert fleet.positions()[read].tolist() == position(reference[read]).tolist()
            assert_same_state(fleet, reference)
        assert fleet.positions().tolist() == [position(ref).tolist() for ref in reference]

    def test_scalar_path_takes_still_transit_and_lapping_robots(self, monkeypatch):
        stepped = []
        scalar_step = patrol.step_robot

        def counted(state, v, dt):
            stepped.append(state.index)
            return scalar_step(state, v, dt)

        monkeypatch.setattr(patrol, "step_robot", counted)
        fleet = PatrolFleet([(0.0, 0.0), (4.0, 1.2), (9.0, 2.0)])
        for state, region in zip(fleet.robots, (REGIONS[1], REGIONS[2], REGIONS[5])):
            assign_region(state, region)
        assert fleet.in_transit.tolist() == [False, False, True]
        for speeds, scalar in (
            ([0.5, 0.5, 0.5], {2}),
            ([0.5, 0.5, 0.5], {2}),
            ([0.5, 0.0, 0.5], {1, 2}),
            ([0.6, 0.0, 0.5], {1, 2}),
            ([400.0, 0.0, 0.5], {0, 1, 2}),
            ([0.5, 0.5, 0.0], {2}),
        ):
            stepped.clear()
            step_all(fleet, np.array(speeds), 0.05)
            assert set(stepped) == scalar and len(stepped) == len(scalar)
        assert fleet.lap_times[0] and fleet.in_transit.item(2)

    def test_array_transit_step_takes_many_robots_in_transit(self, monkeypatch):
        stepped = []
        scalar_step = patrol.step_robot

        def counted(state, v, dt):
            stepped.append(state.index)
            return scalar_step(state, v, dt)

        monkeypatch.setattr(patrol, "step_robot", counted)
        n = patrol.ARRAY_MIN_ROBOTS
        # n robots 1 m left of a region; one on its perimeter, still; one
        # 0.15 m above a region of perimeter 0.3, fast enough to arrive and
        # complete a lap in one step.
        starts = [(-1.0, 0.1 * k) for k in range(n)] + [(0.0, 0.0), (1.05, 1.2)]
        fleet = PatrolFleet(starts)
        for state in fleet.robots[:-1]:
            assign_region(state, REGIONS[1])
        assign_region(fleet.robots[-1], REGIONS[4])
        assert fleet.in_transit.tolist() == [True] * n + [False, True]
        v = np.array([0.5] * n + [0.0, 25.0])
        step_all(fleet, v, 0.05)
        assert sorted(stepped) == [n, n + 1]
        assert fleet.in_transit.tolist() == [True] * n + [False, False]
        assert fleet.lap_times[-1]
        # The fast robot now completes a lap on its perimeter every step.
        stepped.clear()
        step_all(fleet, v, 0.05)
        assert sorted(stepped) == [n, n + 1]

    def test_added_robot_starts_its_clock_at_zero(self):
        fleet = PatrolFleet()
        step_all(fleet, np.zeros(0), 0.05)
        assign_region(fleet.add((0.0, 0.0)), REGIONS[1])
        v = np.array([0.8])
        for _ in range(10):
            step_all(fleet, v, 0.05)
        added = fleet.add((9.0, 2.0))
        assert added is fleet.robots[1] and fleet.time.item(1) == 0.0 and added.region is None
        assign_region(added, REGIONS[2])
        assert fleet.in_transit.item(1)
        step_all(fleet, np.array([0.8, 0.8]), 0.05)
        assert fleet.time.item(1) == 0.05

    @pytest.mark.parametrize(
        "name",
        ["arc", "lap_progress", "lap_start_time", "time", "transitional", "in_transit", "position",
         "region"],
    )
    def test_views_are_read_only(self, name):
        # Writing through a handle would skip the fleet's bookkeeping (an arc
        # written this way left the stored position where it was), so a
        # handle writes nothing.  Of the robot's state it reads only its
        # region, which ``assign_region`` alone changes; the rest is read
        # from the fleet.
        fleet = PatrolFleet([(0.0, 0.0)])
        state = fleet.robots[0]
        assign_region(state, REGIONS[1])
        if name == "region":
            assert state.region == REGIONS[1]
        else:
            assert not hasattr(state, name)
        with pytest.raises(AttributeError):
            setattr(state, name, 0.0)

    def test_rejects_bad_arguments(self):
        fleet = PatrolFleet([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(ConfigurationError):
            step_all(fleet, np.array([0.5, -0.1]), 0.05)
        with pytest.raises(ConfigurationError):
            step_all(fleet, np.array([0.5]), 0.05)
        with pytest.raises(ConfigurationError):
            step_all(fleet, np.array([0.5, 0.5]), 0.0)


class TestSystemPatrolTime:
    def test_max_over_active(self):
        lap_times = [[60.0, 62.0], [70.0, 64.0], [50.0, 51.0]]
        assert system_patrol_time(0, lap_times, [True, True, True]) == 70.0
        assert system_patrol_time(1, lap_times, [True, True, True]) == 64.0

    def test_inactive_robot_ignored(self):
        lap_times = [[60.0], [120.0]]
        assert system_patrol_time(0, lap_times, [True, False]) == 60.0

    def test_pending_lap_returns_none(self):
        lap_times = [[60.0], []]
        assert system_patrol_time(0, lap_times, [True, True]) is None

    def test_no_active_robots_returns_none(self):
        assert system_patrol_time(0, [[60.0]], [False]) is None
