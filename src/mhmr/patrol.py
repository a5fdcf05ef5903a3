"""Kinematic patrolling simulation.

Point robots follow the perimeter of their allocated rectangle
counterclockwise at a velocity limited both by agent condition and by the
lap-time requirement.  When a robot's region changes it first travels in a
straight line to the nearest point of the new perimeter, then resumes
following; laps touched by a region change are marked transitional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .geometry import Rect, boundary_distance, nearest_boundary_point, perimeter
from .team import ConditionSnapshot, TeamTopology

#: Region corners closer than this (m) are treated as the same region.
REGION_CHANGE_TOL = 1e-6

#: A robot within this distance (m) of a perimeter counts as on it.
ON_PERIMETER_TOL = 1e-9


def able_velocity(
    snapshot: ConditionSnapshot,
    topology: TeamTopology,
    robot_id: int,
    v_max: float,
) -> float:
    """Condition-limited top speed: worst contributing condition times v_max."""
    cond = snapshot.robot_condition[robot_id]
    operators = topology.operators_of(robot_id)
    if operators:
        kappa = min(cond, *(snapshot.operator_condition[o] for o in operators))
    else:
        kappa = cond
    return kappa * v_max


def required_velocity(region: Optional[Rect], tau_star: float, v_max: float) -> float:
    """Perimeter / lap-time threshold, clamped to [0, v_max].

    An empty region requires nothing; the robot idles.
    """
    if tau_star <= 0:
        raise ConfigurationError("lap-time threshold must be positive")
    if region is None:
        return 0.0
    return min(perimeter(region) / tau_star, v_max)


def commanded_velocity(v_able: float, v_req: float) -> float:
    """The robot moves at whichever limit binds first."""
    return min(v_able, v_req)


def _arc_point(region: Rect, s: float) -> tuple[float, float]:
    """Point at arc length ``s`` along the perimeter, counterclockwise from
    the bottom-left corner."""
    p = perimeter(region)
    s = s % p
    w, h = region.width, region.height
    if s < w:
        return (region.x + s, region.y)
    s -= w
    if s < h:
        return (region.x_max, region.y + s)
    s -= h
    if s < w:
        return (region.x_max - s, region.y_max)
    s -= w
    return (region.x, region.y_max - s)


def _arc_of_point(region: Rect, point: Sequence[float]) -> float:
    """Arc-length coordinate of a point assumed on (or snapped to) the
    perimeter."""
    px, py = nearest_boundary_point(point, region)
    w, h = region.width, region.height
    # Distances to each side decide which edge the point lies on.
    d_bottom = abs(py - region.y)
    d_right = abs(px - region.x_max)
    d_top = abs(py - region.y_max)
    d_left = abs(px - region.x)
    side = min(
        (d_bottom, 0), (d_right, 1), (d_top, 2), (d_left, 3), key=lambda c: c[0]
    )[1]
    if side == 0:
        return px - region.x
    if side == 1:
        return w + (py - region.y)
    if side == 2:
        return w + h + (region.x_max - px)
    return 2 * w + h + (region.y_max - py)


@dataclass
class RobotKinematicState:
    """Mutable per-robot simulation state."""

    position: np.ndarray
    region: Optional[Rect] = None
    arc: float = 0.0
    lap_progress: float = 0.0
    lap_start_time: float = 0.0
    time: float = 0.0
    in_transit: bool = False
    transitional: bool = False
    lap_times: list[float] = field(default_factory=list)
    lap_transitional: list[bool] = field(default_factory=list)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).copy()


def _same_region(a: Optional[Rect], b: Optional[Rect]) -> bool:
    if a is None or b is None:
        return a is b
    return (
        abs(a.x - b.x) <= REGION_CHANGE_TOL
        and abs(a.y - b.y) <= REGION_CHANGE_TOL
        and abs(a.width - b.width) <= REGION_CHANGE_TOL
        and abs(a.height - b.height) <= REGION_CHANGE_TOL
    )


def assign_region(state: RobotKinematicState, region: Optional[Rect]) -> None:
    """Point the robot at a (possibly changed) region.

    A meaningful change marks the current lap transitional and, if the
    robot is off the new perimeter, switches it into straight-line transit.
    """
    if _same_region(state.region, region):
        return
    had_region = state.region is not None
    state.region = region
    state.transitional = state.transitional or had_region
    if region is None:
        state.in_transit = False
        return
    if boundary_distance(state.position, region) > ON_PERIMETER_TOL:
        state.in_transit = True
        state.transitional = True
    else:
        state.in_transit = False
        state.arc = _arc_of_point(region, state.position)


def step_robot(state: RobotKinematicState, v: float, dt: float) -> RobotKinematicState:
    """Advance one integration step at commanded velocity ``v``.

    Transit distance toward a new perimeter does not count toward the lap
    odometer; a lap completes when the perimeter arc length covered since
    the lap start reaches the current perimeter, with the completion time
    interpolated inside the step.
    """
    if v < 0:
        raise ConfigurationError("velocity must be non-negative")
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    t_end = state.time + dt
    if state.region is None or v == 0.0:
        state.time = t_end
        return state

    budget = v * dt  # distance available this step
    clock = state.time
    if state.in_transit:
        target = np.asarray(nearest_boundary_point(state.position, state.region))
        gap = float(math.hypot(*(target - state.position)))
        if budget < gap:
            state.position += (target - state.position) * (budget / gap)
            state.time = t_end
            return state
        state.position = target.copy()
        clock += float(gap / v) if v > 0 else 0.0
        budget -= gap
        state.in_transit = False
        state.arc = _arc_of_point(state.region, state.position)

    p = perimeter(state.region)
    while budget > 0.0:
        room = p - state.lap_progress
        if budget < room:
            state.arc = (state.arc + budget) % p
            state.lap_progress += budget
            budget = 0.0
        else:
            state.arc = (state.arc + room) % p
            clock += room / v
            state.lap_times.append(clock - state.lap_start_time)
            state.lap_transitional.append(state.transitional)
            state.lap_start_time = clock
            state.lap_progress = 0.0
            state.transitional = False
            budget -= room
    state.position = np.asarray(_arc_point(state.region, state.arc))
    state.time = t_end
    return state


def system_patrol_time(
    lap_index: int, lap_times: Sequence[Sequence[float]], active: Sequence[bool]
) -> Optional[float]:
    """Max lap time over active robots for one lap index, or ``None`` while
    any active robot has not finished that lap yet ("lap pending")."""
    selected = []
    for times, is_active in zip(lap_times, active):
        if not is_active:
            continue
        if lap_index >= len(times):
            return None
        selected.append(times[lap_index])
    if not selected:
        return None
    return max(selected)
