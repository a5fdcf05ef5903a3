"""Kinematic patrolling simulation.

Point robots follow the perimeter of their allocated rectangle
counterclockwise at a velocity limited both by agent condition and by the
lap-time requirement.  When a robot's region changes it first travels in a
straight line to the nearest point of the new perimeter, then resumes
following; laps touched by a region change are marked transitional.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .geometry import Rect, nearest_boundary_point, perimeter
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
    """Condition-limited top speed: worst contributing condition times v_max.

    Reads the robot's ``kappa`` from ``snapshot.columns(topology)``, which
    checks the whole snapshot, so a missing agent or a metric outside [0, 1]
    raises even when it is not this robot's.
    """
    i = topology.value_tables.robot_slots[robot_id]
    return snapshot.columns(topology).kappa.item(i) * v_max


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


def _arc_of_point(region: Rect, px: float, py: float) -> float:
    """Arc-length coordinate of a point on the perimeter (snapped to it by
    :func:`~mhmr.geometry.nearest_boundary_point`)."""
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


class PatrolFleet:
    """Patrol state of several robots, one array entry per robot.

    ``robots[i]`` is a :class:`RobotKinematicState` view of robot ``i``.
    ``arc``, ``lap_progress`` and ``time`` are columns of one ``motion``
    array, so that one addition advances all three.  ``position`` is a list
    of ``(x, y)`` tuples.  A robot that has moved along its perimeter since
    its position was last stored is ``stale``: its position is
    ``_arc_point(region, arc)``, computed only when read.  A robot without
    a region has perimeter 0.0; only :func:`assign_region` changes a region.
    """

    #: Arrays with one row per robot.
    _PER_ROBOT = (
        "motion", "lap_start_time", "perimeter", "stale", "in_transit", "transitional",
    )

    def __init__(self, positions: Sequence[Sequence[float]] = ()):
        n = len(positions)
        self.position = [(float(x), float(y)) for x, y in positions]
        self.motion = np.zeros((n, 3))
        self.lap_start_time = np.zeros(n)
        self.perimeter = np.zeros(n)
        self.stale = np.zeros(n, dtype=bool)
        self.in_transit = np.zeros(n, dtype=bool)
        self.transitional = np.zeros(n, dtype=bool)
        self.regions: list[Optional[Rect]] = [None] * n
        self.lap_times: list[list[float]] = [[] for _ in range(n)]
        self.lap_transitional: list[list[bool]] = [[] for _ in range(n)]
        self.robots = [RobotKinematicState._view(self, i) for i in range(n)]
        self._bind_columns()

    def _bind_columns(self) -> None:
        motion = self.motion
        self.arc, self.lap_progress, self.time = motion[:, 0], motion[:, 1], motion[:, 2]
        # Step velocities and masks (see _set_velocities), set on the first step.
        self._v: Optional[np.ndarray] = None
        self._dt = 0.0
        self._moving = b""
        self._invalidate()

    def __len__(self) -> int:
        return len(self.robots)

    def add(self, position: Sequence[float]) -> "RobotKinematicState":
        """Append a robot with no region and its clock at 0."""
        for name in self._PER_ROBOT:
            value = getattr(self, name)
            row = np.zeros((1,) + value.shape[1:], value.dtype)
            setattr(self, name, np.concatenate([value, row]))
        self.position.append((float(position[0]), float(position[1])))
        self.regions.append(None)
        self.lap_times.append([])
        self.lap_transitional.append([])
        self.robots.append(RobotKinematicState._view(self, len(self.robots)))
        self._bind_columns()
        return self.robots[-1]

    def _invalidate(self) -> None:
        """Drop the step masks; :func:`step_all` rebuilds them."""
        self._limit: Optional[np.ndarray] = None

    def _set_velocities(self, v: np.ndarray, dt: float) -> None:
        """Step every robot ``i`` at ``v[i]`` from now on.

        The step masks depend on which robots move, not on how fast, so a
        new array that moves the same robots only refills ``_advance``.
        """
        if len(v) != len(self):
            raise ConfigurationError(f"{len(v)} velocities for {len(self)} robots")
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        if min(v.tolist(), default=0.0) < 0:
            raise ConfigurationError("velocity must be non-negative")
        moving = (v > 0).tobytes()
        if self._limit is None or moving != self._moving or dt != self._dt:
            self._build_step_masks(v, dt)
        else:
            self._fill_advance(v, dt)
        self._v, self._dt, self._moving = v, dt, moving

    def _build_step_masks(self, v: np.ndarray, dt: float) -> None:
        """What :func:`step_all` adds to ``motion`` and compares with.

        A robot that moves along its perimeter advances by ``[v * dt,
        v * dt, dt]``, and its lap limit and arc modulus is its perimeter.
        Every other robot (``_scalar``) advances by zero with limit ``inf``,
        and takes the scalar path.
        """
        self._go = go = (v > 0) & ((self.perimeter > 0.0) > self.in_transit)
        self._scalar = (~go).nonzero()[0].tolist()
        self._advance = np.multiply.outer(go, (0.0, 0.0, dt))
        self._fill_advance(v, dt)
        self._limit = np.where(go, self.perimeter, np.inf)

    def _fill_advance(self, v: np.ndarray, dt: float) -> None:
        """Put ``v * dt`` of each robot on the array path into the arc and
        lap-progress columns of ``_advance``."""
        budget = self._advance[:, 0]
        np.multiply(v, dt, out=budget)
        for i in self._scalar:
            budget[i] = 0.0
        self._advance[:, 1] = budget

    def _refresh(self, i: int) -> None:
        """Store robot ``i``'s position if it is stale."""
        if self.stale[i]:
            self.position[i] = _arc_point(self.regions[i], self.arc.item(i))
            self.stale[i] = False

    def positions(self) -> list[tuple[float, float]]:
        """``(x, y)`` of every robot, valid until the next step."""
        for i in self.stale.nonzero()[0].tolist():
            self.position[i] = _arc_point(self.regions[i], self.arc.item(i))
        self.stale.fill(False)
        return self.position


def _array_field(name: str) -> property:
    def get(self):
        return getattr(self.fleet, name).item(self.index)

    return property(get)


class RobotKinematicState:
    """Per-robot simulation state: a view of one robot of a
    :class:`PatrolFleet`, read-only.  ``RobotKinematicState(position=...)``
    is a fleet of one robot."""

    __slots__ = ("fleet", "index")

    def __init__(self, position: Sequence[float]):
        self.fleet = PatrolFleet([position])
        self.index = 0
        self.fleet.robots[0] = self

    @classmethod
    def _view(cls, fleet: PatrolFleet, index: int) -> "RobotKinematicState":
        view = cls.__new__(cls)
        view.fleet = fleet
        view.index = index
        return view

    arc = _array_field("arc")
    lap_progress = _array_field("lap_progress")
    lap_start_time = _array_field("lap_start_time")
    time = _array_field("time")
    transitional = _array_field("transitional")
    in_transit = _array_field("in_transit")

    @property
    def position(self) -> np.ndarray:
        self.fleet._refresh(self.index)
        return np.array(self.fleet.position[self.index])

    @property
    def region(self) -> Optional[Rect]:
        return self.fleet.regions[self.index]

    @property
    def lap_times(self) -> list[float]:
        return self.fleet.lap_times[self.index]

    @property
    def lap_transitional(self) -> list[bool]:
        return self.fleet.lap_transitional[self.index]


def _same_region(a: Optional[Rect], b: Optional[Rect]) -> bool:
    if a is None or b is None:
        return a is b
    return (
        abs(a.x - b.x) <= REGION_CHANGE_TOL
        and abs(a.y - b.y) <= REGION_CHANGE_TOL
        and abs(a.width - b.width) <= REGION_CHANGE_TOL
        and abs(a.height - b.height) <= REGION_CHANGE_TOL
    )


def assign_region(state: RobotKinematicState, region: Optional[Rect]) -> bool:
    """Point the robot at a (possibly changed) region; True if it changed.

    A meaningful change marks the current lap transitional and, if the
    robot is off the new perimeter, switches it into straight-line transit.
    """
    fleet, i = state.fleet, state.index
    old = fleet.regions[i]
    if _same_region(old, region):
        return False
    fleet._refresh(i)  # a stale position lies on the old perimeter
    fleet.regions[i] = region
    fleet.perimeter[i] = 0.0 if region is None else perimeter(region)
    fleet._invalidate()
    if old is not None:
        fleet.transitional[i] = True
    if region is None:
        fleet.in_transit[i] = False
        return True
    px, py = fleet.position[i]
    tx, ty = nearest_boundary_point((px, py), region)
    if math.hypot(tx - px, ty - py) > ON_PERIMETER_TOL:
        fleet.in_transit[i] = True
        fleet.transitional[i] = True
    else:
        fleet.in_transit[i] = False
        fleet.arc[i] = _arc_of_point(region, tx, ty)
    return True


def step_robot(state: RobotKinematicState, v: float, dt: float) -> RobotKinematicState:
    """Advance one integration step at commanded velocity ``v``.

    Transit distance toward a new perimeter does not count toward the lap
    odometer; a lap completes when the perimeter arc length covered since
    the lap start reaches the current perimeter, with the completion time
    interpolated inside the step.  A robot that ends the step on its
    perimeter is left stale: its position is computed when read.
    """
    if v < 0:
        raise ConfigurationError("velocity must be non-negative")
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    fleet, i = state.fleet, state.index
    motion = fleet.motion
    region = fleet.regions[i]
    if region is None or v == 0.0:
        motion[i, 2] += dt
        return state

    arc, progress, clock = motion[i].tolist()
    t_end = clock + dt
    budget = v * dt  # distance available this step
    if fleet.in_transit[i]:
        fleet._refresh(i)
        px, py = fleet.position[i]
        tx, ty = nearest_boundary_point((px, py), region)
        dx, dy = tx - px, ty - py
        gap = math.hypot(dx, dy)
        if budget < gap:
            scale = budget / gap
            fleet.position[i] = (px + dx * scale, py + dy * scale)
            motion[i, 2] = t_end
            return state
        clock += gap / v
        budget -= gap
        fleet.in_transit[i] = False
        fleet._invalidate()
        arc = _arc_of_point(region, tx, ty)

    p = fleet.perimeter.item(i)
    while budget > 0.0:
        room = p - progress
        if budget < room:
            arc = (arc + budget) % p
            progress += budget
            budget = 0.0
        else:
            arc = (arc + room) % p
            clock += room / v
            fleet.lap_times[i].append(clock - fleet.lap_start_time.item(i))
            fleet.lap_transitional[i].append(fleet.transitional.item(i))
            fleet.lap_start_time[i] = clock
            fleet.transitional[i] = False
            progress = 0.0
            budget -= room
    motion[i] = (arc, progress, t_end)
    fleet.stale[i] = True
    return state


def step_all(fleet: PatrolFleet, v: np.ndarray, dt: float) -> None:
    """Advance every robot of ``fleet`` one step; robot ``i`` moves at ``v[i]``.

    Gives the same bits as ``step_robot(fleet.robots[i], v[i], dt)`` for
    every robot.  Robots that move along their perimeter and complete no
    lap this step move together in a few array operations; every other
    robot (still, in transit, without a region or completing a lap) takes
    the scalar path of :func:`step_robot`.  ``v`` is read again only when
    a different array (or ``dt``) is passed, so it must not be modified in
    place between steps.
    """
    if v is not fleet._v or dt != fleet._dt:
        fleet._set_velocities(v, dt)
    elif fleet._limit is None:
        fleet._build_step_masks(v, dt)
    lapping = (fleet._advance[:, 0] >= fleet._limit - fleet.lap_progress).nonzero()[0]
    if lapping.size:
        # The scalar path starts from the state before this step.
        before = fleet.motion[lapping]
    fleet.motion += fleet._advance
    np.remainder(fleet.arc, fleet._limit, out=fleet.arc)
    fleet.stale |= fleet._go
    scalar = fleet._scalar
    if lapping.size:
        fleet.motion[lapping] = before
        scalar = scalar + lapping.tolist()
    for i in scalar:
        step_robot(fleet.robots[i], v.item(i), dt)


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
