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
from .geometry import Rect, nearest_perimeter_point, nearest_perimeter_points, perimeter
from .team import ConditionSnapshot, TeamTopology

#: Region corners closer than this (m) are treated as the same region.
REGION_CHANGE_TOL = 1e-6

#: A robot within this distance (m) of a perimeter counts as on it.
ON_PERIMETER_TOL = 1e-9

#: Robots that enter a region together, have their stale positions stored
#: together, or step in transit together, in at least this number take one
#: pass of array operations; fewer take the per-robot scalar twin.  An array
#: pass has a nearly fixed cost, its numpy calls, so the twins are faster for
#: small teams.  With this threshold at 1 at one site, in-process interleaved
#: A/Bs of the bundled scripts (2-core Xeon, Python 3.11.7, numpy 2.4.6) read:
#: region entry (:func:`_enter_regions`), the s1-s4 set-up 24-29 % slower;
#: position store (:meth:`PatrolFleet._refresh_rows`), the median s1/s2 cycle
#: 11-14 % slower; transit (:meth:`PatrolFleet._build_step_masks`), s1/s2
#: wall time 7 % slower, from the cycles with robots in transit.
ARRAY_MIN_ROBOTS = 40


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


def _arc_point(
    x: float, y: float, w: float, h: float, p: float, s: float
) -> tuple[float, float]:
    """Point at arc length ``s`` along the perimeter ``p`` of the rectangle
    ``[x, x + w] x [y, y + h]``, counterclockwise from its bottom-left
    corner."""
    s = s % p
    if s < w:
        return (x + s, y)
    s -= w
    if s < h:
        return (x + w, y + s)
    s -= h
    if s < w:
        return (x + w - s, y + h)
    s -= w
    return (x, y + h - s)


def _arc_points(bounds: np.ndarray, arc: np.ndarray) -> np.ndarray:
    """:func:`_arc_point` of each row of ``bounds`` (``x, y, width, height,
    perimeter``) and ``arc``, as an ``(n, 2)`` array: the same operations in
    the same order, with the side picked by the same comparisons."""
    x, y, w, h, p = bounds.T
    s = np.remainder(arc, p)
    bottom = s < w
    s1 = s - w
    right = s1 < h
    s2 = s1 - h
    top = s2 < w
    x_max, y_max = x + w, y + h
    out = np.empty((arc.size, 2))
    out[:, 0] = np.where(bottom, x + s, np.where(right, x_max, np.where(top, x_max - s2, x)))
    out[:, 1] = np.where(
        bottom, y, np.where(right, y + s1, np.where(top, y_max, y_max - (s2 - w)))
    )
    return out


def _arc_of_point(x: float, y: float, w: float, h: float, tx: float, ty: float) -> float:
    """Arc-length coordinate of the point ``(tx, ty)`` on the perimeter of
    the rectangle ``[x, x + w] x [y, y + h]``, measured along the first side
    it lies on in the order bottom, right, top, left; :func:`_arc_of_points`
    for one point."""
    if ty == y:
        return tx - x
    if tx == x + w:
        return w + (ty - y)
    if ty == y + h:
        return w + h + (x + w - tx)
    return 2 * w + h + (y + h - ty)


def _arc_of_points(target: np.ndarray, lo: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Arc-length coordinate of each point ``target[i]`` on the perimeter of
    the rectangle of ``bounds[i]`` (``x, y, width, height``; ``lo`` is its
    ``(x, y)`` columns), measured along the first side the point lies on in
    the order bottom, right, top, left.  A point on the perimeter lies
    exactly on one of its sides, which is where
    :func:`~mhmr.geometry.nearest_perimeter_points` puts it."""
    w, h = bounds[:, 2], bounds[:, 3]
    hi = lo + bounds[:, 2:4]
    # [tx - x, ty - y] and [x_max - tx, y_max - ty].
    in_lo, in_hi = (target - lo).T, (hi - target).T
    on_lo, on_hi = (target == lo).T, (target == hi).T
    left = np.where(on_hi[1], w + h + in_hi[0], 2 * w + h + in_hi[1])
    return np.where(on_lo[1], in_lo[0], np.where(on_hi[0], w + in_lo[1], left))


class PatrolFleet:
    """Patrol state of several robots, one array entry per robot.

    ``robots[i]`` is a :class:`RobotKinematicState` handle of robot ``i``.
    ``arc``, ``lap_progress`` and ``time`` are columns of one ``motion``
    array, so that one addition advances all three.  Robot ``i``'s region is
    row ``i`` of ``bounds``: ``x, y, width, height`` and ``perimeter``, all
    0.0 for a robot without a region; after construction only
    :func:`change_regions` changes them.  Robot ``i``'s position is row ``i``
    of the ``(n, 2)`` float array ``xy``; :meth:`positions` returns it as a
    read-only view, valid until the next step.  A robot that has moved along
    its perimeter since its position was last stored is ``stale``: its
    position is ``_arc_point`` of its bounds and arc, computed only when
    read.  A robot in transit is never stale.  Robot ``i``'s completed lap
    times, and whether each was transitional, are the lists ``lap_times[i]``
    and ``lap_transitional[i]``.
    """

    #: Arrays with one row per robot.
    _PER_ROBOT = (
        "xy", "motion", "lap_start_time", "bounds", "stale", "in_transit", "transitional",
    )

    def __init__(
        self, positions: Sequence[Sequence[float]] = (), bounds: Optional[np.ndarray] = None
    ):
        """Robots at ``positions``, each with the region of its row of
        ``bounds`` (as :func:`change_regions` takes them), or none."""
        n = len(positions)
        self.xy = np.array(positions, dtype=float).reshape(n, 2)
        self.motion = np.zeros((n, 3))
        self.lap_start_time = np.zeros(n)
        self.bounds = np.zeros((n, 5))
        self.stale = np.zeros(n, dtype=bool)
        self.in_transit = np.zeros(n, dtype=bool)
        self.transitional = np.zeros(n, dtype=bool)
        self.lap_times: list[list[float]] = [[] for _ in range(n)]
        self.lap_transitional: list[list[bool]] = [[] for _ in range(n)]
        self.robots = [RobotKinematicState(self, i) for i in range(n)]
        self._bind_columns()
        if bounds is not None:
            perimeters = _perimeters(bounds)
            _enter_regions(self, perimeters > 0.0, bounds, perimeters)

    def _bind_columns(self) -> None:
        motion = self.motion
        self.arc, self.lap_progress, self.time = motion[:, 0], motion[:, 1], motion[:, 2]
        self._xy_view = self.xy.view()
        self._xy_view.setflags(write=False)
        self.perimeter = self.bounds[:, 4]
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
        self.xy[-1] = (float(position[0]), float(position[1]))
        self.lap_times.append([])
        self.lap_transitional.append([])
        self.robots.append(RobotKinematicState(self, len(self.robots)))
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

        A robot that moves along its perimeter (``_go``) advances by
        ``[v * dt, v * dt, dt]``, and its lap limit and arc modulus is its
        perimeter.  Every other robot advances by -0.0 (which changes no
        number) with limit ``inf``:
        moving robots in transit, if there are ``ARRAY_MIN_ROBOTS`` of them,
        take the array transit step (``_transit``); the rest (still, without
        a region, or in transit) take the scalar path (``_scalar``).
        """
        moving = v > 0
        self._go = go = moving & ((self.perimeter > 0.0) > self.in_transit)
        transit = moving & self.in_transit
        self._off = (~go).nonzero()[0].tolist()
        if np.count_nonzero(transit) >= ARRAY_MIN_ROBOTS:
            self._transit: Optional[np.ndarray] = transit
            self._scalar = (~(go | transit)).nonzero()[0].tolist()
        else:
            self._transit = None
            self._scalar = self._off
        # -0.0 leaves every number it is added to as it was, -0.0 included.
        self._advance = np.where(go[:, None], (0.0, 0.0, dt), -0.0)
        self._fill_advance(v, dt)
        self._limit = np.where(go, self.perimeter, np.inf)

    def _fill_advance(self, v: np.ndarray, dt: float) -> None:
        """Put ``v * dt`` of each robot of ``_go`` into the arc and
        lap-progress columns of ``_advance``, and -0.0 for the others."""
        budget = self._advance[:, 0]
        np.multiply(v, dt, out=budget)
        for i in self._off:
            budget[i] = -0.0
        self._advance[:, 1] = budget

    def _refresh_rows(self, rows: np.ndarray) -> None:
        """Store the positions of the stale robots of the index array
        ``rows``: in one array pass from ``ARRAY_MIN_ROBOTS`` of them on,
        else by :func:`_arc_point` each and one write."""
        if rows.size >= ARRAY_MIN_ROBOTS:
            self.xy[rows] = _arc_points(self.bounds[rows], self.arc[rows])
        elif rows.size:
            arcs = self.arc[rows].tolist()
            self.xy[rows] = [_arc_point(*b, s) for b, s in zip(self.bounds[rows].tolist(), arcs)]
        self.stale[rows] = False

    def positions(self) -> np.ndarray:
        """``(x, y)`` of every robot, a read-only ``(n, 2)`` view of ``xy``
        valid until the next step."""
        self._refresh_rows(self.stale.nonzero()[0])
        return self._xy_view


class RobotKinematicState:
    """Handle of robot ``index`` of ``fleet``, for the one-robot forms
    :func:`assign_region` and :func:`step_robot`; the robot's state is read
    from the fleet's arrays and lists."""

    __slots__ = ("fleet", "index")

    def __init__(self, fleet: PatrolFleet, index: int):
        self.fleet = fleet
        self.index = index

    @property
    def region(self) -> Optional[Rect]:
        x, y, w, h, p = self.fleet.bounds[self.index].tolist()
        return Rect(x, y, w, h) if p > 0.0 else None


def _perimeters(bounds: np.ndarray) -> np.ndarray:
    """The perimeter of each ``(x, y, width, height)`` row, 0.0 for zeros."""
    return 2.0 * (bounds[:, 2] + bounds[:, 3])


def _approach(fleet: PatrolFleet, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """For every robot: its stored position (``fleet.xy`` itself), the
    ``(x, y)`` of its region and its nearest perimeter point (``(n, 2)``
    arrays), and the length ``gap`` of the move there.  Only the rows of the mask ``rows`` (robots
    that are not stale) mean anything.

    ``gap`` is ``math.hypot`` of the move.  Where one axis of the move is
    zero that is the other's absolute value, so ``math.hypot`` runs only
    where both are nonzero; ``np.hypot`` is not guaranteed to give its bits.
    """
    bounds, points = fleet.bounds, fleet.xy
    lo = bounds[:, :2]
    target = nearest_perimeter_points(points, lo, lo + bounds[:, 2:4])
    move = target - points
    gap = np.abs(move)
    diagonal = (rows & (gap[:, 0] != 0.0) & (gap[:, 1] != 0.0)).nonzero()[0]
    gap = np.maximum(gap[:, 0], gap[:, 1])
    for i in diagonal.tolist():
        gap[i] = math.hypot(*move[i].tolist())
    return points, lo, target, gap


def _enter_region(fleet: PatrolFleet, i: int, bounds: list[float], p: float) -> None:
    """Give robot ``i`` the region ``bounds`` (``x, y, width, height``) of
    perimeter ``p``: :func:`_enter_regions` for one robot."""
    if fleet.stale[i]:
        fleet.xy[i] = _arc_point(*fleet.bounds[i].tolist(), fleet.arc.item(i))
        fleet.stale[i] = False
    if fleet.perimeter.item(i) > 0.0:
        fleet.transitional[i] = True
    fleet.bounds[i] = (*bounds, p)
    if p == 0.0:
        fleet.in_transit[i] = False
        return
    x, y, w, h = bounds
    px, py = fleet.xy[i].tolist()
    tx, ty = nearest_perimeter_point(px, py, x, y, x + w, y + h)
    if math.hypot(tx - px, ty - py) > ON_PERIMETER_TOL:
        fleet.in_transit[i] = True
        fleet.transitional[i] = True
    else:
        fleet.in_transit[i] = False
        fleet.arc[i] = _arc_of_point(x, y, w, h, tx, ty)


def _enter_regions(
    fleet: PatrolFleet, rows: np.ndarray, bounds: np.ndarray, perimeters: np.ndarray
) -> None:
    """Give each robot ``i`` of the mask ``rows`` the region of
    ``bounds[i]``, of perimeter ``perimeters[i]``, whether or not it
    differs.

    A robot that had a region starts a transitional lap.  A robot given a
    region is, off its perimeter, in straight-line transit (also
    transitional); on it, its arc becomes that of its position.  A stale
    position is stored first, on the old perimeter.  ``ARRAY_MIN_ROBOTS``
    or more robots take one pass of array operations, fewer the scalar
    :func:`_enter_region` each.
    """
    fleet._invalidate()
    changed = rows.nonzero()[0]
    if changed.size < ARRAY_MIN_ROBOTS:
        for i in changed.tolist():
            _enter_region(fleet, i, bounds[i].tolist(), perimeters.item(i))
        return
    fleet._refresh_rows((rows & fleet.stale).nonzero()[0])
    fleet.transitional |= rows & (fleet.perimeter > 0.0)
    np.copyto(fleet.bounds[:, :4], bounds, where=rows[:, None])
    np.copyto(fleet.perimeter, perimeters, where=rows)
    fleet.in_transit &= ~rows
    placed = rows & (perimeters > 0.0)
    _, lo, target, gap = _approach(fleet, placed)
    off = placed & (gap > ON_PERIMETER_TOL)
    fleet.in_transit |= off
    fleet.transitional |= off
    np.copyto(fleet.arc, _arc_of_points(target, lo, fleet.bounds), where=placed ^ off)


def change_regions(fleet: PatrolFleet, bounds: np.ndarray) -> np.ndarray:
    """Point every robot ``i`` at the rectangle ``bounds[i]``, an ``(x, y,
    width, height)`` row, all zeros for no region; return for each robot
    whether its region changed.

    A region changes when the robot gains or loses one, or when a bound
    moves by more than ``REGION_CHANGE_TOL``; only the robots whose region
    changed enter their new one (see :func:`_enter_regions`).
    """
    perimeters = _perimeters(bounds)
    near = (np.abs(fleet.bounds[:, :4] - bounds) <= REGION_CHANGE_TOL).all(axis=1)
    moved = ((perimeters > 0.0) != (fleet.perimeter > 0.0)) | ~near
    if moved.any():
        _enter_regions(fleet, moved, bounds, perimeters)
    return moved


def assign_region(state: RobotKinematicState, region: Optional[Rect]) -> bool:
    """Point the robot at a (possibly changed) region; True if it changed.
    The one-row call of :func:`change_regions`: every other robot is given
    the region it has."""
    fleet, i = state.fleet, state.index
    bounds = fleet.bounds[:, :4].copy()
    bounds[i] = (0.0,) * 4 if region is None else (region.x, region.y, region.width, region.height)
    return bool(change_regions(fleet, bounds)[i])


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
    p = fleet.perimeter.item(i)
    if p == 0.0 or v == 0.0:
        motion[i, 2] += dt
        return state

    arc, progress, clock = motion[i].tolist()
    t_end = clock + dt
    budget = v * dt  # distance available this step
    if fleet.in_transit[i]:
        x, y, w, h, _ = fleet.bounds[i].tolist()
        px, py = fleet.xy[i].tolist()
        tx, ty = nearest_perimeter_point(px, py, x, y, x + w, y + h)
        dx, dy = tx - px, ty - py
        gap = math.hypot(dx, dy)
        if budget < gap:
            scale = budget / gap
            fleet.xy[i] = (px + dx * scale, py + dy * scale)
            motion[i, 2] = t_end
            return state
        clock += gap / v
        budget -= gap
        fleet.in_transit[i] = False
        fleet._invalidate()
        arc = _arc_of_point(x, y, w, h, tx, ty)

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


def _step_transit(fleet: PatrolFleet, rows: np.ndarray, v: np.ndarray, dt: float) -> list[int]:
    """Step the robots of the mask ``rows``, in transit at ``v > 0``, as
    :func:`step_robot` does: a straight move toward the nearest perimeter
    point, or the arrival there and a move along the perimeter with the
    rest of the step's distance.  A robot that would also complete a lap is
    left as it was and returned, for :func:`step_robot`."""
    points, lo, target, gap = _approach(fleet, rows)
    budget = v * dt
    short = rows & (budget < gap)
    moving = short.nonzero()[0]
    if moving.size:
        start = points[moving]
        scale = budget[moving] / gap[moving]
        fleet.xy[moving] = start + (target[moving] - start) * scale[:, None]
    rest = budget - gap
    arrived = rows ^ short
    lapping = arrived & (rest > 0.0) & (rest >= fleet.perimeter - fleet.lap_progress)
    arrived ^= lapping
    if arrived.any():
        along = arrived & (rest > 0.0)
        arc = _arc_of_points(target, lo, fleet.bounds)
        np.copyto(fleet.arc, arc, where=arrived)
        np.remainder(arc + rest, fleet.perimeter, out=fleet.arc, where=along)
        np.add(fleet.lap_progress, rest, out=fleet.lap_progress, where=along)
        fleet.in_transit ^= arrived
        fleet.stale |= arrived
        fleet._invalidate()
    np.add(fleet.time, dt, out=fleet.time, where=rows ^ lapping)
    return lapping.nonzero()[0].tolist()


def step_all(fleet: PatrolFleet, v: np.ndarray, dt: float) -> None:
    """Advance every robot of ``fleet`` one step; robot ``i`` moves at ``v[i]``.

    Gives the same bits as ``step_robot(fleet.robots[i], v[i], dt)`` for
    every robot.  Robots that move along their perimeter and complete no
    lap this step move together in a few array operations, and so do
    robots in transit that complete no lap, when ``ARRAY_MIN_ROBOTS`` or
    more are in transit (:func:`_step_transit`); every other robot (still,
    without a region, in transit with fewer, or completing a lap) takes the
    scalar path of :func:`step_robot`.  ``v`` is read again only when a
    different array (or ``dt``) is passed, so it must not be modified in
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
    # ``fmod`` is ``%`` for the non-negative arcs of the moving robots, and
    # leaves every other arc (limit ``inf``) as it was, -0.0 included.
    np.fmod(fleet.arc, fleet._limit, out=fleet.arc)
    fleet.stale |= fleet._go
    scalar = fleet._scalar
    if lapping.size:
        fleet.motion[lapping] = before
        scalar = scalar + lapping.tolist()
    if fleet._transit is not None:
        scalar = scalar + _step_transit(fleet, fleet._transit, v, dt)
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
