"""The array kernels of the allocation cycle and of the patrol fleet give
the bits of the per-robot loops they replaced.  Those loops are kept here as
the reference, and every comparison is ``==`` on floats, or on their
``hex()``, which also tells -0.0 from 0.0.  The block writer of
``cycles.csv`` gives the bytes of the per-row writer it replaced.
"""

import math
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mhmr.patrol
import mhmr.scenario
import mhmr.team
from mhmr.allocation import compute_input_vector
from mhmr.errors import ConfigurationError
from mhmr.geometry import (
    GlobalWorkspace,
    Rect,
    boundary_distance,
    min_boundary_distance,
    nearest_perimeter_point,
    nearest_perimeter_points,
    partition_from_workload,
    perimeter,
    strips,
)
from mhmr.patrol import (
    ON_PERIMETER_TOL,
    REGION_CHANGE_TOL,
    PatrolFleet,
    _arc_of_point,
    _arc_of_points,
    _arc_point,
    able_velocity,
    assign_region,
    change_regions,
    step_all,
)
from mhmr.scenario import (
    CycleRow,
    RunRecord,
    ScenarioRunner,
    ScenarioScript,
    TopologyEdit,
    builtin_script,
)
from mhmr.team import (
    EXACT_SUM_MIN,
    SUM_TOL,
    ConditionSnapshot,
    TeamTopology,
    WorkloadVector,
    exact_sum,
)
from mhmr.transition import allocation_cycle, compute_q_f

# ---------------------------------------------------------------------------
# References


def reference_input_vector(topology, snapshot):
    scores = np.empty(topology.m, dtype=float)
    for idx, rid in enumerate(topology.robot_ids):
        cond = snapshot.robot_condition[rid]
        perf = snapshot.robot_performance[rid]
        operators = topology.operators_of(rid)
        if operators:
            op_conds = [snapshot.operator_condition[o] for o in operators]
            gate = min(cond, perf, *op_conds)
            if gate == 0.0:
                scores[idx] = 0.0
            else:
                bracket = math.fsum([cond, perf, *op_conds])
                scores[idx] = gate / (len(operators) + 2) * bracket
        else:
            gate = min(cond, perf)
            if gate == 0.0:
                scores[idx] = 0.0
            else:
                scores[idx] = gate / 2.0 * (cond + perf)
    return scores


def reference_strips(workspace, shares):
    """``(x, width)`` of each robot's strip, ``None`` for a zero share."""
    nonzero = int(np.count_nonzero(shares))
    usable = workspace.width - (nonzero - 1) * workspace.safety_gap
    strips_, cursor, placed = [], workspace.origin[0], 0
    for share in shares:
        if share == 0.0:
            strips_.append(None)
            continue
        strip_width = share * usable
        strips_.append((cursor, strip_width))
        placed += 1
        cursor += strip_width
        if placed < nonzero:
            cursor += workspace.safety_gap
    return strips_


def reference_kappa(snapshot, topology, robot_id):
    """The worst of the robot's own and its operators' conditions."""
    cond = snapshot.robot_condition[robot_id]
    operators = topology.operators_of(robot_id)
    if operators:
        return min(cond, *(snapshot.operator_condition[o] for o in operators))
    return cond


def reference_boundary_distance(point, region):
    px, py = float(point[0]), float(point[1])
    dx = max(region.x - px, 0.0, px - region.x_max)
    dy = max(region.y - py, 0.0, py - region.y_max)
    if dx > 0.0 or dy > 0.0:
        return math.hypot(dx, dy)
    # Inside (or on) the rectangle: nearest side.
    return min(px - region.x, region.x_max - px, py - region.y, region.y_max - py)


def reference_q_f(positions, regions, failed=frozenset()):
    return min(
        reference_boundary_distance(positions[i], regions[i])
        for i in range(len(positions))
        if i not in failed and regions[i] is not None
    )


def reference_cycle_lines(rows, m):
    """The rows of ``cycles.csv``, one ``%.12g`` template per row; a row from
    before a robot joined is padded with ``nan``."""
    template = "%s," + "%.12g," * (4 * m + 4) + "%s\n"
    for r in rows:
        sigma, proposed, kappa, v = (
            tuple(r.sigma), tuple(r.sigma_proposed), tuple(r.kappa), tuple(r.v)
        )
        if len(sigma) < m:
            pad = (math.nan,) * (m - len(sigma))
            sigma, proposed, kappa, v = sigma + pad, proposed + pad, kappa + pad, v + pad
        note = r.note
        if not frozenset(',"\r\n').isdisjoint(note):
            note = '"%s"' % note.replace('"', '""')
        yield template % (
            r.cycle, r.time_s, *sigma, *proposed, r.q_f, r.K_e, *kappa, *v,
            r.transition_error, note,
        )


def reference_nearest_point(point, region):
    """Closest point of the perimeter of ``region`` to ``point``."""
    px, py = float(point[0]), float(point[1])
    inside_x = region.x < px < region.x_max
    inside_y = region.y < py < region.y_max
    if not (inside_x and inside_y):
        # Outside or on the boundary: clamp onto the rectangle.
        return (
            min(max(px, region.x), region.x_max),
            min(max(py, region.y), region.y_max),
        )
    # Strictly inside: project onto the nearest side.
    candidates = (
        (px - region.x, (region.x, py)),
        (region.x_max - px, (region.x_max, py)),
        (py - region.y, (px, region.y)),
        (region.y_max - py, (px, region.y_max)),
    )
    return min(candidates, key=lambda c: c[0])[1]


def reference_arc_point(region, s):
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


def reference_arc_of_point(region, px, py):
    """Arc-length coordinate of a point on the perimeter, measured from the
    nearest side."""
    w, h = region.width, region.height
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


class ReferenceRobot:
    """One robot's patrol state as the per-robot code kept it."""

    def __init__(self, position):
        self.position = (float(position[0]), float(position[1]))
        self.region = None
        self.arc = self.lap_progress = self.time = self.lap_start_time = 0.0
        self.stale = self.in_transit = self.transitional = False
        self.lap_times, self.lap_transitional = [], []

    def refresh(self):
        if self.stale:
            self.position = reference_arc_point(self.region, self.arc)
            self.stale = False


def reference_same_region(a, b):
    if a is None or b is None:
        return a is b
    return (
        abs(a.x - b.x) <= REGION_CHANGE_TOL
        and abs(a.y - b.y) <= REGION_CHANGE_TOL
        and abs(a.width - b.width) <= REGION_CHANGE_TOL
        and abs(a.height - b.height) <= REGION_CHANGE_TOL
    )


def reference_assign_region(robot, region):
    """Point the robot at a region; True if it changed.  A change marks the
    lap transitional and, off the new perimeter, starts a transit."""
    old = robot.region
    if reference_same_region(old, region):
        return False
    robot.refresh()  # a stale position lies on the old perimeter
    robot.region = region
    if old is not None:
        robot.transitional = True
    if region is None:
        robot.in_transit = False
        return True
    px, py = robot.position
    tx, ty = reference_nearest_point((px, py), region)
    if math.hypot(tx - px, ty - py) > ON_PERIMETER_TOL:
        robot.in_transit = True
        robot.transitional = True
    else:
        robot.in_transit = False
        robot.arc = reference_arc_of_point(region, tx, ty)
    return True


def reference_step(robot, v, dt):
    """One integration step at velocity ``v``: transit toward the nearest
    perimeter point, then laps along the perimeter."""
    region = robot.region
    if region is None or v == 0.0:
        robot.time += dt
        return
    arc, progress, clock = robot.arc, robot.lap_progress, robot.time
    t_end = clock + dt
    budget = v * dt
    if robot.in_transit:
        robot.refresh()
        px, py = robot.position
        tx, ty = reference_nearest_point((px, py), region)
        dx, dy = tx - px, ty - py
        gap = math.hypot(dx, dy)
        if budget < gap:
            scale = budget / gap
            robot.position = (px + dx * scale, py + dy * scale)
            robot.time = t_end
            return
        clock += gap / v
        budget -= gap
        robot.in_transit = False
        arc = reference_arc_of_point(region, tx, ty)
    p = perimeter(region)
    while budget > 0.0:
        room = p - progress
        if budget < room:
            arc = (arc + budget) % p
            progress += budget
            budget = 0.0
        else:
            arc = (arc + room) % p
            clock += room / v
            robot.lap_times.append(clock - robot.lap_start_time)
            robot.lap_transitional.append(robot.transitional)
            robot.lap_start_time = clock
            robot.transitional = False
            progress = 0.0
            budget -= room
    robot.arc, robot.lap_progress, robot.time = arc, progress, t_end
    robot.stale = True


# ---------------------------------------------------------------------------
# Scores and kappa

#: Exact values, values whose sums are exact, and values whose sums round
#: (0.1 + 0.2 + 0.3 is not 0.6 when added left to right).
metric = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.75]),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3]),
    st.floats(0.0, 1.0),
)


@st.composite
def teams(draw):
    m = draw(st.integers(1, 12))
    h = draw(st.integers(0, 6))
    edges = []
    for r in range(1, m + 1):
        ops = draw(st.lists(st.integers(1, h), unique=True, max_size=min(h, 4))) if h else []
        edges += [(r, o) for o in ops]
    topology = TeamTopology.build(range(1, m + 1), range(1, h + 1), edges)
    snapshot = ConditionSnapshot(
        robot_condition={r: draw(metric) for r in topology.robot_ids},
        operator_condition={o: draw(metric) for o in topology.operator_ids},
        robot_performance={r: draw(metric) for r in topology.robot_ids},
    )
    return topology, snapshot


def single_robot(cond, perf, op_conds):
    ops = range(1, len(op_conds) + 1)
    topology = TeamTopology.build([1], ops, [(1, o) for o in ops])
    snapshot = ConditionSnapshot(
        robot_condition={1: cond},
        operator_condition=dict(zip(ops, op_conds)),
        robot_performance={1: perf},
    )
    return topology, snapshot


class TestScores:
    @settings(max_examples=400, deadline=None)
    @given(teams())
    @example(single_robot(0.1, 0.2, [0.3]))
    @example(single_robot(1.0, 1.0, [0.1, 0.2]))
    @example(single_robot(0.1, 0.7, []))
    @example(single_robot(0.0, 0.3, [0.1, 0.2, 0.7]))
    def test_scores_and_kappa_match_scalar_loops(self, case):
        topology, snapshot = case
        expected = reference_input_vector(topology, snapshot).tolist()
        assert compute_input_vector(topology, snapshot).tolist() == expected
        kappa = [reference_kappa(snapshot, topology, r) for r in topology.robot_ids]
        assert snapshot.columns(topology).kappa.tolist() == kappa
        v_max = 0.8
        assert [able_velocity(snapshot, topology, r, v_max) for r in topology.robot_ids] == [
            k * v_max for k in kappa
        ]

    @pytest.mark.parametrize(
        "cond, perf, ops",
        [
            # (cond + perf) rounds, before a further term.
            (0.1, 0.2, [0.3]),
            # An exact first addition, then one that rounds before the last term.
            (1.0, 1.0, [0.1, 0.2]),
        ],
    )
    def test_rounding_rows_go_through_fsum(self, cond, perf, ops):
        # Added left to right, these brackets come out one ulp off.
        naive = cond + perf
        for o in ops:
            naive += o
        exact = math.fsum([cond, perf, *ops])
        assert naive != exact
        topology, snapshot = single_robot(cond, perf, ops)
        gate = min(cond, perf, *ops)
        assert compute_input_vector(topology, snapshot)[0] == gate / (len(ops) + 2) * exact

    @settings(max_examples=100, deadline=None)
    @given(teams())
    def test_values_laid_out_by_the_builder_give_the_same_columns(self, case):
        topology, snapshot = case
        ids, oids = topology.robot_ids, topology.operator_ids
        values = np.array(
            [snapshot.robot_condition[r] for r in ids]
            + [snapshot.robot_performance[r] for r in ids]
            + [snapshot.operator_condition[o] for o in oids]
            + [0.0]
        )
        built = ConditionSnapshot._from_values(
            topology,
            snapshot.robot_condition,
            snapshot.operator_condition,
            snapshot.robot_performance,
            values,
        )
        for got, want in zip(built.columns(topology), snapshot.columns(topology)):
            assert got.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# Strips


@st.composite
def shares_and_workspace(draw):
    m = draw(st.integers(1, 120))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m))
    # 0-5 % of the robots get a zero share; at least one keeps its share.
    zeros = draw(st.lists(st.integers(0, m - 1), max_size=m * 5 // 100, unique=True))
    for i in zeros:
        weights[i] = 0.0
    if not any(weights):
        weights[0] = 1.0
    total = math.fsum(weights)
    sigma = WorkloadVector(np.array([w / total for w in weights]))
    width = draw(st.floats(0.5, 5000.0))
    workspace = GlobalWorkspace(
        origin=(draw(st.floats(-100.0, 100.0)), draw(st.floats(-10.0, 10.0))),
        width=width,
        height=draw(st.floats(0.5, 50.0)),
        safety_gap=draw(st.floats(0.0, width / (2 * m))),
    )
    return sigma, workspace


class TestStrips:
    @settings(max_examples=300, deadline=None)
    @given(shares_and_workspace())
    def test_cumsum_strips_match_cursor_loop(self, case):
        sigma, workspace = case
        expected = reference_strips(workspace, sigma.shares)
        placed, x, width = strips(workspace, sigma.shares)
        assert placed.tolist() == [i for i, s in enumerate(expected) if s is not None]
        assert list(zip(x.tolist(), width.tolist())) == [s for s in expected if s is not None]
        regions = partition_from_workload(workspace, sigma)
        assert [None if r is None else (r.x, r.width) for r in regions] == expected


# ---------------------------------------------------------------------------
# q_f


@st.composite
def points_around(draw, rect):
    """A point inside, on an edge, outside along one axis, or diagonal to a
    corner of ``rect``."""
    fx, fy = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    x, y = rect.x + fx * rect.width, rect.y + fy * rect.height
    off = st.floats(1e-9, 40.0)
    kind = draw(st.sampled_from(["inside", "edge", "outside_x", "outside_y", "diagonal"]))
    if kind == "edge":
        x = draw(st.sampled_from([rect.x, rect.x_max, x]))
        y = draw(st.sampled_from([rect.y, rect.y_max])) if x not in (rect.x, rect.x_max) else y
    elif kind == "outside_x":
        x = draw(st.sampled_from([rect.x - draw(off), rect.x_max + draw(off)]))
    elif kind == "outside_y":
        y = draw(st.sampled_from([rect.y - draw(off), rect.y_max + draw(off)]))
    elif kind == "diagonal":
        x = draw(st.sampled_from([rect.x - draw(off), rect.x_max + draw(off)]))
        y = draw(st.sampled_from([rect.y - draw(off), rect.y_max + draw(off)]))
    return (x, y)


#: Rectangles as the patrol and ``q_f`` see them.
rects = st.builds(
    Rect,
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    st.floats(0.01, 30.0),
    st.floats(0.01, 30.0),
)


@st.composite
def regions_and_points(draw):
    n = draw(st.integers(1, 20))
    regions, points = [], []
    for _ in range(n):
        if draw(st.integers(0, 9)) == 0:
            regions.append(None)
            points.append((draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))))
            continue
        rect = draw(rects)
        regions.append(rect)
        points.append(draw(points_around(rect)))
    if all(r is None for r in regions):
        regions[0] = Rect(0.0, 0.0, 1.0, 1.0)
    active = [i for i, r in enumerate(regions) if r is not None]
    failed = set(draw(st.lists(st.sampled_from(active), max_size=len(active) - 1)))
    return regions, points, failed


@st.composite
def points_near_edges(draw, rect):
    """A point on an edge or a corner of ``rect``, or inside it, moved by
    up to 2e-9 along each axis: just inside, on or just outside."""
    fx, fy = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    x = draw(st.sampled_from([rect.x, rect.x_max, rect.x + fx * rect.width]))
    y = draw(st.sampled_from([rect.y, rect.y_max, rect.y + fy * rect.height]))
    jitter = st.one_of(st.just(0.0), st.floats(-2e-9, 2e-9))
    return (x + draw(jitter), y + draw(jitter))


@st.composite
def rect_and_point(draw):
    rect = draw(rects)
    return rect, draw(st.one_of(points_around(rect), points_near_edges(rect)))


class TestBoundaryDistance:
    @settings(max_examples=600, deadline=None)
    @given(rect_and_point())
    @example((Rect(0.0, 0.0, 4.0, 2.0), (-3.0, -4.0)))
    @example((Rect(0.0, 0.0, 4.0, 2.0), (4.0, 1.0)))
    @example((Rect(0.0, 0.0, 4.0, 2.0), (2.0, 1.0)))
    @example((Rect(0.0, 0.0, 4.0, 2.0), (4.0 + 1e-9, 2.0 - 1e-9)))
    def test_snap_distance_and_boundary_distance_match_scalar(self, case):
        rect, point = case
        expected = reference_boundary_distance(point, rect).hex()
        assert boundary_distance(point, rect).hex() == expected
        # How assign_region decides whether a robot is on its perimeter.
        tx, ty = nearest_perimeter_point(*point, rect.x, rect.y, rect.x_max, rect.y_max)
        assert math.hypot(tx - point[0], ty - point[1]).hex() == expected


class TestQf:
    @settings(max_examples=250, deadline=None)
    @given(regions_and_points())
    @example(([Rect(0.0, 0.0, 4.0, 2.0)], [(-3.0, -4.0)], set()))
    @example(([Rect(0.0, 0.0, 4.0, 2.0)], [(5.0, 1.0)], set()))
    @example(([Rect(0.0, 0.0, 4.0, 2.0), Rect(5.0, 0.0, 1.0, 2.0)], [(1.0, 1.0), (5.5, 9.0)], set()))
    def test_q_f_matches_boundary_distance_loop(self, case):
        regions, points, failed = case
        expected = reference_q_f(points, regions, failed)
        assert compute_q_f(points, tuple(regions), failed) == expected
        rows = [i for i, r in enumerate(regions) if r is not None and i not in failed]
        bounds = np.array([(r.x, r.y, r.x_max, r.y_max) for r in map(regions.__getitem__, rows)])
        assert min_boundary_distance(np.array(points)[rows], *bounds.T) == expected

    @settings(max_examples=120, deadline=None)
    @given(shares_and_workspace(), st.data())
    def test_allocation_cycle_previews_q_f_without_rects(self, case, data):
        proposed, workspace = case
        m = len(proposed)
        x0, y0 = workspace.origin
        # Anywhere in the workspace or a little beyond it, so that points lie
        # outside their strips along x, along y, or both.
        coordinate = st.tuples(
            st.floats(x0 - 1.0, x0 + workspace.width + 1.0),
            st.floats(y0 - 1.0, y0 + workspace.height + 1.0),
        )
        positions = data.draw(st.lists(coordinate, min_size=m, max_size=m))
        state = allocation_cycle(proposed, positions, WorkloadVector.uniform(m), 0.5, workspace)
        regions = partition_from_workload(workspace, proposed)
        assert state.q_f == reference_q_f(positions, regions)


# ---------------------------------------------------------------------------
# cycles.csv


def float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Numbers whose cells are easy to get wrong: both zeros, NaNs of other
#: payloads and signs, both infinities, the least subnormal, and values that
#: ``%.12g`` rounds or writes with an exponent.
awkward = st.sampled_from(
    [
        0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 0.1 + 0.2, 1e16, -1.5e-7,
        math.nan, -math.nan, float_of_bits(0x7FF8000000000001), float_of_bits(0xFFF0000000000123),
    ]
)
cell = st.one_of(awkward, st.floats(), st.sampled_from([0.5, 0.25, 1.0]))


@st.composite
def records(draw):
    """A record of ``m`` robots whose first rows may be from before the last
    robots joined, each row's groups as tuples or as read-only arrays."""
    m = draw(st.integers(1, 4))
    sizes = sorted(draw(st.lists(st.integers(1, m), min_size=1, max_size=12)))
    rows = []
    for cycle, n in enumerate(sizes):

        def group():
            values = tuple(draw(cell) for _ in range(n))
            if draw(st.booleans()):
                return values
            array = np.array(values)
            array.setflags(write=False)
            return array

        rows.append(
            CycleRow(
                cycle, draw(cell), group(), group(), draw(cell), draw(cell), group(), group(),
                draw(cell), draw(st.text(st.sampled_from('ab ,"\r\n'), max_size=5)),
            )
        )
    record = RunRecord(robot_ids=tuple(range(1, m + 1)))
    record.cycles = rows
    return record


def cycle_lines_written(record, outdir, block_cells):
    """The rows of the record's ``cycles.csv``, written in blocks of at most
    ``block_cells`` number cells."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mhmr.scenario, "WRITE_BLOCK_CELLS", block_cells)
        with open(record.write(outdir) / "cycles.csv", newline="") as fh:
            return fh.read().split("\n", 1)[1]


class TestCycleLines:
    @settings(max_examples=300, deadline=None)
    @given(records(), st.sampled_from([1, 7, 16, 40, mhmr.scenario.WRITE_BLOCK_CELLS]))
    def test_block_writer_matches_row_template(self, tmp_path_factory, record, block_cells):
        written = cycle_lines_written(record, tmp_path_factory.mktemp("cycles"), block_cells)
        assert written == "".join(reference_cycle_lines(record.cycles, len(record.robot_ids)))

    def test_zeros_and_nans_in_one_block(self, tmp_path):
        record = RunRecord(robot_ids=(1, 2))
        payload = float_of_bits(0x7FF8000000000001)
        zeros, kappa, v = (0.0, -0.0), (math.nan, -math.nan), np.array([-math.nan, payload])
        record.cycles = [CycleRow(0, 0.0, zeros, np.array(zeros[::-1]), -0.0, 0.0, kappa, v, payload)]
        written = cycle_lines_written(record, tmp_path, 1 << 10)
        assert written == "0,0,0,-0,-0,0,-0,0,nan,nan,nan,nan,nan,\n"
        assert written == "".join(reference_cycle_lines(record.cycles, 2))

    # One row (48 cells) per block, two, and the default.
    @pytest.mark.parametrize("block_cells", [1, 100, mhmr.scenario.WRITE_BLOCK_CELLS])
    def test_record_with_an_added_robot_matches_row_template(self, tmp_path, block_cells):
        runner = ScenarioRunner(builtin_script("s3"))
        runner.run_until(10.0)
        runner.apply_topology_edit(TopologyEdit("add_robot", 11))
        record = runner.run()
        written = cycle_lines_written(record, tmp_path, block_cells)
        assert written == "".join(reference_cycle_lines(record.cycles, 11))


# ---------------------------------------------------------------------------
# Patrol: positions, region changes and transit


def region_bounds(region):
    return (0.0,) * 4 if region is None else (region.x, region.y, region.width, region.height)


#: Origins include both zeros and negative values; sizes are exact in binary
#: or not, so that arcs built from exact steps land exactly on the corners.
origins = st.one_of(st.sampled_from([0.0, -0.0, -3.0, 2.5, -1e-3]), st.floats(-20.0, 20.0))
sizes = st.one_of(st.sampled_from([1.0, 2.0, 0.5, 4.0, 0.25]), st.floats(0.05, 10.0))
patrol_rects = st.builds(Rect, origins, origins, sizes, sizes)
#: An index into a rectangle's corner arcs and their neighbours (see
#: ``test_stored_positions_match_arc_point``), or a multiple of its perimeter.
arc_choices = st.one_of(st.integers(0, 23), st.floats(0.0, 3.0))


@st.composite
def points_for(draw, rect):
    """A point on a corner or an edge, at the centre of the rectangle or on
    one of its diagonals (ties in the nearest side), inside, outside along
    one axis or both, or a signed zero."""
    x = draw(st.sampled_from([rect.x, rect.x_max, rect.center[0], -0.0, 0.0]))
    y = draw(st.sampled_from([rect.y, rect.y_max, rect.center[1], -0.0, 0.0]))
    d = min(rect.width, rect.height) / 4
    return draw(
        st.one_of(
            st.just((x, y)),
            st.just((rect.x + d, rect.y + d)),
            st.just((rect.x_max - d, rect.y_max - d)),
            points_around(rect),
            points_near_edges(rect),
        )
    )


@st.composite
def patrol_cases(draw):
    """Robots with start points near a pool of regions (with ``None`` and a
    region within ``REGION_CHANGE_TOL`` of another), then a list of
    operations: whole-team changes, one-row assignments, steps and reads."""
    pool = draw(st.lists(patrol_rects, min_size=1, max_size=4))
    pool.append(Rect(pool[0].x, pool[0].y, pool[0].width + REGION_CHANGE_TOL / 2, pool[0].height))
    pool.append(None)
    n = draw(st.integers(1, 24))
    starts = [draw(points_for(pool[draw(st.integers(0, len(pool) - 2))])) for _ in range(n)]
    choice = st.integers(0, len(pool) - 1)
    speeds = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 2.0, 4.0, 40.0]), st.floats(0.0, 50.0))
    op = st.one_of(
        st.tuples(st.just("change"), st.lists(choice, min_size=n, max_size=n)),
        st.tuples(st.just("assign"), st.integers(0, n - 1), choice),
        st.tuples(
            st.just("step"),
            st.lists(speeds, min_size=n, max_size=n),
            st.sampled_from([0.25, 0.5, 0.05]),
            st.integers(1, 4),
        ),
        st.tuples(st.just("positions")),
    )
    first = draw(st.lists(choice, min_size=n, max_size=n))
    return pool, starts, first, draw(st.booleans()), draw(st.lists(op, max_size=12))


def assert_fleet_matches(fleet, reference):
    for i, ref in enumerate(reference):
        assert fleet.stale.item(i) == ref.stale, i
        if not ref.stale:
            assert [c.hex() for c in fleet.xy[i].tolist()] == [c.hex() for c in ref.position], i
        got = (fleet.arc.item(i), fleet.lap_progress.item(i), fleet.time.item(i),
               fleet.lap_start_time.item(i), *fleet.bounds[i].tolist())
        want = (ref.arc, ref.lap_progress, ref.time, ref.lap_start_time,
                *region_bounds(ref.region), 0.0 if ref.region is None else perimeter(ref.region))
        assert [c.hex() for c in got] == [float(c).hex() for c in want], i
        assert (fleet.in_transit.item(i), fleet.transitional.item(i)) == (
            ref.in_transit, ref.transitional
        ), i
        assert [t.hex() for t in fleet.lap_times[i]] == [t.hex() for t in ref.lap_times], i
        assert fleet.lap_transitional[i] == ref.lap_transitional, i


def run_patrol_case(case):
    pool, starts, first, construct, ops = case
    n = len(starts)
    reference = [ReferenceRobot(point) for point in starts]
    for ref, k in zip(reference, first):
        reference_assign_region(ref, pool[k])
    first_bounds = np.array([region_bounds(pool[k]) for k in first], dtype=float)
    if construct:
        fleet = PatrolFleet(starts, first_bounds)
    else:
        fleet = PatrolFleet(starts)
        change_regions(fleet, first_bounds)
    assert_fleet_matches(fleet, reference)
    for op in ops:
        if op[0] == "change":
            bounds = np.array([region_bounds(pool[k]) for k in op[1]], dtype=float)
            moved = change_regions(fleet, bounds)
            expected = [reference_assign_region(ref, pool[k]) for ref, k in zip(reference, op[1])]
            assert moved.tolist() == expected
        elif op[0] == "assign":
            _, i, k = op
            assert assign_region(fleet.robots[i], pool[k]) == reference_assign_region(
                reference[i], pool[k]
            )
        elif op[0] == "step":
            _, speeds, dt, repeat = op
            v = np.array(speeds)
            for _ in range(repeat):
                step_all(fleet, v, dt)
                for ref, speed in zip(reference, speeds):
                    reference_step(ref, speed, dt)
        else:
            for ref in reference:
                ref.refresh()
            got = [[c.hex() for c in point] for point in fleet.positions().tolist()]
            assert got == [[c.hex() for c in ref.position] for ref in reference]
        assert_fleet_matches(fleet, reference)
    assert len(fleet) == n


class TestPatrolKernels:
    @settings(max_examples=600, deadline=None)
    @given(rect_and_point())
    @example((Rect(0.0, 0.0, 2.0, 2.0), (1.0, 1.0)))  # equally near all four sides
    @example((Rect(0.0, 0.0, 4.0, 2.0), (1.0, 1.0)))  # left and bottom tie
    @example((Rect(-0.0, -0.0, 1.0, 1.0), (0.0, -0.0)))  # signed zeros on a corner
    @example((Rect(0.0, 0.0, 1.0, 1.0), (-0.0, 0.5)))
    @example((Rect(-3.0, -2.0, 1.0, 1.0), (-2.5, -5.0)))
    def test_nearest_point_and_arc_match_scalar(self, case):
        rect, point = case
        expected = reference_nearest_point(point, rect)
        tx, ty = nearest_perimeter_point(*point, rect.x, rect.y, rect.x_max, rect.y_max)
        assert [tx.hex(), ty.hex()] == [c.hex() for c in expected]
        lo = np.array([(rect.x, rect.y)])
        hi = np.array([(rect.x_max, rect.y_max)])
        array = nearest_perimeter_points(np.array([point], dtype=float), lo, hi)
        assert [c.hex() for c in array[0].tolist()] == [c.hex() for c in expected]
        arc = reference_arc_of_point(rect, *expected)
        bounds = np.array([(rect.x, rect.y, rect.width, rect.height)])
        assert _arc_of_point(rect.x, rect.y, rect.width, rect.height, *expected).hex() == arc.hex()
        assert _arc_of_points(array, lo, bounds).item().hex() == arc.hex()

    @settings(max_examples=400, deadline=None)
    @given(patrol_rects, st.data())
    @example(Rect(0.0, 0.0, 1.0, 2.0), None)  # the corners: w, w + h, 2w + h, p
    def test_arc_point_matches_scalar(self, rect, data):
        p = perimeter(rect)
        w, h = rect.width, rect.height
        arcs = [0.0, w, w + h, 2 * w + h, p, p / 3, 2 * p]
        if data is not None:
            arcs.append(data.draw(st.floats(0.0, 3 * p)))
        for s in arcs:
            got = _arc_point(rect.x, rect.y, w, h, p, s)
            assert [c.hex() for c in got] == [c.hex() for c in reference_arc_point(rect, s)], s

    @pytest.mark.parametrize("array_min", [1, 10**9])
    @settings(max_examples=300, deadline=None)
    @given(robots=st.lists(st.one_of(st.none(), st.tuples(patrol_rects, arc_choices)), max_size=12))
    @example(robots=[(Rect(0.0, 0.0, 1.0, 2.0), k) for k in range(24)] + [None])
    @example(robots=[None, (Rect(-0.0, -0.0, 0.5, 0.25), 1), (Rect(-3.0, 2.5, 0.1, 7.3), 2.9)])
    def test_stored_positions_match_arc_point(self, array_min, robots):
        # ``positions()`` stores every stale row: with ``ARRAY_MIN_ROBOTS``
        # at 1 in one array pass, at 10**9 by ``_arc_point`` each.  Arcs sit
        # on and next to the corners and the signed zeros, or anywhere on
        # the first three laps; robots without a region keep their stored
        # position.
        arcs, bounds = [], []
        for robot in robots:
            if robot is None:
                arcs.append(None)
                bounds.append((0.0,) * 4)
                continue
            rect, choice = robot
            w, h = rect.width, rect.height
            p = perimeter(rect)
            corners = [0.0, -0.0, w, w + h, 2 * w + h, p, 2 * p, 3 * p]
            special = corners + [math.nextafter(c, d) for c in corners for d in (-1.0, 1e9)]
            arcs.append(special[choice] if isinstance(choice, int) else choice * p)
            bounds.append(region_bounds(rect))
        starts = [(0.25 * i, -0.0) for i in range(len(robots))]
        fleet = PatrolFleet(starts, np.array(bounds, dtype=float).reshape(-1, 4))
        stored = fleet.xy.tolist()
        placed = [i for i, s in enumerate(arcs) if s is not None]
        fleet.arc[placed] = [arcs[i] for i in placed]
        fleet.stale[placed] = True
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mhmr.patrol, "ARRAY_MIN_ROBOTS", array_min)
            got = fleet.positions()
        assert got.shape == (len(robots), 2) and not got.flags.writeable
        assert not fleet.stale.any()
        for i, (s, row) in enumerate(zip(arcs, fleet.bounds.tolist())):
            want = stored[i] if s is None else _arc_point(*row, s)
            assert [c.hex() for c in got[i].tolist()] == [c.hex() for c in want], (i, s)

    @pytest.mark.parametrize("array_min", [1, 8, 10**9])
    @settings(max_examples=150, deadline=None)
    @given(case=patrol_cases())
    @example(  # exact steps: arcs w, w + h, 2w + h, then a lap
        case=([Rect(0.0, 0.0, 1.0, 2.0), None], [(0.0, 0.0)], [0], True,
              [("step", [4.0], 0.25, 1), ("positions",)] * 6),
    )
    @example(  # a point just above a corner: its arc rounds to the perimeter
        case=([Rect(0.0, 0.0, 1.0, 1.0), None], [(0.0, 1e-17)], [0], False,
              [("positions",), ("step", [0.5], 0.25, 3), ("positions",)]),
    )
    @example(  # diagonal off a corner: within ON_PERIMETER_TOL, |dx| + |dy| beyond it
        case=([Rect(0.0, 0.0, 1.0, 1.0), None], [(1.0 + 7e-10, 1.0 + 7e-10)], [0], True,
              [("positions",)]),
    )
    @example(  # a corner arc of -0.0 that the array step must leave alone
        case=([Rect(0.0, 0.0, 1.0, 1.0), None], [(-0.0, 0.0), (0.0, 0.5)], [0, 0], False,
              [("step", [0.0, 1.0], 0.25, 1), ("positions",)]),
    )
    @example(  # signed-zero origin, from and to no region
        case=([Rect(-0.0, -0.0, 1.0, 1.0), None], [(0.0, -0.0), (-0.0, 0.5)], [1, 0], True,
              [("change", [0, 1]), ("step", [1.0, 1.0], 0.25, 2), ("change", [1, 0]),
               ("positions",)]),
    )
    def test_fleet_matches_per_robot_reference(self, array_min, case):
        # The array paths run from ``ARRAY_MIN_ROBOTS`` robots on: 1 sends
        # every region change and transit step through them, 8 some (up to
        # 24 robots are drawn) and 10**9 none.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mhmr.patrol, "ARRAY_MIN_ROBOTS", array_min)
            run_patrol_case(case)


# ---------------------------------------------------------------------------
# Sums


def fsum_outcome(values):
    """``math.fsum`` of the list: the result's ``hex()``, or the exception."""
    try:
        return math.fsum(values.tolist()).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def assert_sum_matches_fsum(values, cutover=None):
    """``exact_sum`` gives fsum's bits, sign of zero included, or raises as
    it does; ``cutover`` replaces ``EXACT_SUM_MIN`` (``None`` keeps it)."""
    values = np.asarray(values, dtype=float)
    with pytest.MonkeyPatch.context() as patch:
        if cutover is not None:
            patch.setattr(mhmr.team, "EXACT_SUM_MIN", cutover)
        try:
            # numpy's cumsum flags the overflow that fsum raises for.
            with np.errstate(over="ignore", invalid="ignore"):
                got = exact_sum(values).hex()
        except (OverflowError, ValueError) as exc:
            got = type(exc), str(exc)
    assert got == fsum_outcome(values), values


def sizes_around_cutover():
    """Lengths on both sides of ``EXACT_SUM_MIN``, and short ones."""
    n = EXACT_SUM_MIN
    return st.one_of(st.integers(n - 40, n + 40), st.integers(1, 40), st.integers(n, 3 * n))


#: 2 sends every array of two or more items through the kernel.
CUTOVERS = [2, None]


class TestExactSum:
    @pytest.mark.parametrize("cutover", CUTOVERS)
    @settings(max_examples=200, deadline=None)
    @given(n=sizes_around_cutover(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_non_negative_arrays(self, cutover, n, seed, data):
        rng = np.random.default_rng(seed)
        values = rng.random(n)
        kind = data.draw(st.sampled_from(["uniform", "shares", "spread", "some zeros"]))
        if kind == "shares":
            values /= math.fsum(values.tolist())
        elif kind == "spread":
            values *= 2.0 ** rng.integers(-60, 20, n)
        elif kind == "some zeros":
            values[rng.random(n) < 0.9] = 0.0
        assert_sum_matches_fsum(values, cutover)

    @pytest.mark.parametrize("cutover", CUTOVERS)
    @settings(max_examples=300, deadline=None)
    @given(
        base=st.floats(1.0, 2.0, exclude_max=True),
        exponent=st.integers(-1000, 1000),
        below=st.booleans(),
        pieces=st.integers(0, 6),
        nudge=st.sampled_from([0.0, 1.0, -1.0]),
        n=sizes_around_cutover(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(base=1.0, exponent=0, below=False, pieces=0, nudge=0.0, n=600, seed=0)
    @example(base=1.0 + 2.0**-52, exponent=0, below=False, pieces=3, nudge=0.0, n=600, seed=1)
    # Below a power of two the gap is half the gap above it.
    @example(base=1.0, exponent=0, below=True, pieces=0, nudge=1.0, n=3, seed=0)
    def test_half_ulp_ties(self, cutover, base, exponent, below, pieces, nudge, n, seed):
        # x plus or minus half the gap to its neighbour on that side, split
        # into 2**pieces equal parts, is a tie that rounds to even; a nudge
        # too small to change the float sum of the parts breaks the tie.
        x = math.ldexp(base, exponent)
        half = (x - math.nextafter(x, 0.0) if below else math.ulp(x)) / 2
        if below:
            half = -half
        parts = [x] + [half / 2**pieces] * 2**pieces + [nudge * half * 2.0**-60]
        values = parts + [0.0] * max(0, n - len(parts))
        random.Random(seed).shuffle(values)
        assert_sum_matches_fsum(values, cutover)

    @pytest.mark.parametrize("cutover", CUTOVERS)
    @settings(max_examples=150, deadline=None)
    @given(n=sizes_around_cutover(), seed=st.integers(0, 2**32 - 1), signed=st.booleans())
    def test_subnormals(self, cutover, n, seed, signed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**20, n) * 2.0**-1074
        values[rng.random(n) < 0.1] = 2.0**-1022
        if signed:
            values *= rng.choice([-1.0, 1.0], n)
        assert_sum_matches_fsum(values, cutover)

    @pytest.mark.parametrize("cutover", CUTOVERS)
    @pytest.mark.parametrize("zeros", ["positive", "negative", "mixed", "cancelling"])
    @pytest.mark.parametrize("n", [1, 2, EXACT_SUM_MIN - 1, EXACT_SUM_MIN, EXACT_SUM_MIN + 1, 1000])
    def test_zeros(self, cutover, zeros, n):
        values = {
            "positive": np.zeros(n),
            "negative": np.full(n, -0.0),
            "mixed": np.resize([-0.0, 0.0, -0.0], n),
            "cancelling": np.resize([0.75, -0.75], n),
        }[zeros]
        assert_sum_matches_fsum(values, cutover)

    @pytest.mark.parametrize("cutover", CUTOVERS)
    @settings(max_examples=200, deadline=None)
    @given(
        n=sizes_around_cutover(),
        seed=st.integers(0, 2**32 - 1),
        low=st.integers(-1074, 1000),
        cancel=st.booleans(),
    )
    @example(n=600, seed=0, low=-1074, cancel=True)
    def test_mixed_magnitudes(self, cutover, n, seed, low, cancel):
        rng = np.random.default_rng(seed)
        high = int(rng.integers(low, 1001))
        values = rng.random(n) * 2.0 ** rng.integers(low, high + 1, n)
        values *= rng.choice([-1.0, 1.0], n)
        if cancel:
            # Pairs that cancel exactly, so that small terms decide the sum.
            values[: n // 2] = -values[n - n // 2 :][::-1][: n // 2]
            rng.shuffle(values)
        assert_sum_matches_fsum(values, cutover)

    @pytest.mark.parametrize("cutover", CUTOVERS)
    @pytest.mark.parametrize(
        "head",
        [
            [1e308, 1e308],
            [1e308, 1e308, -1e308],
            [1.7e308, -1.7e308, 1.7e308],
            [math.inf, 1.0],
            [math.inf, -math.inf],
            [-math.inf, -1e308],
            [math.nan, 1.0],
            [sys.float_info.max, -sys.float_info.max, sys.float_info.max, 2.0**970],
        ],
    )
    @pytest.mark.parametrize("n", [3, 600])
    def test_overflow_and_non_finite(self, cutover, head, n):
        values = head + [0.5] * (n - len(head))
        assert_sum_matches_fsum(values, cutover)
        assert_sum_matches_fsum(values[::-1], cutover)

    def test_team_sized_shares_take_the_kernel(self, monkeypatch):
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(len(xs)) or fsum(xs))
        rng = np.random.default_rng(5)
        for n in (EXACT_SUM_MIN, 1000):
            scores = rng.random(n)
            assert exact_sum(scores) == fsum(scores.tolist())
            error = np.abs(scores / fsum(scores.tolist()) - 1.0 / n)
            assert exact_sum(error) == fsum(error.tolist())
            assert exact_sum(np.zeros(n)) == 0.0
        # Only an exact zero total goes to fsum, alone, for its sign.
        assert calls == [1, 1]


def reference_share_check(shares):
    """WorkloadVector's sum check before the array fast check."""
    total = math.fsum(shares.tolist())
    if not abs(total - 1.0) <= SUM_TOL:
        return f"workload shares sum to {total!r}, expected 1 within {SUM_TOL}"
    return None


def share_check(shares):
    try:
        WorkloadVector(shares.copy())
    except ConfigurationError as exc:
        return str(exc)
    return None


class TestShareSumCheck:
    @settings(max_examples=60, deadline=None)
    @given(
        extra=st.integers(0, 600),
        seed=st.integers(0, 2**32 - 1),
        target=st.sampled_from([1.0 - SUM_TOL, 1.0 + SUM_TOL, 1.0]),
    )
    def test_verdict_and_message_match_fsum_check(self, extra, seed, target):
        # Shares whose exact total sweeps across 1 +- SUM_TOL in half-ulp steps.
        m = EXACT_SUM_MIN + extra
        rng = np.random.default_rng(seed)
        shares = rng.random(m)
        shares *= target / math.fsum(shares.tolist())
        shares[-1] += target - math.fsum(shares.tolist())
        base = shares[-1]
        for k in range(-12, 13):
            shares[-1] = base + k * 2.0**-53
            assert share_check(shares) == reference_share_check(shares), k


def degraded_team_script(m, duration_s):
    """Allocation-only run of an alternating team of ``m`` robots, about a
    tenth of whose agents step or ramp down over the run."""
    rng = random.Random(m)
    agents = [f"robot:{r}" for r in range(1, m + 1)] + [f"operator:{o}" for o in range(1, m + 1, 2)]
    events = []
    for target in rng.sample(agents, len(agents) // 10):
        metric = "operator_condition" if target.startswith("operator") else rng.choice(
            ["robot_condition", "performance"]
        )
        value = round(rng.uniform(0.3, 0.95), 4)
        if rng.random() < 0.5:
            profile = {"type": "step", "value": value}
        else:
            profile = {"type": "ramp", "value": value, "duration": round(rng.uniform(2.0, 10.0), 3)}
        time_s = round(rng.uniform(0.0, 0.9 * duration_s), 3)
        events.append({"time_s": time_s, "target": target, "metric": metric, "profile": profile})
    return {
        "name": f"degraded_m{m}",
        "topology": {"m": m, "pattern": "alternating"},
        "workspace": {"origin": [0.0, 0.0], "width": 2.0 * m, "height": 5.0, "safety_gap": 0.01},
        "params": {"K": 5.0, "tau": 0.5},
        "mode": "allocation-only",
        "duration_s": duration_s,
        "events": sorted(events, key=lambda e: (e["time_s"], e["target"], e["metric"])),
    }


def test_records_do_not_depend_on_the_sum_cutover(tmp_path, monkeypatch):
    # As shipped, the team-sized sums of this run take the array kernel and
    # the array share check; with the cutover above m, math.fsum over lists.
    m = EXACT_SUM_MIN + 88
    script = ScenarioScript.from_dict(degraded_team_script(m, 20.0))
    team_sized = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: team_sized.append(len(xs) >= m) or fsum(xs))
    team_sized_calls = {}
    for cutover in (EXACT_SUM_MIN, m + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mhmr.team, "EXACT_SUM_MIN", cutover)
            team_sized.clear()
            ScenarioRunner(script).run().write(tmp_path / str(cutover))
            team_sized_calls[cutover] = sum(team_sized)
    cycles = int(20.0 / 0.5) + 1
    assert team_sized_calls[EXACT_SUM_MIN] <= 5
    assert team_sized_calls[m + 1] >= 4 * cycles
    for name in ("cycles.csv", "summary.json"):
        shipped = (tmp_path / str(EXACT_SUM_MIN) / name).read_bytes()
        assert shipped == (tmp_path / str(m + 1) / name).read_bytes(), name
