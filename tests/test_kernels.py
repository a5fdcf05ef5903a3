"""The array kernels of the allocation cycle give the bits of the per-robot
loops they replaced.  Those loops are kept here as the reference, and every
comparison is ``==`` on floats, or on their ``hex()``, which also tells -0.0
from 0.0.  The block writer of ``cycles.csv`` gives the bytes of the per-row
writer it replaced.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhmr.allocation import compute_input_vector
from mhmr.geometry import (
    GlobalWorkspace,
    Rect,
    boundary_distance,
    min_boundary_distance,
    nearest_boundary_point,
    partition_from_workload,
    strips,
)
import mhmr.scenario
from mhmr.patrol import able_velocity
from mhmr.scenario import CycleRow, RunRecord, ScenarioRunner, TopologyEdit, builtin_script
from mhmr.team import ConditionSnapshot, TeamTopology, WorkloadVector
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
        tx, ty = nearest_boundary_point(point, rect)
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
