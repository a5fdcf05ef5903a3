"""The robot -> operators index of ``TeamTopology`` against an edge scan, and
its value tables against the per-robot list build they replaced."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhmr import scenario
from mhmr.errors import ConfigurationError
from mhmr.scenario import (
    ScenarioRunner,
    ScenarioScript,
    TopologyEdit,
    build_topology,
    builtin_script,
)
from mhmr.team import TeamTopology, ValueTables


# -- oracle: the per-call edge scan the index replaced -------------------------


def scan_operators_of(team, robot_id):
    return tuple(sorted(o for r, o in team.edges if r == robot_id))


def scan_is_autonomous(team, robot_id):
    return not any(r == robot_id for r, _ in team.edges)


def assert_matches_scan(team, probe_ids):
    for rid in probe_ids:
        assert team.operators_of(rid) == scan_operators_of(team, rid)
        assert team.is_autonomous(rid) == scan_is_autonomous(team, rid)


@st.composite
def teams(draw):
    """Random bipartite team; each robot gets any subset of the operators."""
    robot_ids = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=12, unique=True))
    operator_ids = draw(st.lists(st.integers(-50, 50), max_size=6, unique=True))
    edges = set()
    if operator_ids:
        for r in robot_ids:
            for o in draw(st.sets(st.sampled_from(operator_ids))):
                edges.add((r, o))
    return TeamTopology.build(robot_ids, operator_ids, edges)


def reference_value_tables(team):
    """The per-robot list build that ``TeamTopology.value_tables`` replaced."""
    m, h = team.m, team.h
    slot = {o: 2 * m + j for j, o in enumerate(team.operator_ids)}
    rows = [[slot[o] for o in team.operators_of(r)] for r in team.robot_ids]
    k = max(1, max(map(len, rows), default=0))
    operators = [row + [2 * m + h] * (k - len(row)) for row in rows]
    kappa = [[i, *row, *[i] * (k - len(row))] for i, row in enumerate(rows)]
    counts = np.array([len(row) for row in rows], dtype=np.intp)
    healthy = np.append(np.ones(2 * m + h), 0.0)
    healthy.setflags(write=False)
    return ValueTables(
        np.array(kappa, dtype=np.intp).reshape(m, k + 1),
        np.array(operators, dtype=np.intp).reshape(m, k),
        counts + 2.0,
        [counts > j for j in range(k)],
        dict(zip(team.robot_ids, range(m))),
        dict(zip(team.robot_ids, range(m, 2 * m))),
        slot,
        healthy,
    )


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()


def assert_tables_match_reference(team):
    got, want = team.value_tables, reference_value_tables(team)
    for name in ("kappa", "operators", "terms", "healthy"):
        assert_same_array(getattr(got, name), getattr(want, name))
    assert not got.healthy.flags.writeable
    assert len(got.more) == len(want.more)
    for g, w in zip(got.more, want.more):
        assert_same_array(g, w)
    for name in ("robot_slots", "performance_slots", "operator_slots"):
        assert list(getattr(got, name).items()) == list(getattr(want, name).items())


@st.composite
def edited_runners(draw):
    """A runner on a random explicit-edge team, and a few valid team edits."""
    m = draw(st.integers(1, 8))
    h = draw(st.integers(0, 4))
    edges = [
        [r, o]
        for r in range(1, m + 1)
        for o in (draw(st.sets(st.integers(1, h), max_size=3)) if h else ())
    ]
    script = ScenarioScript.from_dict(
        {
            "name": "edits",
            "topology": {"m": m, "h": h, "edges": edges},
            "workspace": {"origin": [0.0, 0.0], "width": 20.0, "height": 5.0},
            "params": {"K": 5.0, "tau": 0.5},
            "mode": "allocation-only",
            "duration_s": 5.0,
            "events": [],
        }
    )
    kinds = draw(
        st.lists(st.sampled_from(["add_robot", "add_edge", "remove_edge", "remove_robot"]), max_size=5)
    )
    return ScenarioRunner(script), kinds


class TestValueTables:
    @given(team=teams())
    @example(
        # robot 2 has two operators, robot 3 none, operator 9 no robot
        team=TeamTopology.build([5, 2, 3], [9, 4, 1], [(5, 1), (2, 4), (2, 1)]),
    )
    @example(team=TeamTopology.build([1, 2], [7]))
    @settings(max_examples=300, deadline=None)
    def test_matches_list_build(self, team):
        assert_tables_match_reference(team)

    @given(case=edited_runners(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_list_build_after_each_edit(self, case, data):
        runner, kinds = case
        assert_tables_match_reference(runner.topology)
        for kind in kinds:
            team = runner.topology
            new_operator = max(team.operator_ids, default=0) + 1
            operators = st.sets(st.sampled_from(team.operator_ids + (new_operator,)), max_size=3)
            if kind == "add_robot":
                edit = TopologyEdit(kind, max(team.robot_ids) + 1, tuple(data.draw(operators)))
            elif kind == "remove_edge":
                wired = [r for r in team.robot_ids if team.operators_of(r)]
                if not wired:
                    continue
                rid = data.draw(st.sampled_from(wired))
                ops = data.draw(st.sets(st.sampled_from(team.operators_of(rid)), min_size=1))
                edit = TopologyEdit(kind, rid, tuple(ops))
            else:
                rid = data.draw(st.sampled_from(team.robot_ids))
                ops = data.draw(operators) if kind == "add_edge" else set()
                edit = TopologyEdit(kind, rid, tuple(ops))
            runner.apply_topology_edit(edit)
            assert_tables_match_reference(runner.topology)
            runner.run_until(runner.step_index * runner.dt + 0.5)


class TestOperatorIndex:
    @given(team=teams(), unknown=st.lists(st.integers(-100, 100), max_size=5))
    @example(
        # robot 1 has one operator, robot 2 several, robot 3 none; 99 is unknown
        team=TeamTopology.build([1, 2, 3], [1, 2, 3], [(1, 2), (2, 3), (2, 1), (2, 2)]),
        unknown=[99],
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_edge_scan(self, team, unknown):
        assert_matches_scan(team, team.robot_ids + tuple(unknown))

    def test_unknown_and_autonomous_robots_have_no_operators(self):
        team = TeamTopology.build([1, 2], [1], [(1, 1)])
        assert team.operators_of(2) == ()
        assert team.operators_of(42) == ()
        assert team.is_autonomous(42)

    def test_index_stays_out_of_equality_hash_and_repr(self):
        a = TeamTopology.build([1, 2, 3], [1, 2], [(1, 1), (1, 2), (2, 2)])
        b = TeamTopology.build([1, 2, 3], [1, 2], [(2, 2), (1, 2), (1, 1)])
        assert a == b and hash(a) == hash(b)
        assert repr(a) == (
            f"TeamTopology(robot_ids=(1, 2, 3), operator_ids=(1, 2), edges={a.edges!r})"
        )
        assert a != TeamTopology.build([1, 2, 3], [1, 2], [(1, 1)])

    def test_index_survives_pickle(self):
        team = TeamTopology.build([1, 2], [1, 2], [(1, 2), (1, 1)])
        clone = pickle.loads(pickle.dumps(team))
        assert clone == team and clone.operators_of(1) == (1, 2)

    def test_bad_edge_still_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown operator 9"):
            TeamTopology.build([1], [1], [(1, 9)])


class TestRunnerTopology:
    @pytest.mark.parametrize("name", ["s1", "s3"])
    def test_script_team_is_built_topology(self, name):
        script = builtin_script(name)
        assert script.team == build_topology(script.topology)

    def test_runner_builds_topology_once(self, monkeypatch):
        calls = []

        def counting_build(spec):
            calls.append(spec)
            return build_topology(spec)

        monkeypatch.setattr(scenario, "build_topology", counting_build)
        script = builtin_script("s3")
        assert len(calls) == 1
        runner = ScenarioRunner(script)
        assert len(calls) == 1
        assert runner.topology is script.team

    def test_edits_update_operator_lookups(self):
        script = ScenarioScript.from_dict(
            {
                "name": "edits",
                "topology": {"m": 3, "h": 2, "edges": [[1, 1], [2, 2]]},
                "workspace": {"origin": [0.0, 0.0], "width": 20.0, "height": 5.0},
                "params": {"K": 5.0, "tau": 0.5},
                "mode": "allocation-only",
                "duration_s": 30.0,
                "events": [],
            }
        )
        runner = ScenarioRunner(script)
        runner.run_until(2.0)

        team = runner.apply_topology_edit(
            TopologyEdit(kind="add_edge", robot_id=3, operator_ids=(2, 1))
        )
        assert team.operators_of(3) == (1, 2)
        assert_matches_scan(team, (1, 2, 3))

        team = runner.apply_topology_edit(
            TopologyEdit(kind="remove_edge", robot_id=1, operator_ids=(1,))
        )
        assert team.operators_of(1) == () and team.is_autonomous(1)
        assert_matches_scan(team, (1, 2, 3))

        team = runner.apply_topology_edit(
            TopologyEdit(kind="add_robot", robot_id=4, operator_ids=(2, 3))
        )
        assert team.operators_of(4) == (2, 3)
        assert team.operator_ids == (1, 2, 3)
        assert [r for r in team.robot_ids if not team.is_autonomous(r)] == [2, 3, 4]
        assert_matches_scan(team, (1, 2, 3, 4, 5))
        assert runner.topology is team
