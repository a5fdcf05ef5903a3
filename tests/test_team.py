"""The robot -> operators index of ``TeamTopology`` against an edge scan."""

import pickle

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
from mhmr.team import TeamTopology


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
