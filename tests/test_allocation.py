import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhmr.allocation import compute_input_vector, propose_allocation
from mhmr.errors import ConfigurationError, MetricDomainError, NoCapableAgentError
from mhmr.team import ConditionSnapshot, TeamTopology, WorkloadVector

from conftest import random_snapshot, random_topology


def simple_team(m=3, edges=((1, 1), (2, 2))):
    operators = tuple(sorted({o for _, o in edges}))
    return TeamTopology.build(range(1, m + 1), operators, edges)


def snapshot(topology, robot=None, operator=None, perf=None):
    return ConditionSnapshot(
        robot_condition={r: 1.0 for r in topology.robot_ids} | (robot or {}),
        operator_condition={o: 1.0 for o in topology.operator_ids} | (operator or {}),
        robot_performance={r: 1.0 for r in topology.robot_ids} | (perf or {}),
    )


# The m=10 transition-analysis team: odd robots human-operated by a
# same-numbered operator, even robots autonomous.
def analysis_team(m=10):
    return TeamTopology.build(
        range(1, m + 1),
        [i for i in range(1, m + 1) if i % 2 == 1],
        [(i, i) for i in range(1, m + 1) if i % 2 == 1],
    )


def analysis_conditions(robot3=0.6):
    return {"robot": {3: robot3, 8: 0.75}, "operator": {3: 0.8, 5: 0.8}}


def hand_scores(m=10, robot3=0.6):
    """Independent evaluation of the input scores, spelled out term by term."""
    scores = [1.0] * m
    # robot 3: one operator at 0.8, own condition robot3, performance 1
    g3 = min(robot3, 0.8, 1.0)
    scores[2] = g3 / 3.0 * (robot3 + 0.8 + 1.0) if g3 > 0 else 0.0
    # robot 5: operator at 0.8, rest 1
    scores[4] = 0.8 / 3.0 * (1.0 + 0.8 + 1.0)
    # robot 8: autonomous, condition 0.75
    scores[7] = 0.75 / 2.0 * (0.75 + 1.0)
    return scores


class TestComputeInputVector:
    def test_all_healthy_scores_one(self):
        team = simple_team()
        scores = compute_input_vector(team, snapshot(team))
        assert scores.tolist() == [1.0, 1.0, 1.0]

    def test_autonomous_deteriorated(self):
        # condition 0.75, performance 1 -> 0.75/2 * 1.75
        team = TeamTopology.build([1])
        scores = compute_input_vector(team, snapshot(team, robot={1: 0.75}))
        assert scores[0] == pytest.approx(0.65625, abs=1e-15)

    def test_incapacitated_operator_zeroes_score(self):
        team = simple_team()
        scores = compute_input_vector(team, snapshot(team, operator={1: 0.0}))
        assert scores[0] == 0.0
        assert scores[1] == 1.0 and scores[2] == 1.0

    def test_multi_operator_bracket(self):
        # Two operators: gate is the worst metric, bracket averages four terms.
        team = simple_team(m=1, edges=((1, 1), (1, 2)))
        snap = snapshot(team, operator={1: 0.5, 2: 0.9})
        scores = compute_input_vector(team, snap)
        assert scores[0] == pytest.approx(0.5 / 4 * (1.0 + 0.5 + 0.9 + 1.0), abs=1e-15)

    def test_missing_metric_names_agent(self):
        team = simple_team()
        snap = ConditionSnapshot(
            robot_condition={1: 1.0, 2: 1.0},  # robot 3 missing
            operator_condition={1: 1.0, 2: 1.0},
            robot_performance={r: 1.0 for r in team.robot_ids},
        )
        with pytest.raises(ConfigurationError, match="robot 3"):
            compute_input_vector(team, snap)

    def test_out_of_range_metric_rejected(self):
        team = simple_team()
        with pytest.raises(MetricDomainError):
            compute_input_vector(team, snapshot(team, robot={2: 1.2}))
        with pytest.raises(MetricDomainError):
            compute_input_vector(team, snapshot(team, operator={1: -0.1}))


class TestProposeAllocation:
    def test_uniform_at_full_health(self):
        team = simple_team()
        shares = propose_allocation(team, snapshot(team)).shares
        assert np.allclose(shares, 1.0 / 3.0, atol=1e-15)

    def test_transition_analysis_equilibrium(self):
        team = analysis_team()
        cond = analysis_conditions()
        shares = propose_allocation(
            team, snapshot(team, robot=cond["robot"], operator=cond["operator"])
        ).shares
        scores = hand_scores()
        total = math.fsum(scores)
        assert total == pytest.approx(8.882916666666666, abs=1e-12)
        for i in range(10):
            assert shares[i] == pytest.approx(scores[i] / total, abs=1e-12)
        assert shares[2] == pytest.approx(0.054036, abs=1e-6)
        assert shares[4] == pytest.approx(0.084056, abs=1e-6)
        assert shares[7] == pytest.approx(0.073878, abs=1e-6)
        assert shares[0] == pytest.approx(0.112576, abs=1e-6)

    def test_failed_robot_equilibrium(self):
        team = analysis_team()
        cond = analysis_conditions(robot3=0.0)
        shares = propose_allocation(
            team, snapshot(team, robot=cond["robot"], operator=cond["operator"])
        ).shares
        scores = hand_scores(robot3=0.0)
        total = math.fsum(scores)
        assert shares[2] == 0.0
        assert shares[4] == pytest.approx(0.088858, abs=1e-6)
        assert shares[7] == pytest.approx(0.078098, abs=1e-6)
        assert shares[0] == pytest.approx(1.0 / total, abs=1e-12)
        assert shares[0] == pytest.approx(0.119006, abs=1e-6)

    def test_total_incapacitation_raises(self):
        team = simple_team()
        snap = snapshot(team, robot={1: 0.0, 2: 0.0, 3: 0.0})
        with pytest.raises(NoCapableAgentError):
            propose_allocation(team, snap)

    def test_sum_to_one_large_team(self):
        team = TeamTopology.build(range(1, 10_001))
        rng = np.random.default_rng(7)
        snap = ConditionSnapshot(
            robot_condition={r: float(rng.uniform(0.01, 1)) for r in team.robot_ids},
            operator_condition={},
            robot_performance={r: float(rng.uniform(0.01, 1)) for r in team.robot_ids},
        )
        shares = propose_allocation(team, snap).shares
        assert abs(math.fsum(shares.tolist()) - 1.0) <= 1e-9


class TestProperties:
    def test_zero_gating_randomized(self, rng):
        # Zeroing any one of a robot's own metrics forces a zero share.
        for _ in range(200):
            team = random_topology(rng)
            snap = random_snapshot(rng, team)
            victim = int(rng.choice(team.robot_ids))
            role = rng.choice(["robot", "performance", "operator"])
            rc = dict(snap.robot_condition)
            oc = dict(snap.operator_condition)
            rp = dict(snap.robot_performance)
            if role == "robot":
                rc[victim] = 0.0
            elif role == "performance":
                rp[victim] = 0.0
            else:
                operators = team.operators_of(victim)
                if not operators:
                    rc[victim] = 0.0
                else:
                    oc[int(rng.choice(operators))] = 0.0
            snap = ConditionSnapshot(rc, oc, rp)
            scores = compute_input_vector(team, snap)
            idx = team.robot_ids.index(victim)
            assert scores[idx] == 0.0
            try:
                shares = propose_allocation(team, snap).shares
            except NoCapableAgentError:
                continue
            assert shares[idx] == 0.0

    def test_zero_share_iff_zero_own_metric(self, rng):
        for _ in range(200):
            team = random_topology(rng)
            snap = random_snapshot(rng, team)
            scores = compute_input_vector(team, snap)
            for rid in team.robot_ids:
                own = [snap.robot_condition[rid], snap.robot_performance[rid]]
                own += [snap.operator_condition[o] for o in team.operators_of(rid)]
                assert (scores[team.robot_ids.index(rid)] == 0.0) == (min(own) == 0.0)

    @given(
        base=st.floats(0.05, 1.0),
        raised=st.floats(0.0, 0.95),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_own_metric(self, base, raised, data):
        team = simple_team()
        lo, hi = sorted((raised, min(1.0, raised + base)))
        which = data.draw(st.sampled_from(["robot", "operator", "perf"]))
        def snap(v):
            kwargs = {which: {1: v}}
            return snapshot(team, **kwargs)
        s_lo = compute_input_vector(team, snap(lo))
        s_hi = compute_input_vector(team, snap(hi))
        assert s_hi[0] >= s_lo[0]
        try:
            sh_lo = propose_allocation(team, snap(lo)).shares
            sh_hi = propose_allocation(team, snap(hi)).shares
        except NoCapableAgentError:
            return
        assert sh_hi[0] >= sh_lo[0] - 1e-12
        assert sh_hi[1] <= sh_lo[1] + 1e-12

    def test_symmetry_identical_robots(self):
        team = simple_team()
        snap = snapshot(team, operator={1: 0.7, 2: 0.7})
        shares = propose_allocation(team, snap).shares
        assert abs(shares[0] - shares[1]) <= 1e-12

    def test_operator_count_independent_at_full_health(self):
        many_ops = simple_team(m=2, edges=((1, 1), (1, 2), (1, 3)))
        scores = compute_input_vector(many_ops, snapshot(many_ops))
        # Triple-operated robot 1 and autonomous robot 2 both score 1.
        assert scores[0] == 1.0 and scores[1] == 1.0

    def test_determinism(self, rng):
        team = random_topology(rng)
        snap = random_snapshot(rng, team)
        a = propose_allocation(team, snap).shares
        b = propose_allocation(team, snap).shares
        assert a.tolist() == b.tolist()


class TestWorkloadVector:
    def test_rejects_bad_sum(self):
        with pytest.raises(ConfigurationError):
            WorkloadVector(np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            WorkloadVector(np.array([1.1, -0.1]))

    @pytest.mark.parametrize("shares", [[math.nan, 1.0], [0.5, 0.5, math.nan], [math.nan]])
    def test_rejects_nan(self, shares):
        with pytest.raises(ConfigurationError):
            WorkloadVector(np.array(shares))

    def test_uniform(self):
        assert WorkloadVector.uniform(4).shares.tolist() == [0.25] * 4

    def test_caller_array_stays_writeable(self):
        shares = np.array([0.25, 0.75])
        vector = WorkloadVector(shares)
        shares[0] = 0.5
        assert shares.tolist() == [0.5, 0.75]
        assert vector.shares.tolist() == [0.25, 0.75]
        assert not vector.shares.flags.writeable

    def test_adopt_keeps_the_array(self):
        shares = np.array([0.25, 0.75])
        vector = WorkloadVector.adopt(shares)
        assert vector.shares is shares
        assert not shares.flags.writeable
