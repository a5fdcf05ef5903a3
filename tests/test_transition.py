import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhmr.allocation import propose_allocation
from mhmr.errors import ConfigurationError, NoActiveAgentsError
from mhmr.geometry import GlobalWorkspace, partition_from_workload
from mhmr.team import ConditionSnapshot, TeamTopology, WorkloadVector
from mhmr.transition import (
    ZERO_SNAP,
    allocation_cycle,
    compute_q_f,
    step_transition,
    transition_coefficient,
)


def random_workload(rng, m):
    raw = rng.uniform(0.05, 1.0, size=m)
    return WorkloadVector(raw / math.fsum(raw.tolist()))


class TestTransitionCoefficient:
    def test_zero_distance_freezes(self):
        assert transition_coefficient(0.0, K=5.0) == 0.0

    def test_known_value(self):
        # 1 - e^{-0.5 * 2} = 1 - e^{-1}
        assert transition_coefficient(2.0, K=0.5) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-15
        )

    def test_strictly_below_one_even_for_huge_exponent(self):
        k_e = transition_coefficient(1e6, K=1e6)
        assert k_e < 1.0

    def test_monotone_in_distance_and_k(self):
        qs = np.linspace(0.0, 10.0, 50)
        vals = [transition_coefficient(q, K=0.5) for q in qs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        ks = [0.1, 0.5, 1.0, 5.0, 10.0]
        by_k = [transition_coefficient(1.0, K=k) for k in ks]
        assert all(b > a for a, b in zip(by_k, by_k[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            transition_coefficient(-0.1, K=1.0)
        with pytest.raises(ConfigurationError):
            transition_coefficient(1.0, K=0.0)


class TestStepTransition:
    def test_conservation_long_run(self, rng):
        # Total workload stays exactly 1 (to 1e-12) over ten thousand steps
        # with changing proposals and coefficients.
        m = 8
        sigma = WorkloadVector.uniform(m)
        for _ in range(10_000):
            proposed = random_workload(rng, m)
            k_e = float(rng.uniform(0.0, 0.999))
            sigma = step_transition(sigma, proposed, k_e)
            assert abs(math.fsum(sigma.shares.tolist()) - 1.0) <= 1e-12

    def test_convex_containment(self, rng):
        for _ in range(200):
            m = int(rng.integers(2, 12))
            cur = random_workload(rng, m)
            prop = random_workload(rng, m)
            k_e = float(rng.uniform(0.0, 0.999))
            nxt = step_transition(cur, prop, k_e).shares
            lo = np.minimum(cur.shares, prop.shares)
            hi = np.maximum(cur.shares, prop.shares)
            assert np.all(nxt >= lo - 1e-15) and np.all(nxt <= hi + 1e-15)

    def test_geometric_decay_closed_form(self):
        # With a fixed proposal and coefficient the per-robot error shrinks
        # geometrically: e_n = (1 - K_e)^n e_0.
        cur = WorkloadVector(np.array([0.7, 0.3]))
        prop = WorkloadVector(np.array([0.2, 0.8]))
        k_e = 0.35
        sigma = cur
        for n in range(1, 11):
            sigma = step_transition(sigma, prop, k_e)
            expected = prop.shares + (1.0 - k_e) ** n * (cur.shares - prop.shares)
            np.testing.assert_allclose(sigma.shares, expected, atol=1e-12)

    def test_zero_coefficient_is_identity(self):
        cur = WorkloadVector(np.array([0.6, 0.4]))
        prop = WorkloadVector(np.array([0.1, 0.9]))
        assert step_transition(cur, prop, 0.0).shares.tolist() == [0.6, 0.4]
        # A frozen cycle keeps sigma itself: the runner then skips its
        # region check.
        assert step_transition(cur, prop, 0.0) is cur

    @given(
        pairs=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
            ),
            min_size=1,
            max_size=8,
        ),
        k_e=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
    )
    @settings(max_examples=300, deadline=None)
    def test_shares_carry_the_bits_of_the_convex_step(self, pairs, k_e):
        # Normalised current and proposed shares, zeros included; every
        # share is c + k * (p - c), the frozen cycle's kept shares too.
        cur, prop = (np.array(column) for column in zip(*pairs))
        if not cur.sum() > 0.0 or not prop.sum() > 0.0:
            cur, prop = cur + 1.0, prop + 1.0
        cur, prop = cur / math.fsum(cur.tolist()), prop / math.fsum(prop.tolist())
        current, proposed = WorkloadVector(cur), WorkloadVector(prop)
        got = step_transition(current, proposed, k_e).shares.tolist()
        want = [c + k_e * (p - c) for c, p in zip(cur.tolist(), prop.tolist())]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_larger_coefficient_moves_further(self):
        cur = WorkloadVector(np.array([0.9, 0.1]))
        prop = WorkloadVector(np.array([0.5, 0.5]))
        slow = step_transition(cur, prop, 0.1).shares
        fast = step_transition(cur, prop, 0.8).shares
        assert abs(fast[0] - 0.5) < abs(slow[0] - 0.5)

    def test_rejects_mismatched_lengths(self):
        # Checked before the frozen cycle's early return.
        for k_e in (0.5, 0.0, -0.1, 1.0):
            with pytest.raises(ConfigurationError, match="differ in length"):
                step_transition(
                    WorkloadVector.uniform(2), WorkloadVector.uniform(3), k_e
                )

    def test_rejects_out_of_range_coefficient(self):
        v = WorkloadVector.uniform(2)
        for bad in (-0.1, -1e-300, 1.0, 1.5, math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="outside"):
                step_transition(v, v, bad)

    @given(
        k_e=st.floats(0.0, 0.999),
        split=st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_error_never_grows(self, k_e, split):
        cur = WorkloadVector(np.array([split, 1.0 - split]))
        prop = WorkloadVector(np.array([0.5, 0.5]))
        nxt = step_transition(cur, prop, k_e)
        before = float(np.abs(cur.shares - prop.shares).sum())
        after = float(np.abs(nxt.shares - prop.shares).sum())
        assert after <= before + 1e-15


class TestComputeQf:
    def workspace_partition(self, sigma, width=10.0, height=4.0):
        ws = GlobalWorkspace(origin=(0.0, 0.0), width=width, height=height, safety_gap=0.0)
        return partition_from_workload(ws, sigma)

    def test_minimum_over_robots(self):
        part = self.workspace_partition(WorkloadVector(np.array([0.5, 0.5])))
        # Robot 0 sits 1 m inside its strip, robot 1 sits 0.25 m inside.
        q = compute_q_f([(1.0, 2.0), (9.75, 2.0)], part)
        assert q == pytest.approx(0.25, abs=1e-12)

    def test_failed_robot_excluded(self):
        part = self.workspace_partition(WorkloadVector(np.array([0.5, 0.5])))
        # The nearer robot is failed, so the healthy one's distance wins.
        q = compute_q_f([(1.0, 2.0), (9.999, 2.0)], part, failed={1})
        assert q == pytest.approx(1.0, abs=1e-12)

    def test_empty_region_excluded(self):
        part = self.workspace_partition(WorkloadVector(np.array([0.5, 0.0, 0.5])))
        q = compute_q_f([(1.0, 2.0), (5.0, 2.0), (9.0, 2.0)], part)
        assert q == pytest.approx(1.0, abs=1e-12)

    def test_all_excluded_raises(self):
        part = self.workspace_partition(WorkloadVector(np.array([0.5, 0.5])))
        with pytest.raises(NoActiveAgentsError):
            compute_q_f([(1.0, 2.0), (9.0, 2.0)], part, failed={0, 1})

    def test_length_mismatch(self):
        part = self.workspace_partition(WorkloadVector(np.array([0.5, 0.5])))
        with pytest.raises(ConfigurationError):
            compute_q_f([(1.0, 2.0)], part)

    def test_robot_on_boundary_gives_zero(self):
        part = self.workspace_partition(WorkloadVector(np.array([0.5, 0.5])))
        q = compute_q_f([(0.0, 2.0), (7.5, 2.0)], part)
        assert q == 0.0


class TestParams:
    def test_rejects_nonpositive(self):
        ws = GlobalWorkspace(origin=(0.0, 0.0), width=10.0, height=4.0)
        uniform = WorkloadVector.uniform(2)
        for K in (0.0, -0.5):
            with pytest.raises(ConfigurationError, match="K must be positive"):
                allocation_cycle(uniform, [(2.0, 2.0), (8.0, 2.0)], uniform, K, ws)


class TestAllocationCycle:
    def test_moves_toward_proposal(self):
        team = TeamTopology.build([1, 2], [1], [(1, 1)])
        snap = ConditionSnapshot(
            robot_condition={1: 1.0, 2: 1.0},
            operator_condition={1: 0.5},
            robot_performance={1: 1.0, 2: 1.0},
        )
        ws = GlobalWorkspace(origin=(0.0, 0.0), width=10.0, height=4.0, safety_gap=0.0)
        current = WorkloadVector.uniform(2)
        K = 0.5
        proposed = propose_allocation(team, snap)
        # Both robots placed 2 m inside their future strips.
        state = allocation_cycle(proposed, [(2.0, 2.0), (8.0, 2.0)], current, K, ws)
        # Proposal: scores (0.5/3*2.5, 1) -> (5/12, 1).
        s1 = 0.5 / 3 * 2.5
        total = s1 + 1.0
        assert proposed.shares[0] == pytest.approx(s1 / total, abs=1e-12)
        assert state.K_e == pytest.approx(1.0 - math.exp(-K * state.q_f), abs=1e-15)
        expected = 0.5 + state.K_e * (s1 / total - 0.5)
        assert state.sigma.shares[0] == pytest.approx(expected, abs=1e-12)
        assert state.sigma.shares[0] < 0.5  # deteriorated operator sheds load

    def test_frozen_when_robot_on_proposed_boundary(self):
        team = TeamTopology.build([1, 2])
        snap = ConditionSnapshot(
            robot_condition={1: 0.8, 2: 1.0},
            operator_condition={},
            robot_performance={1: 1.0, 2: 1.0},
        )
        ws = GlobalWorkspace(origin=(0.0, 0.0), width=10.0, height=4.0, safety_gap=0.0)
        current = WorkloadVector.uniform(2)
        K = 5.0
        proposed = propose_allocation(team, snap)
        part = partition_from_workload(ws, proposed)
        boundary_x = part[0].x_max
        state = allocation_cycle(proposed, [(boundary_x, 2.0), (8.0, 2.0)], current, K, ws)
        assert state.q_f == 0.0 and state.K_e == 0.0
        assert state.sigma.shares.tolist() == current.shares.tolist()

    def test_vanishing_share_snaps_to_zero(self):
        ws = GlobalWorkspace(origin=(0.0, 0.0), width=10.0, height=4.0)
        proposed = WorkloadVector(np.array([0.0, 0.5, 0.5]))
        current = WorkloadVector(np.array([1e-13, 0.5, 0.5 - 1e-13]))
        K = 0.5
        state = allocation_cycle(
            proposed, [(1.0, 2.0), (2.5, 2.0), (7.5, 2.0)], current, K, ws
        )
        assert 0.0 < state.K_e < 1.0
        assert state.sigma.shares[0] == 0.0
        assert math.fsum(state.sigma.shares.tolist()) == pytest.approx(1.0, abs=1e-15)

    def test_share_above_snap_threshold_is_kept(self):
        ws = GlobalWorkspace(origin=(0.0, 0.0), width=10.0, height=4.0)
        proposed = WorkloadVector(np.array([0.0, 0.5, 0.5]))
        current = WorkloadVector(np.array([0.2, 0.4, 0.4]))
        K = 0.5
        state = allocation_cycle(
            proposed, [(1.0, 2.0), (2.5, 2.0), (7.5, 2.0)], current, K, ws
        )
        assert state.sigma.shares[0] == pytest.approx(0.2 * (1.0 - state.K_e), abs=1e-15)


WIDTH, HEIGHT = 20.0, 5.0


@st.composite
def cycle_inputs(draw):
    """A proposal with exact zeros, a current workload with some shares
    below ZERO_SNAP, and positions inside the workspace."""
    m = draw(st.integers(1, 30))
    weight = st.floats(0.01, 1.0)
    raw = draw(st.lists(st.one_of(st.just(0.0), weight), min_size=m, max_size=m))
    if not any(raw):
        raw[draw(st.integers(0, m - 1))] = 1.0
    total = math.fsum(raw)
    proposed = WorkloadVector(np.array([w / total for w in raw]))
    tiny = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    if all(tiny):
        tiny[0] = False
    tiny_shares = [draw(st.floats(0.0, ZERO_SNAP / 2)) if t else 0.0 for t in tiny]
    rest = draw(st.lists(weight, min_size=m, max_size=m))
    rest = [0.0 if t else w for t, w in zip(tiny, rest)]
    scale = (1.0 - math.fsum(tiny_shares)) / math.fsum(rest)
    current = WorkloadVector(
        np.array([s if t else w * scale for t, s, w in zip(tiny, tiny_shares, rest)])
    )
    point = st.tuples(st.floats(0.0, WIDTH), st.floats(0.0, HEIGHT))
    positions = draw(st.lists(point, min_size=m, max_size=m))
    K = draw(st.floats(0.01, 20.0))
    return proposed, positions, current, K


class TestAllocationCycleProperties:
    @settings(max_examples=200, deadline=None)
    @given(cycle_inputs())
    def test_conserves_snaps_and_repeats(self, inputs):
        proposed, positions, current, K = inputs
        ws = GlobalWorkspace(origin=(0.0, 0.0), width=WIDTH, height=HEIGHT, safety_gap=0.01)
        state = allocation_cycle(proposed, positions, current, K, ws)
        shares = state.sigma.shares
        assert np.all((shares >= 0.0) & (shares <= 1.0))
        assert abs(math.fsum(shares.tolist()) - 1.0) <= 1e-9
        for i, target in enumerate(proposed.shares):
            if target == 0.0 and current.shares[i] < ZERO_SNAP:
                assert shares[i] == 0.0
            if target == 0.0:
                assert shares[i] == 0.0 or shares[i] >= ZERO_SNAP
        again = allocation_cycle(
            WorkloadVector(proposed.shares.copy()),
            [tuple(p) for p in positions],
            WorkloadVector(current.shares.copy()),
            K,
            ws,
        )
        assert again.sigma.shares.tobytes() == shares.tobytes()
        assert (again.q_f, again.K_e) == (state.q_f, state.K_e)
