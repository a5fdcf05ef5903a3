"""Team structure and per-cycle state containers.

A team is a bipartite graph between robots and human operators: a robot with
no operator edge is autonomous, a robot with one or more operator edges is
human-operated.  All vectors in the package are index-aligned with the
topology's robot ordering so that results are deterministic regardless of
how inputs were assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, MetricDomainError

SUM_TOL = 1e-9


@dataclass(frozen=True)
class TeamTopology:
    """Robots, operators and the operator-robot connectivity graph.

    ``edges`` holds (robot_id, operator_id) pairs.  Robots without any edge
    are autonomous; the rest are human-operated.  One operator may appear on
    several robots and one robot may have several operators.
    """

    robot_ids: tuple[int, ...]
    operator_ids: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    # robot id -> sorted operator ids, for human-operated robots only.
    _operators: dict[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(set(self.robot_ids)) != len(self.robot_ids):
            raise ConfigurationError("duplicate robot ids")
        if len(set(self.operator_ids)) != len(self.operator_ids):
            raise ConfigurationError("duplicate operator ids")
        robots = set(self.robot_ids)
        operators = set(self.operator_ids)
        adjacency: dict[int, tuple[int, ...]] = {}
        for r, o in self.edges:
            if r not in robots:
                raise ConfigurationError(f"edge references unknown robot {r}")
            if o not in operators:
                raise ConfigurationError(f"edge references unknown operator {o}")
            # Most robots have one operator: no list, no sort for them.
            ops = adjacency.get(r)
            adjacency[r] = (o,) if ops is None else tuple(sorted(ops + (o,)))
        object.__setattr__(self, "_operators", adjacency)

    @staticmethod
    def build(
        robot_ids: Iterable[int],
        operator_ids: Iterable[int] = (),
        edges: Iterable[tuple[int, int]] = (),
    ) -> "TeamTopology":
        return TeamTopology(
            robot_ids=tuple(robot_ids),
            operator_ids=tuple(operator_ids),
            edges=frozenset((int(r), int(o)) for r, o in edges),
        )

    @property
    def m(self) -> int:
        return len(self.robot_ids)

    @property
    def h(self) -> int:
        return len(self.operator_ids)

    def operators_of(self, robot_id: int) -> tuple[int, ...]:
        """Sorted operator ids of ``robot_id``; empty if autonomous or unknown."""
        return self._operators.get(robot_id, ())

    def is_autonomous(self, robot_id: int) -> bool:
        return robot_id not in self._operators

    @property
    def autonomous_ids(self) -> tuple[int, ...]:
        return tuple(r for r in self.robot_ids if r not in self._operators)

    @property
    def human_operated_ids(self) -> tuple[int, ...]:
        return tuple(r for r in self.robot_ids if r in self._operators)

    def index_of(self, robot_id: int) -> int:
        return self.robot_ids.index(robot_id)


def _check_unit_interval(value: float, label: str) -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0) or math.isnan(value):
        raise MetricDomainError(f"{label} = {value!r} outside [0, 1]")
    return value


@dataclass(frozen=True)
class ConditionSnapshot:
    """Normalized condition/performance metrics for one allocation cycle.

    All values are dimensionless in [0, 1]; 1 is optimal, 0 incapacitated.
    """

    robot_condition: Mapping[int, float]
    operator_condition: Mapping[int, float]
    robot_performance: Mapping[int, float]
    timestamp: int = 0

    def validate_against(self, topology: TeamTopology) -> None:
        """Check coverage and ranges; raise on missing agents or bad values."""
        for rid in topology.robot_ids:
            if rid not in self.robot_condition:
                raise ConfigurationError(f"missing robot condition for robot {rid}")
            if rid not in self.robot_performance:
                raise ConfigurationError(f"missing performance for robot {rid}")
            _check_unit_interval(self.robot_condition[rid], f"robot {rid} condition")
            _check_unit_interval(self.robot_performance[rid], f"robot {rid} performance")
        for oid in topology.operator_ids:
            if oid not in self.operator_condition:
                raise ConfigurationError(f"missing operator condition for operator {oid}")
            _check_unit_interval(self.operator_condition[oid], f"operator {oid} condition")

    @staticmethod
    def healthy(topology: TeamTopology, timestamp: int = 0) -> "ConditionSnapshot":
        """All metrics at 1 (every agent optimal)."""
        return ConditionSnapshot(
            robot_condition={r: 1.0 for r in topology.robot_ids},
            operator_condition={o: 1.0 for o in topology.operator_ids},
            robot_performance={r: 1.0 for r in topology.robot_ids},
            timestamp=timestamp,
        )


@dataclass(frozen=True)
class WorkloadVector:
    """Per-robot workload fractions, index-aligned with the topology.

    Shares must sum to 1 within ``SUM_TOL`` and each lie in [0, 1].
    """

    shares: np.ndarray
    timestamp: int = 0

    def __post_init__(self):
        arr = np.asarray(self.shares, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "shares", arr)
        if arr.ndim != 1:
            raise ConfigurationError("workload shares must be a flat vector")
        # Written so that NaN fails both checks.
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ConfigurationError("workload shares outside [0, 1]")
        total = math.fsum(arr.tolist())
        if not abs(total - 1.0) <= SUM_TOL:
            raise ConfigurationError(
                f"workload shares sum to {total!r}, expected 1 within {SUM_TOL}"
            )

    def __len__(self) -> int:
        return len(self.shares)

    @staticmethod
    def uniform(m: int, timestamp: int = 0) -> "WorkloadVector":
        if m < 1:
            raise ConfigurationError("need at least one robot")
        return WorkloadVector(np.full(m, 1.0 / m), timestamp=timestamp)
