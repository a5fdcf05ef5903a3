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
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

import numpy as np
from numpy.typing import ArrayLike

from .errors import ConfigurationError, MetricDomainError

SUM_TOL = 1e-9

#: Arrays this long or longer are summed by :func:`exact_sum`'s certified
#: array kernel, shorter ones by ``math.fsum`` over a list.  The kernel costs
#: about 17 µs plus 8 ns per item, ``math.fsum`` about 45 ns per item; they
#: cross near 450 items (interleaved ``timeit`` medians on a 2-core Xeon,
#: Python 3.11, numpy 2.4).  :class:`WorkloadVector` takes its array sum
#: check from the same length.
EXACT_SUM_MIN = 512


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
    # Built on first use.
    _tables: Optional["ValueTables"] = field(
        default=None, init=False, repr=False, compare=False
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
    def value_tables(self) -> "ValueTables":
        """Where each robot's metrics sit in a snapshot's value array."""
        if self._tables is None:
            m, h = self.m, self.h
            slot = dict(zip(self.operator_ids, range(2 * m, 2 * m + h)))
            # Robot index, column and operator slot of each edge; a robot's
            # operators sit in id order.
            robot, column, operator = np.array(
                [
                    (i, j, slot[o])
                    for i, r in enumerate(self.robot_ids)
                    for j, o in enumerate(self.operators_of(r))
                ],
                dtype=np.intp,
            ).reshape(-1, 3).T
            counts = np.bincount(robot, minlength=m)
            k = max(map(len, self._operators.values()), default=1)
            operators = np.full((m, k), 2 * m + h, dtype=np.intp)
            operators[robot, column] = operator
            kappa = np.arange(m, dtype=np.intp).repeat(k + 1).reshape(m, k + 1)
            kappa[:, 1:][robot, column] = operator
            healthy = np.ones(2 * m + h + 1)
            healthy[-1] = 0.0
            healthy.setflags(write=False)
            tables = ValueTables(
                kappa,
                operators,
                counts + 2.0,
                [counts > j for j in range(k)],
                dict(zip(self.robot_ids, range(m))),
                dict(zip(self.robot_ids, range(m, 2 * m))),
                slot,
                healthy,
            )
            object.__setattr__(self, "_tables", tables)
        return self._tables


def two_sum_error(a: np.ndarray, b: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Exact rounding error of ``total = a + b`` (Knuth's TwoSum)."""
    b_virtual = total - a
    return (a - (total - b_virtual)) + (b - b_virtual)


def exact_sum(values: np.ndarray) -> float:
    """The bits of ``math.fsum(values.tolist())`` for a 1-D float array.

    From :data:`EXACT_SUM_MIN` items on, the array is added left to right
    (``np.cumsum``), and the TwoSum errors ``e`` of those additions make the
    sum exact: it is ``c[-1] + sum(e)``.  Their float sum ``E`` is off by at
    most ``gamma_n * sum(|e|)`` in any order of addition, and ``r = c[-1] + E``
    by its own TwoSum error ``t`` on top.  So when ``|t|`` plus that bound is
    below half the gap from ``r`` to its nearer neighbour, ``r`` is the
    correctly rounded sum, which ``math.fsum`` returns too (Ogita, Rump and
    Oishi's Sum2 with a certificate).  When every ``e`` is zero the left to
    right sum is exact already.  Any other case, a non-finite value or an
    overflow among them, goes to ``math.fsum``.
    """
    n = values.size
    if n < EXACT_SUM_MIN:
        return math.fsum(values.tolist())
    partial = np.cumsum(values)
    total = partial.item(-1)
    # A finite end means no value is inf or NaN and no partial sum overflowed.
    if math.isfinite(total):
        errors = two_sum_error(partial[:-1], values[1:], partial[1:])
        magnitude = np.add.reduce(np.abs(errors)).item()
        if not magnitude:
            # fsum's sign of an exact zero.
            return total if total else math.fsum((total,))
        rest = np.add.reduce(errors).item()
        rounded = total + rest
        b_virtual = rounded - total
        tail = (total - (rounded - b_virtual)) + (rest - b_virtual)
        # rest is off by at most gamma_n times the exact sum of |e|, and
        # magnitude is that sum to within the same factor; n * 2**-52 is
        # over twice both together.  Every float is a multiple of 2**-1074,
        # so is that error, and the product's own rounding, underflow
        # included, cannot take the bound below it.
        bound = n * 2.0**-52 * magnitude
        half_gap = 0.5 * min(
            rounded - math.nextafter(rounded, -math.inf),
            math.nextafter(rounded, math.inf) - rounded,
        )
        # Rounding is monotone and half_gap a float, so a computed sum
        # below it means an exact one below it.
        if abs(tail) + bound < half_gap:
            return rounded
    return math.fsum(values.tolist())


class ValueTables(NamedTuple):
    """Index tables into a value array laid out as ``[robot conditions (m),
    performances (m), operator conditions (h), 0.0]``, one row per robot;
    ``k`` is the largest operator count, and at least 1."""

    #: ``(m, k + 1)``: the robot's condition and its operators' conditions,
    #: padded with the robot's condition.
    kappa: np.ndarray
    #: ``(m, k)``: the robot's operators' conditions, padded with the 0.0.
    operators: np.ndarray
    #: The robot's operator count plus 2: how many metrics its score averages.
    terms: np.ndarray
    #: ``more[j]``: whether the robot has more than ``j`` operators.
    more: list[np.ndarray]
    #: Agent id -> index of its robot condition, its performance and its
    #: operator condition.
    robot_slots: dict[int, int]
    performance_slots: dict[int, int]
    operator_slots: dict[int, int]
    #: The read-only value array with every metric at 1.0 (and the 0.0).
    healthy: np.ndarray


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
    # (topology, columns) of the last ``columns`` call.
    _columns: Optional[tuple[TeamTopology, "ConditionColumns"]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def columns(self, topology: TeamTopology) -> "ConditionColumns":
        """The metrics as validated arrays aligned with ``topology.robot_ids``.

        Raises on missing agents or values outside [0, 1].  The result is
        kept for the next call with the same topology.
        """
        cached = self._columns
        if cached is not None and cached[0] is topology:
            return cached[1]
        try:
            values = np.fromiter(
                chain(
                    map(self.robot_condition.__getitem__, topology.robot_ids),
                    map(self.robot_performance.__getitem__, topology.robot_ids),
                    map(self.operator_condition.__getitem__, topology.operator_ids),
                    (0.0,),
                ),
                float,
                2 * topology.m + topology.h + 1,
            )
        except (KeyError, TypeError, ValueError):
            values = None
        # Written so that NaN fails the check.
        if values is None or not (
            np.minimum.reduce(values) >= 0.0 and np.maximum.reduce(values) <= 1.0
        ):
            # The scalar checks name the offending agent.
            self._check_each(topology)
        return self._keep_columns(topology, values)

    def _keep_columns(self, topology: TeamTopology, values: np.ndarray) -> "ConditionColumns":
        """Keep the columns of ``values``, checked metrics laid out as
        ``TeamTopology.value_tables`` says."""
        m = topology.m
        tables = topology.value_tables
        own, *others = tables.kappa.T
        kappa = values[own]
        for column in others:
            np.minimum(kappa, values[column], out=kappa)
        # Read-only, since a caller may keep it: a run record's cycle rows do.
        kappa.setflags(write=False)
        result = ConditionColumns(values[:m], values[m : 2 * m], values[tables.operators], kappa)
        object.__setattr__(self, "_columns", (topology, result))
        return result

    @staticmethod
    def _from_values(
        topology: TeamTopology,
        robot_condition: Mapping[int, float],
        operator_condition: Mapping[int, float],
        robot_performance: Mapping[int, float],
        values: np.ndarray,
    ) -> "ConditionSnapshot":
        """A snapshot whose builder has checked its metrics and also laid
        them out in ``values``, so that :meth:`columns` need not read them
        from the mappings."""
        snapshot = ConditionSnapshot(robot_condition, operator_condition, robot_performance)
        snapshot._keep_columns(topology, values)
        return snapshot

    def _check_each(self, topology: TeamTopology) -> None:
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
    def healthy(topology: TeamTopology) -> "ConditionSnapshot":
        """All metrics at 1 (every agent optimal)."""
        return ConditionSnapshot(
            robot_condition={r: 1.0 for r in topology.robot_ids},
            operator_condition={o: 1.0 for o in topology.operator_ids},
            robot_performance={r: 1.0 for r in topology.robot_ids},
        )


class ValueView(Mapping[int, float]):
    """A read-only mapping from agent id to a metric in a value array laid
    out as ``TeamTopology.value_tables`` says; ``slots`` maps each id to its
    index in ``values``."""

    __slots__ = ("_values", "_slots")

    def __init__(self, values: np.ndarray, slots: Mapping[int, int]):
        self._values = values
        self._slots = slots

    def __getitem__(self, agent_id: int) -> float:
        return float(self._values[self._slots[agent_id]])

    def __iter__(self) -> Iterator[int]:
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)


class ConditionColumns(NamedTuple):
    """A snapshot's metrics as arrays, one row per robot."""

    condition: np.ndarray
    performance: np.ndarray
    #: ``(m, k)``: the conditions of each robot's operators, laid out as
    #: ``TeamTopology.value_tables.operators``.
    operators: np.ndarray
    #: The worst of each robot's own and its operators' conditions.
    kappa: np.ndarray


def read_only_floats(values: ArrayLike) -> np.ndarray:
    """``values`` as a read-only float array: a read-only float array as it
    is, anything else as a read-only copy, so that the caller may go on
    writing an array it passed."""
    if isinstance(values, np.ndarray) and not values.flags.writeable:
        arr = np.asarray(values, dtype=float)
    else:
        arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class WorkloadVector:
    """Per-robot workload fractions, index-aligned with the topology.

    Shares must sum to 1 within ``SUM_TOL`` and each lie in [0, 1].  The
    vector keeps a read-only copy of a writeable array, so its caller may go
    on writing that array; a read-only float array is kept as it is (see
    :meth:`adopt`).
    """

    shares: np.ndarray

    def __post_init__(self):
        arr = read_only_floats(self.shares)
        object.__setattr__(self, "shares", arr)
        if arr.ndim != 1:
            raise ConfigurationError("workload shares must be a flat vector")
        # Written so that NaN fails both checks.
        if not ((arr >= 0.0) & (arr <= 1.0)).all():
            raise ConfigurationError("workload shares outside [0, 1]")
        n = arr.size
        # A float sum of n shares in [0, 1] near 1 is off by at most about
        # n * 2**-53, and rounding it to fsum's total moves it by 2**-53 more;
        # n * 2**-50 covers both, so a sum this close to 1 passes fsum's check.
        if n >= EXACT_SUM_MIN and abs(np.add.reduce(arr).item() - 1.0) <= SUM_TOL - n * 2.0**-50:
            return
        total = math.fsum(arr.tolist())
        if not abs(total - 1.0) <= SUM_TOL:
            raise ConfigurationError(
                f"workload shares sum to {total!r}, expected 1 within {SUM_TOL}"
            )

    def __len__(self) -> int:
        return len(self.shares)

    @classmethod
    def adopt(cls, shares: np.ndarray) -> "WorkloadVector":
        """Wrap a float array that nothing else writes, without copying it:
        the array is made read-only in place."""
        shares.setflags(write=False)
        return cls(shares)

    @staticmethod
    def uniform(m: int) -> "WorkloadVector":
        if m < 1:
            raise ConfigurationError("need at least one robot")
        return WorkloadVector.adopt(np.full(m, 1.0 / m))
