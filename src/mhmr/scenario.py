"""Declarative scenario scripting and execution.

A scenario script fixes the team topology, workspace, parameters and a
timeline of condition events; running it advances a fixed-step clock,
fires an allocation cycle every cycle period and (in full-sim mode) steps
the patrolling robots in between.  Identical scripts produce identical
records, byte for byte.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .allocation import propose_allocation
from .errors import (
    ConfigurationError,
    MetricDomainError,
    NoCapableAgentError,
    json_text,
    json_type,
)
from .geometry import (
    GlobalWorkspace,
    is_finite_number,
    is_finite_point,
    strips,
)
from .metrics import DEFAULT_STRESS_WINDOW, ConditionTimeline, check_profile
from .patrol import (
    PatrolFleet,
    RobotKinematicState,
    change_regions,
    step_all,
    system_patrol_time,
)
from .team import ConditionSnapshot, TeamTopology, ValueView, WorkloadVector, exact_sum
from .transition import allocation_cycle

SCHEMA_VERSION = 1

#: Total transition error below this, sustained, declares convergence.
CONVERGENCE_EPS = 1e-3
#: Number of consecutive converged cycles required.
CONVERGENCE_STREAK = 5
#: How far ``tau / sim_dt`` may sit from a whole number of steps.
TAU_STEP_TOL = 1e-9
#: Conditions are evaluated again from this far (s) before their timelines
#: may change, so rounding in a breakpoint time can only make the evaluation
#: early, never late.
BREAKPOINT_TOL = 1e-9

#: Event metrics, in the order of a snapshot's value array.
VALID_METRICS = ("robot_condition", "performance", "operator_condition")
VALID_MODES = ("full-sim", "allocation-only")
VALID_PLACEMENTS = ("center", "left", "perimeter")


# ---------------------------------------------------------------------------
# Script model


@dataclass(frozen=True)
class Event:
    """One timeline entry: at ``time_s`` the target agent's metric starts
    following the given profile (see :class:`~mhmr.metrics.ConditionTimeline`)."""

    time_s: float
    target_kind: str  # "robot" | "operator"
    target_id: int
    metric: str
    profile: dict[str, Any]

    def __post_init__(self):
        if self.target_kind not in ("robot", "operator"):
            raise ConfigurationError(f"unknown event target kind {json_text(self.target_kind)}")
        if self.metric not in VALID_METRICS:
            raise ConfigurationError(f"unknown event metric {json_text(self.metric)}")
        if not is_finite_number(self.time_s):
            raise ConfigurationError(
                f"{self} event needs a finite time_s, got {json_text(self.time_s)}"
            )
        check_profile(self.profile, self)

    def __str__(self) -> str:
        """The metric the event drives, e.g. ``operator 1 operator_condition``."""
        return f"{self.target_kind} {self.target_id} {self.metric}"


def _is_integer(value: Any) -> bool:
    """A JSON integer: an ``int`` that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioParams:
    """Script parameters; the only place where they are checked."""

    K: float = 0.5
    tau: float = 0.5
    tau_star: float = 65.0
    v_max: float = 0.8
    window: int = DEFAULT_STRESS_WINDOW
    sim_dt: float = 0.05

    def __post_init__(self):
        for name in ("K", "tau", "tau_star", "v_max", "sim_dt"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value > 0):
                raise ConfigurationError(
                    f"params.{name} must be a finite number > 0, got {json_text(value)}"
                )
        window = self.window
        if not (_is_integer(window) and window >= 1):
            raise ConfigurationError(
                f"params.window must be an integer >= 1, got {json_text(window)}"
            )
        steps = self.tau / self.sim_dt
        if round(steps) < 1 or abs(steps - round(steps)) > TAU_STEP_TOL:
            raise ConfigurationError(
                f"params.tau = {self.tau!r} must be a whole multiple of "
                f"params.sim_dt = {self.sim_dt!r}"
            )


@dataclass(frozen=True, kw_only=True)
class ScenarioScript:
    """Everything needed to reproduce one run.

    The whole script is checked when it is built, by ``from_dict``,
    ``from_json`` or ``dataclasses.replace`` alike, and ``team`` holds the
    team its topology spec describes.
    """

    name: str = "unnamed"
    topology: dict[str, Any]
    workspace: GlobalWorkspace
    params: ScenarioParams = field(default_factory=ScenarioParams)
    events: tuple[Event, ...] = ()
    duration_s: float
    mode: str = "full-sim"
    placement: Any = "center"
    allocation_enabled: bool = True
    record_trajectory: bool = False
    team: TeamTopology = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigurationError(f"name must be a JSON string, not {json_type(self.name)}")
        # The name is the directory of the run's record under the output root.
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            raise ConfigurationError(
                f"name {self.name!r} must be one directory name: not empty, '.' or '..', "
                "and without '/', '\\' or a NUL character"
            )
        if self.mode not in VALID_MODES:
            raise ConfigurationError(f"unknown mode {json_text(self.mode)}")
        for name in ("allocation_enabled", "record_trajectory"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigurationError(
                    f"{name} must be true or false, got {json_text(getattr(self, name))}"
                )
        if not (is_finite_number(self.duration_s) and self.duration_s > 0):
            raise ConfigurationError(
                f"duration_s must be a finite number > 0, got {json_text(self.duration_s)}"
            )
        object.__setattr__(self, "duration_s", float(self.duration_s))
        if self.duration_s < self.params.sim_dt:
            raise ConfigurationError(
                f"duration_s = {self.duration_s!r} is shorter than "
                f"params.sim_dt = {self.params.sim_dt!r}"
            )
        if math.isinf(self.duration_s / self.params.sim_dt):
            raise ConfigurationError(
                f"duration_s = {self.duration_s!r} holds too many steps of "
                f"params.sim_dt = {self.params.sim_dt!r}"
            )
        # The strips must fit before a team of that size is built.
        m = _topology_count(_section(self.topology, "topology", _TOPOLOGY_KEYS), "m", 1)
        gap = self.workspace.safety_gap
        if (m - 1) * gap >= self.workspace.width:
            raise ConfigurationError(
                f"workspace.safety_gap = {gap!r} is infeasible: {m - 1} gaps "
                f"between {m} strips exceed workspace width {self.workspace.width!r} m"
            )
        team = build_topology(self.topology)
        object.__setattr__(self, "team", team)
        robots, operators = set(team.robot_ids), set(team.operator_ids)
        for ev in self.events:
            if not (0.0 <= ev.time_s <= self.duration_s):
                raise ConfigurationError(
                    f"event at {ev.time_s}s outside run duration {self.duration_s}s"
                )
            agents = robots if ev.target_kind == "robot" else operators
            if ev.target_id not in agents:
                raise ConfigurationError(
                    f"event targets nonexistent {ev.target_kind} {ev.target_id}"
                )
            if (ev.metric == "operator_condition") != (ev.target_kind == "operator"):
                raise ConfigurationError(
                    f"{ev.metric} event cannot target {ev.target_kind} {ev.target_id}"
                )
        if isinstance(self.placement, (list, tuple)):
            if len(self.placement) != team.m:
                raise ConfigurationError(
                    f"{len(self.placement)} explicit positions for {team.m} robots"
                )
            for point in self.placement:
                if not is_finite_point(point):
                    raise ConfigurationError(
                        f"placement entry {point!r} is not an (x, y) pair of finite numbers"
                    )
        elif self.placement not in VALID_PLACEMENTS:
            raise ConfigurationError(f"unknown placement {json_text(self.placement)}")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "topology": copy.deepcopy(self.topology),
            "workspace": {**asdict(self.workspace), "origin": list(self.workspace.origin)},
            "params": asdict(self.params),
            "placement": copy.deepcopy(self.placement),
            "events": [
                {
                    "time_s": ev.time_s,
                    "target": f"{ev.target_kind}:{ev.target_id}",
                    "metric": ev.metric,
                    "profile": copy.deepcopy(ev.profile),
                }
                for ev in self.events
            ],
            "duration_s": self.duration_s,
            "mode": self.mode,
            "allocation_enabled": self.allocation_enabled,
            "record_trajectory": self.record_trajectory,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ScenarioScript":
        """The script of a JSON object.  Each section is checked for its
        keys, and built by its dataclass, which gives a key left out its
        default."""
        args = dict(_section(data, "a scenario script", *_SCRIPT_KEYS))
        version = args.pop("schema_version", SCHEMA_VERSION)
        if not (_is_integer(version) and version == SCHEMA_VERSION):
            raise ConfigurationError(f"unsupported schema_version {json_text(version)}")
        try:
            if "events" in args:
                events = args["events"]
                if not isinstance(events, (list, tuple)):
                    raise ConfigurationError(f"events must be a JSON list, not {json_type(events)}")
                args["events"] = tuple([_event_from_dict(raw) for raw in events])
            ws = _section(args["workspace"], "workspace", *_WORKSPACE_KEYS)
            # A script may leave out ``origin``, which ``GlobalWorkspace`` requires.
            args["workspace"] = GlobalWorkspace(**{"origin": (0.0, 0.0), **ws})
            if "params" in args:
                args["params"] = ScenarioParams(**_section(args["params"], "params", *_PARAMS_KEYS))
            return ScenarioScript(**args)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"malformed scenario script: {exc}") from exc

    @staticmethod
    def from_json(path: str | Path) -> "ScenarioScript":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise ConfigurationError(f"{path} is not a JSON file: {exc}") from exc
        return ScenarioScript.from_dict(data)

    def to_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _keys(cls: type, *optional: str) -> tuple[frozenset[str], frozenset[str]]:
    """The keys a script section built by dataclass ``cls`` may have (its
    fields and ``optional``) and must have (its fields without a default,
    less ``optional``)."""
    init = [f for f in fields(cls) if f.init]
    required = {f.name for f in init if f.default is MISSING and f.default_factory is MISSING}
    return frozenset(f.name for f in init) | set(optional), frozenset(required - set(optional))


# The keys of each script section, and the keys it must have.
_SCRIPT_KEYS = _keys(ScenarioScript, "schema_version")
_WORKSPACE_KEYS = _keys(GlobalWorkspace, "origin")
_PARAMS_KEYS = _keys(ScenarioParams)
_TOPOLOGY_KEYS = frozenset(("m", "h", "edges", "pattern"))
_EVENT_KEYS = frozenset(("time_s", "target", "metric", "profile"))


def _section(
    value: Any, where: str, keys: frozenset[str], required: frozenset[str] = frozenset()
) -> dict[str, Any]:
    """``value`` if it is a JSON object whose keys all are in ``keys`` and
    that has every key of ``required``."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a JSON object, not {json_type(value)}")
    if not value.keys() <= keys:
        key = next(key for key in value if key not in keys)
        raise ConfigurationError(f"unknown key {key!r} in {where}; expected one of {sorted(keys)}")
    if not required <= value.keys():
        key = min(required - value.keys())
        raise ConfigurationError(f"missing key {key!r} in {where}")
    return value


def _event_from_dict(raw: Any) -> Event:
    _section(raw, "an event", _EVENT_KEYS, _EVENT_KEYS)
    for key in ("target", "metric"):
        if not isinstance(value := raw[key], str):
            raise ConfigurationError(f"event {key} must be a JSON string, not {json_type(value)}")
    target = raw["target"]
    kind, _, ident = target.partition(":")
    # ``int`` would also take "1_0", " 8", "+3" and non-ASCII digits.
    if not (ident.isascii() and ident.isdigit()):
        raise ConfigurationError(f"event target {target!r} needs an id of ASCII digits")
    profile = raw["profile"]
    return Event(
        time_s=raw["time_s"],
        target_kind=kind,
        target_id=int(ident),
        metric=raw["metric"],
        # A copy of a JSON object; anything else fails the event's check.
        profile=dict(profile) if isinstance(profile, dict) else profile,
    )


def build_topology(spec: dict[str, Any]) -> TeamTopology:
    """Topology from a script spec.

    Either a pattern (``alternating``: odd-indexed robots human-operated,
    one dedicated operator each, sharing the robot's index; ``none``: all
    autonomous) or explicit ``edges`` with operator count ``h``.
    """
    m = _topology_count(spec, "m", 1)
    robot_ids = tuple(range(1, m + 1))
    if "edges" in spec:
        edges = spec["edges"]
        if not isinstance(edges, (list, tuple)) or not all(
            isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_integer, e)) for e in edges
        ):
            raise ConfigurationError(
                "topology.edges must be a list of [robot, operator] integer pairs, "
                f"got {json_text(edges)}"
            )
        if "h" in spec:
            operator_ids = tuple(range(1, _topology_count(spec, "h", 0) + 1))
        else:
            operator_ids = tuple(sorted({o for _, o in edges}))
        return TeamTopology.build(robot_ids, operator_ids, edges)
    pattern = spec.get("pattern", "none")
    if pattern == "alternating":
        edges = [(i, i) for i in robot_ids if i % 2 == 1]
        operator_ids = tuple(i for i in robot_ids if i % 2 == 1)
        return TeamTopology.build(robot_ids, operator_ids, edges)
    if pattern == "none":
        return TeamTopology.build(robot_ids)
    raise ConfigurationError(f"unknown topology pattern {json_text(pattern)}")


def _topology_count(spec: dict[str, Any], key: str, least: int) -> int:
    value = spec.get(key)
    if not (_is_integer(value) and value >= least):
        raise ConfigurationError(
            f"topology.{key} must be an integer >= {least}, got {json_text(value)}"
        )
    return value


# ---------------------------------------------------------------------------
# Run records


@dataclass(frozen=True)
class CycleRow:
    """One allocation cycle.  A runner's rows hold the cycle's own read-only
    arrays, which later rows share while they do not change; a hand-built
    row may hold tuples."""

    cycle: int
    time_s: float
    sigma: Sequence[float]
    sigma_proposed: Sequence[float]
    q_f: float
    K_e: float
    kappa: Sequence[float]
    v: Sequence[float]
    transition_error: float
    note: str = ""


# Lap and trajectory rows are tuples in the column order of their files.
class LapRow(NamedTuple):
    robot_id: int
    lap: int
    lap_time_s: float
    transitional: bool


class TrajectoryRow(NamedTuple):
    time_s: float
    robot_id: int
    x: float
    y: float
    v: float


@dataclass
class RunRecord:
    """Everything a run produced, writable as a results directory."""

    robot_ids: tuple[int, ...]
    cycles: list[CycleRow] = field(default_factory=list)
    laps: list[LapRow] = field(default_factory=list)
    trajectory: list[TrajectoryRow] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)

    def write(self, outdir: str | Path) -> Path:
        """Write the results directory, numbers as ``%.12g`` (``nan``, ``inf``, ``-0``)."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "cycles.csv", "w", newline="") as fh:
            sigma_cols = [f"sigma_r{r}" for r in self.robot_ids]
            prop_cols = [f"sigma_prop_r{r}" for r in self.robot_ids]
            kappa_cols = [f"kappa_r{r}" for r in self.robot_ids]
            v_cols = [f"v_r{r}" for r in self.robot_ids]
            fh.write(
                ",".join(
                    ["cycle", "time_s"]
                    + sigma_cols
                    + prop_cols
                    + ["q_f", "K_e"]
                    + kappa_cols
                    + v_cols
                    + ["transition_error", "note"]
                )
                + "\n"
            )
            fh.writelines(_cycle_lines(self.cycles, len(self.robot_ids)))
        with open(outdir / "laps.csv", "w", newline="") as fh:
            fh.write("robot,lap,lap_time_s,transitional\n")
            fh.writelines("%s,%s,%.12g,%d\n" % lap for lap in self.laps)
        if self.trajectory:
            with open(outdir / "trajectory.csv", "w", newline="") as fh:
                fh.write("time_s,robot,x,y,v\n")
                fh.writelines("%.12g,%s,%.12g,%.12g,%.12g\n" % tr for tr in self.trajectory)
        else:
            # Leave no earlier run's trajectory beside this run's records.
            (outdir / "trajectory.csv").unlink(missing_ok=True)
        with open(outdir / "summary.json", "w") as fh:
            fh.write(json.dumps(self.summary, indent=2, sort_keys=True) + "\n")
        return outdir


#: Characters that make ``csv.QUOTE_MINIMAL`` quote a field.
_CSV_SPECIAL = frozenset(',"\r\n')
#: Most number cells of ``cycles.csv`` formatted at once (at least one row).
WRITE_BLOCK_CELLS = 2**14
#: The number fields of a cycle row, in the column order of ``cycles.csv``.
_ROW_NUMBERS = attrgetter(
    "time_s", "sigma", "sigma_proposed", "q_f", "K_e", "kappa", "v", "transition_error"
)


def _cycle_lines(rows: Sequence[CycleRow], m: int) -> Iterator[str]:
    """The rows of ``cycles.csv`` for a team of ``m`` robots, a note quoted as
    ``csv.QUOTE_MINIMAL`` would.  Robots join at the end of the team, so a
    row from before one joined has ``nan`` at the end of each robot group.

    The numbers go into a float block of rows of one team size at a time,
    and each distinct bit pattern of the block is formatted once; comparing
    bits keeps ``-0`` apart from ``0``.
    """
    per_block = max(1, WRITE_BLOCK_CELLS // (4 * m + 4))
    for n, group in groupby(rows, lambda r: len(r.sigma)):
        group = list(group)
        for start in range(0, len(group), per_block):
            chunk = group[start : start + per_block]
            time_s, sigma, proposed, q_f, K_e, kappa, v, error = zip(*map(_ROW_NUMBERS, chunk))
            block = np.full((len(chunk), 4 * m + 4), math.nan)
            block[:, 0] = time_s
            block[:, 1 : n + 1] = sigma
            block[:, m + 1 : m + n + 1] = proposed
            block[:, 2 * m + 1] = q_f
            block[:, 2 * m + 2] = K_e
            block[:, 2 * m + 3 : 2 * m + n + 3] = kappa
            block[:, 3 * m + 3 : 3 * m + n + 3] = v
            block[:, -1] = error
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            text = np.array(["%.12g" % x for x in bits.view(np.float64).tolist()], dtype=object)
            # numpy 1.x gives a flat inverse here, 2.x one of the block's shape.
            cells = text[inverse.reshape(block.shape)].tolist()
            for r, numbers in zip(chunk, cells):
                note = r.note
                if not _CSV_SPECIAL.isdisjoint(note):
                    note = '"%s"' % note.replace('"', '""')
                yield "%s,%s,%s\n" % (r.cycle, ",".join(numbers), note)


# ---------------------------------------------------------------------------
# Topology edits


@dataclass(frozen=True)
class TopologyEdit:
    """A mid-run team change: add/remove a robot or an operator edge."""

    kind: str  # "add_robot" | "remove_robot" | "add_edge" | "remove_edge"
    robot_id: int
    operator_ids: tuple[int, ...] = ()
    position: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.kind not in ("add_robot", "remove_robot", "add_edge", "remove_edge"):
            raise ConfigurationError(f"unknown topology edit {self.kind!r}")
        if not (
            _is_integer(self.robot_id)
            and isinstance(self.operator_ids, (list, tuple))
            and all(map(_is_integer, self.operator_ids))
        ):
            raise ConfigurationError(f"{self} needs integer robot and operator ids")
        if not (self.position is None or is_finite_point(self.position)):
            raise ConfigurationError(f"{self} needs a position of two finite numbers or None")


# ---------------------------------------------------------------------------
# Runner


class ScenarioRunner:
    """Single-threaded executor for one scenario script.

    ``run()`` drives the whole script; ``run_until()`` plus
    ``apply_topology_edit()`` support mid-run team changes.
    """

    def __init__(self, script: ScenarioScript, base_dir: Optional[Path] = None):
        self.topology = script.team
        self.script = script
        self.workspace = script.workspace
        self.params = script.params
        grouped: dict[tuple[str, int], list[Event]] = {}
        for ev in script.events:
            grouped.setdefault((ev.metric, ev.target_id), []).append(ev)
        # (target, id, timeline) of every agent metric that has events.
        self._timelines = []
        for (metric, ident), events in grouped.items():
            timeline = ConditionTimeline(events, script.params.window, base_dir)
            self._timelines.append((VALID_METRICS.index(metric), ident, timeline))
        # The last snapshot; ``None`` until the first evaluation lays out the
        # conditions, and again after each topology edit.
        self._snapshot: Optional[ConditionSnapshot] = None

        self.sigma = WorkloadVector.uniform(self.topology.m)
        self.sigma_proposed = self.sigma.shares
        self.cycle_index = 0
        self.step_index = 0
        self.dt = script.params.sim_dt
        self.n_steps = int(round(script.duration_s / self.dt))
        self.cycle_every = int(round(script.params.tau / self.dt))
        self.forced_failed: set[int] = set()
        self.disconnected: set[int] = set()

        self.fleet: Optional[PatrolFleet] = None
        self.robots: list[RobotKinematicState] = []
        # The shares the fleet's regions were last built from.
        self._regions_sigma: Optional[np.ndarray] = None
        # ``sigma`` holds the uniform shares until the first cycle.
        placed, x, width = strips(self.workspace, self.sigma.shares)
        positions = self._initial_positions(x, width)
        if script.mode == "full-sim":
            self.fleet = PatrolFleet(positions, self._strip_bounds(placed, x, width))
            self.robots = self.fleet.robots
            self._regions_sigma = self.sigma.shares
        else:
            self._fixed_positions = _read_only(positions)

        self.record = RunRecord(robot_ids=self.topology.robot_ids)
        self._streak = 0
        self._convergence_time: Optional[float] = None
        self._initial_error: Optional[float] = None
        self._allocation_errors = 0
        self._traj_every = max(1, int(round(0.5 / self.dt)))
        # Commanded velocities, computed from the snapshot ``_step_v_of``;
        # read-only, since cycle rows keep them.
        self._step_v = np.zeros(0)
        self._step_v_of: Optional[ConditionSnapshot] = None
        # The proposal of the snapshot ``_proposed_of``, the last one that had one.
        self._proposed: Optional[WorkloadVector] = None
        self._proposed_of: Optional[ConditionSnapshot] = None

    # -- helpers ------------------------------------------------------------

    @property
    def positions(self) -> np.ndarray:
        """Every robot's ``(x, y)`` as a read-only ``(m, 2)`` array: the
        fleet's, valid until the next step, in full-sim; the fixed start
        positions in allocation-only."""
        return self.fleet.positions() if self.fleet is not None else self._fixed_positions

    def _initial_positions(self, x: np.ndarray, width: np.ndarray) -> np.ndarray:
        """``(m, 2)`` start positions: explicit, or a point of each robot's
        strip (left edge ``x`` and ``width``) of the uniform partition: its
        centre, a tenth of the way in from its left edge at mid-height, or
        its bottom-left corner."""
        placement = self.script.placement
        if isinstance(placement, (list, tuple)):
            return np.array(placement, dtype=float)
        y = self.workspace.origin[1]
        if placement == "center":
            x, y = x + width / 2.0, y + self.workspace.height / 2.0
        elif placement == "left":
            x, y = x + 0.1 * width, y + self.workspace.height / 2.0
        positions = np.empty((x.size, 2))
        positions[:, 0] = x
        positions[:, 1] = y
        return positions

    def _lay_out_conditions(self) -> None:
        """Lay out the current team's metrics in one running value array,
        indexed as ``TeamTopology.value_tables`` says and healthy until a
        timeline sets them, index the failed and disconnected robots, and
        mark every timeline to be walked."""
        tables = self.topology.value_tables
        # Agent id -> slot of the value array, per metric in ``VALID_METRICS`` order.
        self._slots = (tables.robot_slots, tables.performance_slots, tables.operator_slots)
        self._timeline_slots = [self._slots[target][ident] for target, ident, _ in self._timelines]
        self._values = tables.healthy.copy()
        self._failed_slots = np.array(
            [tables.robot_slots[rid] for rid in self.forced_failed | self.disconnected], np.intp
        )
        # Each timeline's bound, and the time of the last walk.
        self._until = [-math.inf] * len(self._timelines)
        self._walked_at = -math.inf

    def snapshot_at(self, t: float) -> ConditionSnapshot:
        """Every metric at 1.0 except those a timeline sets; failed and
        disconnected robots have condition 0.

        The last snapshot is returned again at the time of its walk and at a
        later time before the earliest timeline bound, until a topology edit,
        after which the conditions are laid out anew.  Otherwise only the
        timelines whose bound has come are walked again; the others still
        hold the value of their last walk, and a time earlier than the last
        walk walks them all.  The snapshot's mappings are read-only views
        over its own copy of the values.
        """
        if self._snapshot is None:
            self._lay_out_conditions()
        elif t == self._walked_at or (
            t > self._walked_at and t + BREAKPOINT_TOL < self._snapshot_until
        ):
            return self._snapshot
        until, values, slots = self._until, self._values, self._timeline_slots
        if t < self._walked_at:
            rows = range(len(until))
        else:
            bound = t + BREAKPOINT_TOL
            rows = [i for i, row_until in enumerate(until) if row_until <= bound]
        for i in rows:
            timeline = self._timelines[i][2]
            value, value_until = timeline.at(t)
            # Written so that NaN fails the check.
            if not 0.0 <= value <= 1.0:
                raise MetricDomainError(f"{timeline.events[0]} = {value!r} outside [0, 1]")
            values[slots[i]] = value
            until[i] = value_until
        self._walked_at = t
        self._snapshot_until = min(until, default=math.inf)
        values = values.copy()
        values[self._failed_slots] = 0.0
        values.setflags(write=False)
        robot, performance, operator = (ValueView(values, agents) for agents in self._slots)
        self._snapshot = ConditionSnapshot._from_values(
            self.topology, robot, operator, performance, values
        )
        return self._snapshot

    def _set_velocities(self, snapshot: ConditionSnapshot) -> None:
        """Each robot moves at whichever limit binds first: its condition,
        ``kappa * v_max`` (what ``able_velocity`` reads from the same
        ``columns``), or its lap-time cap ``perimeter / tau_star``.  That is
        the bits of ``min(kappa * v_max, required_velocity(region, tau_star,
        v_max))``: ``kappa <= 1``, so the ``v_max`` clamp never binds; a robot
        without a region has perimeter and cap 0.0; and ``change_regions``
        keeps the perimeters current.  A failed or disconnected robot's
        ``kappa`` is 0, since its condition in the snapshot is."""
        kappa = snapshot.columns(self.topology).kappa
        cap = self.fleet.perimeter / self.params.tau_star
        self._step_v = _read_only(np.minimum(kappa * self.params.v_max, cap))
        self._step_v_of = snapshot

    def _strip_bounds(self, placed: np.ndarray, x: np.ndarray, width: np.ndarray) -> np.ndarray:
        """``(m, 4)`` bounds ``(x, y, width, height)`` of each robot's strip,
        from :func:`~mhmr.geometry.strips`; zeros for a robot with a zero
        share."""
        rows = np.empty((placed.size, 4))
        rows[:, 0] = x
        rows[:, 1] = self.workspace.origin[1]
        rows[:, 2] = width
        rows[:, 3] = self.workspace.height
        bounds = np.zeros((self.topology.m, 4))
        bounds[placed] = rows
        return bounds

    def _assign_regions(self) -> bool:
        """Point every robot at its strip of the current shares; return
        whether any robot's region changed.

        Equal shares give equal strips, which change no region, so unchanged
        shares skip the work: a frozen cycle keeps the very array, which needs
        no comparison; a team edit changes the shape of the shares and forces
        the comparison.
        """
        shares = self.sigma.shares
        if shares is self._regions_sigma:
            return False
        moved = False
        if not np.array_equal(shares, self._regions_sigma):
            bounds = self._strip_bounds(*strips(self.workspace, shares))
            moved = bool(change_regions(self.fleet, bounds).any())
        self._regions_sigma = shares
        return moved

    # -- core loop ----------------------------------------------------------

    def _allocation_cycle(self, t: float) -> None:
        snapshot = self.snapshot_at(t)
        note = ""
        q_f = float("nan")
        K_e = 0.0
        if self.script.allocation_enabled:
            try:
                # Only a successful proposal is kept, so an incapable team
                # raises, and is noted, at every cycle.
                if snapshot is not self._proposed_of:
                    self._proposed = propose_allocation(self.topology, snapshot)
                    self._proposed_of = snapshot
                proposed = self._proposed
                self.sigma_proposed = proposed.shares
                if self._initial_error is None:
                    self._initial_error = exact_sum(
                        np.abs(self.sigma.shares - self.sigma_proposed)
                    )
                state = allocation_cycle(
                    proposed, self.positions, self.sigma, self.params.K, self.workspace
                )
                self.sigma = state.sigma
                q_f, K_e = state.q_f, state.K_e
            except NoCapableAgentError as exc:
                note = str(exc)
                self._allocation_errors += 1
        error = exact_sum(np.abs(self.sigma.shares - self.sigma_proposed))
        if self.script.allocation_enabled and not note:
            if error < CONVERGENCE_EPS:
                self._streak += 1
                if self._streak == CONVERGENCE_STREAK and self._convergence_time is None:
                    self._convergence_time = t - (CONVERGENCE_STREAK - 1) * self.params.tau
            else:
                self._streak = 0
                self._convergence_time = None

        if self.robots:
            # Velocities read the snapshot and the perimeters, which change
            # only with the regions here, or with ``fleet.add``, which drops
            # the snapshot; kept, the same array skips the fleet's refill.
            if self._assign_regions() or snapshot is not self._step_v_of:
                self._set_velocities(snapshot)
        elif len(self._step_v) != self.topology.m:
            # Allocation-only robots stand still: one zero array per team size.
            self._step_v = _read_only(np.zeros(self.topology.m))

        # The row keeps the cycle's read-only arrays.
        self.record.cycles.append(
            CycleRow(
                cycle=self.cycle_index,
                time_s=t,
                sigma=self.sigma.shares,
                sigma_proposed=self.sigma_proposed,
                q_f=q_f,
                K_e=K_e,
                kappa=snapshot.columns(self.topology).kappa,
                v=self._step_v,
                transition_error=error,
                note=note,
            )
        )
        self.cycle_index += 1

    def _step_robots(self, t: float) -> None:
        snapshot = self.snapshot_at(t)
        if snapshot is not self._step_v_of:
            self._set_velocities(snapshot)
        step_all(self.fleet, self._step_v, self.dt)
        if self.script.record_trajectory and self.step_index % self._traj_every == 0:
            rows = zip(
                self.topology.robot_ids, self.fleet.positions().tolist(), self._step_v.tolist()
            )
            self.record.trajectory.extend(
                TrajectoryRow(time_s=t, robot_id=rid, x=x, y=y, v=v) for rid, (x, y), v in rows
            )

    def run_until(self, t_stop: float) -> None:
        """Advance the clock up to (and including) ``t_stop``."""
        stop_step = min(self.n_steps, int(round(t_stop / self.dt)))
        while self.step_index <= stop_step:
            t = self.step_index * self.dt
            if self.step_index % self.cycle_every == 0:
                self._allocation_cycle(t)
            if self.step_index < self.n_steps and self.robots:
                self._step_robots(t)
            self.step_index += 1

    def run(self) -> RunRecord:
        self.run_until(self.script.duration_s)
        self._finalize()
        return self.record

    # -- dynamic topology ---------------------------------------------------

    def apply_topology_edit(self, edit: TopologyEdit) -> TeamTopology:
        """Apply a team change between cycles; takes effect next cycle.

        An added robot enters with zero workload and transitions in; a
        removed robot is treated as failed and its share reallocated; an
        operator edge removal that leaves a human-operated robot without
        any operator marks that robot failed until reconnected.
        """
        t, rid = self.topology, edit.robot_id
        if edit.kind == "add_robot":
            if rid in t.robot_ids:
                raise ConfigurationError(f"robot {rid} already exists")
        elif rid not in t.robot_ids:
            raise ConfigurationError(f"robot {rid} does not exist")
        if edit.kind == "remove_robot":
            self.forced_failed.add(rid)
        else:
            edges = {(rid, o) for o in edit.operator_ids}
            if edit.kind == "remove_edge":
                if not edges <= t.edges:
                    raise ConfigurationError(f"edge(s) {sorted(edges)} not present in topology")
                edges = t.edges - edges
            else:
                edges |= t.edges
            self.topology = TeamTopology.build(
                t.robot_ids + ((rid,) if edit.kind == "add_robot" else ()),
                t.operator_ids + tuple(o for o in edit.operator_ids if o not in t.operator_ids),
                edges,
            )
        if edit.kind == "add_robot":
            self.sigma = WorkloadVector.adopt(np.append(self.sigma.shares, 0.0))
            self.sigma_proposed = _read_only(np.append(self.sigma_proposed, 0.0))
            pos = np.asarray(
                edit.position
                if edit.position is not None
                else self.workspace.bounds.center,
                dtype=float,
            )
            if self.robots:
                self.fleet.add(pos)
            else:
                self._fixed_positions = _read_only(np.vstack([self._fixed_positions, pos]))
            self.record.robot_ids = self.topology.robot_ids
        # Disconnected teleoperation is a failure, not autonomy, until an
        # operator edge comes back.
        if self.topology.operators_of(rid):
            self.disconnected.discard(rid)
        elif t.operators_of(rid):
            self.disconnected.add(rid)
        self._snapshot = None
        return self.topology

    # -- summary ------------------------------------------------------------

    def _finalize(self) -> None:
        # Without a fleet there are no laps, so no ``T_L`` either.
        t_l_series = []
        if self.robots:
            active = [s > 0.0 for s in self.sigma.shares.tolist()]
            lap_times = self.fleet.lap_times
            robots = zip(self.topology.robot_ids, lap_times, self.fleet.lap_transitional)
            self.record.laps = [
                LapRow(robot_id=rid, lap=lap, lap_time_s=lt, transitional=flag)
                for rid, times, flags in robots
                for lap, (lt, flag) in enumerate(zip(times, flags))
            ]
            lap = 0
            while (t_l := system_patrol_time(lap, lap_times, active)) is not None:
                t_l_series.append([lap, float(t_l)])
                lap += 1
        self.record.summary = {
            "name": self.script.name,
            "m": self.topology.m,
            "mode": self.script.mode,
            "allocation_enabled": self.script.allocation_enabled,
            "duration_s": self.script.duration_s,
            "num_cycles": self.cycle_index,
            "converged": self._convergence_time is not None,
            "convergence_time_s": self._convergence_time,
            "total_initial_error": self._initial_error,
            "final_transition_error": self.record.cycles[-1].transition_error
            if self.record.cycles
            else None,
            "final_sigma": self.sigma.shares.tolist(),
            "final_sigma_proposed": self.sigma_proposed.tolist(),
            "allocation_errors": self._allocation_errors,
            "t_l_series": t_l_series,
            "max_t_l": max((v for _, v in t_l_series), default=None),
        }


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only so that a cycle row can keep it."""
    array.setflags(write=False)
    return array


def run_scenario(
    script: ScenarioScript, base_dir: Optional[Path] = None
) -> RunRecord:
    """Execute a script start to finish and return its record."""
    return ScenarioRunner(script, base_dir=base_dir).run()


# ---------------------------------------------------------------------------
# Sweeps


SWEEP_AXES = ("K", "m")


def sweep_scripts(
    base: ScenarioScript, axis: str, values: Sequence[float]
) -> list[ScenarioScript]:
    """Script variants for a sweep: one per value, everything else shared.

    Each variant is named for its run, and two values may share a run name
    only when they give equal scripts (``m`` = 20 and 20.0), so that no run's
    record overwrites another's.
    """
    if axis not in SWEEP_AXES:
        raise ConfigurationError(f"unknown sweep axis {axis!r}; use one of {SWEEP_AXES}")
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    scripts = []
    named = {}
    for value in values:
        if axis == "K":
            label = "%.12g" % value
        else:
            if not (is_finite_number(value) and value >= 1 and float(value).is_integer()):
                raise ConfigurationError(f"m must be a whole number >= 1, got {value!r}")
            if "edges" in base.topology:
                raise ConfigurationError(
                    "m sweep requires a pattern-based topology, not explicit edges"
                )
            label = str(int(value))
        try:
            if axis == "K":
                params = replace(base.params, K=float(value))
                script = replace(base, name=f"{base.name}_K{label}", params=params)
            else:
                topology = {**base.topology, "m": int(value)}
                script = replace(base, name=f"{base.name}_m{label}", topology=topology)
        except ConfigurationError as exc:
            raise ConfigurationError(f"sweep {axis} = {label}: {exc}") from exc
        first, named_script = named.setdefault(script.name, (value, script))
        if named_script != script:
            raise ConfigurationError(
                f"sweep {axis} = {first!r} and {value!r} both name the run {script.name!r}"
            )
        scripts.append(script)
    return scripts


# ---------------------------------------------------------------------------
# Bundled scripts


def builtin_script(name: str) -> ScenarioScript:
    """Bundled validation scenarios s1..s4.

    Event times and magnitudes for s1 are representative defaults (the
    qualitative shapes matter: a drastic drop, a permanent drop, and a
    dip-then-slow-recovery); s3/s4 use the documented deteriorated-team
    conditions with all events at t=0.
    """
    try:
        return ScenarioScript.from_dict(copy.deepcopy(_BUILTIN_SCRIPTS[name.lower()]))
    except KeyError:
        raise ConfigurationError(
            f"unknown demo scenario {name!r}; expected one of {sorted(_BUILTIN_SCRIPTS)}"
        ) from None


def _event(time_s, target, metric, profile):
    return {"time_s": time_s, "target": target, "metric": metric, "profile": profile}


_S1_BASE = {
    "schema_version": SCHEMA_VERSION,
    "topology": {"m": 3, "h": 2, "edges": [[1, 1], [2, 2]]},
    "workspace": {"origin": [0.0, 0.0], "width": 30.0, "height": 12.0, "safety_gap": 0.5},
    "params": {"K": 0.5, "tau": 0.5, "tau_star": 65.0, "v_max": 0.8, "sim_dt": 0.05},
    "placement": "perimeter",
    "mode": "full-sim",
}

_BUILTIN_SCRIPTS: dict[str, dict[str, Any]] = {
    "s1": {
        **copy.deepcopy(_S1_BASE),
        "name": "s1",
        "duration_s": 700.0,
        "events": [
            _event(150.0, "operator:1", "operator_condition", {"type": "step", "value": 0.5}),
            _event(350.0, "robot:3", "robot_condition", {"type": "step", "value": 0.7}),
            _event(540.0, "operator:1", "operator_condition", {"type": "step", "value": 0.4}),
            _event(
                560.0,
                "operator:1",
                "operator_condition",
                {"type": "ramp", "value": 1.0, "duration": 70.0},
            ),
        ],
    },
    "s2": {
        **copy.deepcopy(_S1_BASE),
        "name": "s2",
        "duration_s": 450.0,
        "events": [
            _event(200.0, "robot:3", "robot_condition", {"type": "step", "value": 0.0}),
        ],
    },
    "s3": {
        "schema_version": SCHEMA_VERSION,
        "name": "s3",
        "topology": {"m": 10, "pattern": "alternating"},
        "workspace": {"origin": [0.0, 0.0], "width": 20.0, "height": 5.0, "safety_gap": 0.01},
        "params": {"K": 5.0, "tau": 0.5, "tau_star": 65.0, "v_max": 0.8, "sim_dt": 0.05},
        "placement": "center",
        "mode": "allocation-only",
        "duration_s": 120.0,
        "events": [
            _event(0.0, "operator:3", "operator_condition", {"type": "step", "value": 0.8}),
            _event(0.0, "robot:3", "robot_condition", {"type": "step", "value": 0.6}),
            _event(0.0, "operator:5", "operator_condition", {"type": "step", "value": 0.8}),
            _event(0.0, "robot:8", "robot_condition", {"type": "step", "value": 0.75}),
        ],
    },
}

_BUILTIN_SCRIPTS["s4"] = {
    **copy.deepcopy(_BUILTIN_SCRIPTS["s3"]),
    "name": "s4",
    "placement": "left",
    "events": [
        _event(0.0, "operator:3", "operator_condition", {"type": "step", "value": 0.8}),
        _event(0.0, "robot:3", "robot_condition", {"type": "step", "value": 0.0}),
        _event(0.0, "operator:5", "operator_condition", {"type": "step", "value": 0.8}),
        _event(0.0, "robot:8", "robot_condition", {"type": "step", "value": 0.75}),
    ],
}

BUILTIN_SCRIPT_NAMES = tuple(sorted(_BUILTIN_SCRIPTS))
