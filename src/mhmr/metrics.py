"""Condition and performance metric sources.

A :class:`ConditionTimeline` drives one agent metric through step, ramp and
trace profiles; human stress traces are smoothed with a moving average and
inverted into a condition value.  Out-of-range inputs raise instead of
clamping.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Optional

import numpy as np

from .errors import ConfigurationError, MetricDomainError, MhmrError
from .geometry import is_finite_number

#: Discrete stress level to condition value.
DISCRETE_STRESS_CONDITION = {"low": 0.75, "medium": 0.5, "high": 0.25}

#: Default moving-average window (samples) for binary stress traces.
DEFAULT_STRESS_WINDOW = 30


def _freeze_series(trace: Any, kind: str) -> np.ndarray:
    """Store a trace's times and values as read-only float arrays, and its
    times as the list ``grid`` and the pair ``span`` of Python floats; check
    the times, and return the values."""
    times = np.asarray(trace.times, dtype=float)
    values = np.asarray(trace.values, dtype=float)
    times.setflags(write=False)
    values.setflags(write=False)
    object.__setattr__(trace, "times", times)
    object.__setattr__(trace, "values", values)
    if times.size == 0:
        raise ConfigurationError(f"{kind} trace is empty")
    if times.size != values.size:
        raise ConfigurationError(f"{kind} trace times/values length mismatch")
    if not np.isfinite(times).all():
        raise ConfigurationError(f"{kind} trace timestamps must be finite")
    # For finite times a difference is <= 0 exactly when the later time is
    # not larger, so this is ``np.diff(times) <= 0`` without the differences.
    if (times[1:] <= times[:-1]).any():
        raise ConfigurationError(f"{kind} trace timestamps must strictly increase")
    grid = times.tolist()
    object.__setattr__(trace, "grid", grid)
    object.__setattr__(trace, "span", (grid[0], grid[-1]))
    return values


@dataclass(frozen=True)
class StressTrace:
    """Uniformly sampled binary stress signal: 1 stressed, 0 relaxed."""

    times: np.ndarray
    values: np.ndarray
    grid: list[float] = field(init=False, compare=False, repr=False)
    span: tuple[float, float] = field(init=False, compare=False, repr=False)
    # stressed[k]: number of stressed samples among the first k.
    stressed: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        values = _freeze_series(self, "stress")
        if not ((values == 0.0) | (values == 1.0)).all():
            raise MetricDomainError("stress trace samples must be binary 0/1")
        stressed = np.zeros(values.size + 1, dtype=np.int64)
        np.cumsum(values, dtype=np.int64, out=stressed[1:])
        stressed.setflags(write=False)
        object.__setattr__(self, "stressed", stressed)


def stress_to_condition(
    trace: StressTrace, window: int, t: float | np.ndarray
) -> float | np.ndarray:
    """Operator condition at time ``t``: one minus the moving-average stress.

    ``t`` is a time, giving a float, or an array of times, giving an array
    of the same shape.  The average runs over the last ``window`` samples
    at or before each time (fewer near the start of the trace).  It is the
    exact count of stressed samples over the sample count, so it has the
    bits of ``np.mean``.
    """
    if window < 1:
        raise ConfigurationError("moving-average window must be >= 1")
    times = np.asarray(t, dtype=float)
    lo, hi = trace.span
    inside = (lo <= times) & (times <= hi)
    if not inside.all():
        raise ConfigurationError(f"time {times[~inside][0]} outside trace span [{lo}, {hi}]")
    end = trace.times.searchsorted(times, side="right")
    # A window longer than the trace averages all of it, and fits an int64.
    samples = np.minimum(end, min(window, trace.times.size))
    # Counts of 0/1 samples are exact in floats, so each quotient is the
    # correctly rounded one of the two integers.
    held = 1.0 - (trace.stressed[end] - trace.stressed[end - samples]) / samples
    return held if held.ndim else float(held)


def _next_change_times(grid: list[float], held: np.ndarray) -> list[float]:
    """Entry ``k``, for ``k`` from 0 to ``len(grid)``, is the first sample
    time of ``grid`` at which a trace's value changes once ``k`` of its
    samples have passed, or ``inf`` if it never does.  ``held[j]`` is the
    value from sample ``j`` on; ``held[0]`` is also the value before the
    first sample.  The entries are ``grid``'s own float objects, so the list
    costs only its references."""
    n = len(grid)
    # ``first[k]``: index of the first change at or after ``k``, ``n`` if none
    # (``n`` also indexes the ``inf`` after ``grid``).
    first = np.full(n + 1, n)
    changes = np.flatnonzero(held[1:] != held[:-1]) + 1
    first[changes] = changes
    first = np.minimum.accumulate(first[::-1])[::-1]
    return list(itemgetter(*first.tolist())([*grid, math.inf]))


def discrete_stress_to_condition(level: str) -> float:
    """Condition value for a discrete stress level (low/medium/high)."""
    try:
        return DISCRETE_STRESS_CONDITION[level.lower()]
    except KeyError:
        raise MetricDomainError(f"unknown stress level {level!r}") from None


@dataclass(frozen=True)
class ScriptedTrace:
    """Time/value schedule with step-hold interpolation between rows."""

    times: np.ndarray
    values: np.ndarray
    grid: list[float] = field(init=False, compare=False, repr=False)
    span: tuple[float, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _freeze_series(self, "scripted")


def _is_uniform(periods: np.ndarray) -> bool:
    """``np.allclose(periods, periods[0])`` for positive periods, written
    out: each period within rtol 1e-5 / atol 1e-8 of the first, which when
    infinite matches only itself."""
    first = periods[0]
    if math.isinf(first):
        return bool((periods == first).all())
    return bool((abs(periods - first) <= 1e-8 + 1e-5 * abs(first)).all())


def _columns(rows: list[list[str]], *cols: int) -> list[tuple[str, ...]]:
    """Fields ``cols`` of every row; a row too short for one reads it as ``""``."""
    width = max(cols) + 1
    # One tuple per column, as many as the shortest row has fields.
    fields = list(zip(*rows))
    if len(fields) < width:
        fields = list(zip(*[row + [""] * (width - len(row)) for row in rows]))
    return [fields[c] for c in cols]


def load_stress_trace(path: str | Path) -> StressTrace | ScriptedTrace:
    """Read a ``time_s,stress`` CSV.

    Binary rows (0/1) produce a :class:`StressTrace`; discrete level rows
    (low/medium/high) are mapped to condition values and returned as a
    :class:`ScriptedTrace` ready for direct use.  Rows are read as
    ``csv.DictReader`` reads them: empty rows are skipped, a missing field
    is ``""``, extra fields are ignored and a duplicated column name means
    its last column.  The rows are read in one pass and then parsed column
    by column; faults are still reported in row order.
    """
    rows: list[list[str]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or "time_s" not in header or "stress" not in header:
            raise ConfigurationError(f"{path}: expected header 'time_s,stress'")
        last = {name: i for i, name in enumerate(header)}
        t_col, s_col = last["time_s"], last["stress"]
        try:
            rows.extend(filter(None, reader))
        except (csv.Error, ValueError):
            # A bad time in a row before the one the reader failed on comes first.
            if rows:
                np.array(_columns(rows, t_col)[0], dtype=float)
            raise
    if not rows:
        raise ConfigurationError(f"{path}: stress trace has no rows")
    time_fields, stress_fields = _columns(rows, t_col, s_col)
    # ``float`` of each field in row order, so the first bad one raises.
    times = np.array(time_fields, dtype=float)
    raw = stress_fields
    binary = set(raw) <= {"0", "1"}
    if not binary:  # bare 0/1 fields need no strip
        raw = list(map(str.strip, raw))
        binary = set(raw) <= {"0", "1"}
    if binary:
        # One character per sample, so its byte says whether it is stressed.
        stressed = np.frombuffer("".join(raw).encode(), dtype=np.uint8) == ord("1")
        trace = StressTrace(times, stressed)
        if len(raw) > 1 and not _is_uniform(trace.times[1:] - trace.times[:-1]):
            raise ConfigurationError(f"{path}: stress trace sample period is not uniform")
        return trace
    levels = list(map(DISCRETE_STRESS_CONDITION.get, map(str.lower, raw)))
    if None in levels:
        discrete_stress_to_condition(raw[levels.index(None)])  # raises, naming the level
    return ScriptedTrace(times, np.array(levels))


#: The keys of each event profile type.
PROFILE_KEYS = {
    "step": frozenset(("type", "value")),
    "ramp": frozenset(("type", "value", "duration")),
    "trace": frozenset(("type", "path")),
    "stress_trace": frozenset(("type", "path")),
}


_JSON_TYPES = {
    type(None): "null", bool: "boolean", int: "number", float: "number",
    str: "string", list: "array", tuple: "array", dict: "object",
}


def json_type(value: Any) -> str:
    """The JSON word for the type of ``value`` (``null``, ``boolean``,
    ``number``, ``string``, ``array`` or ``object``), for error lines."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def check_profile(profile: dict[str, Any], target: Any) -> None:
    """Raise ``ConfigurationError`` naming ``target`` (formatted only then)
    unless ``profile`` is a JSON object with the keys of its type
    (:data:`PROFILE_KEYS`): a step or ramp to a value in [0, 1] (a ramp over
    a finite positive ``duration``) or a trace with a file ``path``."""
    if not isinstance(profile, dict):
        raise ConfigurationError(
            f"event profile for {target} must be a JSON object, not {json_type(profile)}"
        )
    kind = profile.get("type")
    keys = PROFILE_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ConfigurationError(f"unknown event profile type {kind!r} for {target}")
    if not profile.keys() <= keys:
        key = next(key for key in profile if key not in keys)
        raise ConfigurationError(
            f"unknown key {key!r} in the {kind} profile for {target}; "
            f"expected one of {sorted(keys)}"
        )
    if kind in ("trace", "stress_trace"):
        path = profile.get("path")
        if not (isinstance(path, str) and path):
            raise ConfigurationError(f"{kind} for {target} needs a file path, got {path!r}")
    elif not (is_finite_number(value := profile.get("value")) and 0.0 <= value <= 1.0):
        raise ConfigurationError(
            f"{kind} profile for {target} needs a value in [0, 1], got {value!r}"
        )
    elif kind == "ramp" and not (
        is_finite_number(duration := profile.get("duration")) and duration > 0.0
    ):
        raise ConfigurationError(
            f"ramp profile needs a finite positive duration for {target}, got {duration!r}"
        )


class ConditionTimeline:
    """One agent metric over time, the library's one time-indexed condition
    source.

    It is 1.0 until the first of ``events``, the :class:`~mhmr.scenario.Event`
    objects of that metric: a ``time_s`` and a ``profile`` that
    :func:`check_profile` has passed each.  A binary 0/1 trace file is a
    human-stress source, averaged over ``window`` samples; a level trace is a
    scripted or robot-health one.  Each trace is read once, into its value
    at every sample and the times at which that value next changes.
    Relative trace paths are read from ``base_dir``."""

    def __init__(self, events: Iterable[Any], window: int, base_dir: Optional[Path] = None):
        self.events = sorted(events, key=lambda e: e.time_s)
        # Event index -> the trace's sample times, its value from each sample
        # on, and, per count of passed samples, the sample time at which that
        # value next changes (see ``at``).
        self._traces: dict[int, tuple[list[float], list[float], list[float]]] = {}
        for i, ev in enumerate(self.events):
            kind = ev.profile["type"]
            if kind in ("step", "ramp"):
                continue
            # An absolute path ignores ``base_dir``.
            path = Path(base_dir or ".", ev.profile["path"])
            try:
                trace = load_stress_trace(path)
            except (OSError, ValueError, csv.Error, MhmrError) as exc:
                # The loader's faults and an OSError's message name the file too.
                fault = str(exc).removeprefix(f"{path}: ")
                if isinstance(exc, OSError) and exc.filename is not None:
                    fault = str(OSError(exc.errno, exc.strerror))
                raise ConfigurationError(f"{kind} for {ev}: cannot load {path}: {fault}") from exc
            if isinstance(trace, StressTrace):
                held = stress_to_condition(trace, window, trace.times)
            else:
                held = trace.values
            self._traces[i] = (trace.grid, held.tolist(), _next_change_times(trace.grid, held))

    def at(self, t: float) -> tuple[float, float]:
        """The metric at time ``t``, and a time before which it keeps that value.

        The time is the next event time, or sooner the first later sample at
        which the trace in force changes its value, or ``t`` itself while a
        ramp is still moving; ``inf`` when the value can no longer change.  A
        ramp blends in the value before it, so the changes of an earlier
        trace still bound the value after the ramp ends; a step or a trace
        replaces everything before it.  A trace holds the value of its most
        recent sample, and before its first sample the value of that sample,
        so the bound is the first later sample with another value.
        """
        # Comparisons, not ``min``: this runs for every timeline of every evaluation.
        value, until = 1.0, math.inf
        for i, ev in enumerate(self.events):
            if t < ev.time_s:
                return value, ev.time_s if ev.time_s < until else until
            kind = ev.profile["type"]
            if kind == "step":
                value, until = float(ev.profile["value"]), math.inf
            elif kind == "ramp":
                target = float(ev.profile["value"])
                frac = (t - ev.time_s) / float(ev.profile["duration"])
                if frac < 1.0:
                    until = t
                else:
                    frac = 1.0
                value = value + (target - value) * frac
            else:
                grid, held, next_change = self._traces[i]
                k = bisect_right(grid, t - ev.time_s)
                until = ev.time_s + next_change[k]
                value = held[k - 1 if k else 0]
        return value, until
