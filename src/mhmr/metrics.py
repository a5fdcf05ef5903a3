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
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, MetricDomainError, MhmrError, json_text, json_type
from .geometry import is_finite_number
from .team import read_only_floats

#: Discrete stress level to condition value.
DISCRETE_STRESS_CONDITION = {"low": 0.75, "medium": 0.5, "high": 0.25}

#: Default moving-average window (samples) for binary stress traces.
DEFAULT_STRESS_WINDOW = 30


def _freeze_series(trace: Any, kind: str) -> np.ndarray:
    """Store a trace's times and values as read-only float arrays, copies
    of any writeable array the caller passed; check the times, and return
    the values."""
    times = read_only_floats(trace.times)
    values = read_only_floats(trace.values)
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
    return values


@dataclass(frozen=True)
class StressTrace:
    """Uniformly sampled binary stress signal: 1 stressed, 0 relaxed."""

    times: np.ndarray
    values: np.ndarray
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
    lo, hi = trace.times[0], trace.times[-1]
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
        raise ConfigurationError(f"unknown event profile type {json_text(kind)} for {target}")
    if not profile.keys() <= keys:
        key = next(key for key in profile if key not in keys)
        raise ConfigurationError(
            f"unknown key {key!r} in the {kind} profile for {target}; "
            f"expected one of {sorted(keys)}"
        )
    if kind in ("trace", "stress_trace"):
        path = profile.get("path")
        if not (isinstance(path, str) and path):
            raise ConfigurationError(
                f"{kind} for {target} needs a file path, got {json_text(path)}"
            )
    elif not (is_finite_number(value := profile.get("value")) and 0.0 <= value <= 1.0):
        raise ConfigurationError(
            f"{kind} profile for {target} needs a value in [0, 1], got {json_text(value)}"
        )
    elif kind == "ramp" and not (
        is_finite_number(duration := profile.get("duration")) and duration > 0.0
    ):
        raise ConfigurationError(
            f"ramp profile needs a finite positive duration for {target}, got {json_text(duration)}"
        )


#: A step's change points: its value holds from its time on, and it changes
#: no more (see ``ConditionTimeline.at``).
_STEP_OFFSETS = (-math.inf, math.inf)


class ConditionTimeline:
    """One agent metric over time, the library's one time-indexed condition
    source.

    It is 1.0 until the first of ``events``, the :class:`~mhmr.scenario.Event`
    objects of that metric: a ``time_s`` and a ``profile`` that
    :func:`check_profile` has passed each.  A binary 0/1 trace file is a
    human-stress source, averaged over ``window`` samples; a level trace is a
    scripted or robot-health one.  Each step and trace is held as one
    change-point table: the offsets from its time at which its value changes,
    from ``-inf`` to ``inf``, and its value from each offset on.  A trace is
    read once, into its value at every sample, and its offsets are the
    sample times at which that value changes; a step's only offset is
    ``-inf``.  Relative trace paths are read from ``base_dir``."""

    def __init__(self, events: Iterable[Any], window: int, base_dir: Optional[Path] = None):
        self.events = sorted(events, key=lambda e: e.time_s)
        # Per event, in time order: its time and either a ramp's ``None`` and
        # (value, duration), or a step's or trace's change-point table.
        self._tables: list[tuple[float, Optional[Sequence[float]], Sequence[float]]] = []
        for ev in self.events:
            kind = ev.profile["type"]
            if kind == "ramp":
                ramp = float(ev.profile["value"]), float(ev.profile["duration"])
                self._tables.append((ev.time_s, None, ramp))
                continue
            if kind == "step":
                self._tables.append((ev.time_s, _STEP_OFFSETS, (float(ev.profile["value"]),)))
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
            changes = np.flatnonzero(held[1:] != held[:-1]) + 1
            offsets = [-math.inf, *trace.times[changes].tolist(), math.inf]
            self._tables.append((ev.time_s, offsets, [float(held[0]), *held[changes].tolist()]))

    def at(self, t: float) -> tuple[float, float]:
        """The metric at a finite time ``t``, and a time before which it keeps
        that value.

        The time is the next event time, or sooner the next change point of
        the step or trace in force, or ``t`` itself while a ramp is still
        moving; ``inf`` when the value can no longer change.  A ramp blends
        in the value before it, so the changes of an earlier trace still
        bound the value after the ramp ends; a step or a trace replaces
        everything before it.  A trace holds the value of its most recent
        sample, and before its first sample the value of that sample, so the
        bound is the first later sample with another value.
        """
        # Comparisons, not ``min``: this runs for every timeline of every evaluation.
        value, until = 1.0, math.inf
        for time_s, offsets, values in self._tables:
            if t < time_s:
                return value, time_s if time_s < until else until
            if offsets is None:
                target, duration = values
                frac = (t - time_s) / duration
                if frac < 1.0:
                    until = t
                else:
                    frac = 1.0
                value = value + (target - value) * frac
            else:
                k = bisect_right(offsets, t - time_s)
                value, until = values[k - 1], time_s + offsets[k]
        return value, until
