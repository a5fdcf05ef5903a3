"""Condition and performance metric sources.

A :class:`ConditionTimeline` drives one agent metric through step, ramp and
trace profiles; human stress traces are smoothed with a moving average and
inverted into a condition value.  Out-of-range inputs raise instead of
clamping.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
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
    """Store a trace's times and values as read-only float arrays, check the
    times, and return the values."""
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
    if np.any(np.diff(times) <= 0):
        raise ConfigurationError(f"{kind} trace timestamps must strictly increase")
    return values


@dataclass(frozen=True)
class StressTrace:
    """Uniformly sampled binary stress signal: 1 stressed, 0 relaxed."""

    times: np.ndarray
    values: np.ndarray
    # stressed[k]: number of stressed samples among the first k.
    stressed: list[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        values = _freeze_series(self, "stress")
        if not ((values == 0.0) | (values == 1.0)).all():
            raise MetricDomainError("stress trace samples must be binary 0/1")
        object.__setattr__(self, "stressed", [0, *np.cumsum(values, dtype=np.int64).tolist()])

    @property
    def span(self) -> tuple[float, float]:
        return (float(self.times[0]), float(self.times[-1]))


def stress_to_condition(trace: StressTrace, window: int, t: float) -> float:
    """Operator condition at time ``t``: one minus the moving-average stress.

    The average runs over the last ``window`` samples at or before ``t``
    (fewer near the start of the trace).  It is the exact count of stressed
    samples over the sample count, so it has the bits of ``np.mean``.
    """
    if window < 1:
        raise ConfigurationError("moving-average window must be >= 1")
    lo, hi = trace.span
    if not (lo <= t <= hi):
        raise ConfigurationError(f"time {t} outside trace span [{lo}, {hi}]")
    end = int(np.searchsorted(trace.times, t, side="right"))
    start = max(0, end - window)
    return 1.0 - (trace.stressed[end] - trace.stressed[start]) / (end - start)


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

    def value_at(self, t: float) -> float:
        """Value of the most recent row at or before ``t`` (first row before
        the schedule starts, last row after it ends)."""
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.values[max(0, idx)])


def load_stress_trace(path: str | Path) -> StressTrace | ScriptedTrace:
    """Read a ``time_s,stress`` CSV.

    Binary rows (0/1) produce a :class:`StressTrace`; discrete level rows
    (low/medium/high) are mapped to condition values and returned as a
    :class:`ScriptedTrace` ready for direct use.
    """
    times: list[float] = []
    raw: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None or "time_s" not in reader.fieldnames or "stress" not in reader.fieldnames:
            raise ConfigurationError(f"{path}: expected header 'time_s,stress'")
        for row in reader:
            times.append(float(row["time_s"]))
            raw.append(row["stress"].strip())
    if not raw:
        raise ConfigurationError(f"{path}: stress trace has no rows")
    if all(v in ("0", "1") for v in raw):
        values = np.array([float(v) for v in raw])
        periods = np.diff(np.asarray(times))
        if periods.size and not np.allclose(periods, periods[0]):
            raise ConfigurationError(f"{path}: stress trace sample period is not uniform")
        return StressTrace(np.asarray(times), values)
    values = np.array([discrete_stress_to_condition(v) for v in raw])
    return ScriptedTrace(np.asarray(times), values)


def check_profile(profile: dict[str, Any], target: Any) -> None:
    """Raise ``ConfigurationError`` naming ``target`` (formatted only then)
    unless ``profile`` is a step or ramp to a value in [0, 1] (a ramp over a
    finite positive ``duration``) or a trace with a file ``path``."""
    kind = profile.get("type")
    if kind not in ("step", "ramp", "trace", "stress_trace"):
        raise ConfigurationError(f"unknown event profile type {kind!r} for {target}")
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
    scripted or robot-health one.  Relative trace paths are read from
    ``base_dir``."""

    def __init__(self, events: Iterable[Any], window: int, base_dir: Optional[Path] = None):
        self.events = sorted(events, key=lambda e: e.time_s)
        self.window = window
        self._traces: dict[int, StressTrace | ScriptedTrace] = {}
        for i, ev in enumerate(self.events):
            kind = ev.profile["type"]
            if kind in ("trace", "stress_trace"):
                # An absolute path ignores ``base_dir``.
                path = Path(base_dir or ".", ev.profile["path"])
                try:
                    self._traces[i] = load_stress_trace(path)
                except (OSError, ValueError, csv.Error, MhmrError) as exc:
                    raise ConfigurationError(f"{kind} for {ev}: cannot load {path}: {exc}") from exc

    def at(self, t: float) -> tuple[float, float]:
        """The metric at time ``t``, and a time before which it keeps that value.

        The time is the next event time, or sooner the next sample of the
        trace that sets the value, or ``t`` itself while a ramp is still
        moving; ``inf`` when the value can no longer change.  A ramp blends
        in the value before it, so the breakpoints of an earlier trace still
        count after the ramp ends; a step or a trace replaces everything
        before it.  Before a trace's first sample the bound is that sample,
        which is early for a binary stress trace (it holds its first sample)
        but safe.
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
                trace = self._traces[i]
                offset = t - ev.time_s
                end = int(np.searchsorted(trace.times, offset, side="right"))
                until = ev.time_s + float(trace.times[end]) if end < trace.times.size else math.inf
                if isinstance(trace, StressTrace):
                    lo, hi = trace.span
                    clamped = min(max(offset, lo), hi)
                    value = stress_to_condition(trace, self.window, clamped)
                else:
                    value = trace.value_at(offset)
        return value, until
