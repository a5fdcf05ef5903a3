"""Condition and performance metric providers.

Raw metrics are normalized against declared bounds; human stress traces are
smoothed with a moving average and inverted into a condition value; robot
patrolling performance is derived from cross-track adherence to the region
perimeter.  Out-of-bounds inputs raise instead of clamping.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, EmptyRegionError, MetricDomainError
from .geometry import Rect, boundary_distance, perimeter

#: Discrete stress level to condition value.
DISCRETE_STRESS_CONDITION = {"low": 0.75, "medium": 0.5, "high": 0.25}

#: Default moving-average window (samples) for binary stress traces.
DEFAULT_STRESS_WINDOW = 30


@dataclass(frozen=True)
class MetricBounds:
    """Declared lower/upper bounds of a raw metric, in its native units."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"metric bounds must satisfy lower < upper, got [{self.lower}, {self.upper}]"
            )


def normalize_metric(raw: float, bounds: MetricBounds, provider: str = "metric") -> float:
    """Affine map of ``raw`` from [lower, upper] onto [0, 1]."""
    raw = float(raw)
    if not (bounds.lower <= raw <= bounds.upper) or math.isnan(raw):
        raise MetricDomainError(
            f"{provider}: raw value {raw!r} outside bounds [{bounds.lower}, {bounds.upper}]"
        )
    return (raw - bounds.lower) / (bounds.upper - bounds.lower)


@dataclass(frozen=True)
class StressTrace:
    """Uniformly sampled binary stress signal: 1 stressed, 0 relaxed."""

    times: np.ndarray
    values: np.ndarray
    sample_period: float
    # stressed[k]: number of stressed samples among the first k.
    stressed: list[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.size == 0:
            raise ConfigurationError("stress trace is empty")
        if times.size != values.size:
            raise ConfigurationError("stress trace times/values length mismatch")
        if np.any(np.diff(times) <= 0):
            raise ConfigurationError("stress trace timestamps must strictly increase")
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


def crosstrack_performance(
    actual_path: Sequence[Sequence[float]], reference: Rect, margin: float
) -> float:
    """Patrolling performance from mean cross-track error.

    Unity while the mean distance to the reference perimeter stays within
    ``margin``; beyond it, linear falloff reaching zero at twice the margin.
    The falloff shape is a library choice, not a measured calibration.
    """
    if margin <= 0:
        raise ConfigurationError("cross-track margin must be positive")
    if not actual_path:
        raise ConfigurationError("cross-track window is empty")
    if perimeter(reference) <= 0:
        raise EmptyRegionError("degenerate reference perimeter")
    error = math.fsum(boundary_distance(p, reference) for p in actual_path) / len(
        actual_path
    )
    if error <= margin:
        return 1.0
    return max(0.0, 1.0 - (error - margin) / margin)


@dataclass(frozen=True)
class ScriptedTrace:
    """Time/value schedule with step-hold interpolation between rows."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.size == 0:
            raise ConfigurationError("scripted trace is empty")
        if times.size != values.size:
            raise ConfigurationError("scripted trace times/values length mismatch")
        if np.any(np.diff(times) <= 0):
            raise ConfigurationError("scripted trace timestamps must strictly increase")

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
        period = float(periods[0]) if periods.size else 1.0
        if periods.size and not np.allclose(periods, period):
            raise ConfigurationError(f"{path}: stress trace sample period is not uniform")
        return StressTrace(np.asarray(times), values, sample_period=period)
    values = np.array([discrete_stress_to_condition(v) for v in raw])
    return ScriptedTrace(np.asarray(times), values)


def load_scripted_trace(path: str | Path) -> ScriptedTrace:
    """Read a ``time_s,value`` CSV into a step-hold schedule."""
    times: list[float] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "time_s" not in reader.fieldnames or "value" not in reader.fieldnames:
            raise ConfigurationError(f"{path}: expected header 'time_s,value'")
        for row in reader:
            times.append(float(row["time_s"]))
            values.append(float(row["value"]))
    return ScriptedTrace(np.asarray(times), np.asarray(values))


@dataclass(frozen=True)
class ConditionProvider:
    """A pluggable metric source.

    ``kind`` is one of ``human-stress``, ``robot-health-trace``,
    ``performance-crosstrack`` or ``scripted``; ``cycle_time`` feeds the
    allocation cycle period (the slowest provider wins).
    """

    kind: str
    cycle_time: float
    bounds: MetricBounds = MetricBounds(0.0, 1.0)
    trace: Optional[StressTrace | ScriptedTrace] = None
    window: int = DEFAULT_STRESS_WINDOW

    _KINDS = ("human-stress", "robot-health-trace", "performance-crosstrack", "scripted")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigurationError(f"unknown provider kind {self.kind!r}")
        if self.cycle_time <= 0:
            raise ConfigurationError("provider cycle time must be positive")

    def value_at(self, t: float) -> float:
        """Normalized metric in [0, 1] at time ``t``."""
        if self.kind == "human-stress":
            if not isinstance(self.trace, StressTrace):
                raise ConfigurationError("human-stress provider needs a binary stress trace")
            return stress_to_condition(self.trace, self.window, t)
        if self.kind in ("robot-health-trace", "scripted"):
            if self.trace is None:
                raise ConfigurationError(f"{self.kind} provider needs a trace")
            value = self.trace.value_at(t)
            return normalize_metric(value, self.bounds, provider=self.kind)
        raise ConfigurationError(
            "performance-crosstrack values come from crosstrack_performance(), "
            "not a time query"
        )
