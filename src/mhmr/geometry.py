"""Rectangular workspace partitioning and boundary-distance queries.

The global workspace is split into vertical strips, one per robot in index
order, with a fixed safety gap between adjacent non-empty strips.  Strip
areas are proportional to the workload shares; robots with zero share get
an empty region and surrender their gap so survivors stay contiguous.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import ConfigurationError, EmptyRegionError, json_text
from .team import WorkloadVector


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: origin corner plus positive width/height (m)."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError("rectangle must have positive width and height")

    @property
    def x_max(self) -> float:
        return self.x + self.width

    @property
    def y_max(self) -> float:
        return self.y + self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)


def perimeter(region: Rect) -> float:
    """Perimeter length in meters; errors on an empty region."""
    if region is None:
        raise EmptyRegionError("perimeter of an empty region is undefined")
    return 2.0 * (region.width + region.height)


def boundary_distance(point: Sequence[float], region: Optional[Rect]) -> float:
    """Shortest Euclidean distance from ``point`` to the rectangle perimeter,
    as :func:`min_boundary_distance` gives it for one row.

    Zero on the perimeter, positive both inside and outside.
    """
    if region is None:
        raise EmptyRegionError("boundary distance to an empty region is undefined")
    return min_boundary_distance(
        np.array([point], dtype=float), region.x, region.y, region.x_max, region.y_max
    )


def min_boundary_distance(
    points: np.ndarray, x: ArrayLike, y: ArrayLike, x_max: ArrayLike, y_max: ArrayLike
) -> float:
    """Minimum over rows of the distance from ``points[i]`` to the perimeter
    of rectangle ``i``, which spans ``[x[i], x_max[i]] x [y[i], y_max[i]]``
    (each bound an array or one number for all rows).

    A point outside its rectangle along one axis only is as far away as it
    is outside along that axis; ``math.hypot`` runs only for the points
    outside along both axes (diagonal to a corner).
    """
    px, py = points[:, 0], points[:, 1]
    sides = np.empty((4, px.size))
    np.subtract(px, x, out=sides[0])
    np.subtract(x_max, px, out=sides[1])
    np.subtract(py, y, out=sides[2])
    np.subtract(y_max, py, out=sides[3])
    nearest = np.minimum.reduce(sides, axis=None)
    if nearest >= 0.0:
        # Every point is inside or on its rectangle: its nearest side.
        return float(nearest)
    # Per point and axis, the distance to the nearer of the two sides,
    # negative where the point lies outside along that axis.
    axes = np.minimum(sides[0::2], sides[1::2])
    # Inside, that is the nearest side; outside along one axis, how far out.
    distance = np.abs(np.minimum.reduce(axes, axis=0))
    for i in (np.maximum.reduce(axes, axis=0) < 0.0).nonzero()[0].tolist():
        distance[i] = math.hypot(axes[0, i], axes[1, i])
    return float(np.minimum.reduce(distance))


def nearest_perimeter_point(
    px: float, py: float, x: float, y: float, x_max: float, y_max: float
) -> tuple[float, float]:
    """Closest point to ``(px, py)`` on the perimeter of ``[x, x_max] x [y,
    y_max]``; :func:`nearest_perimeter_points` for one point."""
    if not (x < px < x_max and y < py < y_max):
        # Outside or on the boundary: clamp onto the rectangle.
        return (min(max(px, x), x_max), min(max(py, y), y_max))
    # Strictly inside: project onto the nearest side.
    candidates = (
        (px - x, (x, py)),
        (x_max - px, (x_max, py)),
        (py - y, (px, y)),
        (y_max - py, (px, y_max)),
    )
    return min(candidates, key=lambda c: c[0])[1]


def nearest_perimeter_points(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Closest point of the perimeter of rectangle ``i`` to ``points[i]``,
    where rectangle ``i`` spans ``lo[i]`` to ``hi[i]`` (``(k, 2)`` arrays of
    ``(x, y)``), as :func:`nearest_perimeter_point` gives it for each row.

    A point outside or on its rectangle is clamped onto it; a clamp keeps
    the point's own coordinate unless a bound is strictly beyond it, as
    ``min(max(p, lo), hi)`` does, signed zeros included (``np.maximum`` and
    ``np.minimum`` may return either of two equal zeros).  A point strictly
    inside is projected onto its nearest side, the first of equally near
    sides in the order left, right, bottom, top.
    """
    clamped = np.where(lo > points, lo, points)
    clamped = np.where(hi < clamped, hi, clamped)
    to_lo, to_hi = points - lo, hi - points
    inside = (to_lo > 0.0) & (to_hi > 0.0)
    inside = inside[:, 0] & inside[:, 1]
    if not inside.any():
        return clamped
    # Per axis, the nearer side (the lower one of two equally near) and its
    # distance; the x side wins a tie with the y side.
    lower = to_lo <= to_hi
    side = np.where(lower, lo, hi)
    distance = np.where(lower, to_lo, to_hi)
    on_x = distance[:, 0] <= distance[:, 1]
    projected = np.where(np.column_stack((on_x, ~on_x)), side, points)
    return np.where(inside[:, None], projected, clamped)


def is_finite_number(value: Any) -> bool:
    """A real number, not a bool, that is finite as a float."""
    # ``float`` and ``int`` first: the ABC check alone takes about 1 us.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_finite_point(value: Any) -> bool:
    """An ``(x, y)`` list or tuple of finite numbers."""
    return (
        isinstance(value, (list, tuple)) and len(value) == 2 and all(map(is_finite_number, value))
    )


@dataclass(frozen=True)
class GlobalWorkspace:
    """The full mission area: an axis-aligned rectangle plus a safety gap
    mandated between adjacent allocated regions."""

    origin: tuple[float, float]
    width: float
    height: float
    safety_gap: float = 0.0

    def __post_init__(self):
        origin = self.origin
        if not is_finite_point(origin):
            raise ConfigurationError(
                "workspace.origin must be an (x, y) pair of finite numbers, "
                f"got {json_text(origin)}"
            )
        object.__setattr__(self, "origin", (float(origin[0]), float(origin[1])))
        for name in ("width", "height", "safety_gap"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ConfigurationError(
                    f"workspace.{name} must be a finite number, got {json_text(value)}"
                )
            object.__setattr__(self, name, float(value))
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError("workspace must have positive extent")
        if self.safety_gap < 0:
            raise ConfigurationError("safety gap must be non-negative")

    @property
    def bounds(self) -> Rect:
        return Rect(self.origin[0], self.origin[1], self.width, self.height)


def strips(
    workspace: GlobalWorkspace, shares: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The strips of :func:`partition_from_workload` as arrays.

    Returns the robot indices with a non-zero share, in order, and the left
    edge ``x`` and width of each one's strip.  The edges are the cumulative
    sum of ``[origin x, w1, gap, w2, gap, ...]``, which adds in the order a
    cursor moving left to right would.
    """
    placed = shares.nonzero()[0]
    count = placed.size
    if count == 0:
        raise ConfigurationError("cannot partition: all workload shares are zero")
    gaps = count - 1
    usable = workspace.width - gaps * workspace.safety_gap
    if usable <= 0:
        raise ConfigurationError(
            f"infeasible partition: {gaps} gaps of {workspace.safety_gap} m "
            f"exceed workspace width {workspace.width} m"
        )
    width = shares[placed] * usable
    if np.count_nonzero(width) < count:
        raise ConfigurationError("rectangle must have positive width and height")
    steps = np.empty(2 * count - 1)
    steps.fill(workspace.safety_gap)
    steps[0] = workspace.origin[0]
    steps[1::2] = width[:-1]
    return placed, np.add.accumulate(steps)[::2], width


def partition_from_workload(
    workspace: GlobalWorkspace, sigma: WorkloadVector
) -> tuple[Optional[Rect], ...]:
    """One region per robot: vertical strips spanning the full workspace
    height, left to right in robot index order, widths proportional to the
    workload shares; ``None`` for a robot with zero share.

    The safety gap is inserted only between adjacent non-empty strips, so
    share fractions apply to the usable width (total minus gaps).
    """
    placed, x, width = strips(workspace, sigma.shares)
    regions: list[Optional[Rect]] = [None] * len(sigma)
    y, height = workspace.origin[1], workspace.height
    for i, left, w in zip(placed.tolist(), x.tolist(), width.tolist()):
        regions[i] = Rect(left, y, w, height)
    return tuple(regions)
