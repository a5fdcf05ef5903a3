import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhmr.errors import ConfigurationError, EmptyRegionError
from mhmr.geometry import (
    GlobalWorkspace,
    Rect,
    boundary_distance,
    nearest_perimeter_point,
    partition_from_workload,
    perimeter,
)
from mhmr.team import WorkloadVector


def sampled_boundary_distance(point, rect, levels=3, n=4001):
    """Oracle: dense perimeter sampling with windowed refinement per edge."""
    px, py = point
    edges = [
        ((rect.x, rect.y), (rect.x_max, rect.y)),
        ((rect.x_max, rect.y), (rect.x_max, rect.y_max)),
        ((rect.x_max, rect.y_max), (rect.x, rect.y_max)),
        ((rect.x, rect.y_max), (rect.x, rect.y)),
    ]
    best = math.inf
    for (ax, ay), (bx, by) in edges:
        lo, hi = 0.0, 1.0
        for _ in range(levels):
            ts = np.linspace(lo, hi, n)
            xs = ax + (bx - ax) * ts
            ys = ay + (by - ay) * ts
            d = np.hypot(xs - px, ys - py)
            k = int(np.argmin(d))
            step = (hi - lo) / (n - 1)
            lo = max(0.0, ts[k] - step)
            hi = min(1.0, ts[k] + step)
        best = min(best, float(d[k]))
    return best


class TestRect:
    def test_rejects_degenerate(self):
        with pytest.raises(ConfigurationError):
            Rect(0, 0, 0, 1)

    def test_perimeter(self):
        assert perimeter(Rect(0, 0, 3, 3)) == 12.0
        assert perimeter(Rect(1, 2, 2.4, 3)) == pytest.approx(10.8)

    def test_perimeter_empty_region(self):
        with pytest.raises(EmptyRegionError):
            perimeter(None)


class TestBoundaryDistance:
    def test_center(self):
        assert boundary_distance((2.0, 1.0), Rect(0, 0, 4, 2)) == 1.0

    def test_corner(self):
        assert boundary_distance((0.0, 0.0), Rect(0, 0, 4, 2)) == 0.0

    def test_outside_edge_midpoint(self):
        assert boundary_distance((2.0, -0.5), Rect(0, 0, 4, 2)) == 0.5

    def test_outside_corner_diagonal(self):
        assert boundary_distance((-3.0, -4.0), Rect(0, 0, 4, 2)) == 5.0

    def test_empty_region(self):
        with pytest.raises(EmptyRegionError):
            boundary_distance((0, 0), None)

    def test_matches_sampling_oracle(self, rng):
        for _ in range(300):
            rect = Rect(
                float(rng.uniform(-5, 5)),
                float(rng.uniform(-5, 5)),
                float(rng.uniform(0.1, 8)),
                float(rng.uniform(0.1, 8)),
            )
            point = (float(rng.uniform(-8, 12)), float(rng.uniform(-8, 12)))
            expected = sampled_boundary_distance(point, rect)
            assert boundary_distance(point, rect) == pytest.approx(expected, abs=1e-6)

    def test_nearest_point_consistency(self, rng):
        for _ in range(200):
            rect = Rect(0, 0, float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 5)))
            point = (float(rng.uniform(-2, 7)), float(rng.uniform(-2, 7)))
            nx, ny = nearest_perimeter_point(*point, rect.x, rect.y, rect.x_max, rect.y_max)
            assert boundary_distance((nx, ny), rect) <= 1e-12
            d = math.hypot(nx - point[0], ny - point[1])
            assert d == pytest.approx(boundary_distance(point, rect), abs=1e-12)


class TestPartition:
    def workspace(self, width=9.0, height=3.0, gap=0.0):
        return GlobalWorkspace(origin=(0.0, 0.0), width=width, height=height, safety_gap=gap)

    def test_equal_split_no_gap(self):
        part = partition_from_workload(self.workspace(), WorkloadVector.uniform(3))
        assert [r.width for r in part] == pytest.approx([3.0, 3.0, 3.0])
        assert all(r.height == 3.0 for r in part)
        assert part[1].x == pytest.approx(3.0)

    def test_weighted_split_with_gap(self):
        ws = self.workspace(width=10.0, gap=0.4)
        part = partition_from_workload(ws, WorkloadVector(np.array([0.25, 0.75])))
        assert part[0].width == pytest.approx(2.4)
        assert part[1].width == pytest.approx(7.2)
        assert part[1].x - part[0].x_max == pytest.approx(0.4)

    def test_zero_share_empty_region(self):
        ws = self.workspace(width=10.0, gap=0.4)
        part = partition_from_workload(ws, WorkloadVector(np.array([0.25, 0.0, 0.75])))
        assert part[1] is None
        # Survivors keep their ratio over the usable width (one gap only).
        assert part[0].width / part[2].width == pytest.approx(1 / 3)
        assert part[2].x_max == pytest.approx(10.0)

    def test_all_zero_errors(self):
        with pytest.raises(ConfigurationError):
            WorkloadVector(np.zeros(3))

    def test_infeasible_gap(self):
        ws = self.workspace(width=1.0, gap=0.6)
        with pytest.raises(ConfigurationError):
            partition_from_workload(ws, WorkloadVector.uniform(3))

    def test_area_fractions_reconstruct_sigma(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 12))
            raw = rng.uniform(0.0, 1.0, size=m)
            if raw.sum() == 0:
                raw[0] = 1.0
            sigma = WorkloadVector(raw / math.fsum(raw.tolist()))
            ws = self.workspace(width=20.0, gap=0.05)
            part = partition_from_workload(ws, sigma)
            areas = np.array([0.0 if r is None else r.width * r.height for r in part])
            np.testing.assert_allclose(areas / math.fsum(areas.tolist()), sigma.shares, atol=1e-9)

    def test_no_overlap_and_gap_respected(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 10))
            raw = rng.uniform(0.05, 1.0, size=m)
            sigma = WorkloadVector(raw / math.fsum(raw.tolist()))
            ws = self.workspace(width=15.0, gap=0.2)
            part = partition_from_workload(ws, sigma)
            rects = [r for r in part if r is not None]
            for a, b in zip(rects, rects[1:]):
                assert b.x - a.x_max >= 0.2 - 1e-12

    def test_monotone_width(self):
        ws = self.workspace(width=12.0)
        lo = partition_from_workload(ws, WorkloadVector(np.array([0.2, 0.8])))
        hi = partition_from_workload(ws, WorkloadVector(np.array([0.4, 0.6])))
        assert hi[0].width > lo[0].width

    @given(alpha=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_partition_tiles_usable_width(self, alpha):
        ws = self.workspace(width=10.0, gap=0.3)
        sigma = WorkloadVector(np.array([alpha, 1.0 - alpha]))
        part = partition_from_workload(ws, sigma)
        widths = math.fsum(r.width for r in part if r is not None)
        gaps = 0.3 * (len([r for r in part if r is not None]) - 1)
        assert widths + gaps == pytest.approx(10.0, abs=1e-9)
