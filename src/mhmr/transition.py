"""Smoothed workload transitions.

The actual workload moves toward the proposed workload by a fraction that
depends on how close the most-affected robot sits to the boundary of its
proposed region: a robot on a moving boundary freezes the transition for
that cycle, a team far from its new boundaries jumps almost immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, NoActiveAgentsError
from .geometry import GlobalWorkspace, Rect, min_boundary_distance, strips
from .team import WorkloadVector, exact_sum

#: A share this small with a zero proposal snaps to exactly zero.
ZERO_SNAP = 1e-12


@dataclass(frozen=True)
class TransitionState:
    """One cycle's transition outcome with intermediates kept for logging."""

    sigma: WorkloadVector
    q_f: float
    K_e: float


def compute_q_f(
    positions: Sequence[Sequence[float]],
    regions: Sequence[Optional[Rect]],
    failed: frozenset[int] | set[int] = frozenset(),
) -> float:
    """Minimum distance-to-proposed-boundary over non-failed robots (m).

    ``regions`` is the proposed partition (see
    :func:`~mhmr.geometry.partition_from_workload`).  ``failed`` holds robot
    *indices* (0-based, aligned with the regions).  Robots whose proposed
    region is empty are excluded as well: a zero-area region has no
    meaningful boundary distance.
    """
    if len(positions) != len(regions):
        raise ConfigurationError(f"{len(positions)} positions for {len(regions)} regions")
    active = [i for i, r in enumerate(regions) if r is not None and i not in failed]
    if not active:
        raise NoActiveAgentsError("no active agents for boundary-distance minimum")
    points = np.asarray(positions, dtype=float)[active]
    rects = np.array([(r.x, r.y, r.x_max, r.y_max) for r in map(regions.__getitem__, active)])
    return min_boundary_distance(points, *rects.T)


def transition_coefficient(q_f: float, K: float) -> float:
    """Transition fraction 1 - exp(-K * q_f), in [0, 1); 0 iff q_f is 0."""
    if q_f < 0:
        raise ConfigurationError("boundary distance must be non-negative")
    if K <= 0:
        raise ConfigurationError("K must be positive")
    value = -math.expm1(-K * q_f)
    # exp(-K*q_f) underflows to 0 for huge K*q_f; keep the coefficient < 1.
    return min(value, math.nextafter(1.0, 0.0))


def step_transition(
    current: WorkloadVector, proposed: WorkloadVector, coefficient: float
) -> WorkloadVector:
    """One discrete transition step: convex combination of actual and
    proposed shares, so the total workload is conserved exactly.

    A zero coefficient (a frozen cycle) returns ``current`` itself: for
    shares in [0, 1], ``current + 0.0 * (proposed - current)`` has
    ``current``'s bits, a ``-0.0`` share aside, which the sum would make
    ``0.0``.
    """
    if len(current) != len(proposed):
        raise ConfigurationError(
            f"workload vectors differ in length: {len(current)} vs {len(proposed)}"
        )
    if not (0.0 <= coefficient < 1.0):
        raise ConfigurationError(f"transition coefficient {coefficient!r} outside [0, 1)")
    if coefficient == 0.0:
        return current
    updated = current.shares + coefficient * (proposed.shares - current.shares)
    return WorkloadVector.adopt(updated)


def allocation_cycle(
    proposed: WorkloadVector,
    positions: Sequence[Sequence[float]],
    current: WorkloadVector,
    K: float,
    workspace: GlobalWorkspace,
) -> TransitionState:
    """One smoothed transition step toward the proposed shares.

    Previews the proposed partition, measures the worst-affected robot's
    boundary distance ``q_f``, and moves ``current`` toward ``proposed`` by
    ``K_e = transition_coefficient(q_f, K)``, so ``K`` (1/m) must be
    positive.  A share that vanishes below :data:`ZERO_SNAP` where the
    proposal is zero snaps to exactly 0.0, and the other shares are
    renormalized so the total stays at one.
    """
    shares = proposed.shares
    if len(positions) != len(shares):
        raise ConfigurationError(f"{len(positions)} positions for {len(shares)} regions")
    # The proposed strips, without building a partition: robots with a zero
    # share have no strip and are left out, as in compute_q_f.
    placed, x, width = strips(workspace, shares)
    y = workspace.origin[1]
    q_f = min_boundary_distance(
        np.asarray(positions, dtype=float)[placed], x, y, x + width, y + workspace.height
    )
    K_e = transition_coefficient(q_f, K)
    sigma = step_transition(current, proposed, K_e)
    if placed.size < shares.size:
        # Only a share whose proposal is zero can snap.
        snap = (shares == 0.0) & (sigma.shares < ZERO_SNAP) & (sigma.shares > 0.0)
        if snap.any():
            snapped = sigma.shares.copy()
            snapped[snap] = 0.0
            snapped /= exact_sum(snapped)
            sigma = WorkloadVector.adopt(snapped)
    return TransitionState(sigma=sigma, q_f=q_f, K_e=K_e)
