"""Smoothed workload transitions.

The actual workload moves toward the proposed workload by a fraction that
depends on how close the most-affected robot sits to the boundary of its
proposed region: a robot on a moving boundary freezes the transition for
that cycle, a team far from its new boundaries jumps almost immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, NoActiveAgentsError
from .geometry import (
    GlobalWorkspace,
    WorkspacePartition,
    boundary_distance,
    partition_from_workload,
)
from .team import WorkloadVector

#: A share this small with a zero proposal snaps to exactly zero.
ZERO_SNAP = 1e-12


@dataclass(frozen=True)
class TransitionParams:
    """Transition tuning: scaling constant ``K`` (1/m) and the allocation
    cycle period ``tau`` (s), the slowest of the registered providers."""

    K: float
    tau: float

    def __post_init__(self):
        if self.K <= 0:
            raise ConfigurationError("K must be positive")
        if self.tau <= 0:
            raise ConfigurationError("cycle period must be positive")

    @staticmethod
    def from_cycle_times(K: float, provider_cycle_times: Iterable[float]) -> "TransitionParams":
        """Cycle period as the maximum over the providers' cycle times."""
        times = list(provider_cycle_times)
        if not times:
            raise ConfigurationError("at least one provider cycle time required")
        return TransitionParams(K=K, tau=max(times))


@dataclass(frozen=True)
class TransitionState:
    """One cycle's transition outcome with intermediates kept for logging."""

    sigma: WorkloadVector
    q_f: float
    K_e: float


def compute_q_f(
    positions: Sequence[Sequence[float]],
    proposed_partition: WorkspacePartition,
    failed: frozenset[int] | set[int] = frozenset(),
) -> float:
    """Minimum distance-to-proposed-boundary over non-failed robots (m).

    ``failed`` holds robot *indices* (0-based, aligned with the partition).
    Robots whose proposed region is empty are excluded as well: a zero-area
    region has no meaningful boundary distance.
    """
    if len(positions) != len(proposed_partition):
        raise ConfigurationError(
            f"{len(positions)} positions for {len(proposed_partition)} regions"
        )
    distances = [
        boundary_distance(positions[i], proposed_partition.regions[i])
        for i in range(len(positions))
        if i not in failed and proposed_partition.regions[i] is not None
    ]
    if not distances:
        raise NoActiveAgentsError("no active agents for boundary-distance minimum")
    return min(distances)


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
    proposed shares, so the total workload is conserved exactly."""
    if len(current) != len(proposed):
        raise ConfigurationError(
            f"workload vectors differ in length: {len(current)} vs {len(proposed)}"
        )
    if not (0.0 <= coefficient < 1.0):
        raise ConfigurationError(f"transition coefficient {coefficient!r} outside [0, 1)")
    updated = current.shares + coefficient * (proposed.shares - current.shares)
    return WorkloadVector(updated, timestamp=proposed.timestamp)


def allocation_cycle(
    proposed: WorkloadVector,
    positions: Sequence[Sequence[float]],
    current: WorkloadVector,
    params: TransitionParams,
    workspace: GlobalWorkspace,
) -> TransitionState:
    """One smoothed transition step toward the proposed shares.

    Previews the proposed partition, measures the worst-affected robot's
    boundary distance, and moves ``current`` toward ``proposed`` by
    ``K_e``.  A share that vanishes below :data:`ZERO_SNAP` where the
    proposal is zero snaps to exactly 0.0, and the other shares are
    renormalized so the total stays at one.
    """
    shares = proposed.shares
    preview = partition_from_workload(workspace, proposed)
    failed = {i for i, share in enumerate(shares) if share == 0.0}
    q_f = compute_q_f(positions, preview, failed)
    K_e = transition_coefficient(q_f, params.K)
    sigma = step_transition(current, proposed, K_e)
    snap = (shares == 0.0) & (sigma.shares < ZERO_SNAP) & (sigma.shares > 0.0)
    if np.any(snap):
        snapped = sigma.shares.copy()
        snapped[snap] = 0.0
        snapped /= math.fsum(snapped.tolist())
        sigma = WorkloadVector(snapped, timestamp=sigma.timestamp)
    return TransitionState(sigma=sigma, q_f=q_f, K_e=K_e)
