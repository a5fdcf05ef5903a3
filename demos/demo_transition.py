"""Show how the smoothed transition trades speed for safety.

The actual workload moves toward the proposed workload by a fraction
K_e = 1 - exp(-K * q_f), where q_f is the closest any robot sits to the
boundary of its proposed region.  A robot parked on a moving boundary
freezes the transition entirely; a clear workspace lets it jump.
"""

import numpy as np

from mhmr import GlobalWorkspace, WorkloadVector, allocation_cycle, partition_from_workload


def main():
    workspace = GlobalWorkspace(origin=(0.0, 0.0), width=20.0, height=5.0)
    current = WorkloadVector(np.array([0.5, 0.5]))
    proposed = WorkloadVector(np.array([0.3, 0.7]))
    preview = partition_from_workload(workspace, proposed)
    print("proposed strip widths:", [float(r.width) for r in preview])

    for label, positions in [
        ("robots mid-strip", [(3.0, 2.5), (13.0, 2.5)]),
        ("one robot near the new boundary", [(5.9, 2.5), (13.0, 2.5)]),
        ("one robot ON the new boundary", [(6.0, 2.5), (13.0, 2.5)]),
    ]:
        for K in (0.5, 5.0):
            step = allocation_cycle(proposed, positions, current, K, workspace)
            print(
                f"{label:<34} K={K:<4} q_f={step.q_f:.2f} K_e={step.K_e:.4f} "
                f"sigma -> {np.round(step.sigma.shares, 4)}"
            )

    print("\niterated transition, K=0.5, robots mid-strip:")
    sigma = current
    for cycle in range(8):
        sigma = allocation_cycle(proposed, [(3.0, 2.5), (13.0, 2.5)], sigma, 0.5, workspace).sigma
        err = float(np.abs(sigma.shares - proposed.shares).sum())
        print(f"  cycle {cycle}: sigma={np.round(sigma.shares, 5)} error={err:.5f}")


if __name__ == "__main__":
    main()
