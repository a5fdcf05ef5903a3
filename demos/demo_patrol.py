"""Patrol a rectangle and watch the velocity model bind.

A robot follows its region perimeter at min(able velocity, required
velocity): condition limits the first, the lap-time threshold sets the
second.  A healthy robot holds the 65 s lap; a deteriorated one cannot.
"""

import numpy as np

from mhmr import ConditionSnapshot, Rect, TeamTopology, perimeter
from mhmr.patrol import (
    PatrolFleet,
    able_velocity,
    change_regions,
    commanded_velocity,
    required_velocity,
    step_all,
)


def patrol(region, v, seconds, dt=0.05):
    fleet = PatrolFleet([(region.x, region.y)])
    change_regions(fleet, np.array([[region.x, region.y, region.width, region.height]]))
    speeds = np.array([v])
    for _ in range(int(seconds / dt)):
        step_all(fleet, speeds, dt)
    return fleet.lap_times[0]


def main():
    team = TeamTopology.build([1], [1], [(1, 1)])
    region = Rect(0.0, 0.0, 9.67, 12.0)
    tau_star, v_max = 65.0, 0.8
    print(f"region perimeter: {perimeter(region):.2f} m, lap threshold {tau_star} s")

    for op_condition in (1.0, 0.5):
        snap = ConditionSnapshot(
            robot_condition={1: 1.0},
            operator_condition={1: op_condition},
            robot_performance={1: 1.0},
        )
        v_able = able_velocity(snap, team, 1, v_max)
        v_req = required_velocity(region, tau_star, v_max)
        v = commanded_velocity(v_able, v_req)
        laps = patrol(region, v, 400.0)
        print(
            f"\noperator condition {op_condition}: v_able={v_able:.3f} "
            f"v_req={v_req:.3f} -> v={v:.3f} m/s"
        )
        print(f"  lap times: {[round(t, 1) for t in laps]}")
        in_band = all(tau_star - 10 <= t <= tau_star + 10 for t in laps)
        print(f"  within 65 +/- 10 s band: {in_band}")


if __name__ == "__main__":
    main()
