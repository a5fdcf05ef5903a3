"""Run the bundled scenarios end to end and print their headlines.

s1: operator fatigue with recovery (paired against a no-allocation run)
s2: a robot fails mid-mission and survivors absorb its area
s3: a deteriorated ten-robot team converging to its equilibrium shares
s4: the same team with one robot dead from the start (share exactly zero)
"""

from dataclasses import replace

from mhmr.scenario import builtin_script, run_scenario, sweep_scripts


def main():
    s1 = builtin_script("s1")
    with_alloc = run_scenario(s1)
    without = run_scenario(replace(s1, allocation_enabled=False))
    print("s1  operator fatigue (full simulation, 700 s)")
    print(f"    system lap time with allocation:    {with_alloc.summary['max_t_l']:.1f} s")
    print(f"    system lap time without allocation: {without.summary['max_t_l']:.1f} s")

    s2 = run_scenario(builtin_script("s2"))
    print("\ns2  robot 3 fails at t=200 s")
    print(f"    final robot-3 share: {s2.summary['final_sigma'][2]:.2e}")
    print(f"    total still unity:   {sum(s2.summary['final_sigma']):.9f}")

    s3 = run_scenario(builtin_script("s3"))
    print("\ns3  deteriorated m=10 team (allocation only)")
    print(f"    converged at {s3.summary['convergence_time_s']} s")
    print("    final shares:", [round(s, 4) for s in s3.summary["final_sigma"]])

    s4 = run_scenario(builtin_script("s4"))
    print("\ns4  robot 3 dead from the start")
    print(f"    robot-3 share is exactly {s4.summary['final_sigma'][2]}")

    print("\nK sweep on s3 (larger K converges faster):")
    values = [1.0, 3.0, 5.0, 10.0]
    records = [run_scenario(s) for s in sweep_scripts(builtin_script("s3"), "K", values)]
    for value, record in zip(values, records):
        print(f"    K={value:<4} convergence={record.summary['convergence_time_s']} s")


if __name__ == "__main__":
    main()
