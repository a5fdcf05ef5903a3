"""The mhmr benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload alloc_m1000 --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the program is imported from its
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics:
set-up time, simulation rate, cycle latency (median and tail), write time
and peak memory, over whole passes of the workload repeated for about
``--seconds``.  With ``--trace 1`` it alternates untraced and traced
passes (see ``tracer.py``) and reports per-layer calls and self times,
behaviour counters, per-call micro-timings and the tracing overhead.  Every record passes through the correctness gate in
``measure.py``; a run that fails it counts in ``failed``.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` shrinks every workload so that a run takes seconds (tests);
``--save-digests`` stores the run's output digests in ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS_FILE = HERE / "digests.json"

#: Workload passes per run, at least; more while ``--seconds`` allows.
MIN_PASSES = 3
#: Untraced and traced pass pairs per traced run, at least.
MIN_PAIRS = 2
#: Timed set-ups of the whole workload before each pass, for ``setup_s``.
SETUPS_PER_PASS = 4
#: Writes of each record per pass, for ``write_s``.
WRITES_PER_PASS = 3
#: Tail percentiles tried, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: Samples a tail percentile must have beyond it.
TAIL_BEYOND = 10

#: (name, unit, better) of the end-to-end metrics, printed by ``--trace 0``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("sim_rate", "s/s", "higher"),
    ("cycle_ms_p50", "ms", "lower"),
    ("cycle_ms_tail", "ms", "lower"),
    ("write_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_spec() -> tuple[tuple[str, str, str], ...]:
    """(name, unit, better) of the per-layer metrics, printed by ``--trace 1``."""
    from micro import FUNCTIONS, SIZES
    from tracer import SPAN_NAMES

    spec = []
    for name in SPAN_NAMES:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    spec += [
        ("scenario.write.bytes", "bytes", "lower"),
        ("scenario.cycles.count", "count", "higher"),
        ("patrol.robot_steps.count", "count", "higher"),
        ("patrol.laps.count", "count", "higher"),
        ("transition.frozen_frac", "ratio", "lower"),
        ("transition.no_capable.count", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.sim_rate", "s/s", "higher"),
        ("trace.sim_rate_untraced", "s/s", "higher"),
        ("trace.overhead_x", "x", "lower"),
    ]
    for prefix in FUNCTIONS:
        spec += [(f"{prefix}.us_m{m}", "us", "lower") for m in SIZES]
    return tuple(spec)


# ---------------------------------------------------------------------------
# Run metadata


def _read(path: str | Path) -> Optional[str]:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def git_commit(root: Path) -> str:
    """HEAD of the tree's git repository, read from ``.git`` without running
    git; ``unknown`` outside a repository."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return "unknown"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose is not None:
        return loose.strip()
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def metadata(seed: int) -> dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "git_commit": git_commit(ROOT),
    }


# ---------------------------------------------------------------------------
# Statistics


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ``TAIL_BEYOND`` of
    ``samples`` beyond it (the 50th if none has)."""
    for p in TAIL_LADDER:
        if samples - math.ceil(p / 100.0 * samples) >= TAIL_BEYOND:
            return p
    return 50.0


def nearest_rank(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# ---------------------------------------------------------------------------
# Failure accounting


class Ledger:
    """Runs attempted and the problems of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: " + "; ".join(problems))
        return not problems

    def enter(self, tag: str, p, reference=None) -> bool:
        """Enter every scenario run and demo of pass ``p``; True when all
        passed.  Against a ``reference`` pass of the same inputs, outputs
        and work counts must repeat exactly: the program is deterministic,
        so any drift is a defect."""
        clean = True
        for res, ref in zip(p.results, reference.results if reference else [None] * len(p.results)):
            problems = list(res.problems)
            if ref is not None and not problems and not ref.problems:
                if (res.counts, res.digests) != (ref.counts, ref.digests):
                    problems.append(f"drift: counts {res.counts} vs {ref.counts} or digests differ")
            clean &= self.add(f"{tag} {res.label}", problems)
        for demo, ref in zip(p.demos, reference.demos if reference else [None] * len(p.demos)):
            problems = [demo.problem] if demo.problem else []
            if ref is not None and not problems and (demo.stdout, demo.digests) != (ref.stdout, ref.digests):
                problems.append("output differs from the reference pass")
            clean &= self.add(f"{tag} mhmr demo {demo.name}", problems)
        return clean

    @property
    def failed(self) -> int:
        return len(self.problems)


def outputs_match_seed(workload, seed: int, digests: dict) -> Optional[bool]:
    """Whether the outputs equal the stored ones; ``None`` when none are
    stored for this workload at this seed."""
    stored = json.loads(_read(DIGESTS_FILE) or "{}").get(workload.name)
    if stored is None or (workload.seeded and stored["seed"] != seed):
        return None
    return stored["scenarios"] == digests


def save_digests(workload, seed: int, digests: dict) -> None:
    stored = json.loads(_read(DIGESTS_FILE) or "{}")
    stored[workload.name] = {"seed": seed if workload.seeded else None, "scenarios": digests}
    DIGESTS_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# The two kinds of run


def _repeat_for(seconds: float, one_pass, minimum: int) -> list:
    """Whole passes: at least ``minimum``, more while another one is
    expected to fit in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= minimum and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def end_to_end_run(scenarios, cli_demos, workdir: Path, seconds: float, ledger: Ledger):
    """Timed passes of the scenarios, each preceded by timed set-ups, then
    the ``mhmr demo`` checks once (untimed).

    On a shared host the CPU speed can drift by tens of percent within
    seconds, so every statistic is a median over samples spread across the
    whole run: a cycle's time is the median over passes of that same cycle,
    and set-up and write times are medians over several samples per pass.
    """
    from measure import run_pass, time_setups

    time_setups(scenarios, 1)  # warm-up
    setups: list[float] = []

    def one_pass():
        setups.extend(time_setups(scenarios, SETUPS_PER_PASS))
        return run_pass(scenarios, (), workdir / "out", writes=WRITES_PER_PASS)

    passes = _repeat_for(seconds, one_pass, MIN_PASSES)
    clean = [p for i, p in enumerate(passes) if ledger.enter(f"pass {i}", p, passes[0])]
    demos = run_pass([], cli_demos, workdir / "out")
    ledger.enter("check", demos)
    if not clean:
        return None

    def median_over_passes(samples_of) -> list[float]:
        """Element-wise median over the clean passes of a per-pass list."""
        return [statistics.median(col) for col in zip(*(samples_of(p) for p in clean))]

    cycles = median_over_passes(lambda p: [c for r in p.results for c in r.cycle_s])
    finalize = median_over_passes(lambda p: [r.finalize_s for r in p.results])
    writes = [sum(col) for p in clean for col in zip(*(r.write_s for r in p.results))]
    sim_s = sum(r.sim_s for r in clean[0].results)
    p_tail = tail_percentile(len(cycles))
    tail, beyond = nearest_rank(cycles, p_tail)
    per_cycle = f"each the median of {len(clean)} passes"
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "sim_rate": (
            sim_s / (sum(cycles) + sum(finalize)),
            f"{sim_s:g} simulated s over the summed cycle times, {per_cycle}",
        ),
        "cycle_ms_p50": (statistics.median(cycles) * 1e3, f"median of {len(cycles)} cycles, {per_cycle}"),
        "cycle_ms_tail": (
            tail * 1e3,
            f"p{p_tail:g} of {len(cycles)} cycles, {beyond} beyond, {per_cycle}",
        ),
        "write_s": (statistics.median(writes), f"median of {len(writes)} writes of the workload"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "process peak resident set",
        ),
    }
    details = {
        "passes": len(passes),
        "work_counts": clean[0].totals(),
        "digests": {**passes[0].digests(), **demos.digests()},
    }
    return metrics, details


def traced_run(scenarios, cli_demos, workdir: Path, seconds: float, seed: int,
               smoke: bool, ledger: Ledger):
    """Pairs of an untraced and a traced pass, then the micro-timings."""
    from measure import run_pass
    from micro import micro_timings
    from tracer import SPAN_NAMES, Tracer

    tracer = Tracer()

    def pair():
        untraced = run_pass(scenarios, cli_demos, workdir / "out")
        tracer.reset()
        with tracer:
            traced = run_pass(scenarios, cli_demos, workdir / "out")
        return untraced, traced, tracer.summary()

    pairs = _repeat_for(seconds, pair, MIN_PAIRS)
    reference = pairs[0][0]
    if not ledger.enter("untraced 0", reference):
        return None
    first_calls = {n: c for n, (c, _) in pairs[0][2].items()}
    for i, (untraced, traced, summary) in enumerate(pairs):
        if i:
            ledger.enter(f"untraced {i}", untraced, reference)
        # Traced records must be byte-identical to the untraced ones.
        ledger.enter(f"traced {i}", traced, reference)
        calls = {n: c for n, (c, _) in summary.items()}
        if calls != first_calls:
            ledger.add(f"traced {i} span calls", [f"drift: {calls} vs {first_calls}"])

    traced_rate = statistics.median(t.sim_rate for _, t, _ in pairs)
    untraced_rate = statistics.median(u.sim_rate for u, _, _ in pairs)
    counts = reference.totals()
    alloc_cycles = counts["allocation_cycles"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (first_calls[name], "calls per pass")
        metrics[f"{name}.self_s"] = (
            statistics.median(summary[name][1] for _, _, summary in pairs),
            f"median self time of {len(pairs)} traced passes",
        )
    metrics.update(
        {
            "scenario.write.bytes": (counts["bytes"], "bytes written per pass"),
            "scenario.cycles.count": (counts["cycles"], "cycle rows per pass"),
            "patrol.robot_steps.count": (counts["robot_steps"], "robot steps per pass"),
            "patrol.laps.count": (counts["laps"], "laps per pass"),
            "transition.frozen_frac": (
                counts["frozen_cycles"] / alloc_cycles if alloc_cycles else 0.0,
                f"cycles with q_f == 0 of {alloc_cycles} allocation cycles",
            ),
            "transition.no_capable.count": (counts["no_capable_cycles"], "cycles per pass"),
            "trace.wall_s": (
                statistics.median(t.wall_s for _, t, _ in pairs),
                f"median of {len(pairs)} traced passes",
            ),
            "trace.sim_rate": (traced_rate, f"median of {len(pairs)} traced passes"),
            "trace.sim_rate_untraced": (untraced_rate, f"median of {len(pairs)} untraced passes"),
            "trace.overhead_x": (untraced_rate / traced_rate, "untraced / traced sim_rate"),
        }
    )
    micro = micro_timings(seed, workdir / "micro", budget_s=0.0 if smoke else 0.15)
    metrics.update({k: (v, "median per call") for k, v in micro.items()})
    details = {
        "pairs": len(pairs),
        # Self times add up to the benchmark's own timing of the same calls.
        "traced_wall_s": [t.wall_s for _, t, _ in pairs],
        "self_time_sum_s": [sum(s for _, s in summary.values()) for _, _, summary in pairs],
        "work_counts": counts,
        "digests": reference.digests(),
    }
    return metrics, details


# ---------------------------------------------------------------------------
# Entry point


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny workloads, for tests")
    parser.add_argument("--save-digests", action="store_true", help="store this run's output digests")
    return parser.parse_args(argv)


def import_program() -> Optional[str]:
    """Put the tree's ``src/`` first on the path and import ``mhmr`` from it;
    an error message when the tree holds no program."""
    src = ROOT / "src"
    if not (src / "mhmr" / "__init__.py").is_file():
        return f"no program source at {src / 'mhmr'}"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mhmr

    if Path(mhmr.__file__).resolve().parent != (src / "mhmr").resolve():
        return f"mhmr imported from {mhmr.__file__}, not from {src}"
    return None


def main(argv=None) -> int:
    error = import_program()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    meta = metadata(args.seed)
    cli_demos = workload.cli_demos
    if args.smoke:
        # The s1 and s2 verdicts need their full runs, which take seconds.
        cli_demos = tuple(n for n in cli_demos if n in ("s3", "s4"))

    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    ledger = Ledger()
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        scenarios = workload.build(args.seed, workdir, args.smoke)
        if args.trace:
            outcome = traced_run(scenarios, cli_demos, workdir, args.seconds, args.seed,
                                 args.smoke, ledger)
        else:
            outcome = end_to_end_run(scenarios, cli_demos, workdir, args.seconds, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with_parent = workdir.parent
        if with_parent.is_dir() and not any(with_parent.iterdir()):
            with_parent.rmdir()
    meta["loadavg_end"] = list(os.getloadavg())
    meta["trace_overhead_x"] = outcome[0]["trace.overhead_x"][0] if args.trace and outcome else None

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print(f"why={workload.why}")
    for key, value in meta.items():
        print(f"meta.{key}={'n/a (measured with --trace 1)' if value is None else value}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    failed_frac = ledger.failed / max(1, ledger.attempted)
    print(f"failed_frac = {failed_frac!r} ratio ({ledger.failed} of {ledger.attempted} runs)")
    print(f"correct={str(ledger.failed == 0).lower()}")
    if outcome is None:
        print("error: no pass completed cleanly; no metrics", file=sys.stderr)
        return 1
    metrics, details = outcome
    spec = per_layer_spec() if args.trace else END_TO_END
    for name, unit, _ in spec:
        value, how = metrics[name]
        print(f"{name} = {value!r} {unit} ({how})")
    match = outputs_match_seed(workload, args.seed, details["digests"])
    print(f"outputs_match_seed={'n/a' if match is None else str(match).lower()}")
    if args.save_digests:
        save_digests(workload, args.seed, details["digests"])
    print("report=" + json.dumps({"meta": meta, "outputs_match_seed": match, **details}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": metrics[name][0], "unit": unit} for name, unit, _ in spec
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
