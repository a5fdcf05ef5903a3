"""Span tracing of the program's layers from outside the program.

``Tracer.install()`` swaps span-recording wrappers in for public functions
and methods of ``mhmr``: a module-level function is replaced wherever a
module of the package holds it (so ``mhmr.scenario.propose_allocation`` and
``mhmr.allocation.propose_allocation`` are both covered), a method on its
class.  ``uninstall()`` puts every original object back.  Nothing under
``src/`` changes.

Each span records its name, start, end and parent span.  A span's self
time is its duration minus the durations of its direct children; since
the program is single-threaded, children never overlap, so the self times
of all spans add up to the time covered by the root spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Any, Callable

import numpy as np

#: (span name, module, class or None, attribute).  Several targets may
#: share a span name; their spans are added together.
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("team.operators_of", "mhmr.team", "TeamTopology", "operators_of"),
    ("allocation.compute_input_vector", "mhmr.allocation", None, "compute_input_vector"),
    ("allocation.propose_allocation", "mhmr.allocation", None, "propose_allocation"),
    ("geometry.partition_from_workload", "mhmr.geometry", None, "partition_from_workload"),
    ("transition.compute_q_f", "mhmr.transition", None, "compute_q_f"),
    ("transition.step_transition", "mhmr.transition", None, "step_transition"),
    ("patrol.step_robot", "mhmr.patrol", None, "step_robot"),
    ("patrol.able_velocity", "mhmr.patrol", None, "able_velocity"),
    ("patrol.required_velocity", "mhmr.patrol", None, "required_velocity"),
    ("patrol.assign_region", "mhmr.patrol", None, "assign_region"),
    ("metrics.stress_to_condition", "mhmr.metrics", None, "stress_to_condition"),
    ("scenario.snapshot_at", "mhmr.scenario", "ScenarioRunner", "snapshot_at"),
    ("scenario.write", "mhmr.scenario", "RunRecord", "write"),
    ("scenario.loop", "mhmr.scenario", "ScenarioRunner", "run_until"),
    ("scenario.loop", "mhmr.scenario", "ScenarioRunner", "run"),
    ("scenario.setup", "mhmr.scenario", "ScenarioScript", "from_dict"),
    ("scenario.setup", "mhmr.scenario", "ScenarioRunner", "__init__"),
    ("cli.demo", "mhmr.cli", None, "_cmd_demo"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, *_ in TARGETS))

_MARK = "__perfbench_span__"


def _package_modules() -> list[Any]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "mhmr" or name.startswith("mhmr."))
    ]


class Tracer:
    """Records spans while installed; ``summary()`` aggregates them."""

    def __init__(self) -> None:
        self._names = list(SPAN_NAMES)
        self._patched: list[tuple[Any, str, Any]] = []
        self._stack: list[int] = []
        self.reset()

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans (the wrappers stay installed)."""
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._names.index(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                stack.pop()

        setattr(wrapper, _MARK, name)
        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        try:
            for name, module_name, class_name, attr in TARGETS:
                module = sys.modules[module_name]
                if class_name is not None:
                    owner = getattr(module, class_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        patched = staticmethod(self._wrap(name, raw.__func__))
                    else:
                        patched = self._wrap(name, raw)
                    self._set(owner, attr, raw, patched)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _set(self, owner: Any, attr: str, original: Any, patched: Any) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        starts = np.frombuffer(self.starts, dtype=float)
        durations = np.frombuffer(self.ends, dtype=float) - starts
        parents = np.frombuffer(self.parents, dtype=np.int64)
        child = parents >= 0
        covered = np.zeros_like(durations)
        np.add.at(covered, parents[child], durations[child])
        return durations - covered

    def root_time(self) -> float:
        """Total duration of spans that have no parent."""
        starts = np.frombuffer(self.starts, dtype=float)
        ends = np.frombuffer(self.ends, dtype=float)
        roots = np.frombuffer(self.parents, dtype=np.int64) < 0
        return float(np.sum(ends[roots] - starts[roots]))

    def summary(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` for every span name."""
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self._names))
        selfs = np.bincount(ids, weights=self.self_times(), minlength=len(self._names))
        return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self._names)}


def leaked_wrappers() -> list[str]:
    """Attributes of ``mhmr`` modules or classes that still hold a span
    wrapper; empty when the tracer restored everything."""
    leaks = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if getattr(value, _MARK, None) is not None:
                leaks.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if getattr(fn, _MARK, None) is not None:
                        leaks.append(f"{mod.__name__}.{key}.{attr}")
    return leaks
