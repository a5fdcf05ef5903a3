"""Adaptive workload allocation for multi-human multi-robot teams.

A deterministic library plus CLI harness: condition/performance-driven
workload shares, distance-gated smooth transitions, rectangular workspace
partitioning and a kinematic patrolling simulator with scenario scripting.
"""

from .allocation import compute_input_vector, propose_allocation
from .errors import (
    ConfigurationError,
    EmptyRegionError,
    MetricDomainError,
    MhmrError,
    NoActiveAgentsError,
    NoCapableAgentError,
)
from .geometry import (
    GlobalWorkspace,
    Rect,
    boundary_distance,
    partition_from_workload,
    perimeter,
)
from .metrics import (
    ConditionTimeline,
    ScriptedTrace,
    StressTrace,
    discrete_stress_to_condition,
    stress_to_condition,
)
from .patrol import RobotKinematicState, system_patrol_time
from .scenario import (
    BUILTIN_SCRIPT_NAMES,
    RunRecord,
    ScenarioRunner,
    ScenarioScript,
    TopologyEdit,
    builtin_script,
    run_scenario,
)
from .team import ConditionSnapshot, TeamTopology, WorkloadVector
from .transition import (
    TransitionState,
    allocation_cycle,
    step_transition,
    transition_coefficient,
)

__version__ = "0.1.0"
