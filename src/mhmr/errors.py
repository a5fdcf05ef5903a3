"""Exception types shared across the package."""


class MhmrError(Exception):
    """Base class for all package errors."""


class ConfigurationError(MhmrError):
    """A structural problem: missing agent entries, mismatched vector lengths,
    malformed topology or scenario scripts."""


class MetricDomainError(MhmrError):
    """A metric value arrived outside its domain.

    Out-of-range inputs are rejected rather than clamped so that bugs in a
    metric source surface immediately."""


class NoCapableAgentError(MhmrError):
    """Every agent input score is zero; a workload allocation is undefined.

    The caller decides whether to abort the mission or freeze the current
    allocation."""


class NoActiveAgentsError(MhmrError):
    """No robot is eligible for the boundary-distance minimum (all failed or
    all proposed regions empty)."""


class EmptyRegionError(MhmrError):
    """A geometric query was made against an empty (zero-allocation) region."""
