"""Exception types shared across the package, and the JSON words their
error lines use for a script value."""

import json
from typing import Any


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


_JSON_TYPES = {
    type(None): "null", bool: "boolean", int: "number", float: "number",
    str: "string", list: "array", tuple: "array", dict: "object",
}


def json_type(value: Any) -> str:
    """The JSON word for the type of ``value`` (``null``, ``boolean``,
    ``number``, ``string``, ``array`` or ``object``), for error lines."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def json_text(value: Any) -> str:
    """``value`` as a script writes it (``null``, ``true``, ``"20"``,
    ``{"x": 1}``), for error lines; its ``repr`` if it is not JSON."""
    try:
        return json.dumps(value, ensure_ascii=False)
    except (TypeError, ValueError):
        return repr(value)
