"""Condition-driven workload allocation.

Each robot gets an input score combining its own condition, its operators'
conditions and its task performance, gated by the worst of those metrics so
that any incapacitated contributor forces the score to exactly zero.  The
proposed workload share is the score normalized over the team.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoCapableAgentError
from .team import ConditionSnapshot, TeamTopology, WorkloadVector, exact_sum, two_sum_error

#: Below this total score the team is considered fully incapacitated.
CAPABLE_TOTAL_THRESHOLD = 1e-12


def compute_input_vector(
    topology: TeamTopology, snapshot: ConditionSnapshot
) -> np.ndarray:
    """Per-robot input scores in [0, 1], index-aligned with ``topology.robot_ids``.

    For a human-operated robot the score averages its condition, every
    connected operator's condition and its performance, scaled by the
    minimum of those same metrics.  For an autonomous robot the operator
    terms drop out.  A zero anywhere in a robot's own metric set yields an
    exact 0.0 score.

    The bracket is the correctly rounded sum of the robot's metrics
    (``math.fsum``), added left to right in arrays: where every addition
    but a row's last is exact (a zero TwoSum error), that sum is already
    correctly rounded, and only the other rows go through ``math.fsum``.
    """
    columns = snapshot.columns(topology)
    tables = topology.value_tables
    cond, perf = columns.condition, columns.performance
    gate = np.minimum(perf, columns.kappa)
    terms = [perf, *columns.operators.T]
    bracket, inexact = cond, None
    # Every addition but the last one of a row must be exact; the last one
    # of a row with j operators adds terms[j], and zeros follow it.
    for term, more in zip(terms, tables.more):
        total = bracket + term
        rounded = (two_sum_error(bracket, term, total) != 0.0) & more
        inexact = rounded if inexact is None else inexact | rounded
        bracket = total
    bracket = bracket + terms[-1]
    for i in inexact.nonzero()[0].tolist():
        bracket[i] = math.fsum([cond.item(i), *(t.item(i) for t in terms)])
    # A zero gate gives a zero score; adding 0.0 makes a -0.0 one +0.0.
    return gate / tables.terms * bracket + 0.0


def propose_allocation(
    topology: TeamTopology, snapshot: ConditionSnapshot
) -> WorkloadVector:
    """Proposed workload shares: input scores normalized to sum to 1.

    Raises :class:`NoCapableAgentError` when every score is (effectively)
    zero; an allocation is undefined in that case and the caller decides
    whether to abort or freeze the current workload.
    """
    scores = compute_input_vector(topology, snapshot)
    total = exact_sum(scores)
    if total < CAPABLE_TOTAL_THRESHOLD:
        raise NoCapableAgentError(
            "no capable agent: all input scores are zero, allocation undefined"
        )
    shares = scores / total
    # Exact-zero scores must stay exactly zero after normalization.
    shares[scores == 0.0] = 0.0
    return WorkloadVector.adopt(shares)
