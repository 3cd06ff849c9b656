"""Exhaustive minimum-cost oracle and constraint audits for tiny instances.

The global problem: assign each BRB to at most one demander so that
every demander's rate meets its demand, no budget is exceeded, and the
total spent price is minimal.  For micro instances the whole assignment
space (K2 + 1)^M is enumerable, which gives a ground-truth optimum to
hold the distributed matching against.  The oracle first checks whether
every demander can meet its demand with all blocks, and enumerates only
when all can.  Each assignment's sums are then built once per prefix of
blocks, along a tree of the blocks' choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matching import Matching, _flat_view, _held_totals, recompute_totals
from .propagation import ChannelRealization
from .scenario import Scenario

__all__ = [
    "OracleSolution",
    "ConstraintReport",
    "InstanceTooLargeError",
    "MAX_ORACLE_BRBS",
    "MAX_ORACLE_DEMANDERS",
    "brute_force_min_cost",
    "check_constraints",
]

MAX_ORACLE_BRBS = 8
MAX_ORACLE_DEMANDERS = 3


class InstanceTooLargeError(ValueError):
    """Raised when an instance exceeds the exhaustive search bound."""


@dataclass(frozen=True)
class OracleSolution:
    """Cheapest feasible assignment, or infeasibility.

    When ``feasible`` is False no assignment satisfies all demands within
    all budgets; ``matching`` is then empty and ``total_cost`` infinite.
    """

    matching: Matching
    total_cost: float
    feasible: bool


def _tree_feasibility(r_flat, price, budgets, demands):
    """Feasibility and total price of every assignment of the ``(M, K2)``
    rates' blocks, in ``(K2 + 1)**M`` columns.

    Column i gives block l its base-(K2+1) digit l, least significant
    first: 0 leaves the block free, j+1 gives it to demander axis j.  One
    broadcast add along the prefix axis extends the 2*K2 + 1 sums of every
    prefix (each demander's rate and cost, then the total price) by the
    next block's K2+1 choices, so each sum adds its M terms in BRB order,
    0.0 times its value for a block it does not count.  Cost sums add
    negated prices, so both tests read sum >= bound (negation is exact).
    """
    k2 = r_flat.shape[1]
    eye = np.eye(k2 + 1)
    values = np.concatenate((r_flat, price[:, None].repeat(k2 + 1, axis=1)), axis=1)
    factors = np.concatenate((eye[1:], -eye[1:], 1 - eye[:1]))
    # (M, 2*K2 + 1, K2 + 1, 1): block l's term in each sum for each choice
    terms = (values[:, :, None] * factors)[..., None]
    sums = terms[0].transpose(0, 2, 1)
    for term in terms[1:]:
        sums = (term + sums).reshape(2 * k2 + 1, 1, -1)
    bounds = np.array((*demands, *[-b for b in budgets]))
    return (sums[:-1, 0] >= bounds[:, None]).all(axis=0), sums[-1, 0]


def brute_force_min_cost(s: Scenario, ch: ChannelRealization) -> OracleSolution:
    """Enumerate every assignment and return the cheapest feasible one,
    or infeasibility without enumerating when some demander falls short of
    its demand with all blocks.

    Candidates for each BRB are tried as {unassigned, demanders in
    ascending id order} with BRBs in (owner, band, index) order, and the
    first minimum in that lexicographic enumeration wins ties.  Raises
    ValueError when the total price of every feasible assignment overflows
    to inf, which ``OracleSolution`` would read as infeasibility.
    """
    t, r_flat, budgets, demands = _flat_view(s, ch)
    m_total, k2 = r_flat.shape
    if m_total > MAX_ORACLE_BRBS or k2 > MAX_ORACLE_DEMANDERS:
        raise InstanceTooLargeError(
            f"instance has {m_total} BRBs and {k2} demanders; the exhaustive oracle "
            f"is limited to {MAX_ORACLE_BRBS} BRBs and {MAX_ORACLE_DEMANDERS} demanders"
        )
    cols = np.empty(0, dtype=np.intp)
    # a cost sum that overflows exceeds its budget, so its column is infeasible
    with np.errstate(over="ignore"):
        # each demander's rate over all M blocks, summed in BRB order as the
        # tree sums it: rounded addition is monotone, so no set of blocks
        # gives more, and one short demand leaves no column feasible
        reach = np.cumsum(r_flat, axis=0)[-1] if m_total else np.zeros(k2)
        if not (reach < demands).any():
            feasible, total_cost = _tree_feasibility(r_flat, t.price, budgets, demands)
            cols = np.flatnonzero(feasible)
    if not cols.size:  # most micro instances: no totals to sum
        free = Matching._built(np.full(m_total, -1), t, ch.demander_ids, [0.0] * k2, [0.0] * k2)
        return OracleSolution(matching=free, total_cost=math.inf, feasible=False)
    costs = total_cost[cols]
    least = float(costs.min())
    if not math.isfinite(least):
        raise ValueError("the total price of every feasible assignment overflows to inf")
    # lexicographic order reads a column's digits reversed; its first minimum wins
    shape = (k2 + 1,) * m_total
    tied = np.unravel_index(cols[costs == least], shape)
    first = np.ravel_multi_index(tied[::-1], shape).min()
    holder = np.array(np.unravel_index(first, shape)) - 1
    return OracleSolution(
        matching=Matching._built(holder, t, ch.demander_ids, *_held_totals(t, r_flat, holder)),
        total_cost=least,
        feasible=True,
    )


@dataclass(frozen=True)
class ConstraintReport:
    """Family-by-family audit of a matching against one scenario.

    Slacks are non-negative exactly when the constraint holds: rate slack
    is rate minus demand (bit/s, recomputed from the channels), budget
    slack is budget minus recomputed cost.  The BRB quota (at most one
    holder per block), integrality (a block is held or not) and the
    per-anchor capacity of family 3f (an anchor leases at most its N
    blocks) hold by construction of ``Matching.holder``, which spans
    exactly the K1 * N blocks of the table, so they have no field here.
    """

    rate_ok: bool
    rate_slack_bps: dict[int, float]
    budget_ok: bool
    budget_slack: dict[int, float]

    @property
    def all_ok(self) -> bool:
        return self.rate_ok and self.budget_ok


def check_constraints(
    m: Matching, s: Scenario, ch: ChannelRealization
) -> ConstraintReport:
    """Audit the demand and budget constraints.

    Totals are recomputed from the channel realization, so the report is
    trustworthy even for hand-built matchings.
    """
    rate, cost = recompute_totals(m, s, ch)
    rate_slack = {d: rate[d] - s.demands_bps[d] for d in ch.demander_ids}
    budget_slack = {d: s.budgets[d] - cost[d] for d in ch.demander_ids}
    return ConstraintReport(
        rate_ok=all(v >= 0 for v in rate_slack.values()),
        rate_slack_bps=rate_slack,
        budget_ok=all(v >= 0 for v in budget_slack.values()),
        budget_slack=budget_slack,
    )
