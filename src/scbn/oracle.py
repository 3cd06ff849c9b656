"""Exhaustive minimum-cost oracle and constraint audits for tiny instances.

The global problem: assign each BRB to at most one demander so that
every demander's rate meets its demand, no budget is exceeded, and the
total spent price is minimal.  For micro instances the whole assignment
space (K2 + 1)^M is enumerable, which gives a ground-truth optimum to
hold the distributed matching against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matching import Matching, _flat_view, _matching_from_holder, recompute_totals
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


def _feasibility(choices: np.ndarray, r_flat, price, budgets, demands):
    """Per-assignment feasibility and cost for rows of demander choices.

    ``choices`` holds 0 for unassigned, j+1 for demander axis j.
    """
    k2 = len(budgets)
    total_cost = ((choices > 0) * price[None, :]).sum(axis=1)
    feasible = np.ones(len(choices), dtype=bool)
    for j in range(k2):
        mask = choices == j + 1
        rate_j = (mask * r_flat[:, j][None, :]).sum(axis=1)
        cost_j = (mask * price[None, :]).sum(axis=1)
        feasible &= (rate_j >= demands[j]) & (cost_j <= budgets[j])
    return feasible, total_cost


def brute_force_min_cost(s: Scenario, ch: ChannelRealization) -> OracleSolution:
    """Enumerate every assignment and return the cheapest feasible one.

    Candidates for each BRB are tried as {unassigned, demanders in
    ascending id order} with BRBs in (owner, band, index) order, and the
    first minimum in that lexicographic enumeration wins ties.
    """
    t, r_flat, budgets, demands = _flat_view(s, ch)
    m_total, k2 = r_flat.shape
    if m_total > MAX_ORACLE_BRBS or k2 > MAX_ORACLE_DEMANDERS:
        raise InstanceTooLargeError(
            f"instance has {m_total} BRBs and {k2} demanders; the exhaustive oracle "
            f"is limited to {MAX_ORACLE_BRBS} BRBs and {MAX_ORACLE_DEMANDERS} demanders"
        )
    # every row of choices, in lexicographic order: the last BRB varies fastest
    choices = np.indices((k2 + 1,) * m_total, dtype=np.int8).reshape(m_total, -1).T
    feasible, total_cost = _feasibility(choices, r_flat, t.price, budgets, demands)
    if not feasible.any():
        empty = _matching_from_holder(s, ch, np.full(m_total, -1, dtype=int))
        return OracleSolution(matching=empty, total_cost=math.inf, feasible=False)
    costs = np.where(feasible, total_cost, np.inf)
    best_row = int(np.argmin(costs))  # argmin takes the first, i.e. lexicographic
    return OracleSolution(
        matching=_matching_from_holder(s, ch, choices[best_row].astype(int) - 1),
        total_cost=float(costs[best_row]),
        feasible=True,
    )


@dataclass(frozen=True)
class ConstraintReport:
    """Family-by-family audit of a matching against one scenario.

    Slacks are non-negative exactly when the constraint holds: rate slack
    is rate minus demand (bit/s, recomputed from the channels), budget
    slack is budget minus recomputed cost, per-anchor slack counts BRBs
    the anchor could still lease.  The BRB quota (at most one holder per
    block) and integrality (a block is held or not) hold by construction
    of ``Matching.holder``, so they have no field here.
    """

    rate_ok: bool
    rate_slack_bps: dict[int, float]
    budget_ok: bool
    budget_slack: dict[int, float]
    per_anchor_ok: bool
    per_anchor_slack: dict[int, int]

    @property
    def all_ok(self) -> bool:
        return self.rate_ok and self.budget_ok and self.per_anchor_ok


def check_constraints(
    m: Matching, s: Scenario, ch: ChannelRealization
) -> ConstraintReport:
    """Audit demand, budget and per-anchor capacity constraints.

    Totals are recomputed from the channel realization, so the report is
    trustworthy even for hand-built matchings.
    """
    rate, cost = recompute_totals(m, s, ch)
    rate_slack = {d: rate[d] - s.demands_bps[d] for d in ch.demander_ids}
    budget_slack = {d: s.budgets[d] - cost[d] for d in ch.demander_ids}
    used = (m.holder >= 0).reshape(len(ch.anchor_ids), s.brbs_per_anchor).sum(axis=1)
    per_anchor_slack = {
        a: s.brbs_per_anchor - int(n) for a, n in zip(ch.anchor_ids, used)
    }
    return ConstraintReport(
        rate_ok=all(v >= 0 for v in rate_slack.values()),
        rate_slack_bps=rate_slack,
        budget_ok=all(v >= 0 for v in budget_slack.values()),
        budget_slack=budget_slack,
        per_anchor_ok=all(v >= 0 for v in per_anchor_slack.values()),
        per_anchor_slack=per_anchor_slack,
    )
