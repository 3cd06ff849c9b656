"""Exhaustive minimum-cost oracle and constraint audits for tiny instances.

The global problem: assign each BRB to at most one demander so that
every demander's rate meets its demand, no budget is exceeded, and the
total spent price is minimal.  For micro instances the whole assignment
space (K2 + 1)^M is enumerable, which gives a ground-truth optimum to
hold the distributed matching against.  The enumeration, and which
blocks each demander holds in each assignment, is built once per shape
(K2, M) and shared read-only.
"""

from __future__ import annotations

import functools
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


# one entry per legal shape, about 3 MB for all of them
@functools.lru_cache(maxsize=(MAX_ORACLE_DEMANDERS + 1) * MAX_ORACLE_BRBS)
def _enumeration(k2: int, m_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Every assignment of ``m_total`` BRBs to ``k2`` demanders, read-only.

    ``choices`` has a row per assignment, in lexicographic order with the
    last BRB varying fastest, holding 0 for unassigned and j+1 for
    demander axis j.  ``held[j]`` is the ``(M, rows)`` mask of the blocks
    demander axis j holds in each row.
    """
    choices = np.indices((k2 + 1,) * m_total, dtype=np.int8).reshape(m_total, -1)
    held = choices == np.arange(1, k2 + 1, dtype=np.int8)[:, None, None]
    for a in (choices, held):
        a.setflags(write=False)
    return choices.T, held


def _feasibility(choices, held, r_flat, price, budgets, demands):
    """Per-assignment feasibility and cost for the rows of
    :func:`_enumeration`.

    Each sum adds its M terms one by one in BRB order: the BRB axis is
    never the innermost in memory, so numpy does not sum it pairwise, which
    from eight terms on would give other bits.
    """
    total_cost = ((choices > 0) * price[None, :]).sum(axis=1)
    rate = (held * r_flat.T[:, :, None]).sum(axis=1)
    cost = (held * price[None, :, None]).sum(axis=1)
    feasible = (rate >= np.array(demands)[:, None]) & (cost <= np.array(budgets)[:, None])
    return feasible.all(axis=0), total_cost


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
    choices, held = _enumeration(k2, m_total)
    feasible, total_cost = _feasibility(choices, held, r_flat, t.price, budgets, demands)
    if not feasible.any():
        holder = np.full(m_total, -1, dtype=int)
        empty = _matching_from_holder(t, r_flat, ch.demander_ids, holder)
        return OracleSolution(matching=empty, total_cost=math.inf, feasible=False)
    costs = np.where(feasible, total_cost, np.inf)
    best_row = int(np.argmin(costs))  # argmin takes the first, i.e. lexicographic
    return OracleSolution(
        matching=_matching_from_holder(
            t, r_flat, ch.demander_ids, choices[best_row].astype(int) - 1
        ),
        total_cost=float(costs[best_row]),
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
