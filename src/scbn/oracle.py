"""Exhaustive minimum-cost oracle and constraint audits for tiny instances.

The global problem: assign each BRB to at most one demander so that
every demander's rate meets its demand, no budget is exceeded, and the
total spent price is minimal.  For micro instances the whole assignment
space (K2 + 1)^M is enumerable, which gives a ground-truth optimum to
hold the distributed matching against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .matching import (
    Brb,
    Matching,
    brb_table,
    matching_from_assignment,
    recompute_totals,
)
from .propagation import ChannelRealization, rate_tensor
from .scenario import Scenario

__all__ = [
    "OracleSolution",
    "ConstraintReport",
    "InstanceTooLargeError",
    "MAX_ORACLE_BRBS",
    "MAX_ORACLE_DEMANDERS",
    "brute_force_min_cost",
    "sample_feasible_costs",
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


def _enumeration_arrays(s: Scenario, ch: ChannelRealization):
    t = brb_table(s)
    m_total = len(t.brbs)
    k2 = len(ch.demander_ids)
    if m_total > MAX_ORACLE_BRBS or k2 > MAX_ORACLE_DEMANDERS:
        raise InstanceTooLargeError(
            f"instance has {m_total} BRBs and {k2} demanders; the exhaustive "
            f"oracle is limited to {MAX_ORACLE_BRBS} BRBs and "
            f"{MAX_ORACLE_DEMANDERS} demanders"
        )
    r_flat = rate_tensor(s, ch)[t.owner_axis, t.global_n, :]
    budgets = np.array([s.budgets[d] for d in ch.demander_ids], dtype=float)
    demands = np.array([s.demands_bps[d] for d in ch.demander_ids], dtype=float)
    return t.brbs, r_flat, t.price, budgets, demands


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
    brbs, r_flat, price, budgets, demands = _enumeration_arrays(s, ch)
    m_total = len(brbs)
    k2 = len(budgets)
    choices = np.array(
        list(itertools.product(range(k2 + 1), repeat=m_total)), dtype=np.int8
    ).reshape(-1, m_total)
    feasible, total_cost = _feasibility(choices, r_flat, price, budgets, demands)
    if not feasible.any():
        empty = matching_from_assignment(s, ch, {})
        return OracleSolution(matching=empty, total_cost=math.inf, feasible=False)
    costs = np.where(feasible, total_cost, np.inf)
    best_row = int(np.argmin(costs))  # argmin takes the first, i.e. lexicographic
    assignment: dict[int, set[Brb]] = {}
    for m, c in enumerate(choices[best_row]):
        if c > 0:
            d = ch.demander_ids[c - 1]
            assignment.setdefault(d, set()).add(brbs[m])
    return OracleSolution(
        matching=matching_from_assignment(s, ch, assignment),
        total_cost=float(costs[best_row]),
        feasible=True,
    )


def sample_feasible_costs(
    s: Scenario,
    ch: ChannelRealization,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Costs of uniformly sampled assignments that happen to be feasible.

    Used as a randomized dominance check: every returned cost must be at
    least the oracle's minimum.
    """
    brbs, r_flat, price, budgets, demands = _enumeration_arrays(s, ch)
    choices = rng.integers(0, len(budgets) + 1, size=(samples, len(brbs)), dtype=np.int8)
    feasible, total_cost = _feasibility(choices, r_flat, price, budgets, demands)
    return total_cost[feasible]


@dataclass(frozen=True)
class ConstraintReport:
    """Family-by-family audit of a matching against one scenario.

    Slacks are non-negative exactly when the constraint holds: rate slack
    is rate minus demand (bit/s, recomputed from the channels), budget
    slack is budget minus recomputed cost, per-anchor slack counts BRBs
    the anchor could still lease.  ``quota_violations`` lists BRBs held
    by more than one demander.  Integrality is inherent to the set-based
    representation (a BRB is either assigned or not), so it can only be
    reported satisfied; it is kept for completeness of the audit.
    """

    rate_ok: bool
    rate_slack_bps: dict[int, float]
    budget_ok: bool
    budget_slack: dict[int, float]
    per_anchor_ok: bool
    per_anchor_slack: dict[int, int]
    quota_ok: bool
    quota_violations: tuple[Brb, ...]
    integrality_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.rate_ok
            and self.budget_ok
            and self.per_anchor_ok
            and self.quota_ok
            and self.integrality_ok
        )


def check_constraints(
    m: Matching, s: Scenario, ch: ChannelRealization
) -> ConstraintReport:
    """Audit demand, budget, per-anchor capacity and quota constraints.

    Totals are recomputed from the channel realization, so the report is
    trustworthy even for hand-built or corrupted matchings.
    """
    rate, cost = recompute_totals(m, s, ch)
    rate_slack = {
        d: rate.get(d, 0.0) - s.demands_bps[d] for d in ch.demander_ids
    }
    budget_slack = {
        d: s.budgets[d] - cost.get(d, 0.0) for d in ch.demander_ids
    }
    counts: dict[Brb, int] = {}
    per_anchor_used = {a: 0 for a in ch.anchor_ids}
    for brbs in m.assigned.values():
        for b in brbs:
            counts[b] = counts.get(b, 0) + 1
            per_anchor_used[b.owner] = per_anchor_used.get(b.owner, 0) + 1
    quota_violations = tuple(
        sorted((b for b, c in counts.items() if c > 1), key=Brb.key)
    )
    per_anchor_slack = {
        a: s.brbs_per_anchor - per_anchor_used.get(a, 0) for a in ch.anchor_ids
    }
    return ConstraintReport(
        rate_ok=all(v >= 0 for v in rate_slack.values()),
        rate_slack_bps=rate_slack,
        budget_ok=all(v >= 0 for v in budget_slack.values()),
        budget_slack=budget_slack,
        per_anchor_ok=all(v >= 0 for v in per_anchor_slack.values()),
        per_anchor_slack=per_anchor_slack,
        quota_ok=not quota_violations,
        quota_violations=quota_violations,
        integrality_ok=True,
    )
