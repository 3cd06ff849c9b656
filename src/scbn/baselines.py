"""Reference allocation schemes the matching game is compared against.

Best effort is a single uncoordinated pass: every demander asks for the
blocks it would want in a vacuum, each block goes to the strongest
requester, and nobody gets a second try.  Losing a contested block or
running out of money mid-purchase is simply absorbed.  Random allocation
assigns each BRB to a uniformly drawn station that still wants and can
afford it.
"""

from __future__ import annotations

import numpy as np

from .matching import Matching, _flat_view
from .propagation import ChannelRealization
from .scenario import Scenario

__all__ = ["best_effort_allocate", "random_allocate"]


def best_effort_allocate(s: Scenario, ch: ChannelRealization) -> Matching:
    """Allocate BRBs by raw link rate in one shot, with no retries.

    Every demander requests, in descending rate order (ties in canonical
    block order), just enough blocks to cover its demand, ignoring prices
    and the other demanders.  Each requested block is then granted to the
    requester with the highest rate on it (ties to the lower id).
    Winners buy their grants in the order they asked for them and stop at
    the first one they cannot pay for.  Blocks lost to a stronger rival
    or dropped for lack of money are never re-requested, so an unlucky
    demander can finish both poor and underserved.
    """
    t, r_flat, budgets, demands = _flat_view(s, ch)  # r_flat: (M, K2)
    price = t.price
    demander_ids = ch.demander_ids
    m_total, k2 = r_flat.shape

    requests: list[np.ndarray] = []
    for j, need in enumerate(demands):
        order = np.argsort(-r_flat[:, j], kind="stable")
        useful = order[r_flat[order, j] > 0.0]
        if need <= 0.0 or useful.size == 0:
            requests.append(useful[:0])
            continue
        covered = np.cumsum(r_flat[useful, j])
        cut = int(np.searchsorted(covered, need)) + 1
        requests.append(useful[:cut])

    best = np.zeros(m_total)
    winner = np.full(m_total, -1, dtype=int)
    for j in range(k2):
        req = requests[j]
        won = req[r_flat[req, j] > best[req]]
        winner[won] = j
        best[won] = r_flat[won, j]

    holder = np.full(m_total, -1, dtype=int)
    rate = np.zeros(k2)
    cost = np.zeros(k2)
    for j, budget in enumerate(budgets):
        for m in requests[j]:
            if winner[m] != j:
                continue
            if cost[j] + price[m] > budget:
                break
            holder[m] = j
            rate[j] += r_flat[m, j]
            cost[j] += price[m]
    return Matching(
        table=t,
        demander_ids=demander_ids,
        holder=holder,
        rate_bps=dict(zip(demander_ids, rate.tolist())),
        cost=dict(zip(demander_ids, cost.tolist())),
    )


def random_allocate(
    s: Scenario, ch: ChannelRealization, rng: np.random.Generator
) -> Matching:
    """Assign each BRB to a uniformly random eligible demander.

    BRBs are visited in a random order; a demander is eligible while its
    demand is unmet and the BRB fits its remaining budget.  BRBs with no
    eligible taker stay unassigned.  Deterministic for a given ``rng``.
    """
    t, r_flat, budgets, demands = _flat_view(s, ch)
    demander_ids = ch.demander_ids
    axes = range(len(demander_ids))
    m_total = len(t.brbs)

    # Python floats: the same IEEE sums as numpy scalars, without per-BRB
    # array overhead
    rates = r_flat.tolist()
    price = t.price.tolist()
    tier_of = t.tier.tolist()
    holder = [-1] * m_total
    rate = [0.0 for _ in axes]
    cost = [0.0 for _ in axes]

    def qualifies(j: int, tier_price: float) -> bool:
        return rate[j] < demands[j] and cost[j] + tier_price <= budgets[j]

    # The eligible demanders of each price tier, ascending.  Rates and
    # prices are non-negative, so a grant only raises a demander's rate and
    # cost, and a demander that stops qualifying for a tier never does again.
    eligible_in = [[j for j in axes if qualifies(j, p)] for p in t.tiers]
    for m in rng.permutation(m_total).tolist():
        eligible = eligible_in[tier_of[m]]
        if not eligible:
            continue
        j = eligible[rng.integers(len(eligible))]
        holder[m] = j
        rate[j] += rates[m][j]
        cost[j] += price[m]
        for tier_price, tier_eligible in zip(t.tiers, eligible_in):
            if j in tier_eligible and not qualifies(j, tier_price):
                tier_eligible.remove(j)
    return Matching(
        table=t,
        demander_ids=demander_ids,
        holder=holder,
        rate_bps=dict(zip(demander_ids, rate)),
        cost=dict(zip(demander_ids, cost)),
    )
