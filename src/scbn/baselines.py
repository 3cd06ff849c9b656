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

from .matching import Matching, _held_matching, brb_table
from .propagation import ChannelRealization, rate_tensor
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
    t = brb_table(s)
    price = t.price
    r_flat = rate_tensor(s, ch)[t.owner_axis, t.global_n, :]  # (M, K2)
    demander_ids = list(ch.demander_ids)
    k2 = len(demander_ids)
    m_total = len(t.brbs)

    requests: list[np.ndarray] = []
    for j, d in enumerate(demander_ids):
        need = s.demands_bps[d]
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
    for j, d in enumerate(demander_ids):
        budget = s.budgets[d]
        for m in requests[j]:
            if winner[m] != j:
                continue
            if cost[j] + price[m] > budget:
                break
            holder[m] = j
            rate[j] += r_flat[m, j]
            cost[j] += price[m]
    held = [np.nonzero(holder == j)[0] for j in range(k2)]
    return _held_matching(t, demander_ids, held, rate, cost)


def random_allocate(
    s: Scenario, ch: ChannelRealization, rng: np.random.Generator
) -> Matching:
    """Assign each BRB to a uniformly random eligible demander.

    BRBs are visited in a random order; a demander is eligible while its
    demand is unmet and the BRB fits its remaining budget.  BRBs with no
    eligible taker stay unassigned.  Deterministic for a given ``rng``.
    """
    t = brb_table(s)
    demander_ids = list(ch.demander_ids)
    axes = range(len(demander_ids))
    m_total = len(t.brbs)

    # Python floats: the same IEEE sums as numpy scalars, without per-BRB
    # array overhead
    rates = rate_tensor(s, ch)[t.owner_axis, t.global_n, :].tolist()
    price = t.price.tolist()
    budgets = [float(s.budgets[d]) for d in demander_ids]
    demands = [float(s.demands_bps[d]) for d in demander_ids]
    holder = np.full(m_total, -1, dtype=int)
    rate = [0.0 for _ in axes]
    cost = [0.0 for _ in axes]
    for m in rng.permutation(m_total).tolist():
        eligible = [
            j for j in axes if rate[j] < demands[j] and cost[j] + price[m] <= budgets[j]
        ]
        if not eligible:
            continue
        j = eligible[rng.integers(len(eligible))]
        holder[m] = j
        rate[j] += rates[m][j]
        cost[j] += price[m]
    held = [np.nonzero(holder == j)[0] for j in axes]
    return _held_matching(t, demander_ids, held, rate, cost)
