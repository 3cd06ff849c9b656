"""Reference allocation schemes the matching game is compared against.

Best effort is a single uncoordinated pass: every demander asks for the
blocks it would want in a vacuum, each block goes to the strongest
requester, and nobody gets a second try.  Losing a contested block or
running out of money mid-purchase is simply absorbed.  Random allocation
assigns each BRB to a uniformly drawn station that still wants and can
afford it.  It draws the BRB order with ``rng.permutation`` and then each
grant's ``rng.integers(n)``, but computes those bounded draws in its
grant loop, by Lemire's method, from one block of raw 32-bit words, and
leaves the generator in the state the scalar draws would have left it in.
"""

from __future__ import annotations

import numpy as np

from .matching import Matching, _flat_view
from .propagation import ChannelRealization
from .scenario import Scenario

__all__ = ["best_effort_allocate", "random_allocate"]

_WORDS = 1 << 32  # the span of one raw 32-bit word
_LOW = _WORDS - 1  # the low 32 bits of a product word * n


def _advance(rng: np.random.Generator, size: int) -> np.ndarray:
    """Move the generator past its next ``size`` raw 32-bit words, and
    return them, in order, as an array."""
    return rng.integers(0, _WORDS, size=size, dtype=np.uint32)


def best_effort_allocate(s: Scenario, ch: ChannelRealization) -> Matching:
    """Allocate BRBs by raw link rate in one shot, with no retries.

    Every demander requests, in descending rate order (ties in canonical
    block order), just enough blocks to cover its demand, ignoring prices
    and the other demanders.  Each requested block is then granted to the
    requester with the highest rate on it (ties to the lower demander
    axis, i.e. the earlier in station order, not the lower id).
    Winners buy their grants in the order they asked for them and stop at
    the first one they cannot pay for.  Blocks lost to a stronger rival
    or dropped for lack of money are never re-requested, so an unlucky
    demander can finish both poor and underserved.
    """
    t, r_flat, budgets, demands = _flat_view(s, ch)  # r_flat: (M, K2)
    m_total, k2 = r_flat.shape
    axes = np.arange(k2)[:, None]
    # one contiguous row per demander: every pass below runs along rows
    r_rows = r_flat.T.copy()

    # row j of ``order`` lists demander j's blocks by descending rate, ties
    # in canonical order; its positive rates lead, so the blocks worth
    # asking for are a prefix of it
    order = np.argsort(-r_rows, axis=1, kind="stable")
    r_sorted = r_rows[axes, order]
    useful = np.count_nonzero(r_sorted > 0.0, axis=1)
    # a demander asks for blocks up to the first whose running rate covers
    # its demand.  Past the positive prefix the running rate adds 0.0 and
    # stays put, so the sums below the demand counted over the whole row
    # are those of the prefix, or the whole row
    need = np.array(demands)
    covered = np.cumsum(r_sorted, axis=1)
    asks = np.where(
        need > 0.0,
        np.minimum(np.count_nonzero(covered < need[:, None], axis=1) + 1, useful),
        0,
    )
    depth = int(asks.max())
    order, r_sorted = order[:, :depth], r_sorted[:, :depth]
    asked = np.arange(depth) < asks[:, None]

    # each asked block goes to its strongest requester, ties to the lower
    # axis; an asked rate is positive, so a block nobody asked for bids 0
    bid = np.zeros((m_total, k2))
    bid[order[asked], np.nonzero(asked)[0]] = r_sorted[asked]
    winner = np.where(bid.any(axis=1), bid.argmax(axis=1), -1)

    # winners buy their grants in asking order and stop at the first they
    # cannot pay for.  A running sum of non-negative prices never falls, so
    # every grant after that one is too dear as well.  The running sums
    # along each row add the same floats in the same order as a purchase
    # loop, and x + 0.0 == x
    won = asked & (winner[order] == axes)
    # a running sum past the float range is inf, which no budget covers
    with np.errstate(over="ignore"):
        spent = np.cumsum(np.where(won, t.price[order], 0.0), axis=1)
    bought = won & (spent <= np.array(budgets)[:, None])
    rate = np.zeros(k2)
    if depth:
        rate = np.cumsum(np.where(bought, r_sorted, 0.0), axis=1)[:, -1]
    # the running cost at a demander's last purchase
    cost = np.where(bought, spent, 0.0).max(axis=1, initial=0.0)

    holder = np.full(m_total, -1, dtype=int)
    js, cols = np.nonzero(bought)
    holder[order[js, cols]] = js
    return Matching._built(holder, t, ch.demander_ids, rate.tolist(), cost.tolist())


def random_allocate(
    s: Scenario, ch: ChannelRealization, rng: np.random.Generator
) -> Matching:
    """Assign each BRB to a uniformly random eligible demander.

    BRBs are visited in a random order; a demander is eligible while its
    demand is unmet and the BRB fits its remaining budget.  BRBs with no
    eligible taker stay unassigned.  Deterministic for a given ``rng``.

    The order is ``rng.permutation(M)``, and each grant among n eligible
    demanders takes the one at ``rng.integers(n)``.  Those draws are made
    in the grant loop from one block of M raw 32-bit words, drawn once
    after the permutation, and the generator ends where one scalar
    ``rng.integers(n)`` per grant would have left it.  Three facts about
    numpy's ``Generator`` make it so:

    - ``integers(n)`` with 1 < n <= 2**32 is Lemire's bounded method
      (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
      2019) on the bit generator's ``next_uint32`` words: take x = word * n,
      and while the low 32 bits of x are below (2**32 - n) % n, take x from
      the next word; the draw is x >> 32.  The threshold is below n, so
      the modulo is needed only when the low bits are below n;
    - n = 1 consumes no word;
    - ``integers(0, 2**32, size=s, dtype=np.uint32)`` (``_advance``)
      returns exactly the next s of those words, in order, whatever the
      size of the blocks they are drawn in.

    So the draws read a prefix of the words; when the block runs out,
    which only a rejection can cause, the loop draws another onto its end.
    At the end the generator is restored to its state before the first
    block and moved past exactly the words used.  That state holds any
    buffered half of a 64-bit output, so this holds for either parity of
    earlier 32-bit draws.
    """
    t, r_flat, budgets, demands = _flat_view(s, ch)
    axes = range(len(ch.demander_ids))
    m_total = len(t.price)

    # Python floats: the same IEEE sums as numpy scalars, without per-BRB
    # array overhead.  Only granted rates are read, one at a time, through
    # a memoryview, which gives each as a Python float.
    rate_of = memoryview(r_flat)
    price, tier_of, tiers = t.price_of, t.tier_of, t.tiers
    holder = [-1] * m_total
    rate = [0.0 for _ in axes]
    cost = [0.0 for _ in axes]

    def reach(j: int, upto: int) -> int:
        """How many of the first ``upto`` tiers demander j qualifies for:
        its demand unmet and cost + tier price within budget."""
        if not rate[j] < demands[j]:
            return 0
        while upto and not cost[j] + tiers[upto - 1] <= budgets[j]:
            upto -= 1
        return upto

    # The eligible demanders of each price tier, ascending.  Tiers ascend in
    # price, so the tiers a demander qualifies for are a prefix of them.
    # Rates and prices are non-negative, so a grant only raises a demander's
    # rate and cost, and that prefix only ever shrinks.
    reached = [reach(j, len(tiers)) for j in axes]
    eligible_in = [[j for j in axes if reached[j] > i] for i in range(len(tiers))]
    order = rng.permutation(m_total).tolist()
    start = rng.bit_generator.state
    words = _advance(rng, m_total).tolist()
    used = 0
    for m in order:
        eligible = eligible_in[tier_of[m]]
        if not eligible:
            continue
        # the draw is x >> 32; one eligible demander takes draw 0, no word
        n, x = len(eligible), 0
        while n > 1:
            if used == len(words):
                words += _advance(rng, len(words) + 1).tolist()
            x = words[used] * n
            used += 1
            if x & _LOW >= n or x & _LOW >= (_WORDS - n) % n:
                break
        j = eligible[x >> 32]
        holder[m] = j
        rate_j = rate[j] = rate[j] + rate_of[m, j]
        cost_j = cost[j] = cost[j] + price[m]
        # j qualified for this block's tier, so was >= 1, and j keeps all
        # its tiers while it still qualifies for the dearest of them
        was = reached[j]
        if not (rate_j < demands[j] and cost_j + tiers[was - 1] <= budgets[j]):
            now = reached[j] = reach(j, was)
            for i in range(now, was):
                eligible_in[i].remove(j)
    rng.bit_generator.state = start
    _advance(rng, used)
    return Matching._built(np.array(holder, dtype=int), t, ch.demander_ids, rate, cost)
