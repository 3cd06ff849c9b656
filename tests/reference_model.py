"""Scalar reference model of the link model, the utility and the oracle's
feasibility rule, one link or one block at a time.

These are plain formulas from the paper (Semiari et al., arXiv:1501.02410),
written independently of the vectorised code in ``scbn``: the tests hold
``realize_channels``, ``gamma_tensor``, ``rate_tensor``, the preference
orders and the exhaustive oracle to them.  :func:`brute_force_min_cost`
is the oracle as it was before its enumeration was shared per shape, one
demander at a time.  :func:`sequential_matching` plays the matching one
proposal at a time instead of in rounds.  Inputs are assumed valid;
nothing here checks them.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from scbn.scenario import BandKind


@dataclass(frozen=True)
class Brb:
    """One backhaul resource block offered by one anchor, as the reference
    model sees it.

    ``index`` counts within the band, so a BRB is identified by the
    triple (owner, band, index), which :meth:`key` gives as the package
    names blocks.  Bandwidth and price ride along for convenience; they
    are functions of (owner, band) in any one scenario.
    """

    owner: int
    band: BandKind
    index: int
    bandwidth_hz: float
    price: float

    def key(self) -> tuple[int, int, int]:
        return (self.owner, 0 if self.band is BandKind.MMWAVE else 1, self.index)


def scenario_brbs(s) -> tuple[Brb, ...]:
    """All K1 * (N1 + N2) BRBs, built from the scenario: anchors in station
    order, mmWave first."""
    out: list[Brb] = []
    for anchor in s.anchors:
        for kind, band in ((BandKind.MMWAVE, s.mmw_band), (BandKind.SUB6, s.sub6_band)):
            price = s.prices[anchor.id][kind]
            for idx in range(band.num_brbs):
                out.append(Brb(anchor.id, kind, idx, band.brb_bandwidth_hz, price))
    return tuple(out)


def mmw_pathloss_db(distance_m, slope, ref_loss_db, shadowing_db=0.0):
    """mmWave loss in dB: ref_loss + slope * 10 * log10(d) + shadowing."""
    return ref_loss_db + slope * 10.0 * math.log10(distance_m) + shadowing_db


def sub6_gain(distance_m, pathloss_exponent, ref_loss_db, fade):
    """Linear sub-6 gain: the squared fading envelope over log-distance loss."""
    loss_db = ref_loss_db + 10.0 * pathloss_exponent * math.log10(distance_m)
    return fade * 10.0 ** (-loss_db / 10.0)


def snr_mmw(tx_power_w, gain, noise_power_w):
    """mmWave links are noise-limited: SNR = P * g / sigma^2."""
    return tx_power_w * gain / noise_power_w


def sinr_sub6(gains, i, n, j, tx_power_w, noise_power_w):
    """SINR of sub-6 BRB ``n`` from anchor axis ``i`` at demander axis ``j``,
    every other anchor interfering on the same BRB index.  ``gains`` is
    indexed ``[anchor][brb][demander]``; ``tx_power_w`` is one power for
    all anchors or a list with one per anchor axis."""
    k1 = len(gains)
    powers = tx_power_w if isinstance(tx_power_w, list) else [tx_power_w] * k1
    interference = sum(powers[o] * gains[o][n][j] for o in range(k1) if o != i)
    return powers[i] * gains[i][n][j] / (interference + noise_power_w)


def brb_rate(bandwidth_hz, gamma):
    """Shannon rate of one BRB in bit/s."""
    return bandwidth_hz * math.log2(1.0 + gamma)


def dbs_utility(rate_bps, price, zeta):
    """Demander-side utility of one BRB: its rate minus its price at
    exchange rate ``zeta`` (bit/s per price unit)."""
    return rate_bps - zeta * price


def brb_global_index(s, brb):
    """Index of a BRB on the channel tensors' BRB axis: mmWave blocks first."""
    if brb.band is BandKind.MMWAVE:
        return brb.index
    return s.mmw_band.num_brbs + brb.index


def link_distance(s, anchor, demander):
    """Anchor-to-demander distance, clamped to the 1 m model reference."""
    return max(math.dist((anchor.x_m, anchor.y_m), (demander.x_m, demander.y_m)), 1.0)


def sample_feasible_costs(s, ch, samples, rng):
    """Costs of uniformly sampled assignments that happen to be feasible.

    Each sample gives every BRB of ``scenario_brbs(s)`` to nobody (0) or to
    demander axis ``j`` (j + 1); it is feasible when every demander's rate
    meets its demand within its budget.  A randomized dominance check:
    no returned cost may undercut the oracle's minimum.
    """
    brbs = scenario_brbs(s)
    ids = ch.demander_ids
    rate = [
        [float(ch.rates[ch.anchor_ids.index(b.owner), brb_global_index(s, b), j])
         for j in range(len(ids))]
        for b in brbs
    ]
    choices = rng.integers(0, len(ids) + 1, size=(samples, len(brbs)), dtype=np.int8)
    costs = []
    for row in choices.tolist():
        got, paid = [0.0] * len(ids), [0.0] * len(ids)
        for k, c in enumerate(row):
            if c:
                got[c - 1] += rate[k][c - 1]
                paid[c - 1] += brbs[k].price
        if all(
            got[j] >= s.demands_bps[d] and paid[j] <= s.budgets[d]
            for j, d in enumerate(ids)
        ):
            costs.append(sum(paid))
    return np.array(costs)


def oracle_feasibility(choices, r_flat, price, budgets, demands):
    """Per-assignment feasibility and cost for rows of demander choices,
    one demander at a time.

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


def brute_force_min_cost(r_flat, price, budgets, demands):
    """``(feasible, total_cost, holder)`` of the cheapest feasible
    assignment of the ``(M, K2)`` rates ``r_flat``, the first minimum in
    lexicographic order, or ``(False, inf, all -1)``."""
    m_total, k2 = r_flat.shape
    choices = np.indices((k2 + 1,) * m_total, dtype=np.int8).reshape(m_total, -1).T
    feasible, total_cost = oracle_feasibility(choices, r_flat, price, budgets, demands)
    if not feasible.any():
        return False, math.inf, [-1] * m_total
    costs = np.where(feasible, total_cost, np.inf)
    best = int(np.argmin(costs))
    return True, float(costs[best]), (choices[best].astype(int) - 1).tolist()


def sequential_matching(s, ch, zeta, order):
    """``(holder, proposals)`` of the matching played one proposal at a
    time, from a FIFO queue of demander axes that starts as ``order``.

    Each turn pops one demander.  While its demand is unmet it proposes
    once, to the first block of its preference order (by utility
    descending, then price, band, owner and index) that it has not tried
    and whose price its budget still covers, and then goes to the back of
    the queue; with its demand met or no such block, it leaves the queue.
    A free block takes it; a held block takes it only for a strictly
    higher rate than its holder's, and the displaced holder is queued
    unless it is queued already.  ``holder`` gives each block of
    :func:`scenario_brbs`, in that order, its demander axis or -1.
    """
    brbs = scenario_brbs(s)
    ids = ch.demander_ids
    rate = [
        [float(ch.rates[ch.anchor_ids.index(b.owner), brb_global_index(s, b), j])
         for j in range(len(ids))]
        for b in brbs
    ]

    def rank(j, k):
        b = brbs[k]
        return (-dbs_utility(rate[k][j], b.price, zeta), b.price, b.key()[1], b.owner, b.index)

    prefs = [sorted(range(len(brbs)), key=lambda k: rank(j, k)) for j in range(len(ids))]
    budget = [s.budgets[d] for d in ids]
    demand = [s.demands_bps[d] for d in ids]
    got, paid = [0.0] * len(ids), [0.0] * len(ids)
    tried = [set() for _ in ids]
    holder = [-1] * len(brbs)
    queue, proposals = deque(order), 0
    while queue:
        j = queue.popleft()
        affordable = (
            k for k in prefs[j] if k not in tried[j] and paid[j] + brbs[k].price <= budget[j]
        )
        k = next(affordable, None) if got[j] < demand[j] else None
        if k is None:
            continue
        tried[j].add(k)
        proposals += 1
        h = holder[k]
        if h < 0 or rate[k][j] > rate[k][h]:
            if h >= 0:
                got[h] -= rate[k][h]
                paid[h] -= brbs[k].price
                if h not in queue:
                    queue.append(h)
            holder[k] = j
            got[j] += rate[k][j]
            paid[j] += brbs[k].price
        queue.append(j)
    return holder, proposals
