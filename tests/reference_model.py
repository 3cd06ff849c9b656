"""Scalar reference model of the link model, the utility and the oracle's
feasibility rule, one link or one block at a time.

These are plain formulas from the paper (Semiari et al., arXiv:1501.02410),
written independently of the vectorised code in ``scbn``: the tests hold
``realize_channels``, ``gamma_tensor``, ``rate_tensor``, the preference
orders and the exhaustive oracle to them.  Inputs are assumed valid;
nothing here checks them.
"""

from __future__ import annotations

import math

import numpy as np

from scbn.matching import scenario_brbs
from scbn.scenario import BandKind


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
