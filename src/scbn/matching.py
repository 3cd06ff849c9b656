"""Distributed one-to-many matching of BRBs to demanding stations.

Demanders propose, BRBs dispose.  Each demander ranks every BRB by its
own utility (link rate minus price weighted by ``zeta``) and, while its
demand is unmet and it can still afford something it has not tried,
proposes to its best affordable untried BRB once per round.  Each BRB
keeps the highest-rate station among its current holder and the round's
applicants, displacing the holder when beaten.  A displaced station
re-enters the proposing pool automatically.  Quotas are dynamic: a
demander holds as many BRBs as its demand and budget allow, a BRB holds
exactly one demander.

The procedure terminates because a demander never proposes to the same
BRB twice, and the result is stable in the sense checked by
:func:`find_blocking_pairs`.
"""

from __future__ import annotations

import csv
import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .propagation import ChannelRealization, brb_rate, gamma_tensor, rate_tensor
from .scenario import Band, BandKind, Scenario

__all__ = [
    "Brb",
    "Matching",
    "BrbTable",
    "InconsistentMatchingError",
    "brb_table",
    "scenario_brbs",
    "brb_global_index",
    "dbs_utility",
    "brb_utility",
    "run_matching",
    "matching_from_assignment",
    "recompute_totals",
    "find_blocking_pairs",
    "save_matching_csv",
]


BRB_TABLE_CACHE_SIZE = 32


class InconsistentMatchingError(ValueError):
    """Raised when a matching's bookkeeping contradicts itself."""


@dataclass(frozen=True)
class Brb:
    """One backhaul resource block offered by one anchor.

    ``index`` counts within the band, so a BRB is identified by the
    triple (owner, band, index).  Bandwidth and price ride along for
    convenience; they are functions of (owner, band) in any one scenario.
    """

    owner: int
    band: BandKind
    index: int
    bandwidth_hz: float
    price: float

    def key(self) -> tuple[int, int, int]:
        return (self.owner, 0 if self.band is BandKind.MMWAVE else 1, self.index)


@dataclass
class Matching:
    """Result of an allocation scheme.

    ``assigned`` maps demander id to its set of BRBs, ``owner_of`` maps
    each assigned BRB back to its demander.  ``rate_bps`` and ``cost``
    carry the algorithm's own running totals; they must agree with a
    recomputation from the channel realization.  ``rounds`` and
    ``proposals`` count the proposal rounds and individual proposals the
    scheme used (zero for one-shot schemes).
    """

    assigned: dict[int, frozenset[Brb]]
    owner_of: dict[Brb, int]
    rate_bps: dict[int, float]
    cost: dict[int, float]
    rounds: int = 0
    proposals: int = 0


@dataclass(frozen=True, eq=False)
class BrbTable:
    """The canonical BRB axis of one deployment shape, as parallel arrays.

    Flat index ``k`` names ``brbs[k]``; the arrays give its anchor axis
    (station order), global index ``n`` into the channel tensors, price,
    band code (0 mmWave, 1 sub-6), index in band, owner id, rank of its
    (owner, band, index) key, and position in ``tiers``, the distinct
    prices ascending.  Tables are shared through a cache, so every field is
    read-only.
    """

    brbs: tuple[Brb, ...]
    owner_axis: np.ndarray
    global_n: np.ndarray
    price: np.ndarray
    band_code: np.ndarray
    index_in_band: np.ndarray
    owner_id: np.ndarray
    key_rank: np.ndarray
    tier: np.ndarray
    flat_index: Mapping[Brb, int]
    tiers: tuple[float, ...]
    tier_sizes: tuple[int, ...]


# Resampled trials share one shape; a bounded cache keeps memory flat for
# streams of distinct shapes such as random micro instances.
@functools.lru_cache(maxsize=BRB_TABLE_CACHE_SIZE)
def _cached_brb_table(
    anchor_ids: tuple[int, ...],
    mmw_band: Band,
    sub6_band: Band,
    prices: tuple[tuple[float, float], ...],
) -> BrbTable:
    bands = (mmw_band, sub6_band)
    # anchors by ascending id, then each anchor's own order, give key ranks
    rank = {a: r for r, a in enumerate(sorted(anchor_ids))}
    per_anchor = mmw_band.num_brbs + sub6_band.num_brbs
    rows = [
        (i, a, code, idx, code * mmw_band.num_brbs + idx)
        for i, a in enumerate(anchor_ids)
        for code, band in enumerate(bands)
        for idx in range(band.num_brbs)
    ]
    brbs = tuple(
        Brb(
            owner=a,
            band=bands[code].kind,
            index=idx,
            bandwidth_hz=bands[code].brb_bandwidth_hz,
            price=prices[i][code],
        )
        for i, a, code, idx, _ in rows
    )
    tiers = sorted(set(b.price for b in brbs))
    tier_of = {p: t for t, p in enumerate(tiers)}
    ints = np.array(
        [
            (i, n, code, idx, a, rank[a] * per_anchor + n, tier_of[b.price])
            for (i, a, code, idx, n), b in zip(rows, brbs)
        ],
        dtype=int,
    ).reshape(-1, 7).T.copy()
    price = np.array([b.price for b in brbs], dtype=float)
    ints.setflags(write=False)
    price.setflags(write=False)
    return BrbTable(
        brbs=brbs,
        owner_axis=ints[0],
        global_n=ints[1],
        price=price,
        band_code=ints[2],
        index_in_band=ints[3],
        owner_id=ints[4],
        key_rank=ints[5],
        tier=ints[6],
        flat_index=MappingProxyType({b: k for k, b in enumerate(brbs)}),
        tiers=tuple(tiers),
        tier_sizes=tuple(np.bincount(ints[6], minlength=len(tiers)).tolist()),
    )


def brb_table(s: Scenario) -> BrbTable:
    """The scenario's BRB table, built once per deployment shape.

    The shape is the anchor ids in station order, both bands and every
    anchor's two prices; station positions, budgets and demands do not
    enter it.
    """
    anchor_ids = s.anchor_ids
    prices = tuple(
        (s.prices.per_anchor[a][BandKind.MMWAVE], s.prices.per_anchor[a][BandKind.SUB6])
        for a in anchor_ids
    )
    return _cached_brb_table(anchor_ids, s.mmw_band, s.sub6_band, prices)


def scenario_brbs(s: Scenario) -> tuple[Brb, ...]:
    """All K1 * (N1 + N2) BRBs: anchors in station order, mmWave first."""
    return brb_table(s).brbs


def brb_global_index(s: Scenario, brb: Brb) -> int:
    """Global BRB axis index (mmWave block first, then sub-6)."""
    band = s.mmw_band if brb.band is BandKind.MMWAVE else s.sub6_band
    if not 0 <= brb.index < band.num_brbs:
        raise InconsistentMatchingError(
            f"BRB index {brb.index} out of range for band {brb.band.value}"
        )
    if brb.band is BandKind.MMWAVE:
        return brb.index
    return s.mmw_band.num_brbs + brb.index


def dbs_utility(brb: Brb, gamma: float, zeta: float) -> float:
    """Demander-side utility of one BRB: rate minus price at exchange rate zeta.

    ``zeta`` converts price units into bit/s, so a BRB is attractive when
    its rate buys more than its price costs.
    """
    return brb_rate(brb.bandwidth_hz, gamma) - zeta * brb.price

def brb_utility(gamma: float, bandwidth_hz: float) -> float:
    """BRB-side utility of serving a station: just the achievable rate."""
    return brb_rate(bandwidth_hz, gamma)


@dataclass
class _ProposalState:
    """Mutable per-demander state inside run_matching."""

    order: list[int]           # flat BRB indices in preference order
    applied: bytearray         # nonzero per flat BRB already proposed to
    scan_from: int = 0         # first position possibly unapplied
    cost: float = 0.0
    rate_bps: float = 0.0
    held: set[int] = field(default_factory=set)


def run_matching(s: Scenario, ch: ChannelRealization, zeta: float) -> Matching:
    """Run the proposal/acceptance rounds to a stable allocation.

    ``zeta`` is the price weight in bit/s per price unit.  Rounds are
    batch-synchronous: all active demanders propose against the state at
    the start of the round, then every BRB picks its winner.  Bookkeeping
    adds a BRB's rate and price on acceptance and subtracts them on
    displacement, so budgets are never exceeded.
    """
    t = brb_table(s)
    demander_ids = list(ch.demander_ids)
    k2 = len(demander_ids)
    m_total = len(t.brbs)

    # rate and utility of every flat BRB for every demander
    r_flat = rate_tensor(s, ch)[t.owner_axis, t.global_n, :]   # (M, K2) bit/s
    u_flat = r_flat - zeta * t.price[:, None]
    # preference: utility first, then the cheaper block, then (band, owner, index)
    ties = np.lexsort((t.index_in_band, t.owner_id, t.band_code, t.price))
    orders = ties[np.argsort(-u_flat[ties].T, axis=1, kind="stable")].tolist()
    states = [
        _ProposalState(order=orders[j], applied=bytearray(m_total)) for j in range(k2)
    ]

    # Python floats from here on: the same IEEE sums as numpy scalars, faster
    rates = r_flat.tolist()
    price = t.price.tolist()
    budgets = [float(s.budgets[d]) for d in demander_ids]
    demands = [float(s.demands_bps[d]) for d in demander_ids]
    holder = [-1] * m_total
    rounds = 0
    proposals = 0

    while True:
        round_proposals: dict[int, list[int]] = {}
        for j in range(k2):
            st = states[j]
            if st.rate_bps >= demands[j]:
                continue
            order = st.order
            applied = st.applied
            pos = st.scan_from
            while pos < m_total and applied[order[pos]]:
                pos += 1
            st.scan_from = pos
            choice = -1
            while pos < m_total:
                m = order[pos]
                # the comparison uses the same float sum later stored as
                # the cost, so cost <= budget can never be violated
                if not applied[m] and st.cost + price[m] <= budgets[j]:
                    choice = m
                    break
                pos += 1
            if choice >= 0:
                applied[choice] = 1
                round_proposals.setdefault(choice, []).append(j)
                proposals += 1
        if not round_proposals:
            break
        rounds += 1
        for m, applicants in round_proposals.items():
            rate_m = rates[m]
            best = min(applicants, key=lambda j: (-rate_m[j], demander_ids[j]))
            incumbent = holder[m]
            if incumbent >= 0 and rate_m[best] <= rate_m[incumbent]:
                continue  # incumbent keeps the BRB, ties included
            if incumbent >= 0:
                st = states[incumbent]
                st.rate_bps -= rate_m[incumbent]
                st.cost -= price[m]
                st.held.discard(m)
            st = states[best]
            st.rate_bps += rate_m[best]
            st.cost += price[m]
            st.held.add(m)
            holder[m] = best

    held = [st.held for st in states]
    rate = [st.rate_bps for st in states]
    cost = [st.cost for st in states]
    return _held_matching(t, demander_ids, held, rate, cost, rounds, proposals)


def _held_matching(
    t: BrbTable, demander_ids, held, rate, cost, rounds: int = 0, proposals: int = 0
) -> Matching:
    """A Matching from per-demander-axis flat BRB indices and totals."""
    assigned: dict[int, frozenset[Brb]] = {}
    owner_of: dict[Brb, int] = {}
    for d, ks in zip(demander_ids, held):
        assigned[d] = frozenset(t.brbs[k] for k in ks)
        owner_of.update(dict.fromkeys(assigned[d], d))  # reuses the set's hashes
    return Matching(
        assigned=assigned,
        owner_of=owner_of,
        rate_bps={d: float(r) for d, r in zip(demander_ids, rate)},
        cost={d: float(c) for d, c in zip(demander_ids, cost)},
        rounds=rounds,
        proposals=proposals,
    )


def matching_from_assignment(
    s: Scenario, ch: ChannelRealization, assignment: dict[int, set[Brb]]
) -> Matching:
    """Build a Matching with totals recomputed from the channels."""
    rates = rate_tensor(s, ch)
    assigned: dict[int, frozenset[Brb]] = {d: frozenset() for d in ch.demander_ids}
    owner_of: dict[Brb, int] = {}
    rate_out = {d: 0.0 for d in ch.demander_ids}
    cost_out = {d: 0.0 for d in ch.demander_ids}
    for d, brbs in assignment.items():
        assigned[d] = frozenset(brbs)
        j = ch.demander_axis(d)
        for b in brbs:
            if b in owner_of:
                raise InconsistentMatchingError(
                    f"BRB {b.key()} assigned to both {owner_of[b]} and {d}"
                )
            owner_of[b] = d
            i = ch.anchor_axis(b.owner)
            rate_out[d] += rates[i, brb_global_index(s, b), j]
            cost_out[d] += b.price
    return Matching(
        assigned=assigned,
        owner_of=owner_of,
        rate_bps=rate_out,
        cost=cost_out,
    )


def recompute_totals(
    m: Matching, s: Scenario, ch: ChannelRealization
) -> tuple[dict[int, float], dict[int, float]]:
    """Independent per-demander rate and cost sums from the realization."""
    rates = rate_tensor(s, ch)
    rate_out: dict[int, float] = {}
    cost_out: dict[int, float] = {}
    for d, brbs in m.assigned.items():
        j = ch.demander_axis(d)
        rate_out[d] = float(
            sum(rates[ch.anchor_axis(b.owner), brb_global_index(s, b), j] for b in brbs)
        )
        cost_out[d] = float(sum(b.price for b in brbs))
    return rate_out, cost_out


def _check_consistency(m: Matching, ch: ChannelRealization, t: BrbTable) -> np.ndarray:
    """Check that ``assigned`` and ``owner_of`` describe one allocation of
    the table's BRBs; returns the demander axis holding each flat BRB, -1
    where free."""
    axis_of = {d: j for j, d in enumerate(ch.demander_ids)}
    held_by: dict[int, int] = {}  # flat index -> demander id
    for d, brbs in m.assigned.items():
        if d not in axis_of:
            raise InconsistentMatchingError(f"unknown demander id {d}")
        for b in brbs:
            k = t.flat_index.get(b)
            if k is None:
                raise InconsistentMatchingError(
                    f"BRB {b.key()} is not a block of this scenario"
                )
            if k in held_by:
                raise InconsistentMatchingError(
                    f"BRB {b.key()} assigned to both {held_by[k]} and {d}"
                )
            held_by[k] = d
    expected = {t.brbs[k]: d for k, d in held_by.items()}
    if m.owner_of != expected:
        listed = {**expected, **m.owner_of}
        b = next(b for b in listed if m.owner_of.get(b) != expected.get(b))
        raise InconsistentMatchingError(
            f"owner_of[{b.key()}] = {m.owner_of.get(b)} "
            f"but assigned says {expected.get(b)}"
        )
    holder = np.full(len(t.brbs), -1, dtype=int)
    holder[list(held_by)] = [axis_of[d] for d in held_by.values()]
    return holder


def find_blocking_pairs(
    m: Matching, s: Scenario, ch: ChannelRealization, zeta: float
) -> list[tuple[int, Brb]]:
    """All (demander, BRB) pairs that would break the matching.

    A pair blocks when the BRB strictly prefers the demander to its
    current holder (or is unassigned) and the demander strictly gains by
    taking the BRB, either adding it within budget while its demand is
    unmet, or swapping out a held BRB of lower utility while staying
    within budget.  Pairs come sorted by demander id, then BRB key.
    """
    t = brb_table(s)
    holder = _check_consistency(m, ch, t)
    r_flat = rate_tensor(s, ch)[t.owner_axis, t.global_n, :]   # (M, K2)
    u_flat = r_flat - zeta * t.price[:, None]
    demander_ids = np.array(ch.demander_ids, dtype=int)
    price = t.price[:, None]
    cost = np.array([m.cost.get(d, 0.0) for d in ch.demander_ids], dtype=float)
    rate = np.array([m.rate_bps.get(d, 0.0) for d in ch.demander_ids], dtype=float)
    budget = np.array([s.budgets[d] for d in ch.demander_ids], dtype=float)
    demand = np.array([s.demands_bps[d] for d in ch.demander_ids], dtype=float)

    # every mask below is (M, K2): flat BRB by demander axis
    held = holder[:, None] == np.arange(len(demander_ids))
    free = holder < 0
    holder_rate = np.where(
        free, -np.inf, r_flat[np.arange(len(holder)), np.maximum(holder, 0)]
    )
    # (i) BRB side: unassigned, or strictly prefers this demander
    brb_wants = free[:, None] | (r_flat > holder_rate[:, None])
    # (ii-a) beneficial addition within budget while demand is unmet
    wants_add = (rate < demand) & (cost + price <= budget)
    # (ii-b) beneficial swap: some held BRB has strictly lower utility and
    # releasing it keeps the new BRB within budget.  Within one price tier
    # the held BRB of least utility decides.
    excess = cost + price - budget
    held_u = np.where(held, u_flat, np.inf)
    wants_swap = np.zeros_like(held)
    for i, tier_price in enumerate(t.tiers):
        least = held_u[t.tier == i].min(axis=0, initial=np.inf)
        wants_swap |= (least < u_flat) & (tier_price >= excess)
    blocking = ~held & brb_wants & (wants_add | wants_swap)

    ks, js = np.nonzero(blocking)
    order = np.lexsort((t.key_rank[ks], demander_ids[js]))
    return [
        (d, t.brbs[k])
        for d, k in zip(demander_ids[js[order]].tolist(), ks[order].tolist())
    ]


def save_matching_csv(
    m: Matching, s: Scenario, ch: ChannelRealization, path: str
) -> None:
    """Dump rows of k2, k1, band, n, gamma, rate_bps, price, sorted."""
    gamma = gamma_tensor(s, ch)
    rates = rate_tensor(s, ch)
    rows = []
    for d in sorted(m.assigned):
        j = ch.demander_axis(d)
        for b in sorted(m.assigned[d], key=Brb.key):
            i = ch.anchor_axis(b.owner)
            n = brb_global_index(s, b)
            rows.append(
                [
                    d,
                    b.owner,
                    b.band.value,
                    b.index,
                    repr(float(gamma[i, n, j])),
                    repr(float(rates[i, n, j])),
                    repr(float(b.price)),
                ]
            )
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k2", "k1", "band", "n", "gamma", "rate_bps", "price"])
        writer.writerows(rows)
