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

from .propagation import ChannelRealization, brb_rate, gamma_tensor
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
    """Raised when an allocation is not one of the scenario's BRBs to its
    demanders, each BRB held at most once."""


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


@dataclass(frozen=True, eq=False)
class BrbTable:
    """The canonical BRB axis of one deployment shape, as parallel arrays.

    Flat index ``k`` names ``brbs[k]``, the BRB of anchor axis ``k // N``
    (station order) at global index ``k % N`` into the channel tensors,
    with ``N`` BRBs per anchor: ``k`` = anchor axis * N + global index.
    The arrays give its price, band code (0 mmWave, 1 sub-6), index in
    band, owner id, rank of its (owner, band, index) key, and position in
    ``tiers``, the distinct prices ascending.  Tables are shared through a
    cache, so every field is read-only.
    """

    brbs: tuple[Brb, ...]
    price: np.ndarray
    band_code: np.ndarray
    index_in_band: np.ndarray
    owner_id: np.ndarray
    key_rank: np.ndarray
    tier: np.ndarray
    flat_index: Mapping[Brb, int]
    tiers: tuple[float, ...]
    tier_sizes: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Matching:
    """Result of an allocation scheme, over one scenario's BRB table.

    ``holder[k]`` is the demander axis (position in ``demander_ids``)
    holding the table's BRB ``k``, or -1 where the BRB is free, so no BRB
    can have two holders.  ``rate_bps`` and ``cost``, keyed by demander
    id, carry the scheme's own running totals; they must agree with a
    recomputation from the channel realization.  ``rounds`` and
    ``proposals`` count the proposal rounds and individual proposals the
    scheme used (zero for one-shot schemes).  ``assigned`` (demander id
    to its set of BRBs) and ``owner_of`` (held BRB to its demander) are
    read-only views built on first use.
    """

    table: BrbTable = field(repr=False)
    demander_ids: tuple[int, ...]
    holder: np.ndarray
    rate_bps: dict[int, float]
    cost: dict[int, float]
    rounds: int = 0
    proposals: int = 0

    def __post_init__(self):
        holder = np.array(self.holder, dtype=int)
        m_total, k2 = len(self.table.brbs), len(self.demander_ids)
        low, high = holder.min(initial=-1), holder.max(initial=-1)
        if holder.shape != (m_total,) or low < -1 or high >= k2:
            raise InconsistentMatchingError(
                f"a holder must give each of the {m_total} BRBs -1 or one of "
                f"{k2} demander axes, got shape {holder.shape}, range [{low}, {high}]"
            )
        holder.setflags(write=False)
        object.__setattr__(self, "holder", holder)
        object.__setattr__(self, "demander_ids", tuple(self.demander_ids))

    @functools.cached_property
    def owner_of(self) -> Mapping[Brb, int]:
        brbs, ids = self.table.brbs, self.demander_ids
        return MappingProxyType(
            {brbs[k]: ids[j] for k, j in enumerate(self.holder.tolist()) if j >= 0}
        )

    @functools.cached_property
    def assigned(self) -> Mapping[int, frozenset[Brb]]:
        held: dict[int, set[Brb]] = {d: set() for d in self.demander_ids}
        for b, d in self.owner_of.items():
            held[d].add(b)
        return MappingProxyType({d: frozenset(bs) for d, bs in held.items()})


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
            (code, idx, a, rank[a] * per_anchor + n, tier_of[b.price])
            for (_, a, code, idx, n), b in zip(rows, brbs)
        ],
        dtype=int,
    ).reshape(-1, 5).T.copy()
    price = np.array([b.price for b in brbs], dtype=float)
    ints.setflags(write=False)
    price.setflags(write=False)
    return BrbTable(
        brbs=brbs,
        price=price,
        band_code=ints[0],
        index_in_band=ints[1],
        owner_id=ints[2],
        key_rank=ints[3],
        tier=ints[4],
        flat_index=MappingProxyType({b: k for k, b in enumerate(brbs)}),
        tiers=tuple(tiers),
        tier_sizes=tuple(np.bincount(ints[4], minlength=len(tiers)).tolist()),
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


def _flat_view(s: Scenario, ch: ChannelRealization, m: Matching | None = None):
    """``(t, rates, budgets, demands)``: the scenario's BRB table, the
    ``(M, K2)`` rates of its flat BRBs for each demander axis (a view of
    ``ch.rates``, as flat index = anchor axis * N + global index), and the
    budgets and demands in demander-axis order.  Raises
    InconsistentMatchingError for a realization drawn for another scenario
    or a matching ``m`` over other BRBs or demanders.
    """
    t = brb_table(s)
    anchor_ids, demander_ids = s.anchor_ids, s.demander_ids
    drawn_for = (ch.anchor_ids, ch.demander_ids, ch.num_mmw_brbs, ch.rates.shape)
    shape = (len(anchor_ids), s.brbs_per_anchor, len(demander_ids))
    if drawn_for != (anchor_ids, demander_ids, s.mmw_band.num_brbs, shape):
        raise InconsistentMatchingError(
            "the channel realization was drawn for another scenario: its anchor "
            "ids, demander ids, mmWave BRB count or rate shape differ"
        )
    if m is not None and (len(m.holder) != len(t.brbs) or m.demander_ids != demander_ids):
        raise InconsistentMatchingError(
            "the matching is not over this scenario's BRBs and demanders"
        )
    rates = ch.rates.reshape(len(t.brbs), len(demander_ids))
    budgets = [float(s.budgets[d]) for d in demander_ids]
    demands = [float(s.demands_bps[d]) for d in demander_ids]
    return t, rates, budgets, demands


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


def run_matching(s: Scenario, ch: ChannelRealization, zeta: float) -> Matching:
    """Run the proposal/acceptance rounds to a stable allocation.

    ``zeta`` is the price weight in bit/s per price unit.  Rounds are
    batch-synchronous: all active demanders propose against the state at
    the start of the round, then every BRB picks its winner.  Bookkeeping
    adds a BRB's rate and price on acceptance and subtracts them on
    displacement, so budgets are never exceeded.
    """
    t, r_flat, budgets, demands = _flat_view(s, ch)   # r_flat: (M, K2) bit/s
    demander_ids = ch.demander_ids
    m_total, k2 = r_flat.shape

    # utility of every flat BRB for every demander
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
            st = states[best]
            st.rate_bps += rate_m[best]
            st.cost += price[m]
            holder[m] = best

    return Matching(
        table=t,
        demander_ids=demander_ids,
        holder=holder,
        rate_bps={d: st.rate_bps for d, st in zip(demander_ids, states)},
        cost={d: st.cost for d, st in zip(demander_ids, states)},
        rounds=rounds,
        proposals=proposals,
    )


def matching_from_assignment(
    s: Scenario, ch: ChannelRealization, assignment: dict[int, set[Brb]]
) -> Matching:
    """Build a Matching from demander id -> BRB sets, with totals
    recomputed from the channels."""
    t = brb_table(s)
    holder = np.full(len(t.brbs), -1, dtype=int)
    for d, brbs in assignment.items():
        if d not in ch.demander_ids:
            raise InconsistentMatchingError(f"unknown demander id {d}")
        j = ch.demander_axis(d)
        for b in brbs:
            k = t.flat_index.get(b)
            if k is None:
                raise InconsistentMatchingError(
                    f"BRB {b.key()} is not a block of this scenario"
                )
            if holder[k] >= 0:
                raise InconsistentMatchingError(
                    f"BRB {b.key()} assigned to both {ch.demander_ids[holder[k]]} and {d}"
                )
            holder[k] = j
    return _matching_from_holder(s, ch, holder)


def _matching_from_holder(
    s: Scenario, ch: ChannelRealization, holder: np.ndarray
) -> Matching:
    """A Matching of ``holder`` with totals recomputed from the channels."""
    t, r_flat, _, _ = _flat_view(s, ch)
    rate, cost = _held_totals(t, r_flat, holder, ch.demander_ids)
    return Matching(
        table=t, demander_ids=ch.demander_ids, holder=holder, rate_bps=rate, cost=cost
    )


def recompute_totals(
    m: Matching, s: Scenario, ch: ChannelRealization
) -> tuple[dict[int, float], dict[int, float]]:
    """Independent per-demander rate and cost sums from the realization,
    added up in flat BRB order."""
    t, r_flat, _, _ = _flat_view(s, ch, m)
    return _held_totals(t, r_flat, m.holder, ch.demander_ids)


def _held_totals(
    t: BrbTable, r_flat: np.ndarray, holder: np.ndarray, demander_ids: tuple[int, ...]
) -> tuple[dict[int, float], dict[int, float]]:
    rate = dict.fromkeys(demander_ids, 0.0)
    cost = dict.fromkeys(demander_ids, 0.0)
    ks = np.flatnonzero(holder >= 0)
    js = holder[ks]
    for j, r, p in zip(js.tolist(), r_flat[ks, js].tolist(), t.price[ks].tolist()):
        d = demander_ids[j]
        rate[d] += r
        cost[d] += p
    return rate, cost


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
    t, r_flat, budget, demand = _flat_view(s, ch, m)   # r_flat: (M, K2)
    holder = m.holder
    u_flat = r_flat - zeta * t.price[:, None]
    demander_ids = np.array(ch.demander_ids, dtype=int)
    price = t.price[:, None]
    cost = np.array([m.cost.get(d, 0.0) for d in ch.demander_ids], dtype=float)
    rate = np.array([m.rate_bps.get(d, 0.0) for d in ch.demander_ids], dtype=float)

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
    t, r_flat, _, _ = _flat_view(s, ch, m)
    ks = np.flatnonzero(m.holder >= 0)
    ids = np.array(ch.demander_ids, dtype=int)[m.holder[ks]]
    order = np.lexsort((t.key_rank[ks], ids))  # demander id, then BRB key
    ks, ids = ks[order], ids[order]
    js = m.holder[ks]
    gamma = gamma_tensor(s, ch).reshape(r_flat.shape)
    band = (s.mmw_band.kind.value, s.sub6_band.kind.value)
    rows = zip(
        ids.tolist(),
        t.owner_id[ks].tolist(),
        [band[c] for c in t.band_code[ks].tolist()],
        t.index_in_band[ks].tolist(),
        map(repr, gamma[ks, js].tolist()),
        map(repr, r_flat[ks, js].tolist()),
        map(repr, t.price[ks].tolist()),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k2", "k1", "band", "n", "gamma", "rate_bps", "price"])
        writer.writerows(rows)
