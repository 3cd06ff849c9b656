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

Two exact shortcuts keep the rounds cheap without changing them.  A round
visits only the demanders that proposed or were displaced in the round
before: any other demander's rate, cost and tried blocks are as they were
when it last failed to propose.  And since every mmWave BRB of a link
shares one shadowing draw, an anchor's mmWave blocks are interchangeable
for each demander, so demanders that want that anchor march down its
block indices together, one block per round.  After a round in which
every contested block was free, :func:`_skip_repeats` applies in one step
every following round that repeats it a block further on.

The set-up works per mmWave class and per price tier too.  An anchor's
mmWave rates, bitwise equal across its blocks, become one Python row
shared by the class (:func:`_rate_rows`), which also gives each block the
end of its run of equal rows, so the fast-forward compares rates block by
block only where a class's rows differ.  A demander's blocks are grouped
by price tier with one stable sort, the first time it needs them.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .propagation import ChannelRealization, gamma_tensor, radio_settings
from .scenario import Band, BandKind, Scenario

__all__ = [
    "Brb",
    "Matching",
    "BrbTable",
    "InconsistentMatchingError",
    "BlockingPairs",
    "brb_table",
    "scenario_brbs",
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


def _check_zeta(zeta: float) -> None:
    # a NaN or infinite utility makes every comparison in the proposal and
    # swap tests meaningless, and an audit that tests nothing finds nothing
    if not math.isfinite(zeta):
        raise ValueError(f"zeta must be a finite number, got {zeta!r}")


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
    ``tiers``, the distinct prices ascending.  ``tie_order`` lists the flat
    indices by (price, band, owner, index), the order in which a demander
    ranks blocks of equal utility.  Tables are shared through a cache, so
    every field is read-only.
    """

    brbs: tuple[Brb, ...]
    price: np.ndarray
    band_code: np.ndarray
    index_in_band: np.ndarray
    owner_id: np.ndarray
    key_rank: np.ndarray
    tier: np.ndarray
    tie_order: np.ndarray
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
    tie_order = np.lexsort((ints[1], ints[2], ints[0], price))
    for a in (ints, price, tie_order):
        a.setflags(write=False)
    return BrbTable(
        brbs=brbs,
        price=price,
        band_code=ints[0],
        index_in_band=ints[1],
        owner_id=ints[2],
        key_rank=ints[3],
        tier=ints[4],
        tie_order=tie_order,
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
    drawn_for = (
        ch.anchor_ids, ch.demander_ids, ch.num_mmw_brbs, ch.rates.shape, ch.radio
    )
    shape = (len(anchor_ids), s.brbs_per_anchor, len(demander_ids))
    if drawn_for != (
        anchor_ids, demander_ids, s.mmw_band.num_brbs, shape, radio_settings(s)
    ):
        raise InconsistentMatchingError(
            "the channel realization was drawn for another scenario: its anchor "
            "ids, demander ids, mmWave BRB count, rate shape or radio settings differ"
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


@dataclass
class _ProposalState:
    """Mutable per-demander state inside run_matching.

    Every position of ``order`` before ``scan_from`` has been applied to.
    A block of one price tier is affordable exactly when every block of
    that tier is, so a demander applies to each tier's blocks in
    preference order: within a tier, the applied positions are a prefix.
    ``tier_positions[i]`` lists the positions in ``order`` of tier ``i``'s
    blocks, ascending, and ``tier_heads[i]`` indexes its first possibly
    unapplied one (a head only moves forward); both are built the first
    time the demander's best untried block is too dear.
    """

    order: list[int]           # flat BRB indices in preference order
    order_array: np.ndarray    # the same order, as the numpy row it came from
    applied: bytearray         # nonzero per flat BRB already proposed to
    scan_from: int = 0         # first position possibly unapplied
    cost: float = 0.0
    rate_bps: float = 0.0
    tier_positions: list[list[int]] | None = None
    tier_heads: list[int] | None = None

    def cheaper_head(self, dear_tier: int, t: BrbTable, budget: float) -> int:
        """The best untried block the budget covers, or -1, when the best
        untried block is of tier ``dear_tier`` and too dear.

        Tiers ascend in price and a float sum is monotone in each term, so
        ``dear_tier`` and every dearer tier are unaffordable and the
        affordable tiers are a prefix of ``t.tiers``.  Each affordable
        tier's head is its best untried block; the head placed first in
        ``order`` is the block a scan from ``scan_from`` would reach first,
        so the choice is the scan's, without walking past the dear blocks.
        """
        order, applied, tiers = self.order, self.applied, t.tiers
        if self.tier_positions is None:
            # positions grouped by tier, ascending within each: a stable sort
            by_tier = np.argsort(t.tier[self.order_array], kind="stable").tolist()
            self.tier_positions = []
            for end, size in zip(itertools.accumulate(t.tier_sizes), t.tier_sizes):
                self.tier_positions.append(by_tier[end - size : end])
            self.tier_heads = [0] * len(tiers)
        best = len(order)
        for i in range(dear_tier):
            # the same float sum run_matching compares and stores as the cost
            if not self.cost + tiers[i] <= budget:
                break
            positions, h = self.tier_positions[i], self.tier_heads[i]
            while h < len(positions) and applied[order[positions[h]]]:
                h += 1
            self.tier_heads[i] = h
            if h < len(positions) and positions[h] < best:
                best = positions[h]
        return order[best] if best < len(order) else -1


def _rate_rows(r: np.ndarray, n1: int) -> tuple[list[list[float]], list[int]]:
    """``(rows, run_end)`` for the ``(K1, N, K2)`` rates ``r``: ``rows[k]``
    lists flat BRB ``k``'s rates as Python floats, one per demander axis,
    and every row from ``k`` to ``run_end[k]`` equals row ``k``.

    An anchor's mmWave rows are equal by construction, as its links share
    one shadowing draw.  When they are bitwise equal and free of NaN, so
    that ``==`` agrees, the class shares one row list and runs to its last
    block; any other row is converted alone and its run ends at itself.
    """
    k1, n, _ = r.shape
    rows: list[list[float]] = []
    run_end: list[int] = []
    for a in range(k1):
        lo = a * n
        mmw = r[a, :n1]
        head = mmw[0].tolist() if n1 else []
        if (
            n1
            and mmw.tobytes() == mmw[0].tobytes() * n1
            and not any(map(math.isnan, head))
        ):
            rows += [head] * n1
            run_end += [lo + n1 - 1] * n1
        else:
            rows += mmw.tolist()
            run_end += range(lo, lo + n1)
        rows += r[a, n1:].tolist()
        run_end += range(lo + n1, lo + n)
    return rows, run_end


def _skip_repeats(
    groups, states, holder, rates, run_end, price, demands, budgets, n, n1
) -> int:
    """Play at once every round that repeats the one just played a block
    further on; return how many rounds that was.

    ``groups`` lists the round's contests as (block m, applicants, winner),
    each block free before the round, and the applicants of all groups
    are every demander that proposed in it.  Round ``i`` after it repeats
    it when, for every group, block m+i lies in m's (anchor, band) class,
    every applicant's rate on m+i equals its rate on m, m+i is free and
    the winner can still propose: its demand unmet and cost + price within
    budget, the same float sum the proposal loop compares.

    Then m+i is each applicant's next choice and the same winner takes it.
    The class shares one price, so equal rates give equal utility, and
    the tie order (price, band, owner, index) places m+1 right after m in
    every applicant's preference order.  m+1 is of m's price tier, and
    within a tier the applied positions are a prefix (see
    ``_ProposalState``), so m+1 is untried.  A loser's rate and cost did
    not move, so it still affords the class.  An applicant that reached m
    by a scan from ``scan_from`` reaches m+1 next.  One that reached m
    through :meth:`_ProposalState.cheaper_head` still finds the same too
    dear block at ``scan_from``, as its cost did not fall, and m's tier
    head moves on to m+1, which still comes before every other affordable
    tier's head.  No block is displaced, so no other demander wakes.

    Rates are compared from ``run_end[m]`` on (see :func:`_rate_rows`):
    up to it every row equals m's, so only a class whose rows differ is
    compared block by block.

    The skipped rounds set the holders and tried flags by slice, move
    ``scan_from`` along for the applicants that scanned to m, and add
    each winner's rate and price once per block, so the totals are the
    very float sums the rounds would have made.  The winner's sums are
    those of the first pass when its run set the final length.
    """
    k = n
    reach = []  # per group: the winner's run length and its sums after it
    # the class ends and the winners first, as they usually end a run
    # soonest; a rate that changes is caught below, before any of this is kept
    for m, _, w in groups:
        g = m % n  # global index: mmWave below n1, sub-6 from n1 on
        k = min(k, (n1 if g < n1 else n) - 1 - g)
        st = states[w]
        rate, cost, need, budget = st.rate_bps, st.cost, demands[w], budgets[w]
        p = price[m]  # the class shares one price
        i = 0
        while i < k and rate < need and holder[m + i + 1] < 0 and cost + p <= budget:
            i += 1
            rate += rates[m + i][w]
            cost += p
        k = i
        if not k:
            return 0
        reach.append((i, rate, cost))
    for m, applicants, _ in groups:
        same = run_end[m] - m
        for j in applicants:
            r = rates[m][j]
            i = min(k, same)
            while i < k and rates[m + i + 1][j] == r:
                i += 1
            k = i
        if not k:
            return 0
    tried = b"\x01" * k
    for (m, applicants, w), (i, rate, cost) in zip(groups, reach):
        holder[m + 1 : m + k + 1] = [w] * k
        for j in applicants:
            st = states[j]
            st.applied[m + 1 : m + k + 1] = tried
            if st.order[st.scan_from] == m:
                st.scan_from += k
        st = states[w]
        if i == k:
            st.rate_bps, st.cost = rate, cost
            continue
        for b in range(m + 1, m + k + 1):
            st.rate_bps += rates[b][w]
            st.cost += price[b]
    return k


def run_matching(s: Scenario, ch: ChannelRealization, zeta: float) -> Matching:
    """Run the proposal/acceptance rounds to a stable allocation.

    ``zeta`` is the price weight in bit/s per price unit.  Rounds are
    batch-synchronous: all active demanders propose against the state at
    the start of the round, then every BRB picks its winner.  Bookkeeping
    adds a BRB's rate and price on acceptance and subtracts them on
    displacement, so budgets are never exceeded.

    A demander proposes to the first block of its preference order that
    it has not tried and can afford.  It skips tried blocks from
    ``scan_from``; when the block found there is too dear, it takes the
    best-placed head of the cheaper price tiers it can afford
    (:meth:`_ProposalState.cheaper_head`), the same block a scan onward
    would reach, without walking past every dear block in every round.

    A round visits only the demanders that proposed or were displaced in
    the round before, in ascending axis order, which keeps the order of
    every float sum: a demander that did neither has the rate, cost and
    tried blocks with which it last failed to propose.  After a round in
    which every contested block was free, :func:`_skip_repeats` plays in
    one step every following round that repeats it a block further on.
    The rounds and proposals counted are those of the full loop.
    Raises ValueError for a non-finite ``zeta``.
    """
    _check_zeta(zeta)
    t, r_flat, budgets, demands = _flat_view(s, ch)   # r_flat: (M, K2) bit/s
    demander_ids = ch.demander_ids
    m_total, k2 = r_flat.shape

    # utility of every flat BRB for every demander
    u_flat = r_flat - zeta * t.price[:, None]
    # preference: utility first, then the cheaper block, then (band, owner, index)
    ties = t.tie_order
    order_arrays = ties[np.argsort(-u_flat[ties].T, axis=1, kind="stable")]
    states = [
        _ProposalState(order=order, order_array=row, applied=bytearray(m_total))
        for order, row in zip(order_arrays.tolist(), order_arrays)
    ]

    # Python floats from here on: the same IEEE sums as numpy scalars, faster
    n, n1 = s.brbs_per_anchor, s.mmw_band.num_brbs
    rates, run_end = _rate_rows(ch.rates, n1)
    price = t.price.tolist()
    tier_of = t.tier.tolist()
    holder = [-1] * m_total
    rounds = 0
    proposals = 0

    active = range(k2)
    while True:
        round_proposals: dict[int, list[int]] = {}
        proposers = []
        for j in active:
            st = states[j]
            if st.rate_bps >= demands[j]:
                continue
            order = st.order
            applied = st.applied
            pos = st.scan_from
            while pos < m_total and applied[order[pos]]:
                pos += 1
            st.scan_from = pos
            if pos == m_total:
                continue
            choice = order[pos]
            # the comparison uses the same float sum later stored as the
            # cost, so cost <= budget can never be violated
            if not st.cost + price[choice] <= budgets[j]:
                choice = st.cheaper_head(tier_of[choice], t, budgets[j])
            if choice >= 0:
                applied[choice] = 1
                round_proposals.setdefault(choice, []).append(j)
                proposers.append(j)
        if not proposers:
            break
        rounds += 1
        proposals += len(proposers)
        displaced = []
        contests = []  # (block, applicants, winner) while every block was free
        for m, applicants in round_proposals.items():
            rate_m = rates[m]
            if len(applicants) == 1:
                best = applicants[0]
            else:
                best = min(applicants, key=lambda j: (-rate_m[j], demander_ids[j]))
            incumbent = holder[m]
            if incumbent >= 0:
                contests = None
                if rate_m[best] <= rate_m[incumbent]:
                    continue  # incumbent keeps the BRB, ties included
                st = states[incumbent]
                st.rate_bps -= rate_m[incumbent]
                st.cost -= price[m]
                displaced.append(incumbent)
            elif contests is not None:
                contests.append((m, applicants, best))
            st = states[best]
            st.rate_bps += rate_m[best]
            st.cost += price[m]
            holder[m] = best
        active = sorted(set(proposers).union(displaced)) if displaced else proposers
        if contests is not None:
            skipped = _skip_repeats(
                contests, states, holder, rates, run_end, price, demands, budgets, n, n1
            )
            rounds += skipped
            proposals += skipped * len(proposers)

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
        j = ch.demander_ids.index(d)
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


class BlockingPairs(Sequence):
    """The blocking pairs of one allocation: a read-only sequence of
    (demander id, Brb), sorted by demander id, then BRB key.

    Built from the audit's ``(M, K2)`` mask over (flat BRB, demander
    axis).  Its length is the mask's count of true entries; the pairs are
    listed, sorted and turned into ``Brb`` objects only on first indexing
    or iteration, so an audit that only counts pays for no tuples.  It
    equals a list or BlockingPairs of the same pairs in the same order,
    and is falsy when empty.
    """

    __slots__ = ("_blocking", "_table", "_demander_ids", "_count", "_pairs")

    def __init__(
        self, blocking: np.ndarray, table: BrbTable, demander_ids: tuple[int, ...]
    ):
        self._blocking = blocking
        self._table = table
        self._demander_ids = demander_ids
        self._count = int(np.count_nonzero(blocking))
        self._pairs: list[tuple[int, Brb]] | None = None

    def __len__(self) -> int:
        return self._count

    def _listed(self) -> list[tuple[int, Brb]]:
        if self._pairs is None:
            t = self._table
            ids = np.array(self._demander_ids, dtype=int)
            ks, js = np.nonzero(self._blocking)
            order = np.lexsort((t.key_rank[ks], ids[js]))
            self._pairs = [
                (d, t.brbs[k]) for d, k in zip(ids[js[order]].tolist(), ks[order].tolist())
            ]
        return self._pairs

    def __getitem__(self, i):
        return self._listed()[i]

    def __iter__(self):
        return iter(self._listed())

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, BlockingPairs)):
            return len(self) == len(other) and self._listed() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"BlockingPairs({self._listed()!r})"


def find_blocking_pairs(
    m: Matching, s: Scenario, ch: ChannelRealization, zeta: float
) -> BlockingPairs:
    """All (demander, BRB) pairs that would break the matching.

    A pair blocks when the BRB strictly prefers the demander to its
    current holder (or is unassigned) and the demander strictly gains by
    taking the BRB, either adding it within budget while its demand is
    unmet, or swapping out a held BRB of lower utility while staying
    within budget.  Pairs come sorted by demander id, then BRB key, as a
    :class:`BlockingPairs` sequence: its length is counted from the
    (BRB, demander) mask of the test, and the pairs are listed on first
    indexing or iteration.  Raises ValueError for a non-finite ``zeta``.

    Only the BRB side and the utilities vary block by block.  A block's
    price is its price tier's, so the demander side is decided in
    ``(T, K2)`` tables over (tier, demander axis) and gathered by each
    block's tier: the spend ``cost + price``, whether an addition fits,
    and the least utility the demander holds in a tier or any dearer one,
    read at the first tier whose price covers the excess over the budget.
    """
    _check_zeta(zeta)
    t, r_flat, budget, demand = _flat_view(s, ch, m)   # r_flat: (M, K2)
    holder = m.holder
    u_flat = r_flat - zeta * t.price[:, None]
    cost = np.array([m.cost.get(d, 0.0) for d in ch.demander_ids], dtype=float)
    rate = np.array([m.rate_bps.get(d, 0.0) for d in ch.demander_ids], dtype=float)
    tiers = np.array(t.tiers)
    ks = np.flatnonzero(holder >= 0)
    js = holder[ks]

    # (i) BRB side: unassigned, or strictly prefers this demander; (M, K2).
    # No block strictly prefers its holder to itself, so this also rules
    # out every block its demander already holds.
    free = holder < 0
    holder_rate = np.where(
        free, -np.inf, r_flat[np.arange(len(holder)), np.maximum(holder, 0)]
    )
    brb_wants = free[:, None] | (r_flat > holder_rate[:, None])
    # (ii) demander side, as (T, K2) tables over (price tier, demander
    # axis): a block's price is its tier's, so ``spend`` is the very float
    # cost + price that every scheme compares with the budget
    spend = cost + tiers[:, None]
    # (ii-a) beneficial addition within budget while demand is unmet
    add_ok = (rate < demand) & (spend <= budget)
    # (ii-b) beneficial swap: some held BRB has strictly lower utility and
    # releasing it keeps the new BRB within budget, i.e. its tier's price
    # covers the excess.  The least held utility per tier, then over that
    # tier and every dearer one, read at the first tier that covers it.
    k2 = len(ch.demander_ids)
    least = np.full((len(tiers) + 1) * k2, np.inf)
    np.minimum.at(least, t.tier[ks] * k2 + js, u_flat[ks, js])
    least = np.minimum.accumulate(least.reshape(-1, k2)[::-1], axis=0)[::-1]
    cover = np.searchsorted(tiers, spend - budget, side="left")
    bar = np.take_along_axis(least, cover, axis=0)
    blocking = brb_wants & (add_ok[t.tier] | (bar[t.tier] < u_flat))
    return BlockingPairs(blocking, t, ch.demander_ids)


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
