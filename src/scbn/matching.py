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
BRB twice.  :func:`find_blocking_pairs` audits the result for stability.

The rules and the exact shortcuts of the rounds are each argued once, in
the docstring of the code they license: the finite utilities
(:func:`_utilities`), the acceptability rule and the visiting order
(:func:`run_matching`), the one row of a uniform mmWave class
(:func:`_rate_rows`), the order in which a demander applies
(:class:`_ProposalState`), the preference prefixes (:func:`_preferences`)
and their completion, which needs no second scan
(:meth:`_ProposalState.complete`), the search past a too dear block
(:meth:`_ProposalState.cheaper_head`) and the fast-forward of repeated
rounds, read off the round's proposals and holders
(:func:`_skip_repeats`).  Every scheme's result is a :class:`Matching`,
built by :meth:`Matching._built`.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .propagation import ChannelRealization, gamma_tensor
from .scenario import BandKind, BrbKey, BrbTable, Scenario, _write_csv

__all__ = [
    "Matching",
    "InconsistentMatchingError",
    "BlockingPairs",
    "run_matching",
    "matching_from_assignment",
    "recompute_totals",
    "find_blocking_pairs",
    "save_matching_csv",
]


class InconsistentMatchingError(ValueError):
    """Raised when an allocation is not one of the scenario's BRBs to its
    demanders, each BRB held at most once."""


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
    to the keys of its BRBs) and ``owner_of`` (held BRB's key to its
    demander id) are read-only views built on first use.
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
        m_total, k2 = len(self.table.price), len(self.demander_ids)
        low, high = holder.min(initial=-1), holder.max(initial=-1)
        if holder.shape != (m_total,) or low < -1 or high >= k2:
            raise InconsistentMatchingError(
                f"a holder must give each of the {m_total} BRBs -1 or one of "
                f"{k2} demander axes, got shape {holder.shape}, range [{low}, {high}]"
            )
        holder.setflags(write=False)
        object.__setattr__(self, "holder", holder)
        object.__setattr__(self, "demander_ids", tuple(self.demander_ids))

    @classmethod
    def _built(
        cls, holder: np.ndarray, table: BrbTable, demander_ids: tuple[int, ...],
        rates: Sequence[float], costs: Sequence[float], rounds: int = 0, proposals: int = 0,
    ) -> Matching:
        """The one builder of every scheme's result: an in-range int
        ``holder``, made read-only, not checked or copied, and the per-axis
        totals ``rates`` and ``costs``, keyed by id in axis order."""
        m = cls.__new__(cls)
        holder.setflags(write=False)
        vars(m).update(
            table=table, demander_ids=demander_ids, holder=holder,
            rate_bps=dict(zip(demander_ids, rates)), cost=dict(zip(demander_ids, costs)),
            rounds=rounds, proposals=proposals,
        )
        return m

    @functools.cached_property
    def owner_of(self) -> Mapping[BrbKey, int]:
        keys, ids = self.table.keys, self.demander_ids
        ks = np.flatnonzero(self.holder >= 0)
        return MappingProxyType(
            {keys[k]: ids[j] for k, j in zip(ks.tolist(), self.holder[ks].tolist())}
        )

    @functools.cached_property
    def assigned(self) -> Mapping[int, frozenset[BrbKey]]:
        held: dict[int, set[BrbKey]] = {d: set() for d in self.demander_ids}
        for b, d in self.owner_of.items():
            held[d].add(b)
        return MappingProxyType({d: frozenset(bs) for d, bs in held.items()})


def _flat_view(s: Scenario, ch: ChannelRealization, m: Matching | None = None):
    """``(t, rates, budgets, demands)``: the scenario's BRB table, the
    ``(M, K2)`` rates of its flat BRBs for each demander axis (a view of
    ``ch.rates``, as flat index = anchor axis * N + global index), and the
    budgets and demands in demander-axis order.  Raises
    InconsistentMatchingError for a realization drawn for another scenario
    or a matching ``m`` over other BRBs or demanders.

    The table, the budgets and the demands are terms of the scenario,
    derived once per scenario (and shared by its resampled trials); a
    scenario cannot be edited, so none goes stale.  Only the checks against
    ``ch`` and ``m`` run on every call.
    """
    t = s.brb_table
    shape = (len(s.anchor_ids), s.brbs_per_anchor, len(s.demander_ids))
    drawn_for = (s.anchor_ids, s.demander_ids, s.mmw_band.num_brbs, shape, s.radio)
    if (ch.anchor_ids, ch.demander_ids, ch.num_mmw_brbs, ch.rates.shape, ch.radio) != drawn_for:
        raise InconsistentMatchingError(
            "the channel realization was drawn for another scenario: its anchor "
            "ids, demander ids, mmWave BRB count, rate shape or radio settings differ"
        )
    if m is not None and (len(m.holder) != len(t.price) or m.demander_ids != s.demander_ids):
        raise InconsistentMatchingError(
            "the matching is not over this scenario's BRBs and demanders"
        )
    return (t, ch.rates.reshape(len(t.price), shape[2]), *s.demander_terms)


def _utilities(
    t: BrbTable, r_flat: np.ndarray, zeta: float, budgets: Sequence[float]
) -> np.ndarray:
    """The ``(M, K2)`` utilities rate - ``zeta`` * price of the flat BRBs
    ``r_flat`` rates, the one place they are formed.

    Raises ValueError when ``zeta`` is not finite, or when ``zeta`` times
    the dearest price is not: a NaN or infinite utility makes every
    comparison in the proposal and swap tests meaningless, and an audit
    that tests nothing finds nothing.  Prices are finite and non-negative,
    so no other product is larger, and a rate minus a finite product
    stays finite.  Raises ValueError too when the largest of ``budgets``
    plus the dearest price is not finite: those tests compare a spend,
    cost + price, with the budget, and a scheme's cost never exceeds its
    budget, so rounding being monotone, every spend they form is finite.
    """
    if not math.isfinite(zeta):
        raise ValueError(f"zeta must be a finite number, got {zeta!r}")
    dearest = max(t.tiers, default=0.0)
    if not math.isfinite(zeta * dearest):
        raise ValueError(f"zeta {zeta} times the price {dearest} is not finite")
    budget = max(budgets, default=0.0)
    if not math.isfinite(budget + dearest):
        raise ValueError(f"the budget {budget} plus the price {dearest} is not finite")
    return r_flat - zeta * t.price[:, None]


@dataclass(slots=True)
class _ProposalState:
    """Mutable per-demander state inside run_matching.

    ``order`` lists flat BRB indices in the demander's preference order:
    the exact prefix that :func:`_preferences` gives, until
    :meth:`complete` replaces it by the whole order, of length M.  Every
    position of ``order`` before ``scan_from`` has been applied to.

    A block of one price tier is affordable exactly when every block of
    that tier is, so a demander applies to each tier's blocks in
    preference order: within a tier, the applied positions are a prefix.
    The blocks of a uniform mmWave class are consecutive in that order, by
    index, so a demander applies to them in index order.
    """

    order: Sequence[int]       # flat BRB indices in preference order, or a prefix
    applied: bytearray         # nonzero per flat BRB already proposed to
    scan_from: int = 0         # first position possibly unapplied
    cost: float = 0.0
    rate_bps: float = 0.0

    def complete(self, order: np.ndarray) -> None:
        """Read on in ``order``, the whole preference order: called when a
        scan runs off the prefix (``scan_from == len(self.order)``) or
        before :meth:`cheaper_head` (``scan_from < len(self.order)``).

        The whole order starts with the prefix read so far, so the
        positions before ``scan_from`` and the tried flags stay valid.  It
        is kept as a memoryview of the argsorted numpy row: the rounds read
        only a short part of it, so it is never converted to a list.

        A scan that ran off the prefix need not scan on: the whole order's
        block at ``scan_from`` is untried.  While the order is a prefix, a
        demander applies only by a scan, as :meth:`cheaper_head` runs on a
        completed order, so every block it applied to itself lies in the
        prefix.  The only other tried flags are those :func:`_skip_repeats`
        sets, on blocks of the uniform class of a block m the demander
        applied to, so m and those blocks lie in the prefix too: a prefix
        is made of whole uniform classes.  Every tried block lies in the
        prefix, and the first position past it is untried.
        """
        self.order = memoryview(order)

    def cheaper_head(self, price: np.ndarray, budget: float) -> int:
        """The best untried block the budget covers, or -1, when the best
        untried block, the one at ``scan_from``, is too dear.

        It is the block a scan onward would reach, found in one numpy pass
        over the whole ``order`` from ``scan_from`` (never empty), without
        walking past every dear block in every round: the first untried
        block whose ``cost + price``, the float sum run_matching compares
        and stores as the cost, is within budget.  ``price`` is per flat
        block.
        """
        rest = np.asarray(self.order[self.scan_from :])
        ok = np.frombuffer(self.applied, dtype=np.uint8)[rest] == 0
        ok &= self.cost + price[rest] <= budget
        i = ok.argmax()
        return int(rest[i]) if ok[i] else -1


def _rate_rows(r: np.ndarray, n1: int) -> list[list[float] | None]:
    """``rows[k]`` lists flat BRB ``k``'s rates, from the ``(K1, N, K2)``
    rates ``r``, as Python floats, one per demander axis, or is None until
    the rounds first read it as ``r_flat[k].tolist()``.

    The row object marks an mmWave class: an anchor's mmWave rows are
    equal by construction, as its links share one shadowing draw.  When
    they are bitwise equal and free of NaN, so that ``==`` agrees, the
    class is uniform and shares one row list, built here; every other
    entry, sub-6 or of a class whose rows differ, starts as None.
    """
    k1, n = r.shape[:2]
    rows: list[list[float] | None] = [None] * (k1 * n)
    for a in range(k1 if n1 else 0):
        mmw = r[a, :n1]
        head = mmw[0].tolist()
        if mmw.tobytes() == mmw[0].tobytes() * n1 and not any(map(math.isnan, head)):
            rows[a * n : a * n + n1] = [head] * n1
    return rows


def _preferences(t: BrbTable, u_flat: np.ndarray, rates, n: int, n1: int):
    """``(prefixes, full)`` for the ``(M, K2)`` utilities ``u_flat``:
    each demander axis's exact preference prefix, and ``full(j)``, demander
    axis j's whole preference order as a numpy row.

    The whole order is the flat blocks by utility, descending, then in the
    tie order (price, band, owner, index): ``full(j)`` is
    ``ties[np.argsort(-u_flat[ties, j], kind="stable")]``, one row of a
    ``-u_flat[ties].T`` made at a call's first completion.  A prefix is
    what of that order can be told without sorting the row: the uniform
    mmWave classes (those that share a row of ``rates``, see
    :func:`_rate_rows`) whose utility is strictly above the demander's best
    block outside every class, by (-utility, tie rank), each as its blocks
    in index order.  It is exact.  A uniform class has one utility and one
    price, and its blocks are consecutive in the tie order, so it is one
    run of the whole order.  Every class strictly above the best block
    outside the classes comes before that block, and so before every other
    block outside them and every class not above it; a class that ties
    with that block may come after it, so it stays out, and so does one of
    NaN utility.  With no sub-6 block the best outside is -inf and the
    prefix is the whole order; with no mmWave block, or when some class is
    not uniform, every prefix is empty.
    """
    ties = t.tie_order
    neg = None

    def full(j: int) -> np.ndarray:
        nonlocal neg
        if neg is None:
            neg = -u_flat.take(ties, 0).T
        return ties.take(neg[j].argsort(kind="stable"))

    k2, classes, runs = u_flat.shape[1], t.class_order, t.class_runs
    # rates[::n] holds each anchor's first row: None for a class whose rows differ
    if not classes or None in rates[::n]:
        return [()] * k2, full
    u = u_flat.reshape(len(u_flat) // n, n, k2)
    heads = u[:, 0].T.tolist()  # each class's utility, per demander axis
    best = np.maximum.reduce(u[:, n1:], axis=(0, 1), initial=-np.inf).tolist()
    prefixes = []
    for head, b in zip(heads, best):
        above = [a for a in classes if head[a] > b]
        prefix = ()
        for a in sorted(above, key=head.__getitem__, reverse=True):
            prefix += runs[a]
        prefixes.append(prefix)
    return prefixes, full


def _skip_repeats(groups, states, holder, rates, price, demands, budgets, n, n1) -> int:
    """Play at once every round that repeats the one just played a block
    further on; return how many rounds that was.

    In a uniform mmWave class (one that shares a row, see
    :func:`_rate_rows`) the held blocks always form a prefix.  A demander
    applies to the class's blocks in index order (see ``_ProposalState``),
    a proposal to a free block always wins it, and no block is ever freed,
    as a displaced holder's block goes to its displacer.  So every block a
    demander has tried is held, and every proposal to a free block of the
    class goes to its first free block: a round has at most one convoy per
    class, and every block after its block m is free.  A run therefore ends
    at the class end, m - m % n + n1 (``n`` blocks per anchor, ``n1``
    mmWave), or where the winner's demand or budget, or a rejection's
    holders, stop it.

    ``groups`` is the round's proposal map, each block m to its applicants;
    together they are every demander that proposed in it.  It is called
    only after a round that displaced nobody, so each block's holder now
    tells its outcome.  No applicant held m before the round, as it had not
    tried m, so a block now held by one of its applicants was free and went
    to that applicant, the winner w (a convoy); any other block kept its
    holder against every applicant (a rejection).  Round ``i`` after it
    repeats it when, for every group, m lies in a uniform class with m+i in
    it, which holds when ``rates[m + 1] is rates[m]`` and i is within the
    class's end, so that every applicant rates m+i as it rates m, and
      - for a convoy, the winner can still propose: its demand unmet and
        cost + price within budget, the same float sum the proposal loop
        compares (m+i is free, by the prefix);
      - for a rejection, m+i is held and its holder's rate on it is at
        least the best applicant's, so the holder keeps it, ties included.
    Holders are read at the start of the run.  A class whose rows differ,
    and any sub-6 block, shares no row object and is played round by round.

    Then m+i is each applicant's next choice, and the convoy's winner takes
    it or the rejection's holder keeps it.  The class shares one price, so
    equal rates give equal utility, and the tie order (price, band, owner,
    index) places m+1 right after m in every applicant's preference order.
    m+1 is of m's price tier, and within a tier the applied positions are a
    prefix (see ``_ProposalState``), so m+1 is untried.  An applicant that
    reached m by a scan from ``scan_from`` reaches m+1 next.  One that
    reached m through :meth:`_ProposalState.cheaper_head` still finds the
    same too dear block at ``scan_from``, as its cost did not fall, and
    every untried block between it and m is still too dear, so the first
    untried block it affords is m+1.

    The holders read at the start hold for the whole run, because a
    repeated round displaces nobody: a convoy's target is free, and a
    rejected block keeps its holder.  A convoy's targets, free at the
    start, are taken by no other group first, and a rejection's targets,
    held at the start, stay held by the same holder.  Only a convoy's
    winner gains anything; a convoy loser's or a rejected applicant's rate
    and cost do not move, so it still affords the class, and no demander
    outside the round's applicants wakes.

    The skipped rounds set the tried flags by slice and move ``scan_from``
    along for the applicants that scanned to m.  A convoy's holders are set
    by slice and its winner's rate and price added once per block, so the
    totals are the very float sums the rounds would have made; they are
    those of the first pass when its run set the final length.  A
    rejection changes no holder and no total.
    """
    k = n1
    # per convoy, its winner, the winner's run length, its sums after it
    # and its rate on the class; None for a rejection
    reach = []
    for m, applicants in groups.items():
        k = min(k, n1 - 1 - m % n)  # the blocks left in m's class
        if k <= 0 or rates[m + 1] is not rates[m]:
            return 0
        row = rates[m]
        w = holder[m]
        i = 0
        if w not in applicants:
            top = max(row[j] for j in applicants)
            while i < k:
                h = holder[m + i + 1]
                if h < 0 or not top <= row[h]:
                    break
                i += 1
            reach.append(None)
        else:
            st = states[w]
            rate, cost, need, budget = st.rate_bps, st.cost, demands[w], budgets[w]
            r, p = row[w], price[m]  # the class shares one row and one price
            while i < k and rate < need and cost + p <= budget:
                i += 1
                rate += r
                cost += p
            reach.append((w, i, rate, cost, r))
        k = i
        if not k:
            return 0
    tried = b"\x01" * k
    for (m, applicants), run in zip(groups.items(), reach):
        for j in applicants:
            st = states[j]
            st.applied[m + 1 : m + k + 1] = tried
            if st.order[st.scan_from] == m:
                st.scan_from += k
        if run is None:
            continue
        w, i, rate, cost, r = run
        holder[m + 1 : m + k + 1] = array("q", [w]) * k
        st = states[w]
        if i == k:
            st.rate_bps, st.cost = rate, cost
            continue
        p = price[m]
        for _ in range(k):
            st.rate_bps += r
            st.cost += p
    return k


def run_matching(s: Scenario, ch: ChannelRealization, zeta: float) -> Matching:
    """Run the proposal/acceptance rounds until no demander proposes.

    ``zeta`` is the price weight in bit/s per price unit.  Rounds are
    batch-synchronous: all active demanders propose against the state at
    the start of the round, then every BRB picks its winner.  Bookkeeping
    adds a BRB's rate and price on acceptance and subtracts them on
    displacement, so budgets are never exceeded.

    A demander proposes to the first block of its preference order (by
    utility, then by the tie order: price, band, owner, index) that it
    has not tried and can afford.  That is the whole acceptability
    rule: while its demand is unmet, a demander proposes to any
    affordable untried block, even one of zero rate or negative utility,
    and keeps what it wins until a stronger demander displaces it.  A
    zero-rate block so held can keep a better, dearer one out of the
    budget, a swap that :func:`find_blocking_pairs` reports.

    A round visits only the demanders that proposed or were displaced in
    the round before, in ascending axis order, which keeps the order of
    every float sum: a demander that did neither has the rate, cost and
    tried blocks with which it last failed to propose.  The rounds and
    proposals counted are those of the full loop, the rounds that
    :func:`_skip_repeats` plays at once after a round that displaced nobody
    included.  Raises ValueError for a ``zeta`` that is not finite or makes
    a utility overflow, or a budget that a price takes past the float
    range (see :func:`_utilities`).
    """
    t, r_flat, budgets, demands = _flat_view(s, ch)   # r_flat: (M, K2) bit/s
    demander_ids = ch.demander_ids
    m_total, k2 = r_flat.shape

    # Python floats from here on: the same IEEE sums as numpy scalars, faster
    n, n1 = s.brbs_per_anchor, s.mmw_band.num_brbs
    rates = _rate_rows(ch.rates, n1)
    # preference: utility first, then the cheaper block, then (band, owner, index)
    u_flat = _utilities(t, r_flat, zeta, budgets)
    prefixes, full = _preferences(t, u_flat, rates, n, n1)
    states = [_ProposalState(p, bytearray(m_total)) for p in prefixes]
    price = t.price_of
    holder = array("q", [-1]) * m_total
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
            pos, end = st.scan_from, len(order)
            while pos < end and applied[order[pos]]:
                pos += 1
            st.scan_from = pos
            if pos == end < m_total:  # ran off the prefix: read on in the whole order
                st.complete(full(j))
                order = st.order
            if pos == m_total:
                continue
            choice = order[pos]
            # the comparison uses the same float sum later stored as the
            # cost, so cost <= budget can never be violated
            if not st.cost + price[choice] <= budgets[j]:
                if len(order) < m_total:
                    st.complete(full(j))
                choice = st.cheaper_head(t.price, budgets[j])
            if choice >= 0:
                applied[choice] = 1
                round_proposals.setdefault(choice, []).append(j)
                proposers.append(j)
        if not proposers:
            break
        rounds += 1
        proposals += len(proposers)
        displaced = []
        for m, applicants in round_proposals.items():
            rate_m = rates[m]
            if rate_m is None:
                rate_m = rates[m] = r_flat[m].tolist()
            if len(applicants) == 1:
                best = applicants[0]
            else:
                best = min(applicants, key=lambda j: (-rate_m[j], demander_ids[j]))
            incumbent = holder[m]
            if incumbent >= 0:
                if rate_m[best] <= rate_m[incumbent]:
                    continue  # incumbent keeps the BRB, ties included
                st = states[incumbent]
                st.rate_bps -= rate_m[incumbent]
                st.cost -= price[m]
                displaced.append(incumbent)
            st = states[best]
            st.rate_bps += rate_m[best]
            st.cost += price[m]
            holder[m] = best
        if displaced:
            active = sorted(set(proposers).union(displaced))
        else:
            active = proposers
            skipped = _skip_repeats(
                round_proposals, states, holder, rates, price, demands, budgets, n, n1
            )
            rounds += skipped
            proposals += skipped * len(proposers)

    return Matching._built(
        np.frombuffer(holder, dtype=np.int64), t, demander_ids,
        [st.rate_bps for st in states], [st.cost for st in states], rounds, proposals,
    )


def matching_from_assignment(
    s: Scenario, ch: ChannelRealization, assignment: dict[int, set[BrbKey]]
) -> Matching:
    """Build a Matching from demander id -> sets of BRB keys, with totals
    recomputed from the channels."""
    t, r_flat, _, _ = _flat_view(s, ch)
    holder = np.full(len(t.price), -1, dtype=int)
    flat_of = {b: k for k, b in enumerate(t.keys)}
    for d, keys in assignment.items():
        if d not in ch.demander_ids:
            raise InconsistentMatchingError(f"unknown demander id {d}")
        j = ch.demander_ids.index(d)
        for b in keys:
            k = flat_of.get(b)
            if k is None:
                raise InconsistentMatchingError(f"BRB {b} is not a block of this scenario")
            if holder[k] >= 0:
                raise InconsistentMatchingError(
                    f"BRB {b} assigned to both {ch.demander_ids[holder[k]]} and {d}"
                )
            holder[k] = j
    return Matching._built(holder, t, ch.demander_ids, *_held_totals(t, r_flat, holder))


def recompute_totals(
    m: Matching, s: Scenario, ch: ChannelRealization
) -> tuple[dict[int, float], dict[int, float]]:
    """Independent per-demander rate and cost sums from the realization,
    added up in flat BRB order."""
    t, r_flat, _, _ = _flat_view(s, ch, m)
    rate, cost = _held_totals(t, r_flat, m.holder)
    return dict(zip(ch.demander_ids, rate)), dict(zip(ch.demander_ids, cost))


def _held_totals(
    t: BrbTable, r_flat: np.ndarray, holder: np.ndarray
) -> tuple[list[float], list[float]]:
    """Each demander axis's rate and cost sums, added up in flat BRB order."""
    rate, cost = [0.0] * r_flat.shape[1], [0.0] * r_flat.shape[1]
    ks = np.flatnonzero(holder >= 0)
    js = holder[ks]
    for j, r, p in zip(js.tolist(), r_flat[ks, js].tolist(), t.price[ks].tolist()):
        rate[j] += r
        cost[j] += p
    return rate, cost


class BlockingPairs(Sequence):
    """The blocking pairs of one allocation: a read-only sequence of
    (demander id, BRB key), sorted as tuples: by demander id, then BRB key.

    Built from the audit's ``(M, K2)`` mask over (flat BRB, demander
    axis) and the table whose ``keys`` name its flat BRBs.  Its length is
    the mask's count of true entries; the pairs are listed and sorted only
    on first indexing or iteration, so an audit that only counts pays for
    no tuples.  It equals a list or BlockingPairs of the
    same pairs in the same order, and is falsy when empty.
    """

    __slots__ = ("_blocking", "_table", "_demander_ids", "_count", "_pairs")

    def __init__(
        self, blocking: np.ndarray, table: BrbTable, demander_ids: tuple[int, ...]
    ):
        self._blocking = blocking
        self._table = table
        self._demander_ids = demander_ids
        self._count = int(np.count_nonzero(blocking))
        self._pairs: list[tuple[int, BrbKey]] | None = None

    def __len__(self) -> int:
        return self._count

    def _listed(self) -> list[tuple[int, BrbKey]]:
        if self._pairs is None:
            keys, ids = self._table.keys, self._demander_ids
            # by demander axis, then flat index: already sorted when anchor
            # and demander ids ascend in station order, as generated
            js, ks = np.nonzero(self._blocking.T)
            self._pairs = sorted(
                (ids[j], keys[k]) for j, k in zip(js.tolist(), ks.tolist())
            )
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
    indexing or iteration.  Raises ValueError for a ``zeta`` that is not
    finite or makes a utility overflow, or a budget that a price takes
    past the float range (see :func:`_utilities`).

    Only the BRB side and the utilities vary block by block.  A block's
    price is its price tier's, so the demander side is decided in
    ``(T, K2)`` tables over (tier, demander axis) and gathered by each
    block's tier: the spend ``cost + price``, whether an addition fits,
    and the least utility the demander holds in a tier or any dearer one,
    read at the first tier whose price covers the excess over the budget.
    """
    t, r_flat, budget, demand = _flat_view(s, ch, m)   # r_flat: (M, K2)
    holder = m.holder
    u_flat = _utilities(t, r_flat, zeta, budget)
    cost = np.array([m.cost.get(d, 0.0) for d in ch.demander_ids], dtype=float)
    rate = np.array([m.rate_bps.get(d, 0.0) for d in ch.demander_ids], dtype=float)
    tiers = np.array(t.tiers)
    ks = np.flatnonzero(holder >= 0)
    js = holder[ks]

    # (i) BRB side: unassigned, or strictly prefers this demander; (M, K2).
    # No block strictly prefers its holder to itself, so this also rules
    # out every block its demander already holds.  A free block's holder
    # rate is -inf, which every rate but -inf and NaN beats.
    holder_rate = np.full(len(holder), -np.inf)
    holder_rate[ks] = r_flat[ks, js]
    brb_wants = r_flat > holder_rate[:, None]
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
    # fmin skips a held NaN utility, from a NaN rate, which no utility is
    # strictly above: minimum would make the whole tier's least NaN
    least = np.full((len(tiers) + 1) * k2, np.inf)
    np.fmin.at(least, t.tier[ks] * k2 + js, u_flat[ks, js])
    least = np.minimum.accumulate(least.reshape(-1, k2)[::-1], axis=0)[::-1]
    cover = np.searchsorted(tiers, spend - budget, side="left")
    bar = least[cover, np.arange(k2)]
    # where an addition fits, the bar is -inf, which the utility of every
    # rate but -inf and NaN passes (zeta * price is finite).  np.take
    # gathers a tier table's rows as indexing by t.tier does, but faster
    demander_wants = np.take(np.where(add_ok, -np.inf, bar), t.tier, axis=0) < u_flat
    if r_flat.size and not r_flat.min() > -np.inf:
        # a rate of -inf or NaN passes neither fold, so add back the terms
        # the folds stand for: a free block, and an addition that fits
        brb_wants |= (holder < 0)[:, None]
        demander_wants |= np.take(add_ok, t.tier, axis=0)
    return BlockingPairs(brb_wants & demander_wants, t, ch.demander_ids)


def save_matching_csv(
    m: Matching, s: Scenario, ch: ChannelRealization, path: str
) -> None:
    """Dump rows of k2, k1, band, n, gamma, rate_bps, price, one per held
    BRB, sorted by demander id, then BRB key."""
    t, r_flat, _, _ = _flat_view(s, ch, m)
    keys, ids = t.keys, ch.demander_ids
    ks = np.flatnonzero(m.holder >= 0)
    held = sorted(  # demander id, then BRB key
        (ids[j], keys[k], k, j) for k, j in zip(ks.tolist(), m.holder[ks].tolist())
    )
    gamma = gamma_tensor(s, ch).reshape(r_flat.shape)
    band = [kind.value for kind in BandKind]
    rows = [
        (d, a, band[c], i, gamma[k, j], r_flat[k, j], t.price_of[k])
        for d, (a, c, i), k, j in held
    ]
    _write_csv(path, ["k2", "k1", "band", "n", "gamma", "rate_bps", "price"], rows)
