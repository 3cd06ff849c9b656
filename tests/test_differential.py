"""Differential tests: the table-driven schemes and audit against the
loop-and-tuple implementations they replaced.

The ``_ref_*`` functions below are the earlier ``run_matching``,
``find_blocking_pairs``, ``best_effort_allocate`` and ``random_allocate``
(with their helpers), copied unchanged apart from the names and the
record they return, ``_RefMatching``, which keeps the allocation as the
``assigned`` and ``owner_of`` dicts those versions built, over the
reference model's own ``Brb`` records.  They rebuild every record from
the scenario on each call and sort pairs by tuple key.  On random
instances the current functions must give the very same results: the same
pairs in the same order, the same holders, bit-identical rates and costs,
the same round and proposal counts, and the same generator state after the
random baseline.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import reference_model as ref
from reference_model import Brb

from scbn import matching
from scbn.baselines import best_effort_allocate, random_allocate
from scbn.experiments import SCHEMES, _budget_bound_fraction, run_scheme
from scbn.matching import (
    InconsistentMatchingError,
    Matching,
    _flat_view,
    _ProposalState,
    find_blocking_pairs,
    matching_from_assignment,
    run_matching,
)
from scbn.oracle import brute_force_min_cost
from scbn.propagation import ChannelRealization, rate_tensor, realize_channels
from scbn.scenario import (
    BandKind,
    GenerationConfig,
    Scenario,
    generate_scenario,
    load_scenario,
    resample_positions,
    save_scenario,
)


@dataclass
class _RefMatching:
    """The allocation record the reference implementations return."""

    assigned: dict[int, frozenset[Brb]]
    owner_of: dict[Brb, int]
    rate_bps: dict[int, float]
    cost: dict[int, float]
    rounds: int = 0
    proposals: int = 0


@dataclass
class _RefProposalState:
    """Mutable per-demander state inside _ref_run_matching."""

    order: np.ndarray          # flat BRB indices in preference order
    applied: np.ndarray        # bool per flat BRB
    scan_from: int = 0         # first position possibly unapplied
    cost: float = 0.0
    rate_bps: float = 0.0
    held: set[int] = field(default_factory=set)


def _ref_flat_brb_arrays(s: Scenario, brbs: tuple[Brb, ...]):
    """Per-BRB lookup arrays aligned with the canonical BRB order."""
    owner_axis = np.empty(len(brbs), dtype=int)
    global_n = np.empty(len(brbs), dtype=int)
    price = np.empty(len(brbs), dtype=float)
    band_code = np.empty(len(brbs), dtype=int)
    index_in_band = np.empty(len(brbs), dtype=int)
    owner_id = np.empty(len(brbs), dtype=int)
    anchor_axis = {a: i for i, a in enumerate(s.anchor_ids)}
    for k, b in enumerate(brbs):
        owner_axis[k] = anchor_axis[b.owner]
        owner_id[k] = b.owner
        global_n[k] = ref.brb_global_index(s, b)
        price[k] = b.price
        band_code[k] = 0 if b.band is BandKind.MMWAVE else 1
        index_in_band[k] = b.index
    return owner_axis, owner_id, global_n, price, band_code, index_in_band


def _ref_run_matching(s: Scenario, ch: ChannelRealization, zeta: float) -> _RefMatching:
    """Run the proposal/acceptance rounds to a stable allocation.

    ``zeta`` is the price weight in bit/s per price unit.  Rounds are
    batch-synchronous: all active demanders propose against the state at
    the start of the round, then every BRB picks its winner.  Bookkeeping
    adds a BRB's rate and price on acceptance and subtracts them on
    displacement, so budgets are never exceeded.
    """
    brbs = ref.scenario_brbs(s)
    owner_axis, owner_ids, global_n, price, band_code, index_in_band = _ref_flat_brb_arrays(
        s, brbs
    )
    rates = rate_tensor(s, ch)           # (K1, N, K2) bit/s
    demander_ids = list(ch.demander_ids)
    k2 = len(demander_ids)
    m_total = len(brbs)

    # rate and utility of every flat BRB for every demander
    r_flat = rates[owner_axis, global_n, :]              # (M, K2)
    u_flat = r_flat - zeta * price[:, None]

    states: list[_RefProposalState] = []
    for j in range(k2):
        order = np.lexsort(
            (index_in_band, owner_ids, band_code, price, -u_flat[:, j])
        )
        states.append(
            _RefProposalState(order=order, applied=np.zeros(m_total, dtype=bool))
        )

    budgets = np.array([s.budgets[d] for d in demander_ids], dtype=float)
    demands = np.array([s.demands_bps[d] for d in demander_ids], dtype=float)
    holder = np.full(m_total, -1, dtype=int)
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
                applied[choice] = True
                round_proposals.setdefault(choice, []).append(j)
                proposals += 1
        if not round_proposals:
            break
        rounds += 1
        for m, applicants in round_proposals.items():
            best = min(applicants, key=lambda j: (-r_flat[m, j], demander_ids[j]))
            incumbent = holder[m]
            if incumbent >= 0 and r_flat[m, best] <= r_flat[m, incumbent]:
                continue  # incumbent keeps the BRB, ties included
            if incumbent >= 0:
                st = states[incumbent]
                st.rate_bps -= float(r_flat[m, incumbent])
                st.cost -= float(price[m])
                st.held.discard(m)
            st = states[best]
            st.rate_bps += float(r_flat[m, best])
            st.cost += float(price[m])
            st.held.add(m)
            holder[m] = best

    assigned: dict[int, frozenset[Brb]] = {}
    owner_of: dict[Brb, int] = {}
    rate_out: dict[int, float] = {}
    cost_out: dict[int, float] = {}
    for j, d in enumerate(demander_ids):
        held = frozenset(brbs[m] for m in states[j].held)
        assigned[d] = held
        for b in held:
            owner_of[b] = d
        rate_out[d] = states[j].rate_bps
        cost_out[d] = states[j].cost
    return _RefMatching(
        assigned=assigned,
        owner_of=owner_of,
        rate_bps=rate_out,
        cost=cost_out,
        rounds=rounds,
        proposals=proposals,
    )



def _ref_check_consistency(m: Matching, s: Scenario, ch: ChannelRealization) -> None:
    seen: dict[tuple[int, int, int], int] = {}
    for d, keys in m.assigned.items():
        if d not in ch.demander_ids:
            raise InconsistentMatchingError(f"unknown demander id {d}")
        for b in keys:
            if b in seen:
                raise InconsistentMatchingError(
                    f"BRB {b} assigned to both {seen[b]} and {d}"
                )
            seen[b] = d
            if b[0] not in ch.anchor_ids:
                raise InconsistentMatchingError(f"BRB {b} has unknown owner")
    for b, d in m.owner_of.items():
        if seen.get(b) != d:
            raise InconsistentMatchingError(
                f"owner_of[{b}] = {d} but assigned says {seen.get(b)}"
            )
    for b in seen:
        if b not in m.owner_of:
            raise InconsistentMatchingError(f"BRB {b} missing from owner_of")


def _ref_find_blocking_pairs(
    m: Matching, s: Scenario, ch: ChannelRealization, zeta: float
) -> list[tuple[int, tuple[int, int, int]]]:
    """All (demander, BRB key) pairs that would break the matching.

    A pair blocks when the BRB strictly prefers the demander to its
    current holder (or is unassigned) and the demander strictly gains by
    taking the BRB, either adding it within budget while its demand is
    unmet, or swapping out a held BRB of lower utility while staying
    within budget.
    """
    _ref_check_consistency(m, s, ch)
    brbs = ref.scenario_brbs(s)
    owner_axis, owner_ids, global_n, price, _band, _idx = _ref_flat_brb_arrays(s, brbs)
    rates = rate_tensor(s, ch)
    r_flat = rates[owner_axis, global_n, :]          # (M, K2)
    u_flat = r_flat - zeta * price[:, None]
    demander_ids = list(ch.demander_ids)
    axis_of = {d: j for j, d in enumerate(demander_ids)}
    flat_index = {b.key(): k for k, b in enumerate(brbs)}

    holder_axis = np.full(len(brbs), -1, dtype=int)
    for b, d in m.owner_of.items():
        holder_axis[flat_index[b]] = axis_of[d]
    holder_rate = np.where(
        holder_axis >= 0,
        r_flat[np.arange(len(brbs)), np.clip(holder_axis, 0, None)],
        -np.inf,
    )

    pairs: list[tuple[int, tuple[int, int, int]]] = []
    m_total = len(brbs)
    for d in demander_ids:
        j = axis_of[d]
        held = sorted(flat_index[b] for b in m.assigned.get(d, ()))
        cost_j = m.cost.get(d, 0.0)
        rate_j = m.rate_bps.get(d, 0.0)
        budget_j = s.budgets[d]
        demand_j = s.demands_bps[d]
        not_held = np.ones(m_total, dtype=bool)
        not_held[held] = False
        # (i) BRB side: unassigned, or strictly prefers this demander
        brb_wants = (holder_axis < 0) | (r_flat[:, j] > holder_rate)
        # (ii-a) beneficial addition within budget while demand is unmet
        wants_add = (
            (cost_j + price <= budget_j)
            if rate_j < demand_j
            else np.zeros(m_total, dtype=bool)
        )
        # (ii-b) beneficial swap: some held BRB has strictly lower utility
        # and releasing it keeps the new BRB within budget
        if held:
            held_utils = u_flat[held, j]
            sort = np.argsort(held_utils, kind="stable")
            held_utils_sorted = held_utils[sort]
            prefix_max_price = np.maximum.accumulate(price[np.array(held)[sort]])
            cut = np.searchsorted(held_utils_sorted, u_flat[:, j], side="left")
            wants_swap = (cut > 0) & (
                prefix_max_price[np.maximum(cut - 1, 0)] >= cost_j + price - budget_j
            )
        else:
            wants_swap = np.zeros(m_total, dtype=bool)
        blocking = not_held & brb_wants & (wants_add | wants_swap)
        pairs.extend((d, brbs[k].key()) for k in np.nonzero(blocking)[0])
    pairs.sort(key=lambda pair: (pair[0],) + pair[1])
    return pairs



def _ref_finalize(
    s: Scenario,
    ch: ChannelRealization,
    brbs: tuple[Brb, ...],
    holder: np.ndarray,
    rate: np.ndarray,
    cost: np.ndarray,
) -> _RefMatching:
    demander_ids = list(ch.demander_ids)
    assigned: dict[int, frozenset[Brb]] = {}
    owner_of: dict[Brb, int] = {}
    for j, d in enumerate(demander_ids):
        held = frozenset(brbs[k] for k in np.nonzero(holder == j)[0])
        assigned[d] = held
        for b in held:
            owner_of[b] = d
    return _RefMatching(
        assigned=assigned,
        owner_of=owner_of,
        rate_bps={d: float(rate[j]) for j, d in enumerate(demander_ids)},
        cost={d: float(cost[j]) for j, d in enumerate(demander_ids)},
    )


def _ref_best_effort_allocate(s: Scenario, ch: ChannelRealization) -> _RefMatching:
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
    brbs = ref.scenario_brbs(s)
    owner_axis, _, global_n, price, _, _ = _ref_flat_brb_arrays(s, brbs)
    r_flat = rate_tensor(s, ch)[owner_axis, global_n, :]  # (M, K2)
    demander_ids = list(ch.demander_ids)
    k2 = len(demander_ids)
    m_total = len(brbs)

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
    return _ref_finalize(s, ch, brbs, holder, rate, cost)


def _ref_random_allocate(
    s: Scenario, ch: ChannelRealization, rng: np.random.Generator
) -> _RefMatching:
    """Assign each BRB to a uniformly random eligible demander.

    BRBs are visited in a random order; a demander is eligible while its
    demand is unmet and the BRB fits its remaining budget.  BRBs with no
    eligible taker stay unassigned.  Deterministic for a given ``rng``.
    """
    brbs = ref.scenario_brbs(s)
    owner_axis, _, global_n, price, _, _ = _ref_flat_brb_arrays(s, brbs)
    rates = rate_tensor(s, ch)
    r_flat = rates[owner_axis, global_n, :]
    demander_ids = list(ch.demander_ids)
    k2 = len(demander_ids)
    m_total = len(brbs)

    budgets = np.array([s.budgets[d] for d in demander_ids], dtype=float)
    demands = np.array([s.demands_bps[d] for d in demander_ids], dtype=float)
    holder = np.full(m_total, -1, dtype=int)
    rate = np.zeros(k2)
    cost = np.zeros(k2)
    for m in rng.permutation(m_total):
        eligible = np.nonzero((rate < demands) & (cost + price[m] <= budgets))[0]
        if eligible.size == 0:
            continue
        j = int(eligible[rng.integers(eligible.size)])
        holder[m] = j
        rate[j] += r_flat[m, j]
        cost[j] += price[m]
    return _ref_finalize(s, ch, brbs, holder, rate, cost)


# --- random instances -----------------------------------------------------------

_PRICES = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
# budgets that sums of the prices above reach exactly, so that the
# cost + price <= budget comparisons meet their edge
_ROUND_BUDGETS = (1.0, 2.0, 3.0, 5.0, 10.0, 20.0)


def _relabelled(s: Scenario, rng: np.random.Generator, path) -> Scenario:
    """The scenario under fresh station ids, written out and loaded back.

    Anchors keep their place at the front of the station list but get
    descending ids, and demander ids are shuffled, so neither axis follows
    ascending id order.
    """
    ids = [int(i) for i in 3 * rng.permutation(len(s.stations)) + 1]
    k1 = len(s.anchors)
    ids[:k1] = sorted(ids[:k1], reverse=True)
    new_id = {st.id: i for st, i in zip(s.stations, ids)}
    s = replace(
        s,
        stations=tuple(replace(st, id=new_id[st.id]) for st in s.stations),
        prices={new_id[a]: p for a, p in s.prices.items()},
        budgets={new_id[d]: v for d, v in s.budgets.items()},
        demands_bps={new_id[d]: v for d, v in s.demands_bps.items()},
    )
    save_scenario(s, str(path))
    return load_scenario(str(path))


def _instance(i: int, rng: np.random.Generator, tmp_dir):
    k1 = int(rng.integers(1, 4))
    n1, n2 = int(rng.integers(0, 7)), int(rng.integers(0, 6))
    if n1 + n2 == 0:
        n1 = 1  # a zero-supply band, but some supply overall
    cfg = GenerationConfig(
        num_stations=k1 + int(rng.integers(1, 6)),
        num_anchors=k1,
        num_mmw_brbs=n1,
        num_sub6_brbs=n2,
        demand_bps=float(rng.uniform(1e6, 80e6)),
        budget=float(rng.uniform(1.0, 30.0)),
        mmw_price=float(rng.choice(_PRICES)),
        sub6_price=float(rng.choice(_PRICES)),
        mmw_blockage_prob=float(rng.uniform(0.0, 0.6)),
        area_side_m=float(rng.uniform(200.0, 800.0)),
    )
    s = generate_scenario(cfg, seed=int(rng.integers(2**31)))
    if rng.random() < 0.5:  # per-anchor price overrides
        s = replace(
            s,
            prices={
                a: {
                    BandKind.MMWAVE: float(rng.choice(_PRICES)),
                    BandKind.SUB6: float(rng.choice(_PRICES)),
                }
                for a in s.anchor_ids
            },
        )
    if rng.random() < 0.5:  # per-demander budgets and demands
        s = replace(
            s,
            budgets={
                d: float(rng.choice(_ROUND_BUDGETS))
                if rng.random() < 0.5
                else float(rng.uniform(0.5, 30.0))
                for d in s.demander_ids
            },
            demands_bps={d: float(rng.uniform(1e5, 80e6)) for d in s.demander_ids},
        )
    if k1 > 1 and i % 3 == 0:
        s = _relabelled(s, rng, tmp_dir / f"scenario_{i}.json")
    ch = realize_channels(s, rng)
    zeta = float(rng.choice([0.0, 1e5, 1e6]))
    return s, ch, zeta, int(rng.integers(2**31))


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("differential")
    rng = np.random.default_rng(0xD1FF)
    return [_instance(i, rng, tmp_dir) for i in range(240)]


def test_instances_cover_the_awkward_shapes(instances):
    scenarios = [s for s, _, _, _ in instances]
    assert len(scenarios) >= 200
    assert any(list(s.anchor_ids) != sorted(s.anchor_ids) for s in scenarios)
    assert any(list(s.demander_ids) != sorted(s.demander_ids) for s in scenarios)
    assert any(s.mmw_band.num_brbs == 0 for s in scenarios)
    assert any(s.sub6_band.num_brbs == 0 for s in scenarios)
    assert any(
        len({p[BandKind.SUB6] for p in s.prices.values()}) > 1
        for s in scenarios
    )


def test_flat_index_is_anchor_axis_times_n_plus_global_index(instances):
    loaded = [
        (s, ch) for s, ch, _, _ in instances if list(s.anchor_ids) != sorted(s.anchor_ids)
    ]
    assert loaded
    for s, ch in loaded:
        t, n = s.brb_table, s.brbs_per_anchor
        keys, brbs = t.keys, ref.scenario_brbs(s)
        for k, b in enumerate(brbs):
            assert keys[k] == b.key()
            assert b.owner == s.anchor_ids[k // n]
            assert ref.brb_global_index(s, b) == k % n
        # so the flat rate matrix is the gather the reference schemes make
        owner_axis, _, global_n, _, _, _ = _ref_flat_brb_arrays(s, brbs)
        gathered = rate_tensor(s, ch)[owner_axis, global_n, :]
        assert _flat_view(s, ch)[1].tobytes() == gathered.tobytes()


def test_the_table_describes_the_reference_records(instances):
    """Every array of the table, held to the records the reference model
    builds from the scenario: keys, prices, tiers, the tie order (price,
    band, owner, index) and the mmWave classes in it."""
    for s, _, _, _ in instances:
        t, brbs = s.brb_table, ref.scenario_brbs(s)
        keys = [b.key() for b in brbs]
        prices = [b.price for b in brbs]
        assert list(t.keys) == keys
        assert t.price.tolist() == list(t.price_of) == prices
        assert t.tiers == tuple(sorted(set(prices)))
        assert [t.tiers[i] for i in t.tier_of] == prices
        assert t.tier.tolist() == list(t.tier_of)
        assert t.tier_sizes == tuple(prices.count(p) for p in t.tiers)
        owner, band, index = zip(*keys) if keys else ((), (), ())
        by_tie = sorted(
            range(len(brbs)), key=lambda k: (prices[k], band[k], owner[k], index[k])
        )
        assert t.tie_order.tolist() == by_tie
        mmw = [k for k in by_tie if band[k] == 0]
        assert [list(run) for run in t.class_runs] == [
            [k for k in mmw if owner[k] == a] for a in s.anchor_ids
        ]
        heads = [k for k in mmw if index[k] == 0]
        assert list(t.class_order) == [k // s.brbs_per_anchor for k in heads]


@pytest.fixture
def rate_row_lists(monkeypatch):
    """Records the row list ``_rate_rows`` makes for each run_matching call,
    which the rounds then fill in."""
    made: list[list] = []
    rate_rows = matching._rate_rows
    monkeypatch.setattr(
        matching, "_rate_rows", lambda *args: made.append(rate_rows(*args)) or made[-1]
    )
    return made


def test_each_mmwave_class_shares_one_rate_row_and_no_other_block_does(
    instances, rate_row_lists
):
    """The fast-forward takes blocks that share a row object for one
    uniform mmWave class: on drawn realizations that is every mmWave class,
    whole, with the class's rates bitwise.  Every other entry is None
    until the rounds read it, and a row once read is the block's rates."""
    read = 0
    for s, ch, zeta, _ in instances:
        n, n1 = s.brbs_per_anchor, s.mmw_band.num_brbs
        r_flat = _flat_view(s, ch)[1]
        rows = matching._rate_rows(ch.rates, n1)
        for c0 in range(0, len(rows) if n1 else 0, n):
            assert all(rows[k] is rows[c0] for k in range(c0, c0 + n1))
            assert np.array(rows[c0]).tobytes() == r_flat[c0].tobytes()
            assert r_flat[c0 : c0 + n1].tobytes() == r_flat[c0].tobytes() * n1
        assert all(rows[k] is None for k in range(len(rows)) if k % n >= n1)
        run_matching(s, ch, zeta)
        after = rate_row_lists[-1]
        for k, row in enumerate(after):
            if k % n < n1:
                assert row is after[k - k % n]
            elif row is not None:
                read += 1
                assert np.array(row).tobytes() == r_flat[k].tobytes()
    assert read  # some sub-6 row was read


def _bits(values: dict) -> dict:
    return {d: float(v).hex() for d, v in values.items()}


def _assert_same_matching(new: Matching, old: _RefMatching) -> None:
    assert new.assigned == {
        d: frozenset(b.key() for b in held) for d, held in old.assigned.items()
    }
    assert new.owner_of == {b.key(): d for b, d in old.owner_of.items()}
    keys = new.table.keys
    holder = [-1] * len(keys)
    for b, d in old.owner_of.items():
        holder[keys.index(b.key())] = new.demander_ids.index(d)
    assert new.holder.tolist() == holder
    assert _bits(new.rate_bps) == _bits(old.rate_bps)
    assert _bits(new.cost) == _bits(old.cost)
    assert (new.rounds, new.proposals) == (old.rounds, old.proposals)


def _arbitrary_assignment(s, ch, rng) -> Matching:
    """A random allocation that ignores budgets, demands and rates."""
    assignment: dict[int, set[tuple[int, int, int]]] = {}
    for b in ref.scenario_brbs(s):
        j = int(rng.integers(len(ch.demander_ids) + 1)) - 1
        if j >= 0:
            assignment.setdefault(ch.demander_ids[j], set()).add(b.key())
    return matching_from_assignment(s, ch, assignment)


# --- the differential tests -------------------------------------------------------


def test_run_matching_is_bit_identical_to_the_reference(instances):
    for s, ch, zeta, _ in instances:
        _assert_same_matching(run_matching(s, ch, zeta), _ref_run_matching(s, ch, zeta))


def test_best_effort_is_bit_identical_to_the_reference(instances):
    for s, ch, _, _ in instances:
        _assert_same_matching(best_effort_allocate(s, ch), _ref_best_effort_allocate(s, ch))


def test_random_allocation_is_bit_identical_to_the_reference(instances):
    for s, ch, _, seed in instances:
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        _assert_same_matching(
            random_allocate(s, ch, rng_new), _ref_random_allocate(s, ch, rng_old)
        )
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_random_allocation_matches_the_reference_under_other_bit_generators(
    instances, bit_generator
):
    for s, ch, _, seed in instances:
        rng_new, rng_old = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        _assert_same_matching(
            random_allocate(s, ch, rng_new), _ref_random_allocate(s, ch, rng_old)
        )
        # array-aware: MT19937's state holds an ndarray
        np.testing.assert_equal(rng_new.bit_generator.state, rng_old.bit_generator.state)


def test_blocking_pairs_match_the_reference_in_order(instances):
    found = 0
    for s, ch, zeta, seed in instances:
        rng = np.random.default_rng(seed)
        for m in (
            run_matching(s, ch, zeta),
            best_effort_allocate(s, ch),
            random_allocate(s, ch, rng),
            _arbitrary_assignment(s, ch, rng),
        ):
            pairs = find_blocking_pairs(m, s, ch, zeta)
            ref = _ref_find_blocking_pairs(m, s, ch, zeta)
            assert len(pairs) == len(ref)  # counted from the mask, before listing
            assert pairs == ref
            assert all(type(d) is int for d, _ in pairs)
            found += len(pairs)
    assert found > 1000  # the audit had pairs to order, not just empty lists


def test_assignment_of_blocks_of_another_scenario_is_rejected(instances):
    s, ch, _, _ = next(
        inst for inst in instances if inst[0].mmw_band.num_brbs and inst[0].demanders
    )
    # one past the last mmWave block of the first anchor
    b = (s.anchor_ids[0], 0, s.mmw_band.num_brbs)
    with pytest.raises(InconsistentMatchingError, match="not a block of this scenario"):
        matching_from_assignment(s, ch, {ch.demander_ids[0]: {b}})


def test_every_result_keys_its_totals_by_id_in_axis_order(tmp_path):
    """The totals' key order reaches the output bytes: the oracle CSV sums
    ``m.cost.values()`` and ``scbn run`` sums ``m.rate_bps.values()`` left
    to right.  Under demander ids that do not ascend in station order,
    every result lists them as its ``demander_ids``, in axis order."""
    cfg = GenerationConfig(
        num_stations=4, num_anchors=1, num_mmw_brbs=2, num_sub6_brbs=1, demand_bps=1.0
    )
    s = _relabelled(generate_scenario(cfg, seed=0), np.random.default_rng(2), tmp_path / "s.json")
    ids = list(s.demander_ids)
    assert ids != sorted(ids)
    ch = realize_channels(s, np.random.default_rng(0))
    unmet = replace(s, demands_bps=dict.fromkeys(ids, 1e15))
    feasible, infeasible = brute_force_min_cost(s, ch), brute_force_min_cost(unmet, ch)
    assert feasible.feasible and not infeasible.feasible
    results = [
        run_matching(s, ch, 1e5),
        best_effort_allocate(s, ch),
        random_allocate(s, ch, np.random.default_rng(0)),
        feasible.matching,
        infeasible.matching,
        matching_from_assignment(s, ch, {ids[-1]: {(s.anchor_ids[0], 0, 0)}}),
    ]
    for m in results:
        assert list(m.demander_ids) == list(m.rate_bps) == list(m.cost) == ids


# --- proposals past an unaffordable block ---------------------------------------


@pytest.fixture
def cheaper_head_choices(monkeypatch):
    """Records, for each time a demander's best untried block was too dear,
    whether ``_ProposalState.cheaper_head`` found an affordable untried
    block to propose to instead."""
    made: list[bool] = []
    cheaper_head = _ProposalState.cheaper_head

    def recorded(self, *args):
        choice = cheaper_head(self, *args)
        made.append(choice >= 0)
        return choice

    monkeypatch.setattr(_ProposalState, "cheaper_head", recorded)
    return made


@pytest.fixture
def completions(monkeypatch):
    """Records, for each preference order completed, the length of the
    prefix it replaced and whether a scan ran off that prefix (otherwise
    it was completed for ``cheaper_head``); and checks that the whole
    order starts with the prefix and that, when a scan ran off it, the
    whole order's block at ``scan_from`` is untried."""
    made: list[tuple[int, bool]] = []
    complete = _ProposalState.complete

    def recorded(self, order):
        end = len(self.order)
        assert order[:end].tolist() == list(self.order)
        if self.scan_from == end < len(order):
            assert not self.applied[order[end]]
        made.append((end, self.scan_from == end))
        complete(self, order)

    monkeypatch.setattr(_ProposalState, "complete", recorded)
    return made


# trials in which demanders run out of money with many dear blocks untried,
# so that their best untried block is too dear round after round
_BUDGET_BOUND = GenerationConfig(
    area_side_m=1000.0, mmw_blockage_prob=0.12, budget=20.0, sub6_price=10.0
)
_HEAVY_TAIL_TRIALS = (7, 18, 51, 78, 141)


def test_budget_bound_heavy_tail_trials_match_the_reference(cheaper_head_choices):
    base = generate_scenario(_BUDGET_BOUND, seed=0)
    for i in _HEAVY_TAIL_TRIALS:
        rng = np.random.default_rng([0, i])  # the sweep harness's trial stream
        s = resample_positions(base, rng)
        ch = realize_channels(s, rng)
        _assert_same_matching(run_matching(s, ch, 1e5), _ref_run_matching(s, ch, 1e5))
    assert cheaper_head_choices  # the search past a too dear block ran


def test_three_tier_instance_proposes_to_the_best_placed_affordable_head(
    cheaper_head_choices,
):
    """One anchor's dear mmWave blocks lead every preference list, the
    other's mid-priced mmWave blocks come next and the cheap sub-6 blocks
    last.  The budget covers two mid-priced blocks, never a dear one: the
    demanders propose past every dear block to the mid tier's head (placed
    before the cheap tier's), then, with the mid tier out of reach, to the
    cheap tier's head."""
    cfg = GenerationConfig(
        num_stations=4,
        num_anchors=2,
        num_mmw_brbs=3,
        num_sub6_brbs=2,
        mmw_shadow_sigma_db=0.0,
        demand_bps=1e12,
        budget=12.0,
    )
    s = generate_scenario(cfg, seed=0)
    xy = ((100.0, 100.0), (300.0, 100.0), (120.0, 100.0), (140.0, 100.0))
    s = replace(
        s,
        stations=tuple(
            replace(station, x_m=x, y_m=y) for station, (x, y) in zip(s.stations, xy)
        ),
        prices={
            0: {BandKind.MMWAVE: 20.0, BandKind.SUB6: 1.0},
            1: {BandKind.MMWAVE: 5.0, BandKind.SUB6: 1.0},
        },
    )
    t = s.brb_table
    assert t.tiers == (1.0, 5.0, 20.0)
    ch = realize_channels(s, np.random.default_rng(3))
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    assert any(cheaper_head_choices)
    _, rates, _, _ = _flat_view(s, ch)
    for j, d in enumerate(s.demander_ids):
        # the dear blocks rank first, and the mid-priced before the cheap
        assert rates[t.tier == 2, j].min() > rates[t.tier == 1, j].max()
        assert rates[t.tier == 1, j].min() > rates[t.tier == 0, j].max()
        held = t.tier[m.holder == j].tolist()
        assert 2 not in held and 1 in held and 0 in held
        assert m.cost[d] <= s.budgets[d]
    assert find_blocking_pairs(m, s, ch, zeta=0.0) == []


def test_large_k60_trials_match_the_reference():
    base = generate_scenario(
        GenerationConfig(num_stations=60, area_side_m=800.0, demand_bps=1e8), seed=0
    )
    for i in range(5):
        rng = np.random.default_rng([0, i])
        s = resample_positions(base, rng)
        ch = realize_channels(s, rng)
        _assert_same_matching(run_matching(s, ch, 1e6), _ref_run_matching(s, ch, 1e6))


# --- money and utilities in powers of two -----------------------------------------


def _money_scaled(s: Scenario, factor: float) -> Scenario:
    return replace(
        s,
        prices={a: {b: p * factor for b, p in ps.items()} for a, ps in s.prices.items()},
        budgets={d: v * factor for d, v in s.budgets.items()},
    )


@pytest.mark.parametrize(
    "cfg, zeta",
    [
        (GenerationConfig(), 1e6),
        (_BUDGET_BOUND, 1e5),
        (GenerationConfig(num_stations=60, area_side_m=800.0, demand_bps=1e8), 1e6),
    ],
    ids=["reference", "budget-bound", "k60"],
)
def test_scaling_money_by_a_power_of_two_scales_only_the_costs(cfg, zeta):
    """Prices and budgets times 2**k and zeta over 2**k leave every
    utility, every budget test and every tier order as they were, each
    product and comparison exact in binary floating point: every scheme
    grants the same blocks in the same rounds, the audits find as many
    blocking pairs and budget-bound demanders, and each cost is exactly
    2**k times its old value."""
    base = generate_scenario(cfg, seed=0)
    for i in range(8):
        _assert_money_scales_only_the_costs(base, i, zeta, (0.25, 4.0, 2.0**-10))


_REFERENCE = generate_scenario(GenerationConfig(), seed=0)


@given(st.integers(-60, 60), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_scaling_money_by_any_power_of_two_scales_only_the_costs(k, trial):
    """The same relation for any 2**k within [2**-60, 2**60], on a drawn
    trial of the reference shape."""
    _assert_money_scales_only_the_costs(_REFERENCE, trial, 1e6, (2.0**k,))


def _assert_money_scales_only_the_costs(base, trial, zeta, factors):
    rng = np.random.default_rng([0, trial])
    s = resample_positions(base, rng)
    ch = realize_channels(s, rng)
    for scheme in SCHEMES:
        m = run_scheme(scheme, s, ch, zeta, copy.deepcopy(rng))
        pairs = len(find_blocking_pairs(m, s, ch, zeta))
        for factor in factors:
            scaled = _money_scaled(s, factor)
            z = zeta / factor
            mf = run_scheme(scheme, scaled, ch, z, copy.deepcopy(rng))
            assert mf.holder.tolist() == m.holder.tolist()
            assert _bits(mf.rate_bps) == _bits(m.rate_bps)
            assert (mf.rounds, mf.proposals) == (m.rounds, m.proposals)
            assert _bits(mf.cost) == _bits({d: c * factor for d, c in m.cost.items()})
            assert len(find_blocking_pairs(mf, scaled, ch, z)) == pairs
            assert _budget_bound_fraction(scaled, mf) == _budget_bound_fraction(s, m)


def _utility_scaled(s: Scenario, factor: float) -> Scenario:
    return replace(
        s,
        mmw_band=replace(s.mmw_band, brb_bandwidth_hz=s.mmw_band.brb_bandwidth_hz * factor),
        sub6_band=replace(
            s.sub6_band, brb_bandwidth_hz=s.sub6_band.brb_bandwidth_hz * factor
        ),
        demands_bps={d: v * factor for d, v in s.demands_bps.items()},
    )


@pytest.mark.parametrize(
    "cfg, zeta",
    [
        (GenerationConfig(), 1e6),
        (_BUDGET_BOUND, 1e5),
        (GenerationConfig(num_stations=60, area_side_m=800.0, demand_bps=1e8), 1e6),
    ],
    ids=["reference", "budget-bound", "k60"],
)
def test_scaling_utilities_by_a_power_of_two_scales_only_the_rates(cfg, zeta):
    """Both BRB bandwidths, every demand and zeta times 2**k scale every
    rate, demand and utility by 2**k, each product exact in binary
    floating point, and leave every comparison as it was: every scheme
    grants the same blocks in the same rounds at the same costs, the
    audits find as many blocking pairs and budget-bound demanders, and
    each rate is exactly 2**k times its old value."""
    base = generate_scenario(cfg, seed=0)
    for i in range(5):
        rng = np.random.default_rng([0, i])
        s = resample_positions(base, rng)
        drawn = copy.deepcopy(rng)
        ch = realize_channels(s, rng)
        variants = []  # (factor, scenario, the same draw for it)
        for factor in (0.25, 4.0, 2.0**-10, 2.0**20):
            scaled = _utility_scaled(s, factor)
            rng_f = copy.deepcopy(drawn)
            ch_f = realize_channels(scaled, rng_f)
            assert rng_f.bit_generator.state == rng.bit_generator.state
            assert ch_f.gains.tobytes() == ch.gains.tobytes()
            variants.append((factor, scaled, ch_f))
        for scheme in SCHEMES:
            m = run_scheme(scheme, s, ch, zeta, copy.deepcopy(rng))
            pairs = len(find_blocking_pairs(m, s, ch, zeta))
            for factor, scaled, ch_f in variants:
                z = zeta * factor
                mf = run_scheme(scheme, scaled, ch_f, z, copy.deepcopy(rng))
                assert mf.holder.tolist() == m.holder.tolist()
                assert (mf.rounds, mf.proposals) == (m.rounds, m.proposals)
                assert _bits(mf.cost) == _bits(m.cost)
                assert _bits(mf.rate_bps) == _bits(
                    {d: r * factor for d, r in m.rate_bps.items()}
                )
                assert len(find_blocking_pairs(mf, scaled, ch_f, z)) == pairs
                assert _budget_bound_fraction(scaled, mf) == _budget_bound_fraction(s, m)


# --- rounds that repeat the previous one a block further on -----------------------


def _hand_built(gains, n1, prices, budgets, demands):
    """A scenario and realization with the given ``(K1, N, K2)`` gains, of
    which the first ``n1`` BRBs per anchor are mmWave, one (mmWave, sub-6)
    price pair per anchor, and one budget and demand per demander."""
    k1, n, k2 = gains.shape
    s = generate_scenario(
        GenerationConfig(
            num_stations=k1 + k2, num_anchors=k1, num_mmw_brbs=n1, num_sub6_brbs=n - n1
        ),
        seed=0,
    )
    s = replace(
        s,
        prices={
            a: {BandKind.MMWAVE: mmw, BandKind.SUB6: sub6}
            for a, (mmw, sub6) in zip(s.anchor_ids, prices)
        },
        budgets=dict(zip(s.demander_ids, budgets)),
        demands_bps=dict(zip(s.demander_ids, demands)),
    )
    ch = ChannelRealization(
        gains=gains,
        rates=np.zeros_like(gains),
        los=np.ones((k1, k2), dtype=bool),
        num_mmw_brbs=n1,
        anchor_ids=s.anchor_ids,
        demander_ids=s.demander_ids,
        radio=s.radio,
    )
    return s, replace(ch, rates=rate_tensor(s, ch))


@pytest.fixture
def skipped_rounds(monkeypatch):
    """Records how many rounds each call of ``_skip_repeats`` played at once."""
    made: list[int] = []
    skip_repeats = matching._skip_repeats

    def recorded(*args):
        k = skip_repeats(*args)
        made.append(k)
        return k

    monkeypatch.setattr(matching, "_skip_repeats", recorded)
    return made


def _convoy_gains(k2, n, link_gains=(1e-9, 5e-10, 2e-10, 1e-10)):
    """One anchor whose blocks all give demander ``j`` the gain
    ``link_gains[j]``, as its mmWave blocks do under one shared shadowing
    draw."""
    return np.tile(np.array(link_gains[:k2]), (1, n, 1))


_RICH = 1e12  # a budget or demand no test instance reaches


def test_a_class_whose_rows_differ_gets_a_row_per_block(rate_row_lists):
    """Such a class shares no row: each entry is None until the rounds
    read it, and then it is a list of its own, the block's rates."""
    gains = _convoy_gains(3, 8)
    gains[0, 4, 1] = 3e-10  # one demander's rate on one block differs
    s, ch = _hand_built(gains, 8, [(0.1, 1.0)], [_RICH] * 3, [_RICH] * 3)
    run_matching(s, ch, zeta=0.0)
    (rows,) = rate_row_lists
    assert matching._rate_rows(ch.rates, 8) == [None] * 8
    r_flat = _flat_view(s, ch)[1]
    read = [k for k, row in enumerate(rows) if row is not None]
    assert read and len({id(rows[k]) for k in read}) == len(read)
    for k in read:
        assert np.array(rows[k]).tobytes() == r_flat[k].tobytes()
    # equal but NaN rates do not compare equal, so they share no row either
    assert matching._rate_rows(np.full((1, 3, 2), np.nan), 3) == [None] * 3


def _one_convoy():
    """Three demanders on one anchor, each with one gain on all its blocks."""
    return _hand_built(_convoy_gains(3, 9), 8, [(0.1, 1.0)], [_RICH] * 3, [_RICH] * 3)


def test_a_convoy_over_one_mmwave_class_is_skipped_to_its_end(skipped_rounds):
    s, ch = _one_convoy()
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    # the strongest demander takes all eight mmWave blocks, and the seven
    # rounds after the first one repeat it a block further on
    assert m.holder.tolist()[:8] == [0] * 8
    assert max(skipped_rounds) == 7
    assert m.proposals >= 3 * 8


def test_a_run_stops_at_the_end_of_its_class(skipped_rounds):
    """Every block costs the same and gives no rate, so the tie order
    alone ranks them: both anchors' mmWave blocks come before any sub-6
    block, and anchor 0's sub-6 blocks, next to its mmWave blocks on the
    flat axis, are not next in the demander's preferences."""
    s, ch = _hand_built(np.zeros((2, 5, 1)), 2, [(1.0, 1.0)] * 2, [_RICH], [_RICH])
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    assert m.holder.tolist() == [0] * 10
    assert skipped_rounds[0] == 1


def test_a_zero_rate_holding_can_leave_one_blocking_pair():
    """Demander 3 wins sub-6 block (0, 1, 0), cannot afford (2, 1, 0) at
    price 1.0, buys the zero-rate (0, 1, 1) instead and then loses (0, 1, 0)
    to demander 6.  It never releases the zero-rate block, so it ends with
    rate 0 at cost 0.5, and releasing that block would free exactly the
    price of (2, 1, 0): the acceptability rule leaves one blocking pair."""
    gains = np.zeros((3, 9, 4))
    gains[0, 6, 0] = gains[2, 6, 0] = 1e-10
    gains[0, 6, 3] = gains[0, 8, 3] = 1e-11
    gains[2, :6, 3] = 1e-11
    s, ch = _hand_built(
        gains,
        6,
        [(1.0, 0.5), (1.0, 1.0), (2.0, 1.0)],
        [1.0, 0.05, 0.05, 3.0],
        [476564.0, 1e5, 1e5, 18473365.0],
    )
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    assert m.assigned[3] == {(0, 1, 1)}
    assert (m.cost[3], m.rate_bps[3]) == (0.5, 0.0)
    assert (m.rounds, m.proposals) == (3, 6)
    assert find_blocking_pairs(m, s, ch, 0.0) == [(3, (2, 1, 0))]
    assert _ref_find_blocking_pairs(m, s, ch, 0.0) == [(3, (2, 1, 0))]


def test_a_class_whose_rates_differ_mid_class_is_played_round_by_round(skipped_rounds):
    gains = _convoy_gains(3, 8)
    gains[0, 4, 1] = 3e-10  # demander 1 likes block 4 less than its neighbours
    s, ch = _hand_built(gains, 8, [(0.1, 1.0)], [_RICH] * 3, [_RICH] * 3)
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    # the class's rows are not all equal, so no two blocks share a row and
    # no round is skipped
    assert skipped_rounds and not any(skipped_rounds)


def test_two_convoys_on_a_class_whose_rates_step_are_played_round_by_round(
    skipped_rounds,
):
    # demanders 0 and 1 rate all eight blocks alike; demanders 2 and 3
    # rate blocks 3..7 above blocks 0..2, so they start at block 3
    gains = _convoy_gains(4, 8)
    gains[0, 3:, 2:] *= 10.0
    s, ch = _hand_built(gains, 8, [(0.1, 1.0)], [_RICH] * 4, [_RICH] * 4)
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    # the step makes the class's rows differ, so both convoys advance one
    # block per round
    assert skipped_rounds and not any(skipped_rounds)
    assert m.holder.tolist()[:3] == [0] * 3


def test_a_winner_whose_demand_is_met_ends_the_run(skipped_rounds):
    s, ch = _hand_built(_convoy_gains(3, 10), 10, [(0.1, 1.0)], [_RICH] * 3, [_RICH] * 3)
    per_block = float(ch.rates[0, 0, 0])
    s = replace(s, demands_bps={**s.demands_bps, s.demander_ids[0]: 3.5 * per_block})
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    # demander 0 stops after four blocks; demander 1 wins the rest
    assert m.holder.tolist() == [0] * 4 + [1] * 6
    assert skipped_rounds[0] == 3


def test_a_winner_whose_budget_runs_out_exactly_ends_the_run(skipped_rounds):
    # 0.5 per block and a budget of 2.0: the fourth block makes
    # cost + price == budget exactly, which is still affordable
    s, ch = _hand_built(_convoy_gains(3, 10), 10, [(0.5, 1.0)], [2.0, _RICH, _RICH], [_RICH] * 3)
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    assert m.holder.tolist() == [0] * 4 + [1] * 6
    assert m.cost[s.demander_ids[0]] == 2.0
    assert skipped_rounds[0] == 3


def _past_a_dear_block():
    gains = np.zeros((2, 6, 2))
    gains[0, :, 0] = 1e-9   # demander 0: anchor 0 first ...
    gains[1, :, 0] = 5e-10  # ... then anchor 1
    gains[1, :, 1] = 1e-9   # demander 1: anchor 1 first
    return _hand_built(gains, 6, [(20.0, 1.0), (1.0, 1.0)], [4.0, _RICH], [_RICH] * 2)


def test_an_applicant_that_entered_the_class_past_a_dear_block(
    skipped_rounds, cheaper_head_choices
):
    """Anchor 0's dear mmWave blocks lead demander 0's preferences, but
    its budget covers only anchor 1's cheap ones, so its ``scan_from``
    stays on an untried dear block while it follows the convoy on anchor
    1, which demander 1 reaches by scanning."""
    s, ch = _past_a_dear_block()
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    assert any(cheaper_head_choices)
    assert skipped_rounds[0] == 5  # anchor 1's six blocks in two steps
    # demander 1 wins anchor 1's class; demander 0 holds nothing of it
    assert m.holder.tolist()[6:] == [1] * 6


def test_a_displaced_cheaper_head_applicant_returns_to_the_dear_blocks(
    skipped_rounds, cheaper_head_choices
):
    """Demander 0 holds a dear block of anchor 0 and, too poor for a
    second one, follows the convoy on anchor 1 past anchor 0's untried
    dear blocks.  Once demander 2, done with anchor 2, displaces it, the
    dear blocks are affordable again, and it must resume at the first of
    them, where its ``scan_from`` stayed."""
    gains = np.zeros((3, 5, 3))   # anchors 0, 1, 2; four mmWave blocks and one sub-6
    gains[0, :4, 0] = 1e-9        # demander 0: anchor 0's mmWave first ...
    gains[1, :4, 0] = 5e-13       # ... then anchor 1's
    gains[1, 4, 1] = 4e-9         # demander 1: anchor 1's sub-6 block first ...
    gains[1, :4, 1] = 1e-12       # ... then its mmWave
    gains[2, :4, 2] = 1e-7        # demander 2: anchor 2's mmWave first ...
    gains[0, :4, 2] = 1e-8        # ... then anchor 0's, above demander 0
    s, ch = _hand_built(
        gains, 4, [(10.0, 10.0), (1.0, 1.0), (1.0, 1.0)], [11.5, _RICH, _RICH], [_RICH] * 3
    )
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    assert any(cheaper_head_choices)
    # round 2's convoys on anchors 1 and 2 move on together until anchor
    # 2's class ends
    assert skipped_rounds[:2] == [0, 2]


# --- rounds that repeat a rejection a block further on ----------------------------


def _two_classes(d1_on_class_0, d0_demand_blocks):
    """Two anchors of eight mmWave blocks.  Demander 0 wants anchor 0 and
    nothing of anchor 1, with a demand met after ``d0_demand_blocks``
    blocks; demander 1 wants anchor 1 first and then anchor 0 at the gain
    ``d1_on_class_0``.  Both classes go to convoys in the first round, so
    demander 1 reaches anchor 0 after demander 0 took what it wanted."""
    gains = np.zeros((2, 8, 2))
    gains[0, :, 0] = 5e-10
    gains[1, :, 1] = 1e-9
    gains[0, :, 1] = d1_on_class_0
    s, ch = _hand_built(gains, 8, [(0.1, 1.0)] * 2, [_RICH] * 2, [_RICH] * 2)
    per_block = float(ch.rates[0, 0, 0])
    demand = (d0_demand_blocks - 0.5) * per_block
    return replace(s, demands_bps={**s.demands_bps, s.demander_ids[0]: demand}), ch


def test_a_class_held_by_a_stronger_demander_is_skipped_in_one_step(skipped_rounds):
    s, ch = _two_classes(2e-10, 8)
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    assert m.holder.tolist() == [0] * 8 + [1] * 8
    # both convoys, then demander 1 refused by anchor 0's eight blocks:
    # the first refusal is played, the seven after it skipped at once
    assert skipped_rounds == [7, 7]
    assert (m.rounds, m.proposals) == (16, 24)


def test_an_equal_rate_keeps_the_block_and_the_rejection_run_goes_on(skipped_rounds):
    s, ch = _two_classes(5e-10, 8)
    assert ch.rates[0, 0, 1] == ch.rates[0, 0, 0]
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    # a tie keeps the incumbent, on every block of the class
    assert m.holder.tolist() == [0] * 8 + [1] * 8
    assert skipped_rounds == [7, 7]


def test_a_rejection_run_ends_at_a_free_block(skipped_rounds):
    s, ch = _two_classes(2e-10, 5)
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    # demander 0 stops after five blocks of anchor 0; demander 1, refused
    # by those five, takes the three free ones in a convoy of its own
    assert m.holder.tolist() == [0] * 5 + [1] * 3 + [1] * 8
    assert skipped_rounds == [4, 2, 4, 2]


def test_a_rejection_run_ends_where_a_second_holder_rates_below_it(skipped_rounds):
    """Demander 0 takes anchor 0's blocks 0..3 and stops; demander 2, the
    convoy's loser, takes blocks 4..7.  Demander 1 comes from anchor 1 and
    is refused by demander 0's blocks, but outrates demander 2."""
    gains = np.zeros((2, 8, 3))
    gains[0, :, 0] = 1e-9
    gains[1, :, 1] = 1e-9
    gains[0, :, 1] = 5e-10
    gains[0, :, 2] = 2e-10
    s, ch = _hand_built(gains, 8, [(0.1, 1.0)] * 2, [_RICH] * 3, [_RICH] * 3)
    per_block = float(ch.rates[0, 0, 0])
    s = replace(s, demands_bps={**s.demands_bps, s.demander_ids[0]: 3.5 * per_block})
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    # two convoys twice, then demander 1's refusals stop at block 4, which
    # it takes from demander 2
    assert skipped_rounds[:3] == [3, 3, 3]
    assert m.holder.tolist() == [0] * 4 + [1] * 4 + [1] * 8


def _convoy_and_rejection():
    gains = np.zeros((3, 8, 2))
    gains[0, :, 0] = 1e-9
    gains[2, :, 0] = 5e-10
    gains[1, :, 1] = 1e-9
    gains[0, :, 1] = 5e-10
    return _hand_built(gains, 8, [(0.1, 1.0)] * 3, [_RICH] * 2, [_RICH] * 2)


def test_a_round_of_one_convoy_and_one_rejection_is_skipped_together(skipped_rounds):
    """Demander 0 wants anchor 0, then anchor 2; demander 1 wants anchor 1,
    then anchor 0.  In the ninth round demander 0 starts a convoy on anchor
    2 while demander 1 is refused by anchor 0, and both repeat."""
    s, ch = _convoy_and_rejection()
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    assert m.holder.tolist() == [0] * 8 + [1] * 8 + [0] * 8
    # then each is refused by the other's class
    assert skipped_rounds == [7, 7, 7]


def _refused_after_a_dear_block():
    gains = np.zeros((3, 6, 2))
    gains[0, :, 0] = 1e-9
    gains[2, :, 0] = 5e-10
    gains[1, :, 0] = 2e-10
    gains[1, :, 1] = 1e-9
    return _hand_built(
        gains, 6, [(20.0, 1.0), (1.0, 1.0), (1.0, 1.0)], [10.0, _RICH], [_RICH] * 2
    )


def test_an_applicant_refused_after_a_dear_block_moves_its_tier_head(
    skipped_rounds, cheaper_head_choices
):
    """Anchor 0's dear blocks lead demander 0's preferences, and its
    budget covers only the cheap ones: it takes anchor 2's class through
    :meth:`_ProposalState.cheaper_head`, then goes on to anchor 1's, held
    by demander 1, with its ``scan_from`` still on the first dear block."""
    s, ch = _refused_after_a_dear_block()
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    assert any(cheaper_head_choices)
    # two convoys, then two refusals (demander 0 on anchor 1, demander 1
    # on anchor 2), then demander 1 takes anchor 0's dear class
    assert skipped_rounds == [5, 5, 5]
    assert m.holder.tolist() == [1] * 6 + [1] * 6 + [0] * 6
    assert m.cost[s.demander_ids[0]] == 6.0


# --- swaps in the tier-table audit ------------------------------------------------


def _three_tier_holding(gains, budget, held):
    """Three anchors of two blocks each, priced 1, 5 and 20, and one
    demander whose demand is met, holding the flat blocks ``held``: its
    only blocking pairs are swaps."""
    prices = [(1.0, 1.0), (5.0, 5.0), (20.0, 20.0)]
    s, ch = _hand_built(gains.reshape(3, 2, 1), 2, prices, [budget], [1.0])
    holder = np.full(6, -1)
    holder[list(held)] = 0
    t, rates, _, _ = matching._flat_view(s, ch)
    totals = matching._held_totals(t, rates, holder)
    m = Matching._built(holder, t, ch.demander_ids, *totals)
    assert s.brb_table.tiers == (1.0, 5.0, 20.0)
    return s, ch, m


def _blocks_in_pairs(s, ch, m) -> list[int]:
    pairs = find_blocking_pairs(m, s, ch, zeta=0.0)
    assert pairs == _ref_find_blocking_pairs(m, s, ch, zeta=0.0)
    keys = s.brb_table.keys
    return sorted(keys.index(b) for _, b in pairs)


def test_a_swap_can_release_a_block_of_a_dearer_tier_than_it_needs():
    """Holding a strong price-1 block and a weak price-20 one at cost 21
    within a budget of 23, a price-5 block (excess 3) needs a release of
    price 3 or more.  No price-5 block is held, so only the weak price-20
    block, a dearer tier, frees the money: the suffix minimum over the
    tiers at least as dear as the excess finds it."""
    gains = np.array([1e-6, 1e-6, 1e-8, 1e-8, 1e-10, 1e-10])
    s, ch, m = _three_tier_holding(gains, 23.0, held=(0, 4))
    assert m.cost[s.demander_ids[0]] == 21.0
    # the price-1 block 1 (excess -1) and the price-5 blocks 2 and 3 (excess
    # 3) swap for block 4; the price-20 block 5 (excess 18) gains nothing
    assert _blocks_in_pairs(s, ch, m) == [1, 2, 3]


def test_a_swap_whose_excess_equals_a_tier_price_is_within_budget():
    """Holding a price-1 and a weak price-5 block at cost 6 with a budget
    of 6, the stronger price-5 block 3 costs exactly 5 too many: releasing
    the weak one leaves the cost at 6, within budget, so it blocks."""
    gains = np.array([1e-6, 1e-6, 1e-10, 1e-8, 1e-10, 1e-10])
    s, ch, m = _three_tier_holding(gains, 6.0, held=(0, 2))
    assert m.cost[s.demander_ids[0]] == 6.0
    # the price-1 block 1 (excess 1) swaps for the weak block too
    assert _blocks_in_pairs(s, ch, m) == [1, 3]


# --- best effort on hand-built edge cases -----------------------------------------


def _best_effort_against_the_reference(s, ch) -> Matching:
    m = best_effort_allocate(s, ch)
    _assert_same_matching(m, _ref_best_effort_allocate(s, ch))
    return m


def test_best_effort_with_zero_demand_asks_for_nothing():
    gains = np.full((1, 3, 2), 1e-9)
    s, ch = _hand_built(gains, 3, [(0.1, 0.1)], [5.0, 5.0], [0.0, 0.0])
    m = _best_effort_against_the_reference(s, ch)
    assert m.holder.tolist() == [-1, -1, -1]
    assert list(m.cost.values()) == [0.0, 0.0]


def test_best_effort_demander_without_a_usable_link_buys_nothing():
    gains = np.full((1, 3, 2), 1e-9)
    gains[..., 0] = 0.0  # demander axis 0 sees no rate anywhere
    s, ch = _hand_built(gains, 3, [(0.1, 0.1)], [5.0, 5.0], [1e12, 1e12])
    m = _best_effort_against_the_reference(s, ch)
    assert m.holder.tolist() == [1, 1, 1]
    assert m.rate_bps[s.demander_ids[0]] == 0.0


def test_best_effort_tie_on_a_block_goes_to_the_lower_axis():
    gains = np.full((1, 2, 2), 1e-9)  # both demanders equally strong everywhere
    s, ch = _hand_built(gains, 2, [(0.1, 0.1)], [5.0, 5.0], [1e12, 1e12])
    m = _best_effort_against_the_reference(s, ch)
    assert m.holder.tolist() == [0, 0]
    assert m.cost[s.demander_ids[1]] == 0.0


def test_best_effort_tie_goes_to_the_lower_axis_not_the_lower_id():
    # ids (9, 4) in station order: best effort gives both tied blocks to
    # axis 0 (id 9), while the matching ranks a tie by id and picks id 4
    gains = np.full((1, 2, 2), 1e-9)
    s, ch = _hand_built(gains, 2, [(0.1, 0.1)], [5.0, 5.0], [1e12, 1e12])
    anchor, *demanders = s.stations
    s = replace(
        s,
        stations=(anchor, *(replace(b, id=d) for b, d in zip(demanders, (9, 4)))),
        budgets={9: 5.0, 4: 5.0},
        demands_bps={9: 1e12, 4: 1e12},
    )
    ch = replace(ch, demander_ids=(9, 4))
    assert _best_effort_against_the_reference(s, ch).holder.tolist() == [0, 0]
    assert run_matching(s, ch, 0.0).holder.tolist() == [1, 1]


def test_best_effort_keeps_every_block_when_the_budget_is_the_exact_price_sum():
    gains = np.full((1, 3, 1), 1e-9)
    budget = 0.1 + 0.1 + 0.1  # 0.30000000000000004, the running cost
    s, ch = _hand_built(gains, 3, [(0.1, 0.1)], [budget], [1e12])
    m = _best_effort_against_the_reference(s, ch)
    assert m.holder.tolist() == [0, 0, 0]
    assert m.cost[s.demander_ids[0]] == budget


def test_best_effort_stops_buying_at_a_dear_block_before_a_cheaper_one():
    # one block per anchor, asked for in the order cheap, dear, cheap: the
    # purchase ends at the dear block, and the cheap block after it, which
    # the budget would cover, stays free
    gains = np.array([1e-9, 5e-10, 2e-10]).reshape(3, 1, 1)
    s, ch = _hand_built(gains, 1, [(0.1, 0.1), (10.0, 10.0), (0.1, 0.1)], [1.0], [1e12])
    m = _best_effort_against_the_reference(s, ch)
    assert m.holder.tolist() == [0, -1, -1]
    assert m.cost[s.demander_ids[0]] == 0.1


# --- property test over random small instances ------------------------------------


class _HypothesisDraws:
    """The draws of :func:`_small_instance`, made by a Hypothesis ``draw``."""

    def __init__(self, draw):
        self.draw = draw

    def integer(self, low, high):
        return self.draw(st.integers(low, high))

    def choice(self, values):
        return self.draw(st.sampled_from(values))

    def real(self, low, high):
        return self.draw(st.floats(low, high))


class _NumpyDraws:
    """The draws of :func:`_small_instance`, made by a seeded numpy generator."""

    def __init__(self, rng):
        self.rng = rng

    def integer(self, low, high):
        return int(self.rng.integers(low, high + 1))

    def choice(self, values):
        return values[int(self.rng.integers(len(values)))]

    def real(self, low, high):
        return float(self.rng.uniform(low, high))


def _small_instance(draws):
    """A small scenario with per-anchor prices, per-demander budgets that
    may be below its cheapest block, bands that may be empty, and gains
    drawn from a few levels, so that equal rates are common.  Sub-6 gains
    are drawn per block.  Much as in the channel model, the mmWave blocks
    of a link share its gain: over the whole class in about two classes
    of three, which are then uniform, so that demanders march down them
    together.  In the others each link's gain may change at a step of its
    own; a step that changes a gain makes the class's rows differ, and its
    rounds are played one by one, with a second group starting
    mid-class."""
    k1, k2 = draws.integer(1, 3), draws.integer(1, 4)
    n1, n2 = draws.integer(0, 8), draws.integer(0, 3)
    if n1 + n2 == 0:
        n1 = 1  # a zero-supply band, but some supply overall
    levels = (0.0, 1e-11, 1e-10, 1e-9)
    gains = np.array(
        [draws.choice(levels) for _ in range(k1 * (n1 + n2) * k2)], dtype=float
    ).reshape(k1, n1 + n2, k2)
    for a in range(k1 if n1 else 0):
        stepped = draws.integer(0, 2) == 0
        for j in range(k2):
            step = draws.integer(0, n1) if stepped else 0
            gains[a, :step, j] = gains[a, 0, j]
            gains[a, step:n1, j] = gains[a, n1 - 1, j]

    def budget():
        if draws.integer(0, 1):
            return draws.real(0.01, 30.0)
        return draws.choice((0.05,) + _ROUND_BUDGETS)

    s, ch = _hand_built(
        gains,
        n1,
        [(draws.choice(_PRICES), draws.choice(_PRICES)) for _ in range(k1)],
        [budget() for _ in range(k2)],
        [draws.real(1e5, 400e6) for _ in range(k2)],
    )
    zeta = draws.choice((0.0, 1e5, 1e6))
    return s, ch, zeta, draws.integer(0, 2**31)


def _check_guarantees(instance) -> None:
    """Every scheme matches its reference on ``instance``, stays within
    budget and is audited alike; the matching is stable and its rounds
    and proposals are bounded."""
    s, ch, zeta, seed = instance
    m = run_matching(s, ch, zeta)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta))
    best_m = best_effort_allocate(s, ch)
    _assert_same_matching(best_m, _ref_best_effort_allocate(s, ch))
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    random_m = random_allocate(s, ch, rng_new)
    _assert_same_matching(random_m, _ref_random_allocate(s, ch, rng_old))
    assert rng_new.bit_generator.state == rng_old.bit_generator.state

    assert find_blocking_pairs(m, s, ch, zeta) == []
    for scheme in (m, best_m, random_m):
        assert all(scheme.cost[d] <= s.budgets[d] for d in s.demander_ids)
        pairs = find_blocking_pairs(scheme, s, ch, zeta)
        ref = _ref_find_blocking_pairs(scheme, s, ch, zeta)
        # the count and truth value come from the mask, before any listing
        assert len(pairs) == len(ref)
        assert bool(pairs) == bool(ref)
        assert list(pairs) == ref
    k2, brbs = len(s.demander_ids), len(s.brb_table.price)
    assert m.rounds <= m.proposals <= k2 * brbs


@st.composite
def _small_instances(draw):
    return _small_instance(_HypothesisDraws(draw))


@given(_small_instances())
def test_schemes_keep_their_guarantees_on_small_instances(instance):
    _check_guarantees(instance)


# 97 of the corpus's 200 instances reach a skipped round; of the 137 in
# which a demander's best untried block is too dear, 75 propose past it to
# a cheaper block and 134 find none to afford.  In 63 a scan runs off a
# non-empty preference prefix, and in 40 an order is completed for the
# search past a too dear block.  Each floor is about half its count, low
# enough for edits that move a few instances
_CORPUS_SIZE = 200
_CORPUS_FAST_FORWARD_FLOOR = 48
_CORPUS_CHEAPER_PICK_FLOOR = 37
_CORPUS_CHEAPER_REFUSAL_FLOOR = 67
_CORPUS_RAN_OFF_PREFIX_FLOOR = 31
_CORPUS_COMPLETED_FOR_SEARCH_FLOOR = 20
# and 395 rounds of the corpus end in a convoy on a uniform mmWave class
_CORPUS_CONVOY_FLOOR = 197


def test_schemes_keep_their_guarantees_on_a_fixed_corpus(
    skipped_rounds, cheaper_head_choices, completions
):
    """The same checks on instances drawn from a seeded numpy generator,
    which no edit elsewhere moves, unlike Hypothesis's derandomized
    examples; the corpus must keep reaching the fast-forward, both
    outcomes of the search past a too dear block, and both ways a
    preference prefix is completed."""
    rng = np.random.default_rng(0x5CB)
    reached = picked = refused = ran_off = for_search = 0
    for _ in range(_CORPUS_SIZE):
        skipped_before, choices_before = sum(skipped_rounds), len(cheaper_head_choices)
        completed_before = len(completions)
        _check_guarantees(_small_instance(_NumpyDraws(rng)))
        reached += sum(skipped_rounds) > skipped_before
        choices = cheaper_head_choices[choices_before:]
        picked += any(choices)
        refused += not all(choices)
        completed = completions[completed_before:]
        ran_off += any(end > 0 and off for end, off in completed)
        for_search += not all(off for _, off in completed)
    assert reached >= _CORPUS_FAST_FORWARD_FLOOR
    assert picked >= _CORPUS_CHEAPER_PICK_FLOOR
    assert refused >= _CORPUS_CHEAPER_REFUSAL_FLOOR
    assert ran_off >= _CORPUS_RAN_OFF_PREFIX_FLOOR
    assert for_search >= _CORPUS_COMPLETED_FOR_SEARCH_FLOOR


def _uniform_classes(s, ch) -> list[range]:
    """The flat blocks of each mmWave class whose rates are bitwise equal
    across its blocks and free of NaN."""
    n, n1 = s.brbs_per_anchor, s.mmw_band.num_brbs
    return [
        range(a * n, a * n + n1)
        for a, mmw in enumerate(ch.rates[:, :n1])
        if n1 and mmw.tobytes() == mmw[0].tobytes() * n1 and not np.isnan(mmw).any()
    ]


def test_held_blocks_of_a_uniform_class_form_a_prefix_on_a_fixed_corpus(monkeypatch):
    """What bounds a fast-forward run by its class's end: at every call of
    ``_skip_repeats``, every block after a convoy's block in its uniform
    class is free, and in every final matching the held blocks of each
    uniform class form a prefix of it."""
    skip_repeats = matching._skip_repeats
    classes: list[range] = []
    convoys = 0

    def checked(groups, states, holder, *args):
        nonlocal convoys
        for m, applicants in groups.items():
            for c in classes:
                if holder[m] in applicants and m in c:
                    convoys += 1
                    assert all(h < 0 for h in holder[m + 1 : c.stop])
        return skip_repeats(groups, states, holder, *args)

    monkeypatch.setattr(matching, "_skip_repeats", checked)
    rng = np.random.default_rng(0x5CB)
    for _ in range(_CORPUS_SIZE):
        s, ch, zeta, _ = _small_instance(_NumpyDraws(rng))
        classes = _uniform_classes(s, ch)
        m = run_matching(s, ch, zeta)
        for c in classes:
            held = (m.holder[c.start : c.stop] >= 0).tolist()
            assert held == sorted(held, reverse=True)
    assert convoys >= _CORPUS_CONVOY_FLOOR


def test_the_fast_forward_skips_the_same_rounds_on_the_bench_shapes(skipped_rounds):
    """The calls of ``_skip_repeats`` and the rounds they skip over 40
    reference and 40 budget-bound trials at seed 0, pinned: a misread
    convoy or rejection that still ends in the right matching shows here
    as other counts."""
    counts = []
    for cfg, zeta in ((GenerationConfig(), 1e6), (_BUDGET_BOUND, 1e5)):
        base = generate_scenario(cfg, seed=0)
        calls, skipped = len(skipped_rounds), sum(skipped_rounds)
        for i in range(40):
            rng = np.random.default_rng([0, i])  # the sweep harness's trial stream
            s = resample_positions(base, rng)
            run_matching(s, realize_channels(s, rng), zeta)
        counts.append((len(skipped_rounds) - calls, sum(skipped_rounds) - skipped))
    assert counts == [(537, 14267), (377, 10398)]


# --- one proposal at a time: a second schedule --------------------------------------


def _tie_free(ch) -> bool:
    """Whether no two demanders have an equal rate on one block."""
    rates = np.sort(ch.rates.reshape(-1, ch.rates.shape[2]), axis=1)
    return not (rates[:, 1:] == rates[:, :-1]).any()


# 69 of the corpus's 200 instances are tie-free, and 14 of the 21 others;
# the floor leaves room for edits that move a few
_SCHEDULE_CASES_FLOOR = 64


@pytest.fixture(scope="module")
def schedule_cases():
    """``(s, ch, zeta, holder, proposals)`` of run_matching on tie-free
    instances: the fixed corpus's, the first five reference and seven
    budget-bound trials and the five heavy-tail budget-bound ones (which
    reach ``cheaper_head``), and the hand-built convoy and ``cheaper_head``
    cases, all of them tie-free."""
    rng = np.random.default_rng(0x5CB)
    instances = [_small_instance(_NumpyDraws(rng))[:3] for _ in range(_CORPUS_SIZE)]
    for cfg, zeta, trials in (
        (GenerationConfig(), 1e6, range(5)),
        (_BUDGET_BOUND, 1e5, (*range(7), *_HEAVY_TAIL_TRIALS)),
    ):
        base = generate_scenario(cfg, seed=0)
        for i in trials:
            rng = np.random.default_rng([0, i])
            s = resample_positions(base, rng)
            instances.append((s, realize_channels(s, rng), zeta))
    hand_built = [
        _one_convoy(), _convoy_and_rejection(), _past_a_dear_block(),
        _refused_after_a_dear_block(),
    ]
    assert all(_tie_free(ch) for _, ch in hand_built)
    cases = []
    for s, ch, zeta in instances + [(s, ch, 0.0) for s, ch in hand_built]:
        if _tie_free(ch):
            m = run_matching(s, ch, zeta)
            cases.append((s, ch, zeta, m.holder.tolist(), m.proposals))
    return cases


@settings(max_examples=6)
@given(data=st.data())
def test_one_proposal_at_a_time_gives_the_same_holders_and_proposals(schedule_cases, data):
    """On instances where no two demanders rate a block alike, the
    batch rounds of run_matching and ``reference_model.sequential_matching``,
    which plays one proposal per turn from a queue in any initial order and
    shares no code with the shortcuts, give the same holders and the same
    count of proposals.  A failure is either a shortcut's bug or an instance
    whose outcome depends on the schedule; pin it and say which."""
    assert len(schedule_cases) >= _SCHEDULE_CASES_FLOOR
    for s, ch, zeta, holder, proposals in schedule_cases:
        order = data.draw(st.permutations(range(len(s.demander_ids))))
        assert ref.sequential_matching(s, ch, zeta, order) == (holder, proposals)


# --- preference prefixes ------------------------------------------------------------


def _checked_prefixes(s, ch, zeta) -> list[list[int]]:
    """Each demander's preference prefix, held to the first positions of
    the stable argsort of its whole utility row, which run_matching once
    made for every demander before the rounds, and with its completed
    order held to that whole row."""
    t, r_flat, _, _ = _flat_view(s, ch)
    n, n1 = s.brbs_per_anchor, s.mmw_band.num_brbs
    u_flat = r_flat - zeta * t.price[:, None]
    ties = t.tie_order
    whole = ties[np.argsort(-u_flat[ties].T, axis=1, kind="stable")]
    rows = matching._rate_rows(ch.rates, n1)
    prefixes, full = matching._preferences(t, u_flat, rows, n, n1)
    assert len(prefixes) == len(whole)
    for j, prefix in enumerate(prefixes):
        assert list(prefix) == whole[j, : len(prefix)].tolist()
        assert full(j).tolist() == whole[j].tolist()
    return [list(p) for p in prefixes]


@pytest.mark.parametrize(
    "cfg, zeta",
    [
        (GenerationConfig(), 1e6),
        (_BUDGET_BOUND, 1e5),
        (GenerationConfig(num_stations=60, area_side_m=800.0, demand_bps=1e8), 1e6),
    ],
    ids=["reference", "budget-bound", "k60"],
)
def test_each_prefix_starts_the_whole_order_on_the_bench_shapes(cfg, zeta):
    base = generate_scenario(cfg, seed=0)
    lengths = []
    for i in range(3):
        rng = np.random.default_rng([0, i])
        s = resample_positions(base, rng)
        lengths += map(len, _checked_prefixes(s, realize_channels(s, rng), zeta))
    # some orders start with a class, none is whole (there are sub-6 blocks)
    assert 0 < max(lengths) < len(base.brb_table.price)


def test_each_prefix_starts_the_whole_order_on_a_fixed_corpus(instances):
    """On the fixed corpus and the differential instances; some order has
    a non-empty prefix in 134 of the corpus's 200 instances and in 204 of
    the 240 others, and the floor is about half of that."""
    rng = np.random.default_rng(0x5CB)
    corpus = [_small_instance(_NumpyDraws(rng)) for _ in range(_CORPUS_SIZE)]
    started = 0
    for s, ch, zeta, _ in corpus + instances:
        started += any(_checked_prefixes(s, ch, zeta))
    assert started >= 169


def _with_rates(shape, n1, prices, rates, tmp_path=None):
    """A scenario of ``shape`` (K1, N, K2) anchors, blocks per anchor and
    demanders, of which the first ``n1`` blocks are mmWave, with one
    (mmWave, sub-6) price pair per anchor, and a realization whose rates
    are ``rates``.  With ``tmp_path``, the anchors get descending ids (see
    :func:`_relabelled`)."""
    k1, _, k2 = shape
    s, _ = _hand_built(np.zeros(shape), n1, prices, [1e9] * k2, [1e12] * k2)
    if tmp_path is not None:
        s = _relabelled(s, np.random.default_rng(1), tmp_path / "relabelled.json")
    ch = ChannelRealization(
        gains=np.zeros(shape),
        rates=np.array(rates, dtype=float).reshape(shape),
        los=np.ones((k1, k2), dtype=bool),
        num_mmw_brbs=n1,
        anchor_ids=s.anchor_ids,
        demander_ids=s.demander_ids,
        radio=s.radio,
    )
    return s, ch


_EVEN = ((1.0, 1.0), (1.0, 1.0))


def test_without_sub6_blocks_the_prefix_is_the_whole_order():
    """With no block outside the classes the prefix is every class, so
    the search past a too dear class reads an order that is never
    completed: the better class (price 2) does not fit the budget of 1,
    and the demander takes one block of the other (price 1) instead."""
    gains = np.array([1e-9, 1e-9, 1e-10, 1e-10]).reshape(2, 2, 1)
    s, ch = _hand_built(gains, 2, ((2.0, 1.0), (1.0, 1.0)), [1.0], [1e12])
    assert _checked_prefixes(s, ch, 0.0) == [[0, 1, 2, 3]]
    m = run_matching(s, ch, 0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, 0.0))
    assert m.holder.tolist() == [-1, -1, 0, -1]


def test_without_mmwave_blocks_every_prefix_is_empty():
    s, ch = _with_rates((2, 2, 2), 0, _EVEN, [3, 4, 5, 6, 7, 8, 9, 1])
    assert _checked_prefixes(s, ch, 0.0) == [[], []]


def test_a_class_whose_rows_differ_leaves_every_prefix_empty():
    # anchor 0's class steps at its second block; anchor 1's is uniform
    # and beats every sub-6 block, but its prefix waits too
    rates = [[5, 5], [5, 6], [9, 9], [7, 7], [7, 7], [1, 1]]
    s, ch = _with_rates((2, 3, 2), 2, _EVEN, rates)
    assert _checked_prefixes(s, ch, 0.0) == [[], []]


def test_a_nan_leaves_its_prefixes_empty():
    # a class with a NaN rate is not uniform, so no order has a prefix
    rates = [[np.nan, 5], [np.nan, 5], [1, 1], [7, 7], [7, 7], [1, 1]]
    s, ch = _with_rates((2, 3, 2), 2, _EVEN, rates)
    assert _checked_prefixes(s, ch, 0.0) == [[], []]
    # a NaN sub-6 rate leaves no best block outside the classes to beat
    # for its demander alone
    rates = [[5, 5], [5, 5], [np.nan, 1], [7, 7], [7, 7], [1, 1]]
    s, ch = _with_rates((2, 3, 2), 2, _EVEN, rates)
    assert _checked_prefixes(s, ch, 0.0) == [[], [3, 4, 0, 1]]


def _audited(gains, budgets, held):
    """The audit of ``held`` on the hand-built single-anchor mmWave blocks
    of ``gains``, priced 1, with demands no holder meets, and the
    reference audit's pairs."""
    s, ch = _hand_built(gains, gains.shape[1], [(1.0, 1.0)], budgets, [_RICH] * len(budgets))
    holder = np.array(held)
    t, rates, _, _ = matching._flat_view(s, ch)
    m = Matching._built(holder, t, ch.demander_ids, *matching._held_totals(t, rates, holder))
    pairs = find_blocking_pairs(m, s, ch, zeta=0.0)
    return s, pairs, _ref_find_blocking_pairs(m, s, ch, zeta=0.0)


_NAN_HOLDERS = {
    "free": (-1, 1, -1),
    "held": (1, 1, -1),
    "nan-held-beside-another": (0, 1, -1),
    "nan-held-alone": (0, -1, -1),
    "two-nan-held": (0, 0, -1),
}


@pytest.mark.parametrize("held", list(_NAN_HOLDERS.values()), ids=list(_NAN_HOLDERS))
def test_a_nan_rate_blocks_in_the_audit_as_in_the_reference(held):
    """Demander 0 rates blocks 0 and 1 NaN, and both demanders may still
    add any block.  Free, block 0 takes either demander, NaN rate or not,
    so the audit's folds, which a NaN passes neither, must not decide it.
    Held by demander 1, a block is taken by a higher rate only, which a
    NaN is not.  Holding a NaN-rated block, demander 0 has a NaN rate, so
    adds nothing, and swaps nothing out, as no utility is above NaN; the
    audit's least held utility, NaN there, must raise no warning."""
    gains = np.full((1, 3, 2), 1e-10)
    gains[0, :2, 0] = np.nan
    s, pairs, ref_pairs = _audited(gains, [_RICH] * 2, held)
    assert pairs == ref_pairs
    d0, d1 = s.demander_ids
    takers = (d1,) if 0 in held else (d0, d1)
    free = [k for k in range(3) if held[k] < 0]
    assert pairs == [(d, s.brb_table.keys[k]) for d in takers for k in free]


def test_a_held_nan_utility_hides_no_other_from_the_swap_test():
    """Demander 0 holds block 0, rated NaN, and block 1, and its budget
    takes no third block, so it takes block 3, which it rates highest, only
    by a swap: block 1's utility is strictly below, and block 0's NaN must
    not hide it."""
    gains = np.full((1, 4, 2), 1e-10)
    gains[0, 0, 0] = np.nan
    gains[0, 3, 0] = 1e-6
    s, pairs, ref_pairs = _audited(gains, [2.0, _RICH], (0, 0, -1, -1))
    assert pairs == ref_pairs
    assert (s.demander_ids[0], s.brb_table.keys[3]) in pairs


def test_a_class_that_ties_the_best_sub6_block_stays_out_of_the_prefix():
    """Anchor 0's class rates 5, as does its sub-6 block, which is cheaper
    and so ranks first among the three; only anchor 1's class, at 7, is
    strictly above it."""
    prices = ((1.0, 0.5), (1.0, 0.5))
    s, ch = _with_rates((2, 3, 1), 2, prices, [5, 5, 5, 7, 7, 4])
    assert _checked_prefixes(s, ch, 0.0) == [[3, 4]]


def test_classes_of_equal_utility_keep_the_tie_order(tmp_path):
    """Two classes of one utility above every sub-6 block enter the prefix
    in the tie order: the cheaper class first, and at one price the one of
    the lower owner id, although its anchor axis is the higher."""
    rates = [7, 7, 1, 7, 7, 1]
    s, ch = _with_rates((2, 3, 1), 2, ((2.0, 1.0), (1.0, 1.0)), rates)
    assert _checked_prefixes(s, ch, 0.0) == [[3, 4, 0, 1]]
    s, ch = _with_rates((2, 3, 1), 2, _EVEN, rates, tmp_path)
    assert s.anchor_ids[0] > s.anchor_ids[1]
    assert _checked_prefixes(s, ch, 0.0) == [[3, 4, 0, 1]]
