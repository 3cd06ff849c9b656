"""Differential tests: the table-driven schemes and audit against the
loop-and-tuple implementations they replaced.

The ``_ref_*`` functions below are the earlier ``run_matching``,
``find_blocking_pairs``, ``best_effort_allocate`` and ``random_allocate``
(with their helpers), copied unchanged apart from the names and the
record they return, ``_RefMatching``, which keeps the allocation as the
``assigned`` and ``owner_of`` dicts those versions built.  They rebuild
every ``Brb`` on each call and sort pairs by tuple key.  On random
instances the current functions must give the very same results: the same
pairs in the same order, the same holders, bit-identical rates and costs,
the same round and proposal counts, and the same generator state after the
random baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import reference_model as ref

from scbn import matching
from scbn.baselines import best_effort_allocate, random_allocate
from scbn.matching import (
    Brb,
    InconsistentMatchingError,
    Matching,
    _flat_view,
    _ProposalState,
    brb_table,
    find_blocking_pairs,
    matching_from_assignment,
    run_matching,
)
from scbn.propagation import (
    ChannelRealization,
    radio_settings,
    rate_tensor,
    realize_channels,
)
from scbn.scenario import (
    BandKind,
    GenerationConfig,
    PriceSchedule,
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


def _ref_scenario_brbs(s: Scenario) -> tuple[Brb, ...]:
    """All K1 * (N1 + N2) BRBs, sorted by (owner, band, index), mmWave first."""
    out: list[Brb] = []
    for anchor in s.anchors:
        for band in (s.mmw_band, s.sub6_band):
            price = s.prices.per_anchor[anchor.id][band.kind]
            for idx in range(band.num_brbs):
                out.append(
                    Brb(
                        owner=anchor.id,
                        band=band.kind,
                        index=idx,
                        bandwidth_hz=band.brb_bandwidth_hz,
                        price=price,
                    )
                )
    return tuple(out)



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
    brbs = _ref_scenario_brbs(s)
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
    seen: dict[Brb, int] = {}
    for d, brbs in m.assigned.items():
        if d not in ch.demander_ids:
            raise InconsistentMatchingError(f"unknown demander id {d}")
        for b in brbs:
            if b in seen:
                raise InconsistentMatchingError(
                    f"BRB {b.key()} assigned to both {seen[b]} and {d}"
                )
            seen[b] = d
            if b.owner not in ch.anchor_ids:
                raise InconsistentMatchingError(f"BRB {b.key()} has unknown owner")
    for b, d in m.owner_of.items():
        if seen.get(b) != d:
            raise InconsistentMatchingError(
                f"owner_of[{b.key()}] = {d} but assigned says {seen.get(b)}"
            )
    for b in seen:
        if b not in m.owner_of:
            raise InconsistentMatchingError(f"BRB {b.key()} missing from owner_of")


def _ref_find_blocking_pairs(
    m: Matching, s: Scenario, ch: ChannelRealization, zeta: float
) -> list[tuple[int, Brb]]:
    """All (demander, BRB) pairs that would break the matching.

    A pair blocks when the BRB strictly prefers the demander to its
    current holder (or is unassigned) and the demander strictly gains by
    taking the BRB, either adding it within budget while its demand is
    unmet, or swapping out a held BRB of lower utility while staying
    within budget.
    """
    _ref_check_consistency(m, s, ch)
    brbs = _ref_scenario_brbs(s)
    owner_axis, owner_ids, global_n, price, _band, _idx = _ref_flat_brb_arrays(s, brbs)
    rates = rate_tensor(s, ch)
    r_flat = rates[owner_axis, global_n, :]          # (M, K2)
    u_flat = r_flat - zeta * price[:, None]
    demander_ids = list(ch.demander_ids)
    axis_of = {d: j for j, d in enumerate(demander_ids)}
    flat_index = {b: k for k, b in enumerate(brbs)}

    holder_axis = np.full(len(brbs), -1, dtype=int)
    for b, d in m.owner_of.items():
        holder_axis[flat_index[b]] = axis_of[d]
    holder_rate = np.where(
        holder_axis >= 0,
        r_flat[np.arange(len(brbs)), np.clip(holder_axis, 0, None)],
        -np.inf,
    )

    pairs: list[tuple[int, Brb]] = []
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
        pairs.extend((d, brbs[k]) for k in np.nonzero(blocking)[0])
    pairs.sort(key=lambda pair: (pair[0],) + pair[1].key())
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
    requester with the highest rate on it (ties to the lower id).
    Winners buy their grants in the order they asked for them and stop at
    the first one they cannot pay for.  Blocks lost to a stronger rival
    or dropped for lack of money are never re-requested, so an unlucky
    demander can finish both poor and underserved.
    """
    brbs = _ref_scenario_brbs(s)
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
    brbs = _ref_scenario_brbs(s)
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
        prices=PriceSchedule(
            per_anchor={new_id[a]: p for a, p in s.prices.per_anchor.items()}
        ),
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
            prices=PriceSchedule(
                per_anchor={
                    a: {
                        BandKind.MMWAVE: float(rng.choice(_PRICES)),
                        BandKind.SUB6: float(rng.choice(_PRICES)),
                    }
                    for a in s.anchor_ids
                }
            ),
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
        len({p[BandKind.SUB6] for p in s.prices.per_anchor.values()}) > 1
        for s in scenarios
    )


def test_flat_index_is_anchor_axis_times_n_plus_global_index(instances):
    loaded = [
        (s, ch) for s, ch, _, _ in instances if list(s.anchor_ids) != sorted(s.anchor_ids)
    ]
    assert loaded
    for s, ch in loaded:
        t, n = brb_table(s), s.brbs_per_anchor
        for k, b in enumerate(t.brbs):
            assert b.owner == s.anchor_ids[k // n]
            assert ref.brb_global_index(s, b) == k % n
        # so the flat rate matrix is the gather the reference schemes make
        owner_axis, _, global_n, _, _, _ = _ref_flat_brb_arrays(s, t.brbs)
        gathered = rate_tensor(s, ch)[owner_axis, global_n, :]
        assert _flat_view(s, ch)[1].tobytes() == gathered.tobytes()


def _bits(values: dict) -> dict:
    return {d: float(v).hex() for d, v in values.items()}


def _assert_same_matching(new: Matching, old: _RefMatching) -> None:
    assert new.assigned == old.assigned
    assert new.owner_of == old.owner_of
    holder = [-1] * len(new.table.brbs)
    for b, d in old.owner_of.items():
        holder[new.table.flat_index[b]] = new.demander_ids.index(d)
    assert new.holder.tolist() == holder
    assert _bits(new.rate_bps) == _bits(old.rate_bps)
    assert _bits(new.cost) == _bits(old.cost)
    assert (new.rounds, new.proposals) == (old.rounds, old.proposals)


def _arbitrary_assignment(s, ch, rng) -> Matching:
    """A random allocation that ignores budgets, demands and rates."""
    assignment: dict[int, set[Brb]] = {}
    for b in _ref_scenario_brbs(s):
        j = int(rng.integers(len(ch.demander_ids) + 1)) - 1
        if j >= 0:
            assignment.setdefault(ch.demander_ids[j], set()).add(b)
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
    b = replace(_ref_scenario_brbs(s)[0], price=123.0)
    with pytest.raises(InconsistentMatchingError, match="not a block of this scenario"):
        matching_from_assignment(s, ch, {ch.demander_ids[0]: {b}})


# --- proposals past an unaffordable block ---------------------------------------


@pytest.fixture
def tier_head_choices(monkeypatch):
    """Records, for each time a demander's best untried block was too dear,
    whether it proposed to a cheaper tier's head instead."""
    made: list[bool] = []
    cheaper_head = _ProposalState.cheaper_head

    def recorded(self, *args):
        choice = cheaper_head(self, *args)
        made.append(choice >= 0)
        return choice

    monkeypatch.setattr(_ProposalState, "cheaper_head", recorded)
    return made


# trials in which demanders run out of money with many dear blocks untried,
# so that their best untried block is too dear round after round
_BUDGET_BOUND = GenerationConfig(
    area_side_m=1000.0, mmw_blockage_prob=0.12, budget=20.0, sub6_price=10.0
)
_HEAVY_TAIL_TRIALS = (7, 18, 51, 78, 141)


def test_budget_bound_heavy_tail_trials_match_the_reference(tier_head_choices):
    base = generate_scenario(_BUDGET_BOUND, seed=0)
    for i in _HEAVY_TAIL_TRIALS:
        rng = np.random.default_rng([0, i])  # the sweep harness's trial stream
        s = resample_positions(base, rng)
        ch = realize_channels(s, rng)
        _assert_same_matching(run_matching(s, ch, 1e5), _ref_run_matching(s, ch, 1e5))
    assert tier_head_choices  # the tier-head branch ran


def test_three_tier_instance_proposes_to_the_best_placed_affordable_head(
    tier_head_choices,
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
        prices=PriceSchedule(
            per_anchor={
                0: {BandKind.MMWAVE: 20.0, BandKind.SUB6: 1.0},
                1: {BandKind.MMWAVE: 5.0, BandKind.SUB6: 1.0},
            }
        ),
    )
    t = brb_table(s)
    assert t.tiers == (1.0, 5.0, 20.0)
    ch = realize_channels(s, np.random.default_rng(3))
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    assert any(tier_head_choices)
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
        prices=PriceSchedule(
            per_anchor={
                a: {BandKind.MMWAVE: mmw, BandKind.SUB6: sub6}
                for a, (mmw, sub6) in zip(s.anchor_ids, prices)
            }
        ),
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
        radio=radio_settings(s),
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


def test_a_convoy_over_one_mmwave_class_is_skipped_to_its_end(skipped_rounds):
    s, ch = _hand_built(_convoy_gains(3, 9), 8, [(0.1, 1.0)], [_RICH] * 3, [_RICH] * 3)
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


def test_a_rate_that_differs_mid_class_ends_the_run_before_it(skipped_rounds):
    gains = _convoy_gains(3, 8)
    gains[0, 4, 1] = 3e-10  # demander 1 likes block 4 less than its neighbours
    s, ch = _hand_built(gains, 8, [(0.1, 1.0)], [_RICH] * 3, [_RICH] * 3)
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    # the first run plays blocks 1..3 only: at block 4 demander 1 turns
    # to block 5 instead
    assert skipped_rounds[0] == 3


def test_a_trailing_convoy_stops_at_the_leading_one_first_held_block(skipped_rounds):
    # demanders 0 and 1 rate all eight blocks alike; demanders 2 and 3
    # rate blocks 3..7 above blocks 0..2, so they start at block 3
    gains = _convoy_gains(4, 8)
    gains[0, 3:, 2:] *= 10.0
    s, ch = _hand_built(gains, 8, [(0.1, 1.0)], [_RICH] * 4, [_RICH] * 4)
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    # both convoys advance two blocks at once; the trailing one then
    # meets block 3, held by the leading convoy's winner
    assert skipped_rounds[0] == 2
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


def test_an_applicant_that_entered_the_class_past_a_dear_block(
    skipped_rounds, tier_head_choices
):
    """Anchor 0's dear mmWave blocks lead demander 0's preferences, but
    its budget covers only anchor 1's cheap ones, so its ``scan_from``
    stays on an untried dear block while it follows the convoy on anchor
    1, which demander 1 reaches by scanning."""
    gains = np.zeros((2, 6, 2))
    gains[0, :, 0] = 1e-9   # demander 0: anchor 0 first ...
    gains[1, :, 0] = 5e-10  # ... then anchor 1
    gains[1, :, 1] = 1e-9   # demander 1: anchor 1 first
    s, ch = _hand_built(gains, 6, [(20.0, 1.0), (1.0, 1.0)], [4.0, _RICH], [_RICH] * 2)
    m = run_matching(s, ch, zeta=0.0)
    _assert_same_matching(m, _ref_run_matching(s, ch, zeta=0.0))
    assert any(tier_head_choices)
    assert skipped_rounds[0] == 5  # anchor 1's six blocks in two steps
    # demander 1 wins anchor 1's class; demander 0 holds nothing of it
    assert m.holder.tolist()[6:] == [1] * 6


def test_a_displaced_cheaper_head_applicant_returns_to_the_dear_blocks(
    skipped_rounds, tier_head_choices
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
    assert any(tier_head_choices)
    # round 2's convoys on anchors 1 and 2 move on together until anchor
    # 2's class ends
    assert skipped_rounds[:2] == [0, 2]


# --- swaps in the tier-table audit ------------------------------------------------


def _three_tier_holding(gains, budget, held):
    """Three anchors of two blocks each, priced 1, 5 and 20, and one
    demander whose demand is met, holding the flat blocks ``held``: its
    only blocking pairs are swaps."""
    prices = [(1.0, 1.0), (5.0, 5.0), (20.0, 20.0)]
    s, ch = _hand_built(gains.reshape(3, 2, 1), 2, prices, [budget], [1.0])
    holder = np.full(6, -1)
    holder[list(held)] = 0
    m = matching._matching_from_holder(s, ch, holder)
    assert brb_table(s).tiers == (1.0, 5.0, 20.0)
    return s, ch, m


def _blocks_in_pairs(s, ch, m) -> list[int]:
    pairs = find_blocking_pairs(m, s, ch, zeta=0.0)
    assert pairs == _ref_find_blocking_pairs(m, s, ch, zeta=0.0)
    return sorted(brb_table(s).flat_index[b] for _, b in pairs)


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


@st.composite
def _small_instances(draw):
    """A small scenario with per-anchor prices, per-demander budgets that
    may be below its cheapest block, bands that may be empty, and gains
    drawn from a few levels, so that equal rates are common.  The mmWave
    gains are either drawn per block or, much as in the channel model,
    shared by the blocks of a link, from its first block up to a step and
    from the step on: demanders then march down a class together, and a
    step lets a second group start mid-class."""
    k1, k2 = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n1, n2 = draw(st.integers(0, 8)), draw(st.integers(0, 3))
    if n1 + n2 == 0:
        n1 = 1  # a zero-supply band, but some supply overall
    levels = st.sampled_from((0.0, 1e-11, 1e-10, 1e-9))
    gains = np.array(
        [draw(levels) for _ in range(k1 * (n1 + n2) * k2)], dtype=float
    ).reshape(k1, n1 + n2, k2)
    if n1 and draw(st.booleans()):
        for a in range(k1):
            for j in range(k2):
                step = draw(st.integers(0, n1))
                gains[a, :step, j] = gains[a, 0, j]
                gains[a, step:n1, j] = gains[a, n1 - 1, j]
    price = st.sampled_from(_PRICES)
    budget = st.one_of(st.sampled_from((0.05,) + _ROUND_BUDGETS), st.floats(0.01, 30.0))
    s, ch = _hand_built(
        gains,
        n1,
        [(draw(price), draw(price)) for _ in range(k1)],
        [draw(budget) for _ in range(k2)],
        [draw(st.floats(1e5, 400e6)) for _ in range(k2)],
    )
    zeta = draw(st.sampled_from((0.0, 1e5, 1e6)))
    return s, ch, zeta, draw(st.integers(0, 2**31))


@given(_small_instances())
def test_schemes_keep_their_guarantees_on_small_instances(instance):
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
    k2, brbs = len(s.demander_ids), len(brb_table(s).brbs)
    assert m.rounds <= m.proposals <= k2 * brbs
