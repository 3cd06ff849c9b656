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

from scbn.baselines import best_effort_allocate, random_allocate
from scbn.matching import (
    Brb,
    InconsistentMatchingError,
    Matching,
    _flat_view,
    brb_global_index,
    brb_table,
    find_blocking_pairs,
    matching_from_assignment,
    run_matching,
)
from scbn.propagation import ChannelRealization, rate_tensor, realize_channels
from scbn.scenario import (
    BandKind,
    GenerationConfig,
    PriceSchedule,
    Scenario,
    generate_scenario,
    load_scenario,
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
            price = s.prices.price(anchor.id, band.kind)
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
        global_n[k] = brb_global_index(s, b)
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
            brb_global_index(s, b)  # range check
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
            assert brb_global_index(s, b) == k % n
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
            assert pairs == _ref_find_blocking_pairs(m, s, ch, zeta)
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
