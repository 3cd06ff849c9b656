from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import reference_model as ref

from scbn import baselines
from scbn.baselines import _advance, _below, best_effort_allocate, random_allocate
from scbn.matching import recompute_totals
from scbn.propagation import rate_tensor, realize_channels
from scbn.scenario import (
    Band,
    BandKind,
    BaseStation,
    GenerationConfig,
    MmwParams,
    Role,
    Scenario,
    Sub6Params,
    generate_scenario,
)


def _scenario(
    anchor_xy,
    demander_xy,
    n1=1,
    n2=0,
    mmw_prices=None,
    sub6_prices=None,
    demand=1e12,
    budget=1e6,
    demands=None,
    blockage=0.0,
):
    k1 = len(anchor_xy)
    stations = tuple(
        BaseStation(id=i, role=Role.ANCHOR, x_m=float(x), y_m=float(y))
        for i, (x, y) in enumerate(anchor_xy)
    ) + tuple(
        BaseStation(id=k1 + i, role=Role.DEMANDING, x_m=float(x), y_m=float(y))
        for i, (x, y) in enumerate(demander_xy)
    )
    mmw_prices = mmw_prices or [1.0] * k1
    sub6_prices = sub6_prices or [2.0] * k1
    demander_ids = [st.id for st in stations[k1:]]
    return Scenario(
        stations=stations,
        mmw_band=Band(73e9, n1, 1e6),
        sub6_band=Band(5.8e9, n2, 480e3),
        prices={
            a: {BandKind.MMWAVE: mmw_prices[a], BandKind.SUB6: sub6_prices[a]}
            for a in range(k1)
        },
        budgets={d: budget for d in demander_ids},
        demands_bps=demands or {d: demand for d in demander_ids},
        tx_power_w=1.0,
        noise_power_dbm=-90.0,
        mmw_pathloss=MmwParams(2.0, 70.0, 0.0, blockage),
        sub6_pathloss=Sub6Params(3.0, 47.9),
        area_side_m=1000.0,
        seed=0,
    )


def _reference_best_effort(s, ch):
    """Step-by-step replay of the request / grant / pay pass."""
    brbs = ref.scenario_brbs(s)
    rates = rate_tensor(s, ch)
    demanders = list(ch.demander_ids)

    def rate_of(m, d):
        b = brbs[m]
        return float(rates[
            ch.anchor_ids.index(b.owner), ref.brb_global_index(s, b), ch.demander_ids.index(d)
        ])

    requests = {}
    for d in demanders:
        order = sorted(range(len(brbs)), key=lambda m: (-rate_of(m, d), m))
        useful = [m for m in order if rate_of(m, d) > 0.0]
        req = []
        if s.demands_bps[d] > 0.0:
            covered = 0.0
            for m in useful:
                req.append(m)
                covered += rate_of(m, d)
                if covered >= s.demands_bps[d]:
                    break
        requests[d] = req

    winner = {}
    for d in demanders:  # ascending id, ties stay with the earlier requester
        for m in requests[d]:
            if m not in winner or rate_of(m, d) > rate_of(m, winner[m]):
                winner[m] = d

    held = {d: set() for d in demanders}
    cost = {d: 0.0 for d in demanders}
    total = {d: 0.0 for d in demanders}
    for d in demanders:
        for m in requests[d]:
            if winner.get(m) != d:
                continue
            if cost[d] + brbs[m].price > s.budgets[d]:
                break
            held[d].add(m)
            cost[d] += brbs[m].price
            total[d] += rate_of(m, d)
    return (
        {d: sorted(brbs[m].key() for m in held[d]) for d in demanders},
        total,
        cost,
    )


def test_best_effort_agrees_with_reference_replay():
    rng = np.random.default_rng(0xFACE)
    for _ in range(30):
        cfg = GenerationConfig(
            num_stations=int(rng.integers(3, 8)),
            num_anchors=int(rng.integers(1, 3)),
            num_mmw_brbs=int(rng.integers(1, 6)),
            num_sub6_brbs=int(rng.integers(0, 5)),
            demand_bps=float(rng.uniform(1e6, 80e6)),
            budget=float(rng.uniform(2.0, 30.0)),
            mmw_price=float(rng.uniform(0.1, 3.0)),
            sub6_price=float(rng.uniform(1.0, 8.0)),
            mmw_blockage_prob=float(rng.uniform(0.0, 0.6)),
            area_side_m=500.0,
        )
        s = generate_scenario(cfg, seed=int(rng.integers(2**31)))
        ch = realize_channels(s, rng)
        m = best_effort_allocate(s, ch)
        assignment, total, cost = _reference_best_effort(s, ch)
        for d in s.demander_ids:
            assert sorted(m.assigned[d]) == assignment[d]
            assert math.isclose(m.rate_bps[d], total[d], rel_tol=1e-12, abs_tol=1e-6)
            assert math.isclose(m.cost[d], cost[d], rel_tol=1e-12, abs_tol=1e-12)
        assert m.rounds == 0 and m.proposals == 0


def test_best_effort_strongest_requester_takes_contested_blocks():
    s = _scenario([(0, 0), (100, 0)], [(10, 0), (100, 95)])
    m = best_effort_allocate(s, realize_channels(s, np.random.default_rng(0)))
    assert sorted(m.assigned[2]) == [(0, 0, 0), (1, 0, 0)]
    assert m.assigned[3] == frozenset()
    assert m.rate_bps[3] == 0.0 and m.cost[3] == 0.0


def test_best_effort_equal_rate_pileup_favors_the_lower_id():
    # both demanders sit at the same distance, request the blocks in the
    # same canonical order, and the lower axis (here the lower id) wins
    # every tie
    s = _scenario([(0, 0)], [(10, 0), (-10, 0)], n1=2, demand=1.5e7)
    m = best_effort_allocate(s, realize_channels(s, np.random.default_rng(0)))
    assert len(m.assigned[1]) == 2
    assert m.assigned[2] == frozenset()


def test_best_effort_stops_paying_at_the_first_unaffordable_block():
    # the strong anchor is too dear; the one-shot pass gives up rather than
    # falling through to the cheap remote block it also won
    s = _scenario(
        [(0, 0), (500, 0)],
        [(10, 0)],
        n1=0,
        n2=1,
        sub6_prices=[100.0, 1.0],
        budget=50.0,
    )
    ch = realize_channels(s, np.random.default_rng(7))
    rates = rate_tensor(s, ch)
    assert rates[0, 0, 0] > rates[1, 0, 0]
    m = best_effort_allocate(s, ch)
    assert m.assigned[2] == frozenset()
    assert m.cost[2] == 0.0 and m.rate_bps[2] == 0.0


def test_best_effort_buys_both_when_the_budget_allows():
    s = _scenario([(0, 0)], [(10, 0)], n1=1, n2=1, mmw_prices=[3.0], sub6_prices=[4.0])
    ch = realize_channels(s, np.random.default_rng(2))
    poor = best_effort_allocate(dataclasses.replace(s, budgets={1: 5.0}), ch)
    rich = best_effort_allocate(dataclasses.replace(s, budgets={1: 7.0}), ch)
    assert sorted(poor.assigned[1]) == [(0, 0, 0)]
    assert poor.cost[1] == 3.0
    assert sorted(rich.assigned[1]) == [(0, 0, 0), (0, 1, 0)]
    assert rich.cost[1] == 7.0


def test_best_effort_with_no_usable_links_buys_nothing():
    s = _scenario([(0, 0)], [(10, 0), (20, 0)], n1=3, blockage=1.0)
    m = best_effort_allocate(s, realize_channels(s, np.random.default_rng(0)))
    for d in (1, 2):
        assert m.assigned[d] == frozenset()
        assert m.cost[d] == 0.0


def test_best_effort_ignores_satisfied_demanders():
    s = _scenario([(0, 0)], [(10, 0)], n1=2, demands={1: 0.0})
    m = best_effort_allocate(s, realize_channels(s, np.random.default_rng(0)))
    assert m.assigned[1] == frozenset()


def test_best_effort_budget_holds_exactly_at_reference_scale():
    cfg = GenerationConfig(mmw_blockage_prob=0.4)
    for seed in range(3):
        s = generate_scenario(cfg, seed=seed)
        ch = realize_channels(s, np.random.default_rng(seed))
        m = best_effort_allocate(s, ch)
        rate, cost = recompute_totals(m, s, ch)
        for d in s.demander_ids:
            assert m.cost[d] <= s.budgets[d]
            assert math.isclose(m.cost[d], cost[d], rel_tol=1e-9, abs_tol=1e-9)
            assert math.isclose(m.rate_bps[d], rate[d], rel_tol=1e-9, abs_tol=1e-3)


def test_random_allocation_is_deterministic_for_a_seeded_rng():
    s = generate_scenario(GenerationConfig(num_stations=6, num_anchors=2), seed=5)
    ch = realize_channels(s, np.random.default_rng(5))
    a = random_allocate(s, ch, np.random.default_rng(99))
    b = random_allocate(s, ch, np.random.default_rng(99))
    assert a.assigned == b.assigned
    assert a.cost == b.cost


def test_random_allocation_respects_budgets_and_demands():
    cfg = GenerationConfig(num_stations=6, num_anchors=2, num_mmw_brbs=10, num_sub6_brbs=6)
    s = generate_scenario(cfg, seed=8)
    ch = realize_channels(s, np.random.default_rng(8))
    for sub_seed in range(10):
        m = random_allocate(s, ch, np.random.default_rng(sub_seed))
        for d in s.demander_ids:
            assert m.cost[d] <= s.budgets[d]
        assert m.rounds == 0 and m.proposals == 0


def test_random_allocation_with_too_small_budget_assigns_nothing():
    s = _scenario([(0, 0)], [(10, 0)], n1=3, mmw_prices=[5.0], budget=4.0)
    m = random_allocate(s, realize_channels(s, np.random.default_rng(0)), np.random.default_rng(1))
    assert m.assigned[1] == frozenset()
    assert m.cost[1] == 0.0


def test_random_allocation_sole_greedy_demander_takes_everything():
    s = _scenario([(0, 0)], [(10, 0)], n1=4, n2=2)
    m = random_allocate(s, realize_channels(s, np.random.default_rng(0)), np.random.default_rng(1))
    assert len(m.assigned[1]) == 6


def test_random_allocation_stops_once_demand_is_met():
    # demand is covered by any single block, so exactly one is bought
    s = _scenario([(0, 0)], [(10, 0)], n1=5, demand=1.0)
    m = random_allocate(s, realize_channels(s, np.random.default_rng(0)), np.random.default_rng(1))
    assert len(m.assigned[1]) == 1
    assert m.rate_bps[1] >= 1.0


# --- the bounded draws of the random baseline, from raw 32-bit words --------------

_BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)


def _draws_from_words(rng, bounds, block):
    """``rng.integers(n)`` for each n of ``bounds``, made as
    ``random_allocate`` makes them: from a block of ``block`` raw words,
    after which the generator is rewound and moved past the words used."""
    start = rng.bit_generator.state
    words = _advance(rng, block).tolist()
    used, drawn = 0, []
    for n in bounds:
        value, used = _below(n, words, used, rng)
        drawn.append(value)
    rng.bit_generator.state = start
    _advance(rng, used)
    return drawn, len(words)


_BOUNDS = {
    "small": [2, 3, 1, 5, 8, 7, 1, 4, 6, 2] * 8,
    # (2**32 - n) % n is about half of 2**32, or a quarter, so about one
    # word in two, or one in four, is rejected
    "2**31+1": [2**31 + 1] * 40,
    "3*2**30": [3 * 2**30] * 40,
    "2**32-1": [2**32 - 1, 2, 2**32 - 1, 1] * 10,
}


@pytest.mark.parametrize("bounds", list(_BOUNDS.values()), ids=list(_BOUNDS))
@pytest.mark.parametrize("earlier", [2, 3], ids=["even", "odd"])
@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS, ids=lambda g: g.__name__)
def test_draws_from_raw_words_equal_scalar_draws(bit_generator, earlier, bounds):
    # an odd number of earlier 32-bit draws leaves half of a 64-bit output
    # buffered in the state of the 64-bit generators
    rng_words, rng_scalar = (np.random.Generator(bit_generator(17)) for _ in range(2))
    for rng in (rng_words, rng_scalar):
        rng.integers(0, 2**32, size=earlier, dtype=np.uint32)
    drawn, _ = _draws_from_words(rng_words, bounds, len(bounds))
    assert drawn == [int(rng_scalar.integers(n)) for n in bounds]
    # array-aware: MT19937's state holds an ndarray
    np.testing.assert_equal(rng_words.bit_generator.state, rng_scalar.bit_generator.state)


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS, ids=lambda g: g.__name__)
def test_a_word_block_that_runs_out_is_followed_by_another(bit_generator):
    bounds = _BOUNDS["small"] + _BOUNDS["2**31+1"]
    rng_words, rng_scalar = (np.random.Generator(bit_generator(23)) for _ in range(2))
    drawn, words_drawn = _draws_from_words(rng_words, bounds, 3)
    assert words_drawn > 3
    assert drawn == [int(rng_scalar.integers(n)) for n in bounds]
    # array-aware: MT19937's state holds an ndarray
    np.testing.assert_equal(rng_words.bit_generator.state, rng_scalar.bit_generator.state)


def test_a_draw_below_one_consumes_no_word():
    rng = np.random.Generator(np.random.PCG64(5))
    start = rng.bit_generator.state
    words: list[int] = []
    assert _below(1, words, 0, rng) == (0, 0)
    assert words == []
    np.testing.assert_equal(rng.bit_generator.state, start)


# With three demanders eligible for every block, each grant is _below(3):
# a word is rejected when the low 32 bits of word * 3 are below
# (2**32 - 3) % 3 = 1, so exactly when it is 0.  0xAAAAAAAB * 3 has low
# bits 1, which the inline test (low >= n) passes to _below, and _below
# accepts.  Four blocks draw a first block of four words; a refill draws
# one more word than the block it follows.
_CRAFTED_WORDS = {
    # the fourth rejection uses up the first block inside _below
    "refill-inside-below": [0, 0, 0, 0, 2**31, 0xAAAAAAAB, 0, 3 * 2**30, 1 << 30],
    # the first grant ends on the block's last word, so the second finds
    # the words used up before its first test
    "refill-before-a-grant": [0, 0, 0, 2**31, 0xAAAAAAAB, 0, 3 * 2**30, 1 << 30],
}


@pytest.mark.parametrize("stream", list(_CRAFTED_WORDS.values()), ids=list(_CRAFTED_WORDS))
def test_random_allocation_draws_through_rejections_and_refills(monkeypatch, stream):
    s = _scenario([(0, 0)], [(10, 0), (20, 0), (30, 0)], n1=4)
    ch = realize_channels(s, np.random.default_rng(0))
    sizes: list[int] = []
    source = iter(stream + [2**31] * 16)  # spare words for the final rewind

    def crafted(rng, size):
        sizes.append(size)
        return np.array([next(source) for _ in range(size)], dtype=np.uint32)

    monkeypatch.setattr(baselines, "_advance", crafted)
    m = random_allocate(s, ch, np.random.default_rng(1))

    # _below over the whole stream at once, which never runs out of words
    picks, used = [], 0
    for _ in range(4):
        pick, used = _below(3, stream, used, None)
        picks.append(pick)
    assert 0 in picks and 2 in picks  # both halves of a product's range
    holder = [-1] * 4
    for k, pick in zip(np.random.default_rng(1).permutation(4).tolist(), picks):
        holder[k] = pick
    assert m.holder.tolist() == holder
    # the block, one refill, and the rewind past every word used
    assert sizes == [4, 5, used] and used == len(stream)
