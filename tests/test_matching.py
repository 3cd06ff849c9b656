from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import reference_model as ref

import scbn
from scbn.baselines import best_effort_allocate, random_allocate
from scbn.experiments import random_micro_config
from scbn.matching import (
    BRB_TABLE_CACHE_SIZE,
    InconsistentMatchingError,
    Matching,
    _cached_brb_table,
    brb_table,
    find_blocking_pairs,
    matching_from_assignment,
    recompute_totals,
    run_matching,
    save_matching_csv,
    scenario_brbs,
)
from scbn.oracle import brute_force_min_cost, check_constraints
from scbn.propagation import rate_tensor, realize_channels
from scbn.scenario import (
    Band,
    BandKind,
    BaseStation,
    GenerationConfig,
    MmwParams,
    PriceSchedule,
    Role,
    Scenario,
    Sub6Params,
    generate_scenario,
    resample_positions,
)


def _build(
    anchor_xy,
    demander_xy,
    *,
    n1=1,
    n2=0,
    mmw_prices=None,
    sub6_prices=None,
    demand=1e12,
    budget=1e6,
    demands=None,
    budgets=None,
    mmw_bw=1e6,
    sub6_bw=480e3,
):
    """Hand-built scenario with zero shadowing so channels follow geometry."""
    stations = [
        BaseStation(id=i, role=Role.ANCHOR, x_m=float(x), y_m=float(y))
        for i, (x, y) in enumerate(anchor_xy)
    ]
    k1 = len(stations)
    stations += [
        BaseStation(id=k1 + i, role=Role.DEMANDING, x_m=float(x), y_m=float(y))
        for i, (x, y) in enumerate(demander_xy)
    ]
    mmw_prices = mmw_prices or [1.0] * k1
    sub6_prices = sub6_prices or [2.0] * k1
    prices = {
        a: {BandKind.MMWAVE: mmw_prices[a], BandKind.SUB6: sub6_prices[a]}
        for a in range(k1)
    }
    demander_ids = [st.id for st in stations[k1:]]
    return Scenario(
        stations=tuple(stations),
        mmw_band=Band(BandKind.MMWAVE, 73e9, n1, mmw_bw),
        sub6_band=Band(BandKind.SUB6, 5.8e9, n2, sub6_bw),
        prices=PriceSchedule(per_anchor=prices),
        budgets=budgets or {d: budget for d in demander_ids},
        demands_bps=demands or {d: demand for d in demander_ids},
        tx_power_w=1.0,
        noise_power_dbm=-90.0,
        mmw=MmwParams(pathloss_slope=2.0, ref_loss_db=70.0, shadow_sigma_db=0.0),
        sub6=Sub6Params(pathloss_exponent=3.0, ref_loss_db=47.9),
        area_side_m=1000.0,
        seed=0,
    )


def _channels(s, seed=0):
    return realize_channels(s, np.random.default_rng(seed))


def _held_keys(m, d):
    return sorted(b.key() for b in m.assigned[d])


# --- utility functions --------------------------------------------------------


def test_dbs_utility_known_value():
    rate = ref.brb_rate(480e3, 1.0)
    assert ref.dbs_utility(rate, price=10.0, zeta=1e6) == -9520000.0


def test_dbs_utility_free_resources_reduce_to_rate():
    rate = ref.brb_rate(4.86e6, 12.5)
    assert ref.dbs_utility(rate, price=7.0, zeta=0.0) == rate


def test_brb_utility_is_the_achievable_rate():
    # of three applicants, a block keeps the one its link gives the highest rate
    s = _build([(0, 0)], [(30, 0), (10, 0), (20, 0)], mmw_prices=[3.0])
    m = run_matching(s, _channels(s), zeta=1e6)
    rates = {
        d.id: ref.brb_rate(
            1e6,
            ref.snr_mmw(1.0, 10.0 ** (-ref.mmw_pathloss_db(x, 2.0, 70.0) / 10.0), 1e-12),
        )
        for d, x in zip(s.demanders, (30.0, 10.0, 20.0))
    }
    assert m.owner_of == {scenario_brbs(s)[0]: max(rates, key=rates.get)}


# --- hand-built game instances ------------------------------------------------


def test_single_demander_single_brb():
    s = _build([(0, 0)], [(10, 0)], demand=1.0)
    m = run_matching(s, _channels(s), zeta=0.0)
    assert _held_keys(m, 1) == [(0, 0, 0)]
    assert m.rounds == 1
    assert m.proposals == 1
    assert m.cost[1] == 1.0


def test_contested_brb_goes_to_the_stronger_link():
    s = _build([(0, 0)], [(10, 0), (20, 0)])
    m = run_matching(s, _channels(s), zeta=0.0)
    assert _held_keys(m, 1) == [(0, 0, 0)]
    assert m.assigned[2] == frozenset()
    assert m.rounds == 1
    assert m.proposals == 2
    assert m.rate_bps[2] == 0.0 and m.cost[2] == 0.0


def test_displacement_rewinds_the_losers_books():
    # demander 2 sweeps both anchors; demander 3 briefly holds anchor 1's
    # block and is evicted in the second round
    s = _build([(0, 0), (100, 0)], [(10, 0), (100, 95)])
    ch = _channels(s)
    m = run_matching(s, ch, zeta=0.0)
    assert _held_keys(m, 2) == [(0, 0, 0), (1, 0, 0)]
    assert m.assigned[3] == frozenset()
    assert m.rounds == 2
    assert m.proposals == 4
    assert m.rate_bps[3] == 0.0
    assert m.cost[3] == 0.0
    assert find_blocking_pairs(m, s, ch, zeta=0.0) == []


def test_price_breaks_utility_ties():
    # the demander sits exactly between two anchors, so rates tie and the
    # cheaper block must be proposed to first
    s = _build([(0, 0), (20, 0)], [(10, 0)], mmw_prices=[5.0, 1.0], demand=1.0)
    m = run_matching(s, _channels(s), zeta=0.0)
    assert _held_keys(m, 2) == [(1, 0, 0)]
    assert m.cost[2] == 1.0


def test_unaffordable_blocks_are_skipped():
    # budget 1 rules out the strong anchor at price 5; the demander settles
    # for the weaker affordable one
    s = _build(
        [(0, 0), (200, 0)],
        [(10, 0)],
        mmw_prices=[5.0, 1.0],
        budget=1.0,
        demand=1.0,
    )
    m = run_matching(s, _channels(s), zeta=0.0)
    assert _held_keys(m, 2) == [(1, 0, 0)]
    assert m.cost[2] == 1.0


def test_network_without_demanders_terminates_immediately():
    s = _build([(0, 0)], [])
    m = run_matching(s, _channels(s), zeta=0.0)
    assert m.rounds == 0
    assert m.proposals == 0
    assert m.assigned == {}
    assert m.owner_of == {}


def test_run_matching_is_deterministic():
    s = generate_scenario(GenerationConfig(num_stations=6, num_anchors=2), seed=3)
    ch = _channels(s, seed=4)
    a = run_matching(s, ch, zeta=1e6)
    b = run_matching(s, ch, zeta=1e6)
    assert a.assigned == b.assigned
    assert a.rate_bps == b.rate_bps
    assert (a.rounds, a.proposals) == (b.rounds, b.proposals)


# --- reference replay ----------------------------------------------------------
#
# A dict-and-loop re-implementation of the proposal rounds, kept deliberately
# naive.  Any divergence from run_matching on random instances means one of
# the two got the mechanics wrong.


def _reference_matching(s, ch, zeta):
    brbs = scenario_brbs(s)
    rates = rate_tensor(s, ch)
    demanders = list(ch.demander_ids)

    def rate_of(m, d):
        b = brbs[m]
        return float(rates[
            ch.anchor_ids.index(b.owner), ref.brb_global_index(s, b), ch.demander_ids.index(d)
        ])

    prefs = {}
    for d in demanders:
        def sort_key(m, d=d):
            b = brbs[m]
            u = ref.dbs_utility(rate_of(m, d), b.price, zeta)
            band = 0 if b.band is BandKind.MMWAVE else 1
            return (-u, b.price, band, b.owner, b.index)

        prefs[d] = sorted(range(len(brbs)), key=sort_key)

    applied = {d: set() for d in demanders}
    held = {d: set() for d in demanders}
    cost = {d: 0.0 for d in demanders}
    total = {d: 0.0 for d in demanders}
    holder = {}
    rounds = 0
    proposals = 0
    while True:
        offers = {}
        for d in demanders:
            if total[d] >= s.demands_bps[d]:
                continue
            for m in prefs[d]:
                if m in applied[d]:
                    continue
                if cost[d] + brbs[m].price <= s.budgets[d]:
                    applied[d].add(m)
                    offers.setdefault(m, []).append(d)
                    proposals += 1
                    break
        if not offers:
            break
        rounds += 1
        for m, applicants in offers.items():
            best = min(applicants, key=lambda d: (-rate_of(m, d), d))
            incumbent = holder.get(m)
            if incumbent is not None:
                if rate_of(m, best) <= rate_of(m, incumbent):
                    continue
                held[incumbent].discard(m)
                total[incumbent] -= rate_of(m, incumbent)
                cost[incumbent] -= brbs[m].price
            held[best].add(m)
            total[best] += rate_of(m, best)
            cost[best] += brbs[m].price
            holder[m] = best
    assignment = {
        d: sorted(brbs[m].key() for m in held[d]) for d in demanders
    }
    return assignment, total, cost, rounds, proposals


def _random_instances():
    cases = []
    rng = np.random.default_rng(0xBEEF)
    for _ in range(40):
        cfg = GenerationConfig(
            num_stations=int(rng.integers(3, 7)),
            num_anchors=int(rng.integers(1, 3)),
            num_mmw_brbs=int(rng.integers(1, 5)),
            num_sub6_brbs=int(rng.integers(0, 4)),
            demand_bps=float(rng.uniform(1e6, 60e6)),
            budget=float(rng.uniform(2.0, 30.0)),
            mmw_price=float(rng.uniform(0.1, 3.0)),
            sub6_price=float(rng.uniform(1.0, 8.0)),
            mmw_blockage_prob=float(rng.uniform(0.0, 0.5)),
            area_side_m=500.0,
        )
        if cfg.num_mmw_brbs + cfg.num_sub6_brbs == 0:
            continue
        seed = int(rng.integers(2**31))
        cases.append((cfg, seed))
    return cases


def test_run_matching_agrees_with_reference_replay():
    for zeta in (0.0, 1e6):
        for cfg, seed in _random_instances():
            s = generate_scenario(cfg, seed=seed)
            ch = realize_channels(s, np.random.default_rng(seed + 1))
            m = run_matching(s, ch, zeta)
            assignment, total, cost, rounds, proposals = _reference_matching(s, ch, zeta)
            for d in s.demander_ids:
                assert _held_keys(m, d) == assignment[d]
                assert math.isclose(m.rate_bps[d], total[d], rel_tol=1e-12, abs_tol=1e-6)
                assert math.isclose(m.cost[d], cost[d], rel_tol=1e-12, abs_tol=1e-12)
            assert m.rounds == rounds
            assert m.proposals == proposals


# --- invariants on bigger random instances --------------------------------------


def _medium_instance(seed):
    cfg = GenerationConfig(
        num_stations=6,
        num_anchors=2,
        num_mmw_brbs=8,
        num_sub6_brbs=5,
        demand_bps=30e6,
        budget=25.0,
        mmw_price=0.5,
        sub6_price=4.0,
        mmw_blockage_prob=0.3,
        area_side_m=600.0,
    )
    s = generate_scenario(cfg, seed=seed)
    ch = realize_channels(s, np.random.default_rng(seed))
    return s, ch


def test_matching_invariants_hold_on_random_instances():
    for seed in range(20):
        s, ch = _medium_instance(seed)
        m = run_matching(s, ch, zeta=1e6)

        seen = {}
        for d, brbs in m.assigned.items():
            for b in brbs:
                assert b not in seen, "BRB assigned twice"
                seen[b] = d
                assert m.owner_of[b] == d
        for d in s.demander_ids:
            # the budget holds with exact float comparison, not a tolerance
            assert m.cost[d] <= s.budgets[d]
        rate, cost = recompute_totals(m, s, ch)
        for d in s.demander_ids:
            assert math.isclose(m.rate_bps[d], rate[d], rel_tol=1e-9, abs_tol=1e-3)
            assert math.isclose(m.cost[d], cost[d], rel_tol=1e-9, abs_tol=1e-9)

        n_total = s.brbs_per_anchor * len(s.anchor_ids)
        assert m.proposals <= len(s.demander_ids) * n_total
        assert m.rounds <= n_total
        assert find_blocking_pairs(m, s, ch, zeta=1e6) == []


_TOTALS_SCRIPT = """
import numpy as np
from scbn.matching import matching_from_assignment, recompute_totals, run_matching
from scbn.propagation import realize_channels
from scbn.scenario import GenerationConfig, generate_scenario

for seed in range(20):
    s = generate_scenario(GenerationConfig(), seed=seed)
    ch = realize_channels(s, np.random.default_rng(seed))
    m = run_matching(s, ch, 1e6)
    rate, cost = recompute_totals(m, s, ch)
    rebuilt = matching_from_assignment(s, ch, {d: set(b) for d, b in m.assigned.items()})
    for totals in (rate, cost, rebuilt.rate_bps, rebuilt.cost):
        print(*(float(totals[d]).hex() for d in s.demander_ids))
"""


def test_recomputed_totals_do_not_depend_on_the_hash_seed():
    # Brb hashes, and so set iteration order, change with PYTHONHASHSEED
    src = os.path.dirname(os.path.dirname(scbn.__file__))
    outputs = set()
    for hash_seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _TOTALS_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1


# --- blocking pair detection ----------------------------------------------------


def test_blocking_pairs_found_for_misallocated_block():
    # the far demander 2 squats on block 0 while the near demander 1 holds
    # nothing: every free or stealable block blocks
    s = _build([(0, 0)], [(10, 0), (50, 0)], n1=2)
    ch = _channels(s)
    brbs = scenario_brbs(s)
    m = matching_from_assignment(s, ch, {2: {brbs[0]}})
    pairs = find_blocking_pairs(m, s, ch, zeta=0.0)
    assert [(d, b.key()) for d, b in pairs] == [
        (1, (0, 0, 0)),
        (1, (0, 0, 1)),
        (2, (0, 0, 1)),
    ]


def test_blocking_pairs_via_beneficial_swap():
    # demand already met, but a cheap high-utility block is free and
    # dropping the dear held one pays for it
    s = _build(
        [(0, 0)],
        [(10, 0)],
        n1=1,
        n2=1,
        mmw_prices=[0.1],
        sub6_prices=[10.0],
        demand=1.0,
        budget=10.0,
    )
    ch = _channels(s, seed=1)
    sub6_brb = scenario_brbs(s)[1]
    assert sub6_brb.band is BandKind.SUB6
    m = matching_from_assignment(s, ch, {1: {sub6_brb}})
    assert m.rate_bps[1] >= 1.0
    pairs = find_blocking_pairs(m, s, ch, zeta=1e6)
    assert [(d, b.key()) for d, b in pairs] == [(1, (0, 0, 0))]


def test_no_blocking_pairs_when_nobody_wants_anything():
    s = _build([(0, 0)], [(10, 0), (20, 0)], n1=2, demands={1: 0.0, 2: 0.0})
    ch = _channels(s)
    m = matching_from_assignment(s, ch, {})
    assert find_blocking_pairs(m, s, ch, zeta=0.0) == []


def test_matching_rejects_a_holder_it_cannot_hold():
    s = _build([(0, 0)], [(10, 0), (20, 0)], n1=2)
    ch = _channels(s)
    ok = matching_from_assignment(s, ch, {1: {scenario_brbs(s)[0]}})
    assert ok.holder.tolist() == [0, -1]
    with pytest.raises(ValueError):
        ok.holder[0] = 1  # read-only
    for holder in ([0], [0, -1, -1], [0, 2], [-2, 1]):
        with pytest.raises(InconsistentMatchingError, match="demander axes"):
            Matching(
                table=ok.table,
                demander_ids=ok.demander_ids,
                holder=np.array(holder),
                rate_bps=ok.rate_bps,
                cost=ok.cost,
            )


def test_audits_reject_a_matching_of_another_scenario():
    s = _build([(0, 0)], [(10, 0), (20, 0)], n1=2)
    other = _build([(0, 0)], [(10, 0), (20, 0)], n1=3)
    m = run_matching(other, _channels(other), zeta=0.0)
    with pytest.raises(InconsistentMatchingError, match="not over this scenario"):
        find_blocking_pairs(m, s, _channels(s), zeta=0.0)
    with pytest.raises(InconsistentMatchingError, match="not over this scenario"):
        recompute_totals(m, s, _channels(s))


@pytest.mark.parametrize("zeta", [math.nan, math.inf, -math.inf])
def test_matching_and_audit_reject_a_non_finite_zeta(zeta):
    s = _build([(0, 0)], [(10, 0), (20, 0)], n1=2, n2=1)
    ch = _channels(s)
    m = run_matching(s, ch, zeta=0.0)
    with pytest.raises(ValueError, match="zeta must be a finite number"):
        run_matching(s, ch, zeta=zeta)
    with pytest.raises(ValueError, match="zeta must be a finite number"):
        find_blocking_pairs(m, s, ch, zeta=zeta)


_ENTRY_POINTS = {
    "run_matching": lambda s, ch, m: run_matching(s, ch, zeta=0.0),
    "best_effort_allocate": lambda s, ch, m: best_effort_allocate(s, ch),
    "random_allocate": lambda s, ch, m: random_allocate(s, ch, np.random.default_rng(0)),
    "brute_force_min_cost": lambda s, ch, m: brute_force_min_cost(s, ch),
    "find_blocking_pairs": lambda s, ch, m: find_blocking_pairs(m, s, ch, zeta=0.0),
    "check_constraints": lambda s, ch, m: check_constraints(m, s, ch),
}


@pytest.mark.parametrize("entry_point", sorted(_ENTRY_POINTS))
def test_schemes_and_audits_reject_a_realization_of_another_scenario(entry_point):
    call = _ENTRY_POINTS[entry_point]
    s = _build([(0, 0)], [(10, 0), (20, 0)], n1=2, n2=1)
    ch = _channels(s)
    m = run_matching(s, ch, zeta=0.0)
    call(s, ch, m)  # its own realization is accepted
    foreign = [
        _channels(_build([(0, 0)], [(10, 0), (20, 0)], n1=4, n2=1)),  # more BRBs
        _channels(_build([(0, 0)], [(10, 0), (20, 0)], n1=1, n2=2)),  # same shape
        replace(ch, anchor_ids=(7,)),
        replace(ch, demander_ids=(2, 1)),
    ]
    for other in foreign:
        with pytest.raises(InconsistentMatchingError, match="another scenario"):
            call(s, other, m)
    # same shape, other radio settings: the realization's rates do not hold
    def wider(band):
        return replace(band, brb_bandwidth_hz=2 * band.brb_bandwidth_hz)

    other_radio = [
        replace(s, tx_power_w=s.tx_power_w / 100),
        replace(s, noise_power_dbm=s.noise_power_dbm + 3.0),
        replace(s, mmw_band=wider(s.mmw_band)),
        replace(s, sub6_band=wider(s.sub6_band)),
    ]
    for other in other_radio:
        with pytest.raises(InconsistentMatchingError, match="another scenario"):
            call(other, ch, m)


def test_matching_from_assignment_rejects_shared_brb():
    s = _build([(0, 0)], [(10, 0), (20, 0)], n1=1)
    ch = _channels(s)
    (b0,) = scenario_brbs(s)
    with pytest.raises(InconsistentMatchingError, match="assigned to both"):
        matching_from_assignment(s, ch, {1: {b0}, 2: {b0}})
    with pytest.raises(InconsistentMatchingError, match="unknown demander id 7"):
        matching_from_assignment(s, ch, {7: {b0}})


# --- CSV output -----------------------------------------------------------------


def test_save_matching_csv_layout(tmp_path):
    s = _build([(0, 0), (100, 0)], [(10, 0), (100, 95)])
    ch = _channels(s)
    m = run_matching(s, ch, zeta=0.0)
    path = tmp_path / "matching.csv"
    save_matching_csv(m, s, ch, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k2,k1,band,n,gamma,rate_bps,price"
    assert len(lines) == 3
    assert lines[1].startswith("2,0,mmwave,0,")
    assert lines[2].startswith("2,1,mmwave,0,")
    save_matching_csv(m, s, ch, str(tmp_path / "again.csv"))
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


# --- BRB table ------------------------------------------------------------------


def test_brb_table_tracks_one_anchors_sub6_price():
    s = _build([(0, 0), (100, 0)], [(10, 0)], n1=2, n2=2)
    dearer = replace(
        s,
        prices=PriceSchedule(
            per_anchor={
                0: {BandKind.MMWAVE: 1.0, BandKind.SUB6: 2.0},
                1: {BandKind.MMWAVE: 1.0, BandKind.SUB6: 7.0},
            }
        ),
    )
    a, b = brb_table(s), brb_table(dearer)
    assert a is not b
    assert a.price.tolist() == [1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]
    assert b.price.tolist() == [1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 7.0, 7.0]
    assert [x.price for x in b.brbs] == b.price.tolist()
    assert (a.tiers, a.tier_sizes) == ((1.0, 2.0), (4, 4))
    assert (b.tiers, b.tier_sizes) == ((1.0, 2.0, 7.0), (4, 2, 2))
    # positions are not part of the shape
    assert brb_table(resample_positions(s, np.random.default_rng(1))) is a


def test_brb_table_is_read_only():
    t = brb_table(_build([(0, 0)], [(10, 0)], n1=2, n2=1))
    for array in (t.price, t.owner_id, t.key_rank, t.tier):
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(TypeError):
        t.flat_index[t.brbs[0]] = 5


def test_brb_table_cache_stays_bounded():
    rng = np.random.default_rng(5)
    misses = _cached_brb_table.cache_info().misses
    for seed in range(1000):
        brb_table(generate_scenario(random_micro_config(rng), seed=seed))
    info = _cached_brb_table.cache_info()
    assert info.misses - misses == 1000  # every micro shape is new
    assert info.maxsize == BRB_TABLE_CACHE_SIZE
    assert info.currsize <= info.maxsize
