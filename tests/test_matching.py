from __future__ import annotations

import copy
import csv
import gc
import math
import operator
import os
import pickle
import re
import subprocess
import sys
import weakref
from array import array
from dataclasses import fields, replace

import numpy as np
import pytest
import reference_model as ref

import scbn
from scbn.baselines import best_effort_allocate, random_allocate
from scbn.cli import main
from scbn.experiments import SCHEMES, run_scheme
from scbn.matching import (
    InconsistentMatchingError,
    Matching,
    find_blocking_pairs,
    matching_from_assignment,
    recompute_totals,
    run_matching,
    save_matching_csv,
)
from scbn.oracle import brute_force_min_cost, check_constraints
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
    load_scenario,
    resample_positions,
    save_scenario,
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
        mmw_band=Band(73e9, n1, mmw_bw),
        sub6_band=Band(5.8e9, n2, sub6_bw),
        prices=prices,
        budgets=budgets or {d: budget for d in demander_ids},
        demands_bps=demands or {d: demand for d in demander_ids},
        tx_power_w=1.0,
        noise_power_dbm=-90.0,
        mmw_pathloss=MmwParams(
            slope=2.0, ref_loss_db=70.0, shadow_sigma_db=0.0, blockage_prob=0.0
        ),
        sub6_pathloss=Sub6Params(exponent=3.0, ref_loss_db=47.9),
        area_side_m=1000.0,
        seed=0,
    )


def _channels(s, seed=0):
    return realize_channels(s, np.random.default_rng(seed))


def _held_keys(m, d):
    return sorted(m.assigned[d])


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
    assert m.owner_of == {(0, 0, 0): max(rates, key=rates.get)}


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
    brbs = ref.scenario_brbs(s)
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
from scbn.baselines import best_effort_allocate
from scbn.matching import (
    find_blocking_pairs, matching_from_assignment, recompute_totals, run_matching
)
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
    print(sorted(m.owner_of.items()))
    print(list(find_blocking_pairs(best_effort_allocate(s, ch), s, ch, 1e6)))
"""


def test_recomputed_totals_do_not_depend_on_the_hash_seed():
    # the totals are summed from sets of BRB keys, whose iteration order
    # would follow PYTHONHASHSEED if a key hashed a str; the held keys and
    # a best-effort allocation's blocking pairs are printed as well
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
    m = matching_from_assignment(s, ch, {2: {(0, 0, 0)}})
    pairs = find_blocking_pairs(m, s, ch, zeta=0.0)
    assert list(pairs) == [
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
    sub6_brb = (0, 1, 0)
    m = matching_from_assignment(s, ch, {1: {sub6_brb}})
    assert m.rate_bps[1] >= 1.0
    pairs = find_blocking_pairs(m, s, ch, zeta=1e6)
    assert list(pairs) == [(1, (0, 0, 0))]


def test_no_blocking_pairs_when_nobody_wants_anything():
    s = _build([(0, 0)], [(10, 0), (20, 0)], n1=2, demands={1: 0.0, 2: 0.0})
    ch = _channels(s)
    m = matching_from_assignment(s, ch, {})
    assert find_blocking_pairs(m, s, ch, zeta=0.0) == []


def test_matching_rejects_a_holder_it_cannot_hold():
    s = _build([(0, 0)], [(10, 0), (20, 0)], n1=2)
    ch = _channels(s)
    ok = matching_from_assignment(s, ch, {1: {(0, 0, 0)}})
    assert ok.holder.tolist() == [0, -1]
    with pytest.raises(ValueError):
        ok.holder[0] = 1  # read-only
    for holder in ([0], [0, -1, -1], [0, 2], [-2, 1], array("q", [0, 2])):
        with pytest.raises(InconsistentMatchingError, match="demander axes"):
            Matching(
                table=ok.table,
                demander_ids=ok.demander_ids,
                holder=np.array(holder),
                rate_bps=ok.rate_bps,
                cost=ok.cost,
            )


def test_schemes_build_holders_the_constructor_accepts():
    """The schemes and the oracle build their results without the
    constructor's check: each holder is a read-only int array that
    ``Matching(...)`` accepts as it is."""
    s = _build([(0, 0)], [(10, 0), (20, 0)], n1=2, n2=1, demand=5e6, budget=2.5)
    ch = _channels(s)
    for m in (
        run_matching(s, ch, zeta=0.0),
        best_effort_allocate(s, ch),
        random_allocate(s, ch, np.random.default_rng(0)),
        brute_force_min_cost(s, ch).matching,
    ):
        assert m.holder.dtype.kind == "i" and not m.holder.flags.writeable
        again = Matching(
            table=m.table,
            demander_ids=m.demander_ids,
            holder=m.holder,
            rate_bps=m.rate_bps,
            cost=m.cost,
            rounds=m.rounds,
            proposals=m.proposals,
        )
        assert again.holder.tolist() == m.holder.tolist()
        assert again.owner_of == m.owner_of


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


def test_matching_and_audit_reject_a_zeta_whose_utilities_overflow():
    """On the reference scenario, whose dearest price is 10: zeta 1e307
    gives finite utilities, while 1e308 and -1e308 do not, and a non-finite
    zeta keeps its own message."""
    s = generate_scenario(GenerationConfig(), seed=0)
    ch = realize_channels(s, np.random.default_rng(0))
    m = run_matching(s, ch, zeta=1e307)
    assert find_blocking_pairs(m, s, ch, zeta=1e307) == []
    for zeta in (1e308, -1e308):
        message = re.escape(f"zeta {zeta} times the price 10.0 is not finite")
        with pytest.raises(ValueError, match=message):
            run_matching(s, ch, zeta=zeta)
        with pytest.raises(ValueError, match=message):
            find_blocking_pairs(m, s, ch, zeta=zeta)
    for zeta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="zeta must be a finite number"):
            run_matching(s, ch, zeta=zeta)
        with pytest.raises(ValueError, match="zeta must be a finite number"):
            find_blocking_pairs(m, s, ch, zeta=zeta)


def test_matching_and_audit_reject_a_budget_that_a_price_takes_past_the_float_range():
    """Budget and price 1e308 are finite, but the spend cost + price that
    the proposal and swap tests form is not; a budget of the float range's
    end minus the price is accepted.  Best effort sums prices past the
    range without a warning."""
    cfg = GenerationConfig(
        num_stations=3, num_anchors=1, num_mmw_brbs=4, num_sub6_brbs=0, mmw_price=1e308
    )
    for budget, fits in ((1e308, False), (sys.float_info.max - 1e308, True)):
        s = generate_scenario(replace(cfg, budget=budget), seed=0)
        ch = realize_channels(s, np.random.default_rng(0))
        audited = best_effort_allocate(s, ch)
        if fits:
            find_blocking_pairs(run_matching(s, ch, 1.0), s, ch, 1.0)
            continue
        message = re.escape("the budget 1e+308 plus the price 1e+308 is not finite")
        with pytest.raises(ValueError, match=message):
            run_matching(s, ch, 1.0)
        with pytest.raises(ValueError, match=message):
            find_blocking_pairs(audited, s, ch, 1.0)


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
    b0 = (0, 0, 0)
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


def test_matching_csv_rows_follow_ids_not_station_order(tmp_path):
    """Anchors listed under descending ids and demanders under shuffled
    ones: every scheme's rows still come by demander id, then by key
    (anchor id, mmWave before sub-6, index in band)."""
    cfg = GenerationConfig(num_stations=7, num_anchors=3, num_mmw_brbs=4, num_sub6_brbs=3)
    s = generate_scenario(cfg, seed=0)
    new_id = dict(enumerate((19, 16, 7, 4, 13, 10, 1)))
    s = replace(
        s,
        stations=tuple(replace(st, id=new_id[st.id]) for st in s.stations),
        prices={new_id[a]: p for a, p in s.prices.items()},
        budgets={new_id[d]: v for d, v in s.budgets.items()},
        demands_bps={new_id[d]: v for d, v in s.demands_bps.items()},
    )
    path = str(tmp_path / "scenario.json")
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert (loaded.anchor_ids, loaded.demander_ids) == ((19, 16, 7), (4, 13, 10, 1))
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    for scheme in SCHEMES:
        with open(out / f"matching_{scheme}.csv", encoding="utf-8", newline="") as fh:
            rows = [
                (int(r["k2"]), int(r["k1"]), r["band"] != "mmwave", int(r["n"]))
                for r in csv.DictReader(fh)
            ]
        assert rows == sorted(rows)
        # the order is not the station order: some demander holds blocks
        # of two anchors, and some of both bands of one anchor
        assert len({(d, a) for d, a, _, _ in rows}) > len({d for d, _, _, _ in rows})
        assert len({r[:3] for r in rows}) > len({r[:2] for r in rows})


# --- BRB table ------------------------------------------------------------------


def test_brb_table_tracks_one_anchors_sub6_price():
    s = _build([(0, 0), (100, 0)], [(10, 0)], n1=2, n2=2)
    dearer = replace(
        s,
        prices={
            0: {BandKind.MMWAVE: 1.0, BandKind.SUB6: 2.0},
            1: {BandKind.MMWAVE: 1.0, BandKind.SUB6: 7.0},
        },
    )
    a, b = s.brb_table, dearer.brb_table
    assert a is not b
    assert a.price.tolist() == [1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]
    assert b.price.tolist() == [1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 7.0, 7.0]
    assert (a.tiers, a.tier_sizes) == ((1.0, 2.0), (4, 4))
    assert (b.tiers, b.tier_sizes) == ((1.0, 2.0, 7.0), (4, 2, 2))
    # positions are not part of the shape
    assert resample_positions(s, np.random.default_rng(1)).brb_table is a


def test_brb_table_is_read_only():
    t = _build([(0, 0)], [(10, 0)], n1=2, n2=1).brb_table
    for array in (t.price, t.tier, t.tie_order):
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize(
    "twin",
    [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_twins_of_a_matching_its_table_and_its_realization_keep_read_only_arrays(twin):
    s = generate_scenario(GenerationConfig(num_stations=4, num_anchors=1), seed=0)
    ch = realize_channels(s, np.random.default_rng(0))
    m = run_matching(s, ch, 0.0)
    # the views are cached on first use; a twin builds its own
    views = m.owner_of, m.assigned
    assert views[0]
    for obj, names in (
        (m, ("holder",)),
        (m.table, ("price", "tier", "tie_order")),
        (ch, ("gains", "rates", "los")),
    ):
        t = twin(obj)
        for name in names:
            for a in (getattr(obj, name), getattr(t, name)):
                assert not a.flags.writeable
            np.testing.assert_array_equal(getattr(t, name), getattr(obj, name))
    t = twin(m)
    assert (t.owner_of, t.assigned) == views


def _outcomes(s, ch, audited):
    """What the schemes, the audit of ``audited`` and the oracle give on
    ``s``, as plain values."""
    def plain(m):
        return m.holder.tolist(), m.rate_bps, m.cost, m.rounds, m.proposals

    sol = brute_force_min_cost(s, ch)
    return (
        plain(run_matching(s, ch, 1e6)),
        plain(best_effort_allocate(s, ch)),
        list(find_blocking_pairs(audited, s, ch, 1e6)),
        (sol.feasible, sol.total_cost, plain(sol.matching)),
    )


_MONEY_CONFIG = GenerationConfig(
    num_stations=5, num_anchors=2, num_mmw_brbs=2, num_sub6_brbs=2,
    demand_bps=2e6, budget=9.0, mmw_price=1.3, sub6_price=2.7, area_side_m=150.0,
)

# each money field, a new value for each of its entries, and the
# generation config that draws the scenario with those values
_MONEY_EDITS = {
    "budgets": (lambda v: v / 8, {"budget": 9.0 / 8}),
    "demands_bps": (lambda v: 16.0 * v, {"demand_bps": 16.0 * 2e6}),
    "prices": (
        lambda v: {**v, BandKind.MMWAVE: v[BandKind.MMWAVE] + 1.0}, {"mmw_price": 1.3 + 1.0}
    ),
}

# every way to edit a dict in place, each given the dict and one of its keys
_IN_PLACE_EDITS = {
    "d[k] = v": lambda d, k: operator.setitem(d, k, d[k]),
    "del d[k]": operator.delitem,
    "d |= {k: v}": lambda d, k: operator.ior(d, {k: d[k]}),
    "clear": lambda d, k: d.clear(),
    "pop": lambda d, k: d.pop(k),
    "popitem": lambda d, k: d.popitem(),
    "setdefault": lambda d, k: d.setdefault(k, d[k]),
    "update": lambda d, k: d.update({k: d[k]}),
}


@pytest.mark.parametrize("field", list(_MONEY_EDITS))
def test_a_scenarios_money_refuses_every_edit(field):
    """Budgets, demands and prices, and each anchor's price dict, raise
    TypeError on every in-place edit and keep their values."""
    s = generate_scenario(_MONEY_CONFIG, seed=0)
    ch = realize_channels(s, np.random.default_rng(0))
    before = _outcomes(s, ch, run_matching(s, ch, 1e6))
    values = getattr(s, field)
    targets = [values, *values.values()] if field == "prices" else [values]
    for d in targets:
        kept = dict(d)
        for name, edit in _IN_PLACE_EDITS.items():
            with pytest.raises(TypeError, match="read-only"):
                edit(d, next(iter(d)))
            assert d == kept, name
    assert _outcomes(s, ch, run_matching(s, ch, 1e6)) == before


@pytest.mark.parametrize("field", list(_MONEY_EDITS))
def test_a_replaced_money_field_is_read_anew(field):
    """``replace(s, <field>=...)`` gives the scenario, and the results, of
    one generated with the new values, and leaves ``s`` as it was."""
    edit, generation = _MONEY_EDITS[field]
    s = generate_scenario(_MONEY_CONFIG, seed=0)
    ch = realize_channels(s, np.random.default_rng(0))
    audited = run_matching(s, ch, 1e6)
    before = _outcomes(s, ch, audited)
    edited = replace(s, **{field: {k: edit(v) for k, v in getattr(s, field).items()}})
    generated = generate_scenario(replace(_MONEY_CONFIG, **generation), seed=0)
    assert edited == generated
    after = _outcomes(edited, ch, audited)
    assert after != before
    assert after == _outcomes(generated, ch, audited)
    assert _outcomes(s, ch, audited) == before


@pytest.mark.parametrize("field", list(_MONEY_EDITS))
def test_the_dict_a_caller_passes_is_copied(field):
    """Editing the dict passed to ``Scenario(...)``, or an anchor's price
    dict inside it, after construction leaves the scenario as it was."""
    edit = _MONEY_EDITS[field][0]
    s = generate_scenario(_MONEY_CONFIG, seed=0)
    ch = realize_channels(s, np.random.default_rng(0))
    audited = run_matching(s, ch, 1e6)
    before = _outcomes(s, ch, audited)
    mine = {k: dict(v) if field == "prices" else v for k, v in getattr(s, field).items()}
    kept = Scenario(**{**{f.name: getattr(s, f.name) for f in fields(Scenario)}, field: mine})
    for k, v in list(mine.items()):
        if field == "prices":
            v.update(edit(v))
        else:
            mine[k] = edit(v)
    assert kept == s
    assert _outcomes(kept, ch, audited) == before


def test_no_scenario_is_retained_after_its_trial():
    """A scenario's terms are cached on the scenario itself, and the BRB
    table cache is keyed by plain values, so once the caller drops a
    scenario nothing in the package keeps it."""
    s = generate_scenario(GenerationConfig(num_stations=5, num_anchors=2), seed=0)
    rng = np.random.default_rng(0)
    ch = realize_channels(s, rng)
    for scheme in SCHEMES:
        find_blocking_pairs(run_scheme(scheme, s, ch, 1e6, rng), s, ch, 1e6)
    ref_s = weakref.ref(s)
    del s
    gc.collect()
    assert ref_s() is None
