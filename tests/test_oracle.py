from __future__ import annotations

import math

import numpy as np
import pytest
import reference_model as ref

from scbn import oracle
from scbn.experiments import random_micro_config
from scbn.matching import _flat_view, matching_from_assignment, run_matching
from scbn.oracle import InstanceTooLargeError, brute_force_min_cost, check_constraints
from scbn.propagation import realize_channels
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


def _tiny_scenario(n1=1, n2=0, demanders=1, demand=5e6, budget=2.0, mmw_price=1.0):
    stations = [BaseStation(id=0, role=Role.ANCHOR, x_m=0.0, y_m=0.0)]
    stations += [
        BaseStation(id=1 + i, role=Role.DEMANDING, x_m=10.0 + 5.0 * i, y_m=0.0)
        for i in range(demanders)
    ]
    ids = [st.id for st in stations[1:]]
    return Scenario(
        stations=tuple(stations),
        mmw_band=Band(73e9, n1, 1e6),
        sub6_band=Band(5.8e9, n2, 480e3),
        prices={0: {BandKind.MMWAVE: mmw_price, BandKind.SUB6: 3.0}},
        budgets={d: budget for d in ids},
        demands_bps={d: demand for d in ids},
        tx_power_w=1.0,
        noise_power_dbm=-90.0,
        mmw_pathloss=MmwParams(2.0, 70.0, 0.0, blockage_prob=0.0),
        sub6_pathloss=Sub6Params(3.0, 47.9),
        area_side_m=100.0,
        seed=0,
    )


def test_oracle_finds_the_unique_feasible_assignment():
    s = _tiny_scenario()
    ch = realize_channels(s, np.random.default_rng(0))
    sol = brute_force_min_cost(s, ch)
    assert sol.feasible
    assert sol.total_cost == 1.0
    assert sol.matching.assigned[1] == frozenset({(0, 0, 0)})


def test_oracle_reports_infeasibility():
    s = _tiny_scenario(demand=1e15)
    ch = realize_channels(s, np.random.default_rng(0))
    sol = brute_force_min_cost(s, ch)
    assert not sol.feasible
    assert sol.total_cost == math.inf
    assert all(not brbs for brbs in sol.matching.assigned.values())
    assert sol.matching.owner_of == {}


def test_oracle_rejects_an_optimum_whose_total_price_overflows():
    """Each demander can buy one block within its budget of 1e308, but any
    feasible assignment buys both, and 2e308 overflows: an infinite
    ``total_cost`` would read as infeasibility, so the oracle raises, and
    its overflowing sums warn nothing."""
    cfg = GenerationConfig(
        num_stations=3,
        num_anchors=1,
        num_mmw_brbs=2,
        num_sub6_brbs=0,
        mmw_price=1e308,
        budget=1e308,
        demand_bps=1.0,
    )
    s = generate_scenario(cfg, seed=0)
    ch = realize_channels(s, np.random.default_rng(0))
    assert (ch.rates >= 1.0).all()  # one block meets each demand
    with pytest.raises(ValueError, match="overflows to inf"):
        brute_force_min_cost(s, ch)


def test_oracle_tie_break_is_the_first_enumerated_minimum():
    # two interchangeable blocks: the enumeration reaches "assign only the
    # second" before "assign only the first", so block 0 stays free
    s = _tiny_scenario(n1=2)
    ch = realize_channels(s, np.random.default_rng(0))
    sol = brute_force_min_cost(s, ch)
    b0, b1 = (0, 0, 0), (0, 0, 1)
    assert sol.total_cost == 1.0
    assert sol.matching.assigned[1] == frozenset({b1})
    assert b0 not in sol.matching.owner_of


def test_oracle_rejects_too_many_brbs():
    s = _tiny_scenario(n1=5, n2=4)
    ch = realize_channels(s, np.random.default_rng(0))
    with pytest.raises(InstanceTooLargeError, match=r"9 BRBs.*limited to 8 BRBs"):
        brute_force_min_cost(s, ch)


def test_oracle_rejects_too_many_demanders():
    s = _tiny_scenario(demanders=4)
    ch = realize_channels(s, np.random.default_rng(0))
    with pytest.raises(InstanceTooLargeError, match="4 demanders"):
        brute_force_min_cost(s, ch)


def _friendly_micro(rng):
    """Micro instance biased towards feasibility (no blockage, short links)."""
    k1 = int(rng.integers(1, 3))
    n1 = int(rng.integers(2, 4)) if k1 == 1 else 2
    n2 = int(rng.integers(1, 3)) if k1 == 1 else 1
    return GenerationConfig(
        num_stations=k1 + 2,
        num_anchors=k1,
        num_mmw_brbs=n1,
        num_sub6_brbs=n2,
        demand_bps=float(rng.uniform(5e5, 6e6)),
        budget=float(rng.uniform(8.0, 40.0)),
        mmw_price=float(rng.uniform(0.1, 4.0)),
        sub6_price=float(rng.uniform(1.0, 10.0)),
        area_side_m=150.0,
    )


def test_random_feasible_assignments_never_beat_the_oracle():
    rng = np.random.default_rng(0x0DD5)
    checked = 0
    for _ in range(8):
        cfg = _friendly_micro(rng)
        s = generate_scenario(cfg, seed=int(rng.integers(2**31)))
        ch = realize_channels(s, rng)
        sol = brute_force_min_cost(s, ch)
        costs = ref.sample_feasible_costs(s, ch, 10_000, rng)
        if not sol.feasible:
            assert costs.size == 0
            continue
        assert np.all(costs >= sol.total_cost - 1e-9)
        checked += 1
    assert checked >= 4


def test_matching_cost_dominates_oracle_cost_when_demands_are_met():
    rng = np.random.default_rng(0x5EED)
    compared = 0
    for _ in range(30):
        cfg = _friendly_micro(rng)
        s = generate_scenario(cfg, seed=int(rng.integers(2**31)))
        ch = realize_channels(s, rng)
        m = run_matching(s, ch, zeta=1e6)
        sol = brute_force_min_cost(s, ch)
        if not sol.feasible:
            continue
        if all(m.rate_bps[d] >= s.demands_bps[d] for d in s.demander_ids):
            assert sum(m.cost.values()) >= sol.total_cost - 1e-9
            compared += 1
    assert compared >= 10


def test_audit_distribution_mixes_feasible_and_infeasible_instances():
    rng = np.random.default_rng([3, 0xACE])
    outcomes = set()
    for _ in range(25):
        cfg = random_micro_config(rng)
        s = generate_scenario(cfg, seed=int(rng.integers(2**31)))
        ch = realize_channels(s, rng)
        outcomes.add(brute_force_min_cost(s, ch).feasible)
    assert outcomes == {True, False}


def _largest_legal_instance(seed, demand_bps):
    """Three demanders and eight BRBs, close enough to meet small demands."""
    cfg = GenerationConfig(
        num_stations=5,
        num_anchors=2,
        num_mmw_brbs=2,
        num_sub6_brbs=2,
        demand_bps=demand_bps,
        budget=9.0,
        mmw_price=1.3,
        sub6_price=2.7,
        area_side_m=150.0,
    )
    s = generate_scenario(cfg, seed=seed)
    return s, realize_channels(s, np.random.default_rng(seed))


def test_oracle_matches_the_per_demander_reference():
    """The sums along the prefix tree give the bits of the per-demander
    loop for every assignment, not only the cheapest: 200 micro instances
    drawn as ``oracle_compare_rows`` draws them, and the largest legal
    shape."""
    rng = np.random.default_rng([0, 0xACE])
    instances = []
    for _ in range(200):
        s = generate_scenario(random_micro_config(rng), seed=int(rng.integers(2**31)))
        instances.append((s, realize_channels(s, rng)))
    instances += [
        _largest_legal_instance(seed, demand)
        for seed, demand in enumerate((2e6, 2e6, 5e8))
    ]
    outcomes = set()
    for s, ch in instances:
        t, r_flat, budgets, demands = _flat_view(s, ch)
        sol = brute_force_min_cost(s, ch)
        feasible, total_cost, holder = ref.brute_force_min_cost(
            r_flat, t.price, budgets, demands
        )
        # a tree column's digits reversed are its lexicographic digits
        m_total, k2 = r_flat.shape
        shape = (k2 + 1,) * m_total
        new_rows = [
            a.reshape(shape).T.ravel()
            for a in oracle._tree_feasibility(r_flat, t.price, budgets, demands)
        ]
        choices = np.indices(shape, dtype=np.int8).reshape(m_total, -1).T
        ref_rows = ref.oracle_feasibility(choices, r_flat, t.price, budgets, demands)
        assert new_rows[0].tolist() == ref_rows[0].tolist()
        assert new_rows[1].tobytes() == ref_rows[1].tobytes()
        assert sol.feasible == feasible
        assert sol.total_cost.hex() == total_cost.hex()
        assert sol.matching.holder.tolist() == holder
        outcomes.add((r_flat.shape, feasible))
    assert {((8, 3), True), ((8, 3), False)} <= outcomes
    assert len({f for _, f in outcomes}) == 2


def test_the_tree_is_built_only_when_every_demand_is_in_reach(monkeypatch):
    """Each demander's rate over all M blocks, the early-out's sum, is bit
    for bit the tree's rate sum in the column that gives every block to
    it, and the tree is built exactly when no such sum falls short of its
    demand: 200 micro instances drawn as ``oracle_compare_rows`` draws
    them, and the largest legal shape."""
    tree, calls = oracle._tree_feasibility, []
    monkeypatch.setattr(oracle, "_tree_feasibility", lambda *a: calls.append(a) or tree(*a))
    rng = np.random.default_rng([0, 0xACE])
    instances = []
    for _ in range(200):
        s = generate_scenario(random_micro_config(rng), seed=int(rng.integers(2**31)))
        instances.append((s, realize_channels(s, rng)))
    instances += [
        _largest_legal_instance(seed, demand)
        for seed, demand in enumerate((2e6, 2e6, 5e8))
    ]
    short_seen = set()
    for s, ch in instances:
        t, r_flat, budgets, demands = _flat_view(s, ch)
        m_total, k2 = r_flat.shape
        reach = np.cumsum(r_flat, axis=0)[-1]
        for j in range(k2):
            # the column whose every digit is j + 1 meets a demand x of
            # demander j (and 0 of the others) exactly when its sum >= x, so
            # the sum is reach[j] when it meets reach[j] and not the next float
            column = (j + 1) * ((k2 + 1) ** m_total - 1) // k2
            bound = [0.0] * k2
            bound[j] = reach[j]
            assert tree(r_flat, t.price, [math.inf] * k2, bound)[0][column]
            bound[j] = np.nextafter(reach[j], math.inf)
            assert not tree(r_flat, t.price, [math.inf] * k2, bound)[0][column]
        short = bool((reach < demands).any())
        del calls[:]
        sol = brute_force_min_cost(s, ch)
        assert len(calls) == (0 if short else 1)
        assert not (short and sol.feasible)
        short_seen.add(short)
    assert short_seen == {True, False}


# --- constraint audit -----------------------------------------------------------


def test_check_constraints_passes_a_sound_matching():
    s = _tiny_scenario()
    ch = realize_channels(s, np.random.default_rng(0))
    m = run_matching(s, ch, zeta=0.0)
    report = check_constraints(m, s, ch)
    assert report.all_ok
    assert report.rate_slack_bps[1] == m.rate_bps[1] - 5e6
    assert report.budget_slack[1] == 2.0 - 1.0


def test_check_constraints_flags_unmet_demand():
    s = _tiny_scenario()
    ch = realize_channels(s, np.random.default_rng(0))
    empty = matching_from_assignment(s, ch, {})
    report = check_constraints(empty, s, ch)
    assert not report.rate_ok
    assert report.rate_slack_bps[1] == -5e6
    assert report.budget_ok and report.budget_slack[1] == 2.0
    assert not report.all_ok


def test_check_constraints_flags_overspending():
    s = _tiny_scenario(n1=2, budget=1.5)
    ch = realize_channels(s, np.random.default_rng(0))
    b0, b1 = (0, 0, 0), (0, 0, 1)
    m = matching_from_assignment(s, ch, {1: {b0, b1}})
    report = check_constraints(m, s, ch)
    assert not report.budget_ok
    assert report.budget_slack[1] == 1.5 - 2.0
