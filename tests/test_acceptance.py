"""Release gate: end-to-end guarantees of the simulator at full scale.

Each test stands for one shipped promise, in order: the distributed
matching is stable in every reference-scale trial, converges within the
proposal and round bounds, never spends past a budget, agrees with the
exhaustive oracle on micro instances, beats both baselines on average
rate, needs rounds that grow linearly with network size, reproduces the
frozen numeric anchors of the propagation models, and the command line
is bytewise reproducible.  The heavy simulations run once per module
through the fixtures below; expected values and tolerances are frozen.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
import reference_model as ref

from scbn.cli import main
from scbn.experiments import SweepConfig, random_micro_config, sweep_k, sweep_n1
from scbn.matching import find_blocking_pairs, run_matching
from scbn.oracle import brute_force_min_cost, check_constraints
from scbn.propagation import gamma_tensor, realize_channels
from scbn.scenario import GenerationConfig, generate_scenario, resample_positions

ZETA = 1e6


# --- reference-scale matching trials (shared by the first three tests) -------


@pytest.fixture(scope="module")
def reference_audit():
    """1000 trials at reference scale: 10 stations, 2 anchors, 192 + 100 BRBs.

    Mirrors the rng streams of ``stability_audit`` but also tracks the
    worst spending, so one pass over the trials serves the stability,
    convergence, and budget checks together.
    """
    base = generate_scenario(GenerationConfig(), seed=0)
    k1 = len(base.anchors)
    k2 = len(base.demanders)
    n = base.brbs_per_anchor
    stats = {
        "trials": 1000,
        "blocking_pairs": 0,
        "max_rounds": 0,
        "max_proposals": 0,
        "rounds_bound": k1 * n,
        "proposals_bound": k2 * k1 * n,
        "budgets_are_60": all(b == 60.0 for b in base.budgets.values()),
        "over_budget_trials": 0,
        "worst_spend": 0.0,
    }
    start = time.monotonic()
    for t in range(stats["trials"]):
        rng = np.random.default_rng([0, 0x57AB, t])
        s = resample_positions(base, rng)
        ch = realize_channels(s, rng)
        m = run_matching(s, ch, ZETA)
        stats["blocking_pairs"] += len(find_blocking_pairs(m, s, ch, ZETA))
        stats["max_rounds"] = max(stats["max_rounds"], m.rounds)
        stats["max_proposals"] = max(stats["max_proposals"], m.proposals)
        spend = max(m.cost[d] for d in s.demander_ids)
        stats["worst_spend"] = max(stats["worst_spend"], spend)
        # exact float comparison: the cap must hold without tolerance
        if any(not m.cost[d] <= s.budgets[d] for d in s.demander_ids):
            stats["over_budget_trials"] += 1
    stats["elapsed_s"] = time.monotonic() - start
    return stats


def test_matching_is_stable_in_every_reference_trial(reference_audit):
    assert reference_audit["blocking_pairs"] == 0, reference_audit
    assert reference_audit["elapsed_s"] < 300.0, reference_audit


def test_effort_stays_within_the_convergence_bounds(reference_audit):
    assert reference_audit["max_proposals"] <= reference_audit["proposals_bound"], (
        reference_audit
    )
    assert reference_audit["max_rounds"] <= reference_audit["rounds_bound"], (
        reference_audit
    )


def test_spending_never_exceeds_the_budget(reference_audit):
    assert reference_audit["budgets_are_60"]
    assert reference_audit["over_budget_trials"] == 0, reference_audit
    assert reference_audit["worst_spend"] <= 60.0


# --- exhaustive-oracle agreement on micro instances ---------------------------


@pytest.fixture(scope="module")
def micro_oracle_audit():
    """200 random micro instances, matching vs. exhaustive enumeration.

    Uses the instance stream of ``oracle_compare_rows`` and adds a
    randomized dominance probe: uniformly sampled assignments that turn
    out feasible must never undercut the enumerated minimum.
    """
    rng = np.random.default_rng([0, 0xACE])
    stats = {
        "trials": 200,
        "constraint_failures": 0,
        "feasible": 0,
        "met": 0,
        "met_and_cheaper_than_oracle": 0,
        "sampled_feasible": 0,
        "dominance_failures": 0,
    }
    start = time.monotonic()
    for t in range(stats["trials"]):
        cfg = random_micro_config(rng)
        s = generate_scenario(cfg, seed=int(rng.integers(2**31)))
        ch = realize_channels(s, rng)
        m = run_matching(s, ch, ZETA)
        report = check_constraints(m, s, ch)
        if not (report.budget_ok and report.per_anchor_ok):
            stats["constraint_failures"] += 1
        sol = brute_force_min_cost(s, ch)
        stats["feasible"] += sol.feasible
        if all(m.rate_bps[d] >= s.demands_bps[d] for d in s.demander_ids):
            stats["met"] += 1
            if sum(m.cost.values()) < sol.total_cost - 1e-9:
                stats["met_and_cheaper_than_oracle"] += 1
        costs = ref.sample_feasible_costs(s, ch, 500, np.random.default_rng([0, 0xD1CE, t]))
        stats["sampled_feasible"] += len(costs)
        # infeasible instances have floor inf, so any sample counts as a failure
        floor = sol.total_cost if sol.feasible else math.inf
        stats["dominance_failures"] += int(np.count_nonzero(costs < floor - 1e-9))
    stats["elapsed_s"] = time.monotonic() - start
    return stats


def test_matching_agrees_with_the_exhaustive_oracle(micro_oracle_audit):
    a = micro_oracle_audit
    assert a["constraint_failures"] == 0, a
    assert a["met_and_cheaper_than_oracle"] == 0, a
    assert a["dominance_failures"] == 0, a
    # enough solvable instances that the comparisons carry weight
    assert a["feasible"] >= 10 and a["met"] >= 10 and a["sampled_feasible"] >= 100, a
    assert a["elapsed_s"] < 120.0, a


# --- average-rate advantage over the baselines --------------------------------


@pytest.fixture(scope="module")
def rate_sweep():
    cfg = SweepConfig(
        base=GenerationConfig(mmw_blockage_prob=0.8),
        trials=200,
        zeta_bps_per_unit=ZETA,
        seed=42,
        n1_values=(16, 48, 96, 144, 180),
    )
    return sweep_n1(cfg)


def test_matching_beats_both_baselines_on_average_rate(rate_sweep):
    by_n1 = {int(pt.values["n1"]): pt.per_scheme for pt in rate_sweep.points}
    for n1, schemes in by_n1.items():
        m = schemes["matching"]
        if m.budget_bound_fraction >= 0.25:  # budgets bind at this supply level
            assert m.mean_rate_bps >= schemes["best_effort"].mean_rate_bps, n1
    widest = by_n1[180]
    assert widest["matching"].budget_bound_fraction >= 0.25
    over_best_effort = (
        widest["matching"].mean_rate_bps / widest["best_effort"].mean_rate_bps
    )
    over_random = widest["matching"].mean_rate_bps / widest["random"].mean_rate_bps
    assert 1.1 <= over_best_effort <= 1.6, over_best_effort
    assert over_random >= 2.0, over_random


# --- round growth with network size -------------------------------------------


@pytest.fixture(scope="module")
def rounds_sweep():
    cfg = SweepConfig(
        base=GenerationConfig(area_side_m=800.0),
        trials=200,
        zeta_bps_per_unit=ZETA,
        seed=42,
        schemes=("matching",),
        k_values=(4, 8, 12, 16, 20),
        demand_levels_bps=(50e6, 100e6),
    )
    return sweep_k(cfg)


def test_rounds_grow_linearly_with_network_size(rounds_sweep):
    rounds = {
        (int(pt.values["k"]), pt.values["demand_bps"]): pt.per_scheme[
            "matching"
        ].mean_rounds
        for pt in rounds_sweep.points
    }
    sizes = (4, 8, 12, 16, 20)
    heavy = [rounds[(k, 100e6)] for k in sizes]
    light = [rounds[(k, 50e6)] for k in sizes]
    fit = float(np.corrcoef(sizes, heavy)[0, 1])
    assert fit >= 0.9, (fit, heavy)
    # halving the demand roughly halves the rounds at the largest size
    ratio = light[-1] / heavy[-1]
    assert 0.35 <= ratio <= 0.65, (ratio, light, heavy)


# --- frozen numeric anchors ----------------------------------------------------


def test_numeric_anchors_of_the_propagation_models():
    # the path loss and the rate are pinned on the reference model, which
    # tests/test_propagation.py holds to the package's gain and rate tensors
    assert ref.mmw_pathloss_db(1.0, 2.0, 70.0) == 70.0

    # 2 anchors x 625 sub-6 BRBs x 8 demanders = 10000 fade draws
    cfg = GenerationConfig(num_mmw_brbs=1, num_sub6_brbs=625)
    s = generate_scenario(cfg, seed=4)
    ch = realize_channels(s, np.random.default_rng(8))
    ax = np.array([[st.x_m, st.y_m] for st in s.anchors])
    dx = np.array([[st.x_m, st.y_m] for st in s.demanders])
    dist = np.maximum(np.linalg.norm(ax[:, None] - dx[None, :], axis=2), 1.0)
    loss_db = s.sub6.ref_loss_db + 10.0 * s.sub6.pathloss_exponent * np.log10(dist)
    fades = ch.gains[:, 1:, :] / (10.0 ** (-loss_db / 10.0))[:, None, :]
    assert 0.95 <= fades.mean() <= 1.05

    # a lone anchor's sub-6 SINR is its SNR, on the package path
    lone = generate_scenario(
        GenerationConfig(num_stations=2, num_anchors=1, num_mmw_brbs=1, num_sub6_brbs=1),
        seed=0,
    )
    ch = realize_channels(lone, np.random.default_rng(0))
    assert gamma_tensor(lone, ch)[0, 1, 0] == ref.snr_mmw(
        lone.tx_power_w, ch.gains[0, 1, 0], lone.noise_power_w
    )

    assert ref.brb_rate(480e3, 1.0) == 480000.0


# --- bytewise command-line reproducibility -------------------------------------


def _csv_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def test_cli_reruns_produce_identical_csv_files(tmp_path):
    base = {
        "num_stations": 6,
        "num_anchors": 2,
        "num_mmw_brbs": 4,
        "num_sub6_brbs": 3,
        "demand_bps": 3e7,
        "budget": 20.0,
        "area_side_m": 500.0,
    }
    params = tmp_path / "params.json"
    params.write_text(json.dumps(base), encoding="utf-8")
    scenario = tmp_path / "scenario.json"
    rc = main(
        ["generate", "--params", str(params), "--seed", "5", "--out", str(scenario)]
    )
    assert rc == 0

    for name in ("run_a", "run_b"):
        rc = main(
            [
                "run",
                "--scenario",
                str(scenario),
                "--channel-seed",
                "7",
                "--dump-channels",
                "--out",
                str(tmp_path / name),
            ]
        )
        assert rc == 0
    run_a = _csv_bytes(tmp_path / "run_a")
    assert run_a and run_a == _csv_bytes(tmp_path / "run_b")

    sweep_doc = {
        "base": base,
        "trials": 4,
        "zeta_bps_per_unit": ZETA,
        "seed": 9,
        "n1_values": [4, 8],
    }
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps(sweep_doc), encoding="utf-8")
    for name in ("sweep_a", "sweep_b"):
        rc = main(["sweep", "n1", "--config", str(sweep_cfg), "--out", str(tmp_path / name)])
        assert rc == 0
    sweep_a = _csv_bytes(tmp_path / "sweep_a")
    assert sweep_a and sweep_a == _csv_bytes(tmp_path / "sweep_b")
