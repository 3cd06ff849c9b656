from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from scbn import experiments, propagation
from scbn.experiments import (
    SCHEMES,
    SWEEPS,
    _Z975,
    _budget_bound_fraction,
    AggregateMetrics,
    SchemeMetrics,
    SweepConfig,
    TrialResult,
    load_sweep_config,
    oracle_compare_rows,
    random_micro_config,
    run_trial,
    stability_audit,
    sweep,
    write_manifest,
    write_sweep_csv,
)
from scbn.matching import find_blocking_pairs, run_matching
from scbn.propagation import realize_channels
from scbn.scenario import ConfigError, GenerationConfig, _write_csv, generate_scenario


_SMALL = GenerationConfig(
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


def test_run_trial_is_deterministic():
    s = generate_scenario(_SMALL, seed=1)
    a = run_trial(s, 1e6, SCHEMES, np.random.default_rng([1, 0]))
    b = run_trial(s, 1e6, SCHEMES, np.random.default_rng([1, 0]))
    assert a == b


def test_each_scheme_calls_its_function_as_experiments_holds_it(monkeypatch):
    """A scheme's run looks its function up in ``experiments`` when called,
    so wrappers put there, as bench's tracing does, see every call."""
    s = generate_scenario(_SMALL, seed=1)
    unwrapped = run_trial(s, 1e6, SCHEMES, np.random.default_rng([1, 0]))
    names = ("run_matching", "best_effort_allocate", "random_allocate")
    calls = []
    for name in names:
        fn = getattr(experiments, name)

        def counted(*args, _name=name, _fn=fn):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(experiments, name, counted)
    assert run_trial(s, 1e6, SCHEMES, np.random.default_rng([1, 0])) == unwrapped
    assert sorted(calls) == sorted(names)
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="unknown scheme 'telepathy'"):
        experiments.run_scheme("telepathy", s, realize_channels(s, rng), 1e6, rng)


def test_run_trial_matching_metrics_do_not_depend_on_other_schemes():
    # schemes share one placement and channel draw per trial, so dropping
    # the baselines must not change the matching column
    s = generate_scenario(_SMALL, seed=1)
    alone = run_trial(s, 1e6, ("matching",), np.random.default_rng([1, 5]))
    full = run_trial(s, 1e6, SCHEMES, np.random.default_rng([1, 5]))
    assert alone.per_scheme["matching"] == full.per_scheme["matching"]


def test_run_trial_matching_is_stable():
    s = generate_scenario(_SMALL, seed=2)
    for t in range(5):
        res = run_trial(s, 1e6, ("matching",), np.random.default_rng([2, t]))
        assert res.per_scheme["matching"].blocking_pairs == 0


def test_a_trial_computes_the_rate_tensor_once(monkeypatch):
    real = propagation.rate_tensor
    calls = []

    def counting(s, ch):
        calls.append(None)
        return real(s, ch)

    patched = [
        name
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "scbn" and getattr(module, "rate_tensor", None) is real
    ]
    assert "scbn.propagation" in patched
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "rate_tensor", counting)
    base = generate_scenario(GenerationConfig(), seed=0)
    result = run_trial(base, 1e6, SCHEMES, np.random.default_rng(3))
    assert set(result.per_scheme) == set(SCHEMES)
    assert len(calls) == 1


def test_run_trial_rejects_unknown_scheme():
    s = generate_scenario(_SMALL, seed=1)
    with pytest.raises(ConfigError, match="unknown scheme"):
        run_trial(s, 1e6, ("matchmaking",), np.random.default_rng(0))


def test_fully_blocked_network_carries_nothing():
    cfg = dataclasses.replace(_SMALL, num_sub6_brbs=0, mmw_blockage_prob=1.0)
    s = generate_scenario(cfg, seed=3)
    res = run_trial(s, 1e6, SCHEMES, np.random.default_rng([3, 0]))
    for scheme in SCHEMES:
        assert res.per_scheme[scheme].avg_rate_bps == 0.0
        assert res.per_scheme[scheme].demand_met_fraction == 0.0


def test_budget_bound_fraction_uses_the_schemes_affordability_sum():
    """Five blocks at 0.1 and budgets 0.2 and 0.4: the stronger, poorer
    demander buys two blocks, the other three at cost 0.30000000000000004.
    A fourth block would fit the richer one's budget by the schemes' own
    sum, 0.30000000000000004 + 0.1 <= 0.4, although 0.4 minus that cost
    falls just short of 0.1; only the poorer demander is stopped by money."""
    cfg = GenerationConfig(
        num_stations=3,
        num_anchors=1,
        num_mmw_brbs=5,
        num_sub6_brbs=0,
        mmw_price=0.1,
        mmw_shadow_sigma_db=0.0,
        demand_bps=1e12,
    )
    s = generate_scenario(cfg, seed=0)
    xy = ((100.0, 100.0), (110.0, 100.0), (300.0, 100.0))
    s = dataclasses.replace(
        s,
        stations=tuple(
            dataclasses.replace(st, x_m=x, y_m=y) for st, (x, y) in zip(s.stations, xy)
        ),
        budgets=dict(zip(s.demander_ids, (0.2, 0.4))),
    )
    m = run_matching(s, realize_channels(s, np.random.default_rng(0)), zeta=0.0)
    poor, rich = s.demander_ids
    assert m.holder.tolist() == [0, 0, 1, 1, 1]
    assert m.cost[rich] == 0.1 + 0.1 + 0.1 == 0.30000000000000004
    # the edge: the schemes' sum fits, the remaining budget falls short
    assert m.cost[rich] + 0.1 <= s.budgets[rich]
    assert s.budgets[rich] - m.cost[rich] < 0.1
    assert _budget_bound_fraction(s, m) == 0.5


def test_budget_bound_fraction_compares_the_budgets_as_the_schemes_do():
    """Budgets given as the int 2**54 + 3, whose float is 2**54 + 4, and
    one block priced 2**54 + 4: by the float every scheme compares, the
    block fits either demander's budget, so the demander without it lost
    it to the other, and was not stopped by money."""
    cfg = GenerationConfig(
        num_stations=3,
        num_anchors=1,
        num_mmw_brbs=1,
        num_sub6_brbs=0,
        mmw_price=float(2**54 + 4),
        demand_bps=1e12,
    )
    s = generate_scenario(cfg, seed=0)
    s = dataclasses.replace(s, budgets=dict.fromkeys(s.demander_ids, 2**54 + 3))
    assert float(2**54 + 3) == 2**54 + 4 > 2**54 + 3
    m = run_matching(s, realize_channels(s, np.random.default_rng(0)), zeta=0.0)
    assert m.holder.tolist() in ([0], [1])
    assert _budget_bound_fraction(s, m) == 0.0


def _one_point_sweep(trials):
    cfg = SweepConfig(
        base=_SMALL,
        trials=trials,
        zeta_bps_per_unit=1e6,
        seed=11,
        schemes=("matching",),
        n1_values=(8,),
    )
    return sweep(cfg, "n1").points[0].per_scheme["matching"]


def test_confidence_interval_shrinks_with_trials():
    narrow = _one_point_sweep(160)
    wide = _one_point_sweep(40)
    assert narrow.ci95_rate_bps <= 0.6 * wide.ci95_rate_bps
    assert narrow.trials == 160 and wide.trials == 40


def _lone_list_mean_ci(values: list, n: int) -> tuple[float, float]:
    """A metric's mean and 95% half-width as numpy reduces its list alone."""
    ci = _Z975 * float(np.std(values, ddof=1)) / n**0.5 if n > 1 else 0.0
    return float(np.mean(values)), ci


@pytest.mark.parametrize("n", [1, 2, 9, 200])
def test_aggregate_reduces_each_field_as_a_lone_list(n):
    # the point's table is reduced row by row; each row must give the bits
    # of its metric's own list, in trial order.  Blocking-pair counts are
    # integers, so their float sums are exact in any order
    rng = np.random.default_rng([n, 0xA66])
    trials = [
        TrialResult(
            per_scheme={
                scheme: SchemeMetrics(
                    avg_rate_bps=float(rng.uniform(0.0, 1e8)),
                    avg_cost=float(rng.uniform(0.0, 60.0)),
                    demand_met_fraction=int(rng.integers(0, 9)) / 8,
                    rounds=int(rng.integers(1, 300)),
                    proposals=int(rng.integers(1, 3000)),
                    blocking_pairs=int(rng.integers(0, 6)),
                    budget_bound_fraction=int(rng.integers(0, 9)) / 8,
                )
                for scheme in SCHEMES
            }
        )
        for _ in range(n)
    ]
    out = experiments._aggregate(trials, SCHEMES)
    for scheme in SCHEMES:
        ms = [t.per_scheme[scheme] for t in trials]
        rate, rate_ci = _lone_list_mean_ci([m.avg_rate_bps for m in ms], n)
        cost, cost_ci = _lone_list_mean_ci([m.avg_cost for m in ms], n)
        rounds, rounds_ci = _lone_list_mean_ci([float(m.rounds) for m in ms], n)
        proposals, proposals_ci = _lone_list_mean_ci([float(m.proposals) for m in ms], n)
        assert out[scheme] == AggregateMetrics(
            mean_rate_bps=rate,
            ci95_rate_bps=rate_ci,
            mean_cost=cost,
            ci95_cost=cost_ci,
            demand_met_fraction=float(np.mean([m.demand_met_fraction for m in ms])),
            mean_rounds=rounds,
            ci95_rounds=rounds_ci,
            mean_proposals=proposals,
            ci95_proposals=proposals_ci,
            mean_blocking_pairs=float(np.mean([m.blocking_pairs for m in ms])),
            budget_bound_fraction=float(np.mean([m.budget_bound_fraction for m in ms])),
            trials=n,
        )


def test_sweep_points_are_paired_across_the_swept_axis():
    # the per-trial rng ignores the sweep point, so two points with the
    # same deployment shape see identical trials
    cfg = SweepConfig(
        base=_SMALL,
        trials=5,
        zeta_bps_per_unit=1e6,
        seed=4,
        schemes=("matching",),
        n1_values=(8, 8),
    )
    a, b = sweep(cfg, "n1").points
    assert a.per_scheme == b.per_scheme


def test_sweeps_require_their_axis_values():
    cfg = SweepConfig(base=_SMALL, trials=1, zeta_bps_per_unit=1e6, seed=0)
    for axis in SWEEPS:
        with pytest.raises(ConfigError, match=f"{axis} sweep needs"):
            sweep(cfg, axis)


def test_a_sweep_fails_before_running_any_trial(monkeypatch):
    # K=2 with two anchors leaves no demander: the second point's
    # scenario is invalid, and the sweep must say so before any trial
    calls = []
    real = experiments.run_trial
    monkeypatch.setattr(
        experiments, "run_trial", lambda *args: calls.append(None) or real(*args)
    )
    cfg = SweepConfig(
        base=_SMALL,
        trials=3,
        zeta_bps_per_unit=1e6,
        seed=0,
        schemes=("matching",),
        k_values=(4, 2),
        demand_levels_bps=(30e6,),
    )
    with pytest.raises(ConfigError):
        sweep(cfg, "k")
    assert calls == []


@pytest.mark.parametrize(
    "change, message",
    [
        ({"schemes": ()}, "no scheme given"),
        ({"schemes": ("random", "random")}, "given twice"),
        ({"trials": 0}, "trials must be at least 1"),
        ({"workers": 0}, "workers must be at least 1"),
    ],
)
def test_a_sweep_checks_its_schemes_and_trials_before_any_trial(
    monkeypatch, change, message
):
    calls = []
    real = experiments.run_trial
    monkeypatch.setattr(
        experiments, "run_trial", lambda *args: calls.append(None) or real(*args)
    )
    cfg = SweepConfig(
        base=_SMALL,
        trials=2,
        zeta_bps_per_unit=1e6,
        seed=0,
        schemes=("matching",),
        n1_values=(4,),
    )
    with pytest.raises(ConfigError, match=message):
        sweep(dataclasses.replace(cfg, **change), "n1")
    assert calls == []


def test_rate_grows_with_mmw_supply_for_every_scheme():
    cfg = SweepConfig(
        base=_SMALL,
        trials=40,
        zeta_bps_per_unit=1e6,
        seed=13,
        n1_values=(2, 12),
    )
    scarce, plentiful = sweep(cfg, "n1").points
    for scheme in SCHEMES:
        assert (
            plentiful.per_scheme[scheme].mean_rate_bps
            > scarce.per_scheme[scheme].mean_rate_bps
        ), scheme


def test_rounds_grow_with_network_size():
    cfg = SweepConfig(
        base=dataclasses.replace(_SMALL, area_side_m=800.0),
        trials=30,
        zeta_bps_per_unit=1e6,
        seed=6,
        schemes=("matching",),
        k_values=(4, 8),
        demand_levels_bps=(30e6,),
    )
    small, large = sweep(cfg, "k").points
    assert small.values["k"] == 4.0 and large.values["k"] == 8.0
    assert large.per_scheme["matching"].mean_rounds > small.per_scheme["matching"].mean_rounds


# --- budget / price trends -------------------------------------------------------
#
# The shipped desk-scale grid; the seed pins the Monte Carlo draw, so these
# trends are deterministic checks, not flaky statistics.

_TREND_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "budget_price_grid.json")


def _trend_grid():
    cfg = load_sweep_config(_TREND_CONFIG)
    points = {}
    for pt in sweep(cfg, "budget-price").points:
        points[(pt.values["budget"], pt.values["sub6_price"])] = pt.per_scheme["matching"]
    return points


@pytest.fixture(scope="module")
def trend_points():
    return _trend_grid()


def test_demand_is_mostly_met_at_the_low_price(trend_points):
    for budget in (20.0, 35.0, 50.0, 60.0):
        assert trend_points[(budget, 1.0)].demand_met_fraction >= 0.9


def test_rate_rises_with_budget_within_confidence(trend_points):
    for price in (1.0, 10.0):
        budgets = [20.0, 35.0, 50.0, 60.0]
        for lo, hi in zip(budgets, budgets[1:]):
            a = trend_points[(lo, price)]
            b = trend_points[(hi, price)]
            slack = max(a.ci95_rate_bps, b.ci95_rate_bps)
            assert b.mean_rate_bps >= a.mean_rate_bps - slack


def test_rate_drops_when_sub6_blocks_get_dearer(trend_points):
    for budget in (20.0, 35.0, 50.0, 60.0):
        assert (
            trend_points[(budget, 10.0)].mean_rate_bps
            < trend_points[(budget, 1.0)].mean_rate_bps
        )


def test_price_sensitivity_helps_when_blocks_are_dear():
    # at high sub-6 prices, weighing prices into the utility buys more rate
    # than near-ignoring them; trials are paired so the gap is exact
    def rate_at(zeta):
        cfg = dataclasses.replace(
            load_sweep_config(_TREND_CONFIG),
            zeta_bps_per_unit=zeta,
            budget_values=(60.0,),
            sub6_price_values=(10.0,),
        )
        return sweep(cfg, "budget-price").points[0].per_scheme["matching"].mean_rate_bps

    assert rate_at(1e6) > rate_at(0.1e6)


# --- config files ------------------------------------------------------------------


def _write_cfg(tmp_path, doc):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _valid_doc():
    return {
        "base": {"num_stations": 6, "num_anchors": 2, "num_mmw_brbs": 4, "num_sub6_brbs": 2},
        "trials": 3,
        "zeta_bps_per_unit": 1e6,
        "seed": 9,
        "schemes": ["matching", "random"],
        "n1_values": [4, 8],
    }


def test_load_sweep_config_round_trip(tmp_path):
    cfg = SweepConfig(
        base=_SMALL,
        trials=7,
        zeta_bps_per_unit=2e5,
        seed=3,
        schemes=("matching", "best_effort"),
        n1_values=(4, 8),
        demand_levels_bps=(50e6, 100e6),
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)), encoding="utf-8")
    assert load_sweep_config(str(path)) == cfg


def test_load_sweep_config_accepts_a_plain_document(tmp_path):
    cfg = load_sweep_config(_write_cfg(tmp_path, _valid_doc()))
    assert cfg.trials == 3
    assert cfg.schemes == ("matching", "random")
    assert cfg.n1_values == (4, 8)
    assert cfg.base.num_stations == 6
    assert cfg.base.demand_bps == 100e6  # default fills the gap


def test_load_sweep_config_rejects_unknown_fields(tmp_path):
    doc = _valid_doc()
    doc["trails"] = 5
    with pytest.raises(ConfigError, match="unknown field 'trails'"):
        load_sweep_config(_write_cfg(tmp_path, doc))
    doc = _valid_doc()
    doc["base"]["num_towers"] = 3
    with pytest.raises(ConfigError, match="unknown field 'num_towers'"):
        load_sweep_config(_write_cfg(tmp_path, doc))


def test_load_sweep_config_rejects_bad_values(tmp_path):
    doc = _valid_doc()
    doc["schemes"] = ["matching", "psychic"]
    with pytest.raises(ConfigError, match="unknown scheme 'psychic'"):
        load_sweep_config(_write_cfg(tmp_path, doc))
    doc = _valid_doc()
    doc["trials"] = 0
    with pytest.raises(ConfigError, match="trials"):
        load_sweep_config(_write_cfg(tmp_path, doc))


@pytest.mark.parametrize(
    "schemes, message",
    [([], "no scheme given"), (["random", "random"], "scheme 'random' is given twice")],
)
def test_load_sweep_config_rejects_no_or_repeated_schemes(tmp_path, schemes, message):
    # an empty list would write a header-only CSV, a repeated scheme a row
    # drawn from the random stream after the first one's draws
    doc = {**_valid_doc(), "schemes": schemes}
    with pytest.raises(ConfigError, match=message):
        load_sweep_config(_write_cfg(tmp_path, doc))


def test_load_sweep_config_rejects_broken_json(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text('{"trials": 3,', encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_sweep_config(str(path))


# --- result files -------------------------------------------------------------------


def _tiny_sweep_cfg(**axes):
    return SweepConfig(
        base=_SMALL,
        trials=3,
        zeta_bps_per_unit=1e6,
        seed=12,
        **axes,
    )


def test_csv_writers_layout_and_reruns(tmp_path):
    res = sweep(_tiny_sweep_cfg(n1_values=(4, 8)), "n1")
    path = tmp_path / "n1.csv"
    write_sweep_csv(res, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "n1,scheme,mean_rate_mbps,ci95_rate_mbps,mean_cost,ci95_cost,demand_met_fraction,"
        "mean_rounds,mean_proposals,mean_blocking_pairs,budget_bound_fraction,trials"
    )
    assert len(lines) == 1 + 2 * len(SCHEMES)

    res_again = sweep(_tiny_sweep_cfg(n1_values=(4, 8)), "n1")
    write_sweep_csv(res_again, str(tmp_path / "n1_again.csv"))
    assert (tmp_path / "n1_again.csv").read_bytes() == path.read_bytes()

    res_bp = sweep(
        _tiny_sweep_cfg(budget_values=(10.0, 20.0), sub6_price_values=(1.0,)), "budget-price"
    )
    write_sweep_csv(res_bp, str(tmp_path / "bp.csv"))
    bp_lines = (tmp_path / "bp.csv").read_text(encoding="utf-8").splitlines()
    assert bp_lines[0] == (
        "budget,sub6_price,scheme,mean_rate_mbps,ci95_rate_mbps,mean_cost,"
        "demand_met_fraction,trials"
    )
    assert len(bp_lines) == 1 + 2 * len(SCHEMES)

    res_k = sweep(_tiny_sweep_cfg(k_values=(4,), demand_levels_bps=(30e6, 60e6)), "k")
    write_sweep_csv(res_k, str(tmp_path / "k.csv"))
    k_lines = (tmp_path / "k.csv").read_text(encoding="utf-8").splitlines()
    assert k_lines[0] == (
        "k,demand_mbps,scheme,mean_rounds,ci95_rounds,mean_proposals,ci95_proposals,"
        "mean_rate_mbps,demand_met_fraction,trials"
    )
    assert len(k_lines) == 1 + 2 * len(SCHEMES)


def test_every_csv_cell_follows_one_rule(tmp_path):
    path = tmp_path / "cells.csv"
    rows = [
        [True, False, np.float64(0.1)],
        [float("nan"), float("inf"), -0.0],
        [1e-05, 5e16, 7],
        [-3, "a,b", "matching"],
    ]
    _write_csv(str(path), ["x", "y", "z"], rows)
    assert path.read_bytes() == (
        b"x,y,z\r\n1,0,0.1\r\nnan,inf,-0.0\r\n1e-05,5e+16,7\r\n-3,\"a,b\",matching\r\n"
    )
    for stray in (np.int64(1), np.bool_(True), None):
        with pytest.raises(TypeError, match="no CSV cell rule"):
            _write_csv(str(path), ["x"], [[stray]])


def test_int_and_float_axis_values_write_the_same_bytes(tmp_path):
    paths = []
    for budgets in ((20, 35), (20.0, 35.0)):
        cfg = _tiny_sweep_cfg(budget_values=budgets, sub6_price_values=(1.0,))
        paths.append(tmp_path / f"bp_{type(budgets[0]).__name__}.csv")
        write_sweep_csv(sweep(cfg, "budget-price"), str(paths[-1]))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_write_manifest_records_the_run(tmp_path):
    path = write_manifest(str(tmp_path), "sweep n1", {"trials": 3}, seed=12)
    doc = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert path.endswith("manifest.json")
    assert doc["command"] == "sweep n1"
    assert doc["config"] == {"trials": 3}
    assert doc["seed"] == 12
    assert isinstance(doc["version"], str)


# --- audits ---------------------------------------------------------------------


def test_stability_audit_summary_fields():
    out = stability_audit(5, seed=1, gen_cfg=_SMALL)
    assert out["trials"] == 5
    assert out["blocking_pairs_total"] == 0
    assert out["trials_with_blocking_pairs"] == 0
    # K1*N bounds no rounds (see test_rounds_may_pass_k1_n_but_never_the_proposals)
    assert "rounds_bound" not in out
    assert out["proposals_bound"] == 4 * 2 * 13
    assert 0 < out["max_rounds"] <= out["max_proposals"] <= out["proposals_bound"]


def test_audits_refuse_to_run_no_trials():
    with pytest.raises(ConfigError, match="trials must be at least 1"):
        stability_audit(0, seed=1, gen_cfg=_SMALL)
    with pytest.raises(ConfigError, match="trials must be at least 1"):
        oracle_compare_rows(-1, seed=0)


@pytest.mark.parametrize("zeta", [math.nan, math.inf, -math.inf])
def test_audits_reject_a_non_finite_zeta(zeta):
    # a NaN utility fails every comparison of the swap test, so an audit
    # that ran would report a stable matching it never checked
    with pytest.raises(ValueError, match="zeta must be a finite number"):
        stability_audit(2, seed=0, gen_cfg=_SMALL, zeta=zeta)
    with pytest.raises(ValueError, match="zeta must be a finite number"):
        oracle_compare_rows(1, seed=0, zeta=zeta)


def test_rounds_may_pass_k1_n_but_never_the_proposals():
    # the instance of oracle_compare_rows(1, 98), rebuilt step by step:
    # displacement costs a fourth round although K1*N is 3
    rng = np.random.default_rng([98, 0xACE])
    s = generate_scenario(random_micro_config(rng), seed=int(rng.integers(2**31)))
    ch = realize_channels(s, rng)
    m = run_matching(s, ch, 1e6)
    k1, k2, n = len(s.anchors), len(s.demanders), s.brbs_per_anchor
    assert (k1 * n, k2) == (3, 3)
    assert (m.rounds, m.proposals) == (4, 7)
    assert m.rounds <= m.proposals <= k2 * k1 * n
    assert find_blocking_pairs(m, s, ch, 1e6) == []


def test_oracle_compare_rows_shape():
    rows = oracle_compare_rows(10, seed=5)
    assert len(rows) == 10
    assert [r["instance"] for r in rows] == list(range(10))
    for r in rows:
        assert r["constraints_3c_3f_ok"]
        if not math.isnan(r["gap"]):
            assert r["gap"] >= -1e-9
        if not r["feasible"]:
            assert math.isnan(r["oracle_cost"])


def _compensated_sum(values, start=0):
    """``sum`` as Python 3.12 adds floats: Neumaier's compensated
    summation, the compensation added at the end when non-zero and finite."""
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_oracle_rows_do_not_depend_on_how_sum_adds_floats(monkeypatch):
    """The oracle CSV's matching cost and gap keep their bits under a
    compensated ``sum``, so its bytes do not depend on the interpreter."""
    rows = repr(oracle_compare_rows(10, seed=5))
    monkeypatch.setattr(experiments, "sum", _compensated_sum, raising=False)
    assert repr(oracle_compare_rows(10, seed=5)) == rows


def test_random_micro_config_is_within_oracle_bounds():
    rng = np.random.default_rng(17)
    for _ in range(50):
        cfg = random_micro_config(rng)
        assert cfg.num_anchors * (cfg.num_mmw_brbs + cfg.num_sub6_brbs) <= 8
        assert cfg.num_stations - cfg.num_anchors <= 3


# --- worker processes -------------------------------------------------------------


def test_a_trial_whose_mean_cost_leaves_the_float_range_is_a_config_error():
    """Each demander spends 1.6e308 within its budget, and two such costs
    sum past the float range: the trial's mean would be inf."""
    s = generate_scenario(
        GenerationConfig(
            num_stations=3, num_anchors=1, num_mmw_brbs=40, num_sub6_brbs=0,
            mmw_price=1e307, budget=1.6e308, demand_bps=1e300,
        ),
        seed=0,
    )
    message = "matching: a trial's mean over the demanders overflows the float range"
    with pytest.raises(ConfigError, match=message):
        run_trial(s, 1e-300, ("matching",), np.random.default_rng(0))


@pytest.mark.parametrize(
    "workers, cores, started",
    [(100_000, 4, [4]), (100_000, 64, [6]), (5, 64, [5]), (100_000, None, []), (1, 64, [])],
)
def test_a_sweep_starts_no_more_processes_than_trials_or_cores(
    monkeypatch, workers, cores, started
):
    """A pool starts all its processes at its first submit, so the sweep
    asks for at most one per trial (6 here) and per core, and runs in
    this process when that is one.  A stub pool records the request and
    maps in this process: no process is started."""
    import concurrent.futures

    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
    cfg = dataclasses.replace(_tiny_sweep_cfg(n1_values=(4, 8)), workers=workers)
    assert sweep(cfg, "n1") == sweep(dataclasses.replace(cfg, workers=1), "n1")
    assert requested == started


def test_two_workers_write_the_same_csv_bytes_as_one(tmp_path):
    # each worker process builds and caches its own BRB tables; the result
    # must not depend on which process ran which trial
    paths = []
    for workers in (1, 2):
        cfg = dataclasses.replace(
            _tiny_sweep_cfg(n1_values=(4, 8)), trials=6, workers=workers
        )
        paths.append(tmp_path / f"n1_workers{workers}.csv")
        write_sweep_csv(sweep(cfg, "n1"), str(paths[-1]))
    assert paths[0].read_bytes() == paths[1].read_bytes()
