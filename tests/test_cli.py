from __future__ import annotations

import json
from pathlib import Path

import pytest

from scbn.cli import main
from scbn.scenario import load_scenario

_PARAMS = {
    "num_stations": 5,
    "num_anchors": 2,
    "num_mmw_brbs": 3,
    "num_sub6_brbs": 2,
    "demand_bps": 2e7,
    "budget": 15.0,
    "area_side_m": 400.0,
}


def _params_file(tmp_path, extra=None):
    doc = dict(_PARAMS)
    doc.update(extra or {})
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _generate(tmp_path, seed=1):
    scenario_path = tmp_path / "scenario.json"
    rc = main(
        [
            "generate",
            "--params",
            _params_file(tmp_path),
            "--seed",
            str(seed),
            "--out",
            str(scenario_path),
        ]
    )
    assert rc == 0
    return str(scenario_path)


def test_generate_writes_a_loadable_scenario(tmp_path, capsys):
    path = _generate(tmp_path)
    out = capsys.readouterr().out
    assert "5 stations" in out
    s = load_scenario(path)
    assert len(s.stations) == 5
    assert s.seed == 1


def test_generate_rejects_unknown_parameter(tmp_path, capsys):
    rc = main(
        [
            "generate",
            "--params",
            _params_file(tmp_path, {"num_towers": 2}),
            "--out",
            str(tmp_path / "s.json"),
        ]
    )
    assert rc == 1
    assert "unknown field 'num_towers'" in capsys.readouterr().err


def test_run_produces_result_files(tmp_path, capsys):
    scenario = _generate(tmp_path)
    out_dir = tmp_path / "run"
    rc = main(
        [
            "run",
            "--scenario",
            scenario,
            "--channel-seed",
            "3",
            "--dump-channels",
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    for scheme in ("matching", "best_effort", "random"):
        assert scheme in stdout
        csv_path = out_dir / f"matching_{scheme}.csv"
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "k2,k1,band,n,gamma,rate_bps,price"
    assert (out_dir / "channels.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "run"
    assert manifest["seed"] == 3


def test_run_is_byte_reproducible(tmp_path):
    scenario = _generate(tmp_path)
    for name in ("a", "b"):
        rc = main(
            ["run", "--scenario", scenario, "--channel-seed", "7", "--out", str(tmp_path / name)]
        )
        assert rc == 0
    for filename in ("matching_matching.csv", "matching_best_effort.csv", "matching_random.csv"):
        assert (tmp_path / "a" / filename).read_bytes() == (tmp_path / "b" / filename).read_bytes()


def test_run_rejects_unknown_scheme(tmp_path, capsys):
    scenario = _generate(tmp_path)
    rc = main(
        ["run", "--scenario", scenario, "--schemes", "telepathy", "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "unknown scheme 'telepathy'" in capsys.readouterr().err


def test_run_rejects_a_truncated_scenario_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"format": "scbn-scenario-v1", "seed"', encoding="utf-8")
    rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def _sweep_config_file(tmp_path):
    doc = {
        "base": _PARAMS,
        "trials": 2,
        "zeta_bps_per_unit": 1e6,
        "seed": 5,
        "schemes": ["matching", "random"],
        "n1_values": [2, 3],
        "budget_values": [10.0, 15.0],
        "sub6_price_values": [1.0],
        "k_values": [4, 5],
        "demand_levels_bps": [1e7, 2e7],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_sweep_n1_end_to_end(tmp_path, capsys):
    cfg = _sweep_config_file(tmp_path)
    rc = main(["sweep", "n1", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "results_n1.csv" in capsys.readouterr().out
    lines = (tmp_path / "out" / "results_n1.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("n1,scheme,")
    assert len(lines) == 1 + 2 * 2  # two points, two schemes
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "sweep n1"
    assert manifest["config"]["trials"] == 2


def test_sweep_reruns_are_byte_identical(tmp_path):
    cfg = _sweep_config_file(tmp_path)
    for name in ("one", "two"):
        rc = main(["sweep", "n1", "--config", cfg, "--out", str(tmp_path / name)])
        assert rc == 0
    assert (tmp_path / "one" / "results_n1.csv").read_bytes() == (
        tmp_path / "two" / "results_n1.csv"
    ).read_bytes()
    assert (tmp_path / "one" / "manifest.json").read_bytes() == (
        tmp_path / "two" / "manifest.json"
    ).read_bytes()


def test_sweep_other_axes_smoke(tmp_path):
    cfg = _sweep_config_file(tmp_path)
    assert main(["sweep", "budget-price", "--config", cfg, "--out", str(tmp_path / "bp")]) == 0
    assert main(["sweep", "k", "--config", cfg, "--out", str(tmp_path / "k")]) == 0
    assert (tmp_path / "bp" / "results_budget_price.csv").exists()
    assert (tmp_path / "k" / "results_k.csv").exists()


def test_sweep_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"trials": 0, "zeta_bps_per_unit": 1e6, "seed": 0}), encoding="utf-8")
    rc = main(["sweep", "n1", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "trials" in capsys.readouterr().err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "extra, field",
    [
        ({"num_stations": "10"}, "num_stations"),
        ({"num_stations": 10.5}, "num_stations"),
        ({"num_anchors": True}, "num_anchors"),
        ({"budget": "15"}, "budget"),
    ],
)
def test_generate_rejects_a_parameter_of_the_wrong_type(tmp_path, capsys, extra, field):
    rc = main(
        [
            "generate",
            "--params",
            _params_file(tmp_path, extra),
            "--out",
            str(tmp_path / "s.json"),
        ]
    )
    assert rc == 1
    assert f"'{field}' must be of type" in _one_error_line(capsys)
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize(
    "extra, field",
    [
        ({"trials": 2.5}, "trials"),
        ({"n1_values": [4.7]}, "n1_values"),
        ({"n1_values": 4}, "n1_values"),
        ({"zeta_bps_per_unit": "x"}, "zeta_bps_per_unit"),
        ({"schemes": ["matching", 1]}, "schemes"),
    ],
)
def test_sweep_rejects_a_field_of_the_wrong_type(tmp_path, capsys, extra, field):
    path = tmp_path / "sweep.json"
    doc = json.loads(Path(_sweep_config_file(tmp_path)).read_text(encoding="utf-8"))
    path.write_text(json.dumps({**doc, **extra}), encoding="utf-8")
    rc = main(["sweep", "n1", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"'{field}' must be" in _one_error_line(capsys)


def test_sweep_takes_an_int_for_a_float_field(tmp_path):
    path = tmp_path / "sweep.json"
    doc = json.loads(Path(_sweep_config_file(tmp_path)).read_text(encoding="utf-8"))
    doc.update(zeta_bps_per_unit=1000000, budget_values=[10, 15.0], n1_values=[2])
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["sweep", "n1", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert repr(manifest["config"]["zeta_bps_per_unit"]) == "1000000.0"
    assert repr(manifest["config"]["budget_values"]) == "[10.0, 15.0]"


def test_run_of_a_directory_is_an_error_line(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    _one_error_line(capsys)


def test_generate_into_a_directory_is_an_error_line(tmp_path, capsys):
    rc = main(["generate", "--out", str(tmp_path)])
    assert rc == 1
    _one_error_line(capsys)


def test_oracle_compare_end_to_end(tmp_path, capsys):
    rc = main(["oracle-compare", "--trials", "5", "--seed", "2", "--out", str(tmp_path / "oc")])
    assert rc == 0
    assert "5 instances" in capsys.readouterr().out
    lines = (tmp_path / "oc" / "oracle_compare.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("instance,feasible,oracle_cost")
    assert len(lines) == 6


def test_stability_audit_end_to_end(tmp_path, capsys):
    rc = main(
        [
            "stability-audit",
            "--trials",
            "3",
            "--seed",
            "4",
            "--params",
            _params_file(tmp_path),
            "--out",
            str(tmp_path / "audit"),
        ]
    )
    assert rc == 0
    assert "blocking_pairs_total=0" in capsys.readouterr().out
    summary = json.loads(
        (tmp_path / "audit" / "stability_audit.json").read_text(encoding="utf-8")
    )
    assert summary["trials"] == 3
    assert summary["blocking_pairs_total"] == 0


def test_oracle_compare_of_no_trials_fails(tmp_path, capsys):
    rc = main(["oracle-compare", "--trials", "-1", "--out", str(tmp_path / "oc")])
    assert rc == 1
    assert capsys.readouterr().err == "error: trials must be at least 1, got -1\n"
    assert not (tmp_path / "oc").exists()


def test_stability_audit_of_no_trials_fails(tmp_path, capsys):
    rc = main(["stability-audit", "--trials", "0", "--out", str(tmp_path / "audit")])
    assert rc == 1
    assert capsys.readouterr().err == "error: trials must be at least 1, got 0\n"
    assert not (tmp_path / "audit").exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["simulate"])
    assert err.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["generate"])
    assert err.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("scbn ")
