from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbn.cli import main
from scbn.experiments import SCHEMES, SWEEPS, SweepConfig
from scbn.scenario import GenerationConfig, load_scenario

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
    written = sorted(p.name for p in (tmp_path / "a").glob("matching_*.csv"))
    assert written == sorted(f"matching_{name}.csv" for name in SCHEMES)


def test_run_rejects_unknown_scheme(tmp_path, capsys):
    scenario = _generate(tmp_path)
    rc = main(
        ["run", "--scenario", scenario, "--schemes", "telepathy", "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "unknown scheme 'telepathy'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "schemes, message", [("", "unknown scheme ''"), ("random,random", "given twice")]
)
def test_run_rejects_no_or_repeated_schemes(tmp_path, capsys, schemes, message):
    scenario = _generate(tmp_path)
    capsys.readouterr()
    rc = main(["run", "--scenario", scenario, "--schemes", schemes, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert message in _one_error_line(capsys)
    assert not (tmp_path / "o").exists()


def test_run_rejects_a_truncated_scenario_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"format": "scbn-scenario-v1", "seed"', encoding="utf-8")
    rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["run --scenario", "generate --params"])
def test_a_json_file_that_holds_no_object_is_an_error_line(tmp_path, capsys, flag):
    listed = tmp_path / "list.json"
    listed.write_text("[]", encoding="utf-8")
    command, option = flag.split()
    rc = main([command, option, str(listed), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "expected a JSON object" in _one_error_line(capsys)
    assert not (tmp_path / "o").exists()


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
    assert not (tmp_path / "out").exists()


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def _file_holding_tx_power(tmp_path, command):
    """A valid input file for ``command`` that holds ``"tx_power_w": 1.0``."""
    if command == "run":
        return _generate(tmp_path)
    if command == "generate":
        return _params_file(tmp_path, {"tx_power_w": 1.0})
    path = Path(_sweep_config_file(tmp_path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["base"]["tx_power_w"] = 1.0
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("flag", ["run --scenario", "generate --params", "sweep n1 --config"])
@pytest.mark.parametrize(
    "value", [b"1" * 5001, b"\xff"], ids=["int-of-5001-digits", "byte-0xff"]
)
def test_a_file_json_cannot_read_is_an_error_line_naming_it(tmp_path, capsys, flag, value):
    # an int beyond Python's int-string limit and bytes that are not
    # UTF-8 fail to decode with a plain ValueError, not a JSONDecodeError
    *command, option = flag.split()
    path = Path(_file_holding_tx_power(tmp_path, command[0]))
    text = path.read_bytes()
    assert b'"tx_power_w": 1.0' in text
    path.write_bytes(text.replace(b'"tx_power_w": 1.0', b'"tx_power_w": ' + value))
    capsys.readouterr()
    rc = main([*command, option, str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"error: {path}: not valid JSON: " in _one_error_line(capsys)
    assert not (tmp_path / "o").exists()


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


# values a config may hold but a scenario may not: the sweep refuses them
# as generation does, before any trial runs
@pytest.mark.parametrize(
    "extra", [{"budget": 0.0}, {"mmw_pathloss_slope": -2.0}, {"sub6_pathloss_exponent": 0.0}]
)
def test_sweep_rejects_a_base_that_gives_an_invalid_scenario(tmp_path, capsys, extra):
    path = tmp_path / "sweep.json"
    doc = json.loads(Path(_sweep_config_file(tmp_path)).read_text(encoding="utf-8"))
    path.write_text(json.dumps({**doc, "base": {**doc["base"], **extra}}), encoding="utf-8")
    rc = main(["sweep", "n1", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "generated scenario is invalid" in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "schemes, message", [([], "no scheme given"), (["random", "random"], "given twice")]
)
def test_sweep_rejects_no_or_repeated_schemes(tmp_path, capsys, schemes, message):
    path = tmp_path / "sweep.json"
    doc = json.loads(Path(_sweep_config_file(tmp_path)).read_text(encoding="utf-8"))
    path.write_text(json.dumps({**doc, "schemes": schemes}), encoding="utf-8")
    rc = main(["sweep", "n1", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert message in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "extra",
    [
        {"budget": float("nan")},
        {"tx_power_w": float("nan")},
        {"demand_bps": float("inf")},
        {"mmw_price": float("-inf")},
        {"sub6_brb_bandwidth_hz": float("nan")},
    ],
)
def test_generate_rejects_a_non_finite_parameter(tmp_path, capsys, extra):
    # json writes these as NaN, Infinity and -Infinity, which json reads back
    rc = main(
        ["generate", "--params", _params_file(tmp_path, extra), "--out", str(tmp_path / "s.json")]
    )
    assert rc == 1
    assert "must be a finite number" in _one_error_line(capsys)
    assert not (tmp_path / "s.json").exists()


def test_generate_rejects_an_area_beyond_the_float_range(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text('{"area_side_m": 1e400}', encoding="utf-8")  # reads as inf
    rc = main(["generate", "--params", str(path), "--out", str(tmp_path / "s.json")])
    assert rc == 1
    assert "'area_side_m' must be a finite number" in _one_error_line(capsys)


@pytest.mark.parametrize("dbm", [1e308, -1e308])
def test_generate_rejects_a_noise_power_beyond_the_float_range(tmp_path, capsys, dbm):
    # 10 ** (dbm / 10) overflows, or underflows to a noise-free channel
    rc = main(
        [
            "generate",
            "--params",
            _params_file(tmp_path, {"noise_power_dbm": dbm}),
            "--out",
            str(tmp_path / "s.json"),
        ]
    )
    assert rc == 1
    assert "no positive, finite noise power" in _one_error_line(capsys)


def test_run_rejects_a_scenario_with_nan_budgets(tmp_path, capsys):
    path = Path(_generate(tmp_path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["budgets"] = {d: float("nan") for d in doc["budgets"]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "budgets" in _one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("zeta", ["nan", "inf", "-inf"])
def test_run_and_audit_reject_a_non_finite_zeta(tmp_path, capsys, zeta):
    scenario = _generate(tmp_path)
    capsys.readouterr()
    # "--zeta=-inf", as argparse reads a bare "-inf" as a flag
    rc = main(["run", "--scenario", scenario, f"--zeta={zeta}", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "--zeta must be a finite number" in _one_error_line(capsys)
    assert not (tmp_path / "o").exists()
    rc = main(["stability-audit", "--trials", "2", f"--zeta={zeta}"])
    assert rc == 1
    assert "--zeta must be a finite number" in _one_error_line(capsys)


def test_sweep_rejects_a_nan_zeta(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    doc = json.loads(Path(_sweep_config_file(tmp_path)).read_text(encoding="utf-8"))
    path.write_text(json.dumps({**doc, "zeta_bps_per_unit": float("nan")}), encoding="utf-8")
    rc = main(["sweep", "n1", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "'zeta_bps_per_unit' must be a finite number" in _one_error_line(capsys)


def test_sweep_whose_transmit_power_overflows_the_rates_is_an_error_line(tmp_path, capsys):
    # 1e308 W is a finite, valid power, but the SNR it gives is not
    path = tmp_path / "sweep.json"
    doc = json.loads(Path(_sweep_config_file(tmp_path)).read_text(encoding="utf-8"))
    base = {"num_stations": 3, "num_anchors": 1, "tx_power_w": 1e308}
    path.write_text(json.dumps({**doc, "base": base}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", "n1", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "channel rates are not finite" in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_sweep_whose_area_overflows_the_distances_is_an_error_line(tmp_path, capsys):
    # 1e308 m is a finite, valid side, but the squared distances are not
    path = tmp_path / "sweep.json"
    doc = json.loads(Path(_sweep_config_file(tmp_path)).read_text(encoding="utf-8"))
    base = {"num_stations": 3, "num_anchors": 1, "area_side_m": 1e308}
    path.write_text(json.dumps({**doc, "base": base}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", "n1", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "station distances are not finite" in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


# 10**15 BRBs ask for petabytes of channel arrays, far beyond any host's
# memory, so the first allocation is refused at once; never probe with a
# count whose arrays could actually be allocated
_HUGE_BRB_COUNT = 10**15


def test_audit_of_a_huge_brb_count_is_an_error_line(tmp_path, capsys):
    params = tmp_path / "params.json"
    doc = {
        "num_stations": 3, "num_anchors": 1, "num_mmw_brbs": _HUGE_BRB_COUNT, "num_sub6_brbs": 1
    }
    params.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["stability-audit", "--trials", "1", "--params", str(params)])
    assert rc == 1
    assert "not enough memory" in _one_error_line(capsys)


def test_sweep_over_a_huge_brb_count_is_an_error_line(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    doc = json.loads(Path(_sweep_config_file(tmp_path)).read_text(encoding="utf-8"))
    path.write_text(json.dumps({**doc, "n1_values": [_HUGE_BRB_COUNT]}), encoding="utf-8")
    rc = main(["sweep", "n1", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "not enough memory" in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("station_id, rc", [(2**63 - 1, 0), (2**63, 1), (-(2**63) - 1, 1)])
def test_run_takes_station_ids_in_the_int64_range_only(tmp_path, capsys, station_id, rc):
    path = Path(_generate(tmp_path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    anchor = doc["stations"][0]
    doc["prices"][str(station_id)] = doc["prices"].pop(str(anchor["id"]))
    anchor["id"] = station_id
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == rc
    if rc:
        assert "outside the signed 64-bit range" in _one_error_line(capsys)
        assert not (tmp_path / "o").exists()


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
    out = capsys.readouterr().out
    assert "blocking_pairs_total=0" in out
    # K1*N bounds no rounds, so stdout names no rounds bound
    assert "max_rounds=" in out and out.count("(bound ") == 1
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


# --- malformed configs, drawn --------------------------------------------------

# JSON values no config or scenario field should choke on: non-finite,
# beyond the float and int64 ranges, negative, zero, and of the wrong
# type.  No value is a positive int of workable size, so a drawn config
# never asks for a long sweep or for many worker processes.
_MALFORMED_VALUES = (
    float("nan"),
    float("inf"),
    float("-inf"),
    1e308,
    -1e308,
    10**30,
    -(10**30),
    10**400,
    -1,
    0,
    -0.5,
    0.5,
    "10",
    True,
    None,
    {},
)
_MALFORMED = st.sampled_from(_MALFORMED_VALUES)
_JSON_VALUES = st.one_of(_MALFORMED, st.lists(_MALFORMED, max_size=2))
# a sweep config that runs one trial per point on a tiny deployment
_TINY_SWEEP = {
    "base": {
        "num_stations": 3,
        "num_anchors": 1,
        "num_mmw_brbs": 2,
        "num_sub6_brbs": 1,
        "demand_bps": 2e7,
        "budget": 15.0,
        "area_side_m": 400.0,
    },
    "trials": 1,
    "zeta_bps_per_unit": 1e6,
    "seed": 0,
    "n1_values": [2],
    "budget_values": [10.0],
    "sub6_price_values": [5.0],
    "k_values": [3],
    "demand_levels_bps": [1e7],
}
_GENERATION_FIELDS = [f.name for f in dataclasses.fields(GenerationConfig)]
_SWEEP_FIELDS = [f.name for f in dataclasses.fields(SweepConfig) if f.name != "base"]


def _exits_cleanly(argv) -> None:
    """``argv`` exits 0, or 1 with one ``error:`` line; an exception
    escaping ``main`` fails the test, as it would end in a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        # numpy's overflow warnings, errors elsewhere in this suite, are
        # only printed by the CLI, which goes on: the contract here is the
        # exit code and the error line
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(argv)
    err = err.getvalue()
    assert rc == 0 or (rc == 1 and err.startswith("error: ") and err.count("\n") == 1), (
        rc,
        err,
    )


@settings(max_examples=100)
@given(st.dictionaries(st.sampled_from(_GENERATION_FIELDS), _JSON_VALUES, min_size=1, max_size=2))
def test_generate_takes_any_malformed_parameter_cleanly(params):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.json"
        path.write_text(json.dumps({**_PARAMS, **params}), encoding="utf-8")
        _exits_cleanly(["generate", "--params", str(path), "--out", f"{tmp}/s.json"])


def _bounded(overrides: dict) -> bool:
    """``overrides`` sets no trial or worker count the sweep would accept:
    a huge one would run for ever or start that many processes."""
    return all(
        not (field in ("trials", "workers") and type(value) is int and value > 0)
        for (_, field), value in overrides.items()
    )


def _sweep_exits_cleanly(tmp: str, axis: str, overrides: dict) -> None:
    """A sweep of ``_TINY_SWEEP`` with ``overrides``, keyed by ("base" or
    "top", field), exits cleanly."""
    doc = {**_TINY_SWEEP, "base": dict(_TINY_SWEEP["base"])}
    for (where, field), value in overrides.items():
        (doc["base"] if where == "base" else doc)[field] = value
    path = Path(tmp) / "sweep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _exits_cleanly(["sweep", axis, "--config", str(path), "--out", f"{tmp}/out"])


@settings(max_examples=150)
@given(
    st.sampled_from(list(SWEEPS)),
    st.dictionaries(
        st.sampled_from(
            [("base", f) for f in _GENERATION_FIELDS] + [("top", f) for f in _SWEEP_FIELDS]
        ),
        _JSON_VALUES,
        min_size=1,
        max_size=2,
    ).filter(_bounded),
)
def test_sweep_takes_any_malformed_config_cleanly(axis, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        _sweep_exits_cleanly(tmp, axis, overrides)


def test_every_single_malformed_value_exits_cleanly():
    """Each drawn value alone, in each config field: the Hypothesis tests
    above combine fields, this one leaves no single value untried."""
    list_fields = [f.name for f in dataclasses.fields(SweepConfig) if "tuple" in str(f.type)]
    fields = [("base", f) for f in _GENERATION_FIELDS] + [("top", f) for f in _SWEEP_FIELDS]
    with tempfile.TemporaryDirectory() as tmp:
        for where, field in fields:
            for value in _MALFORMED_VALUES:
                overrides = {(where, field): [value] if field in list_fields else value}
                if _bounded(overrides):
                    _sweep_exits_cleanly(tmp, "n1", overrides)


def test_every_malformed_value_in_a_scenario_file_exits_cleanly(tmp_path):
    """Each drawn value alone, in each numeric field of a scenario file:
    the top level, a station, both bands, both path-loss objects, and one
    price, budget and demand."""
    path = tmp_path / "scenario.json"
    params = _params_file(tmp_path, {"num_stations": 3, "num_anchors": 1})
    assert main(["generate", "--params", params, "--out", str(path)]) == 0
    doc = json.loads(path.read_text(encoding="utf-8"))
    anchor, demander = (str(st["id"]) for st in doc["stations"][:2])
    objects = [
        doc,
        doc["stations"][1],
        doc["mmw_band"],
        doc["sub6_band"],
        doc["mmw_pathloss"],
        doc["sub6_pathloss"],
        doc["prices"][anchor],
    ]
    numbers = [(obj, key) for obj in objects for key, v in obj.items() if type(v) in (int, float)]
    numbers += [(doc["budgets"], demander), (doc["demands_bps"], demander)]
    for obj, key in numbers:
        original = obj[key]
        for value in _MALFORMED_VALUES:
            obj[key] = value
            path.write_text(json.dumps(doc), encoding="utf-8")
            _exits_cleanly(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        obj[key] = original
