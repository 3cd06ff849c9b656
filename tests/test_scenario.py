from __future__ import annotations

import copy
import dataclasses
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from scbn.scenario import (
    Band,
    BandKind,
    BaseStation,
    ConfigError,
    GenerationConfig,
    MmwParams,
    Role,
    Scenario,
    ScenarioFormatError,
    Sub6Params,
    friis_reference_loss_db,
    generate_scenario,
    load_scenario,
    resample_positions,
    save_scenario,
    validate_scenario,
)


def test_friis_reference_loss_known_carriers():
    assert math.isclose(friis_reference_loss_db(5.8e9), 47.71634309314212, rel_tol=1e-12)
    assert math.isclose(friis_reference_loss_db(73e9), 69.7142404242925, rel_tol=1e-12)


def test_friis_reference_loss_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        friis_reference_loss_db(0.0)
    with pytest.raises(ValueError):
        friis_reference_loss_db(-1e9)


def test_generate_default_scenario_shape():
    s = generate_scenario(GenerationConfig(), seed=7)
    assert [st.id for st in s.stations] == list(range(10))
    assert [st.role for st in s.stations[:2]] == [Role.ANCHOR, Role.ANCHOR]
    assert all(st.role is Role.DEMANDING for st in s.stations[2:])
    assert s.anchor_ids == (0, 1)
    assert s.demander_ids == tuple(range(2, 10))
    assert s.mmw_band.num_brbs == 192
    assert s.sub6_band.num_brbs == 100
    assert s.brbs_per_anchor == 292
    assert s.budgets == {d: 60.0 for d in range(2, 10)}
    assert s.demands_bps == {d: 100e6 for d in range(2, 10)}
    for a in s.anchor_ids:
        assert s.prices[a] == {BandKind.MMWAVE: 0.1, BandKind.SUB6: 10.0}
    for st in s.stations:
        assert 0.0 <= st.x_m <= s.area_side_m
        assert 0.0 <= st.y_m <= s.area_side_m
    assert validate_scenario(s) == []


def test_generate_is_deterministic_in_seed():
    a = generate_scenario(GenerationConfig(), seed=123)
    b = generate_scenario(GenerationConfig(), seed=123)
    c = generate_scenario(GenerationConfig(), seed=124)
    assert a == b
    assert a.stations != c.stations


def test_generate_noise_power_conversion():
    s = generate_scenario(GenerationConfig(noise_power_dbm=-90.0), seed=0)
    assert math.isclose(s.noise_power_w, 1e-12, rel_tol=1e-12)


def test_generate_rejects_all_anchor_network():
    # two stations that are both anchors leave nobody to serve
    with pytest.raises(ConfigError, match="must be smaller"):
        generate_scenario(GenerationConfig(num_stations=2, num_anchors=2), seed=0)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(num_anchors=0), "at least one anchor"),
        (dict(num_mmw_brbs=0, num_sub6_brbs=0), "at least one BRB"),
        (dict(num_mmw_brbs=-1), "non-negative"),
        (dict(mmw_price=-0.1), "non-negative"),
        (dict(mmw_blockage_prob=1.5), "must lie in [0, 1]"),
        (dict(mmw_shadow_sigma_db=-1.0), "non-negative"),
        (dict(demand_bps=0.0), "must be positive"),
        (dict(area_side_m=-5.0), "must be positive"),
        # rules validate_scenario checks on the scenario drawn
        (dict(budget=0.0), "budgets[2] must be positive"),
        (dict(mmw_pathloss_slope=-2.0), "mmw pathloss slope must be positive"),
        (dict(sub6_pathloss_exponent=0.0), "sub6 pathloss exponent must be positive"),
    ],
)
def test_generate_rejects_bad_config(kwargs, fragment):
    with pytest.raises(ConfigError) as err:
        generate_scenario(GenerationConfig(**kwargs), seed=0)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "field",
    ["budget", "demand_bps", "mmw_price", "sub6_price", "mmw_brb_bandwidth_hz",
     "sub6_center_frequency_hz", "tx_power_w", "area_side_m", "noise_power_dbm"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_generate_rejects_a_non_finite_value(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        generate_scenario(GenerationConfig(**{field: value}), seed=0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validate_reports_non_finite_budgets_demands_and_prices(value):
    s = generate_scenario(GenerationConfig(), seed=0)
    d, a = s.demander_ids[0], s.anchor_ids[0]
    bad = dataclasses.replace(
        s,
        budgets={**s.budgets, d: value},
        demands_bps={**s.demands_bps, d: value},
        prices={**s.prices, a: {BandKind.MMWAVE: value, BandKind.SUB6: 1.0}},
        tx_power_w=value,
        mmw_band=dataclasses.replace(s.mmw_band, brb_bandwidth_hz=value),
    )
    problems = " ".join(validate_scenario(bad))
    for fragment in (
        f"budgets[{d}]", f"demands_bps[{d}]", f"anchor {a} has a negative or non-finite price",
        "tx_power_w", "mmwave BRB bandwidth",
    ):
        assert fragment in problems


@pytest.mark.parametrize("dbm", [1e308, -1e308])
def test_validate_reports_a_noise_power_beyond_the_float_range(dbm):
    s = dataclasses.replace(generate_scenario(GenerationConfig(), seed=0), noise_power_dbm=dbm)
    assert validate_scenario(s) == [
        f"noise_power_dbm {dbm} gives no positive, finite noise power"
    ]


def test_sub6_reference_loss_defaults_to_free_space():
    s = generate_scenario(GenerationConfig(), seed=0)
    assert s.sub6_pathloss.ref_loss_db == friis_reference_loss_db(5.8e9)
    explicit = generate_scenario(GenerationConfig(sub6_ref_loss_db=47.9), seed=0)
    assert explicit.sub6_pathloss.ref_loss_db == 47.9


def test_resample_positions_keeps_everything_but_geometry():
    base = generate_scenario(GenerationConfig(), seed=5)
    moved = resample_positions(base, np.random.default_rng(9))
    assert [st.id for st in moved.stations] == [st.id for st in base.stations]
    assert [st.role for st in moved.stations] == [st.role for st in base.stations]
    assert moved.stations != base.stations
    for st in moved.stations:
        assert 0.0 <= st.x_m <= moved.area_side_m
        assert 0.0 <= st.y_m <= moved.area_side_m
    assert moved.budgets == base.budgets
    assert moved.prices == base.prices
    assert moved.mmw_pathloss == base.mmw_pathloss

    again = resample_positions(base, np.random.default_rng(9))
    assert again == moved


def test_validate_reports_duplicate_ids():
    s = generate_scenario(GenerationConfig(), seed=1)
    twin = dataclasses.replace(s.stations[3], id=s.stations[2].id)
    bad = dataclasses.replace(s, stations=s.stations[:3] + (twin,) + s.stations[4:])
    assert any("not unique" in p for p in validate_scenario(bad))


def test_validate_reports_station_outside_square():
    s = generate_scenario(GenerationConfig(), seed=1)
    out = dataclasses.replace(s.stations[4], x_m=s.area_side_m + 1.0)
    bad = dataclasses.replace(s, stations=s.stations[:4] + (out,) + s.stations[5:])
    assert any("outside the deployment square" in p for p in validate_scenario(bad))


def test_validate_reports_nonpositive_budget_and_demand():
    s = generate_scenario(GenerationConfig(), seed=1)
    d = s.demander_ids[0]
    bad = dataclasses.replace(s, budgets={**s.budgets, d: -3.0})
    assert any(f"budgets[{d}]" in p for p in validate_scenario(bad))
    bad = dataclasses.replace(s, demands_bps={**s.demands_bps, d: 0.0})
    assert any(f"demands_bps[{d}]" in p for p in validate_scenario(bad))


def test_validate_reports_incomplete_coverage():
    s = generate_scenario(GenerationConfig(), seed=1)
    short = dict(s.budgets)
    short.pop(s.demander_ids[-1])
    bad = dataclasses.replace(s, budgets=short)
    assert any("budgets does not cover" in p for p in validate_scenario(bad))


def test_validate_reports_missing_roles():
    s = generate_scenario(GenerationConfig(), seed=1)
    all_anchors = tuple(dataclasses.replace(st, role=Role.ANCHOR) for st in s.stations)
    problems = validate_scenario(dataclasses.replace(s, stations=all_anchors))
    assert any("no demanding station" in p for p in problems)


def test_save_load_round_trip(tmp_path):
    s = generate_scenario(GenerationConfig(mmw_blockage_prob=0.3), seed=77)
    path = tmp_path / "scenario.json"
    save_scenario(s, str(path))
    loaded = load_scenario(str(path))
    assert loaded == s
    assert loaded.seed == 77


def test_save_load_keeps_per_station_overrides(tmp_path):
    s = generate_scenario(GenerationConfig(num_stations=4, num_anchors=1), seed=3)
    overrides = {d: 10.0 + i for i, d in enumerate(s.demander_ids)}
    s = dataclasses.replace(s, budgets=overrides)
    path = tmp_path / "scenario.json"
    save_scenario(s, str(path))
    assert load_scenario(str(path)).budgets == overrides


# written by the format's first save_scenario: a 4-station, 1-anchor
# scenario with one budget override and one sub-6 price changed
GOLDEN_V1 = Path(__file__).parent / "data" / "scenario_v1.json"


def test_format_v1_file_loads_and_saves_back_byte_for_byte(tmp_path):
    s = load_scenario(str(GOLDEN_V1))
    assert s == Scenario(
        seed=11,
        area_side_m=2000.0,
        tx_power_w=1.0,
        noise_power_dbm=-90.0,
        stations=(
            BaseStation(0, Role.ANCHOR, 257.14040553839925, 998.55572488023),
            BaseStation(1, Role.DEMANDING, 1202.996715246715, 57.37801674388909),
            BaseStation(2, Role.DEMANDING, 295.85216915491185, 1856.422045920739),
            BaseStation(3, Role.DEMANDING, 140.84115230839367, 259.54789879859595),
        ),
        mmw_band=Band(73e9, 3, 4.86e6),
        sub6_band=Band(5.8e9, 2, 480e3),
        prices={0: {BandKind.MMWAVE: 0.1, BandKind.SUB6: 12.5}},
        budgets={1: 60.0, 2: 45.5, 3: 60.0},
        demands_bps={1: 100e6, 2: 100e6, 3: 100e6},
        mmw_pathloss=MmwParams(2.0, 70.0, 4.1, 0.3),
        sub6_pathloss=Sub6Params(3.0, 47.71634309314212),
    )
    path = tmp_path / "again.json"
    save_scenario(s, str(path))
    assert path.read_bytes() == GOLDEN_V1.read_bytes()


@pytest.mark.parametrize(
    "twin",
    [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_a_copied_scenario_keeps_its_money_read_only_and_its_bytes(twin, tmp_path):
    s = load_scenario(str(GOLDEN_V1))
    rows = (s.anchor_prices, s.demander_terms, s.radio)
    t = twin(s)
    assert t == s
    assert (t.anchor_prices, t.demander_terms, t.radio) == rows
    for d in (t.prices, t.prices[0], t.budgets, t.demands_bps):
        with pytest.raises(TypeError, match="read-only"):
            d[next(iter(d))] = 1.0
    path = tmp_path / "twin.json"
    save_scenario(t, str(path))
    assert path.read_bytes() == GOLDEN_V1.read_bytes()


_SHAPE_TERMS = ("anchor_ids", "demander_ids", "anchor_prices", "demander_terms",
                "noise_power_w", "radio")


def _resampled_twins():
    """A scenario whose roles interleave and whose money differs per
    station, and a resampled scenario of it with its pickled, copied and
    deep-copied twins."""
    s = load_scenario(str(GOLDEN_V1))
    s = dataclasses.replace(
        s,
        stations=(*s.stations, BaseStation(7, Role.ANCHOR, 10.0, 20.0)),
        prices={**s.prices, 7: {BandKind.MMWAVE: 0.3, BandKind.SUB6: 4.0}},
    )
    moved = resample_positions(s, np.random.default_rng(3))
    twins = (moved, pickle.loads(pickle.dumps(moved)), copy.copy(moved), copy.deepcopy(moved))
    return s, twins


def test_a_resampled_scenario_carries_the_terms_of_its_fields():
    """The position-independent terms come from the base, derived once
    there, and equal those of a scenario built afresh from the fields."""
    base, twins = _resampled_twins()
    moved = twins[0]
    for name in _SHAPE_TERMS:
        assert vars(moved)[name] is getattr(base, name)
    for t in twins:
        fresh = {f.name: getattr(t, f.name) for f in dataclasses.fields(Scenario)}
        fresh["prices"] = {a: dict(p) for a, p in t.prices.items()}
        fresh["budgets"], fresh["demands_bps"] = dict(t.budgets), dict(t.demands_bps)
        rebuilt = Scenario(**fresh)
        assert t == moved == rebuilt
        assert [getattr(t, n) for n in _SHAPE_TERMS] == [getattr(rebuilt, n) for n in _SHAPE_TERMS]
        assert t.anchor_ids == (0, 7) and t.anchors == moved.anchors
        assert t.stations != base.stations


_EDITS = {
    "set": lambda d: d.__setitem__(next(iter(d)), 1.0),
    "del": lambda d: d.__delitem__(next(iter(d))),
    "ior": lambda d: d.__ior__({}),
    "clear": lambda d: d.clear(),
    "pop": lambda d: d.pop(next(iter(d))),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault(-1, 1.0),
    "update": lambda d: d.update({}),
}


@pytest.mark.parametrize("edit", list(_EDITS.values()), ids=list(_EDITS))
def test_a_resampled_scenario_refuses_every_edit_of_its_money(edit):
    base, twins = _resampled_twins()
    for t in twins:
        money = (t.prices, *t.prices.values(), t.budgets, t.demands_bps)
        before = [dict(d) for d in money]
        for d in money:
            with pytest.raises(TypeError, match="read-only"):
                edit(d)
        assert [dict(d) for d in money] == before
        for name in ("prices", "budgets", "demands_bps"):
            assert getattr(t, name) == getattr(base, name)


def test_a_read_only_mapping_is_kept_and_any_other_copied():
    s = load_scenario(str(GOLDEN_V1))
    again = dataclasses.replace(s, seed=1)
    for name in ("prices", "budgets", "demands_bps"):
        assert getattr(again, name) is getattr(s, name)
    # read-only outside but not inside: copied, so no inner dict aliases
    mixed = type(s.prices)({a: dict(p) for a, p in s.prices.items()})
    t = dataclasses.replace(s, prices=mixed)
    assert t.prices is not mixed and t.prices == s.prices
    with pytest.raises(TypeError, match="read-only"):
        t.prices[0][BandKind.SUB6] = 1.0


def test_load_rejects_truncated_file(tmp_path):
    s = generate_scenario(GenerationConfig(), seed=0)
    path = tmp_path / "scenario.json"
    save_scenario(s, str(path))
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="not valid JSON"):
        load_scenario(str(path))


def _doc_for(tmp_path, mutate):
    s = generate_scenario(GenerationConfig(num_stations=4, num_anchors=1), seed=3)
    path = tmp_path / "scenario.json"
    save_scenario(s, str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    mutate(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_load_rejects_unknown_field_by_name(tmp_path):
    path = _doc_for(tmp_path, lambda doc: doc.__setitem__("wind_speed", 3))
    with pytest.raises(ScenarioFormatError, match="unknown field 'wind_speed'"):
        load_scenario(path)


def test_load_rejects_unknown_station_field(tmp_path):
    path = _doc_for(tmp_path, lambda doc: doc["stations"][0].__setitem__("z_m", 1.0))
    with pytest.raises(ScenarioFormatError, match="unknown field 'z_m'"):
        load_scenario(path)


@pytest.mark.parametrize(
    "field",
    ["budgets", "stations.0.x_m", "mmw_pathloss.blockage_prob", "sub6_pathloss.exponent"],
)
def test_load_rejects_missing_field(tmp_path, field):
    *outer, name = field.split(".")

    def mutate(doc):
        for key in outer:
            doc = doc[int(key)] if isinstance(doc, list) else doc[key]
        doc.pop(name)

    path = _doc_for(tmp_path, mutate)
    with pytest.raises(ScenarioFormatError, match=f"missing field '{name}'"):
        load_scenario(path)


def test_load_rejects_wrong_format_tag(tmp_path):
    path = _doc_for(tmp_path, lambda doc: doc.__setitem__("format", "scbn-scenario-v0"))
    with pytest.raises(ScenarioFormatError, match="unsupported format"):
        load_scenario(path)


def test_load_rejects_bad_role(tmp_path):
    path = _doc_for(tmp_path, lambda doc: doc["stations"][1].__setitem__("role", "relay"))
    with pytest.raises(ScenarioFormatError, match="must be one of"):
        load_scenario(path)


def test_load_rejects_non_numeric_budget(tmp_path):
    def mutate(doc):
        key = next(iter(doc["budgets"]))
        doc["budgets"][key] = "plenty"

    path = _doc_for(tmp_path, mutate)
    with pytest.raises(ScenarioFormatError, match="must be of type float"):
        load_scenario(path)


@pytest.mark.parametrize("field", ["prices", "budgets", "demands_bps"])
def test_load_rejects_a_second_spelling_of_a_station_id(tmp_path, field):
    # "02" beside "2" would read as station 2 again, the later entry winning
    def mutate(doc):
        key, value = next(iter(doc[field].items()))
        doc[field]["0" + key] = value

    path = _doc_for(tmp_path, mutate)
    with pytest.raises(ScenarioFormatError, match="key '0.*' is not a station id"):
        load_scenario(path)


def test_load_reads_negative_station_ids(tmp_path):
    def mutate(doc):
        for st in doc["stations"][1:]:
            st["id"] = -st["id"]
        for field in ("budgets", "demands_bps"):
            doc[field] = {str(-int(k)): v for k, v in doc[field].items()}

    s = load_scenario(_doc_for(tmp_path, mutate))
    assert s.demander_ids == (-1, -2, -3)
    assert set(s.budgets) == {-1, -2, -3}


def test_load_rejects_invalid_scenario_contents(tmp_path):
    # structurally fine but semantically broken: negative budget
    def mutate(doc):
        key = next(iter(doc["budgets"]))
        doc["budgets"][key] = -4.0

    path = _doc_for(tmp_path, mutate)
    with pytest.raises(ScenarioFormatError, match="invalid scenario"):
        load_scenario(path)
