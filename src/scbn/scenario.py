"""Network scenario model: station layout, carrier bands, prices, budgets.

A scenario describes one small-cell backhaul deployment: a handful of
anchor stations with fiber backhaul that lease out backhaul resource
blocks (BRBs) on an mmWave carrier and on a sub-6 GHz carrier, plus the
demanding stations that buy them.  Scenario values are plain data, are
treated as immutable after construction, and are safe to share across
worker processes.

Unit conventions (also used by the JSON file format):
  distances / positions  meters        (``_m``)
  powers                 watts or dBm  (``_w`` / ``_dbm``)
  frequencies            Hz            (``_hz``)
  rates                  bit/s         (``_bps``)
  losses                 dB            (``_db``)
  prices / budgets       price units   (unitless)
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "Role",
    "BandKind",
    "BaseStation",
    "Band",
    "MmwParams",
    "Sub6Params",
    "PriceSchedule",
    "Scenario",
    "GenerationConfig",
    "ConfigError",
    "ScenarioFormatError",
    "friis_reference_loss_db",
    "generate_scenario",
    "resample_positions",
    "validate_scenario",
    "save_scenario",
    "load_scenario",
]

SPEED_OF_LIGHT_M_S = 299_792_458.0


class ConfigError(ValueError):
    """Raised for generation parameters that cannot yield a valid scenario."""


class ScenarioFormatError(ValueError):
    """Raised when a scenario file is malformed or fails validation on load."""


class Role(str, enum.Enum):
    ANCHOR = "anchor"
    DEMANDING = "demanding"


class BandKind(str, enum.Enum):
    MMWAVE = "mmwave"
    SUB6 = "sub6"


@dataclass(frozen=True)
class BaseStation:
    id: int
    role: Role
    x_m: float
    y_m: float


@dataclass(frozen=True)
class Band:
    """One carrier band and its pool of equal-bandwidth BRBs per anchor."""

    kind: BandKind
    center_frequency_hz: float
    num_brbs: int
    brb_bandwidth_hz: float


@dataclass(frozen=True)
class MmwParams:
    """mmWave link model: fitted log-distance loss plus lognormal shadowing.

    ``blockage_prob`` is the per-link probability that the line of sight
    is obstructed; an obstructed link carries no mmWave signal at all.
    """

    pathloss_slope: float
    ref_loss_db: float
    shadow_sigma_db: float
    blockage_prob: float = 0.0


@dataclass(frozen=True)
class Sub6Params:
    """Sub-6 GHz link model: log-distance loss with Rayleigh fading."""

    pathloss_exponent: float
    ref_loss_db: float


@dataclass(frozen=True)
class PriceSchedule:
    """Per-anchor BRB prices, one price per band."""

    per_anchor: dict[int, dict[BandKind, float]]


@dataclass(frozen=True)
class Scenario:
    """One deployment: stations, bands, prices, budgets and link models.

    The first ``len(anchor_ids)`` stations are anchors.  ``budgets`` and
    ``demands_bps`` are keyed by demanding-station id; generation assigns
    every demander the same value but files may override per station.
    """

    stations: tuple[BaseStation, ...]
    mmw_band: Band
    sub6_band: Band
    prices: PriceSchedule
    budgets: dict[int, float]
    demands_bps: dict[int, float]
    tx_power_w: float
    noise_power_dbm: float
    mmw: MmwParams
    sub6: Sub6Params
    area_side_m: float
    seed: int

    # ``stations`` is a tuple of frozen stations, so the views below are
    # computed once per scenario and cannot go stale
    @functools.cached_property
    def anchors(self) -> tuple[BaseStation, ...]:
        return tuple(s for s in self.stations if s.role is Role.ANCHOR)

    @functools.cached_property
    def demanders(self) -> tuple[BaseStation, ...]:
        return tuple(s for s in self.stations if s.role is Role.DEMANDING)

    @functools.cached_property
    def anchor_ids(self) -> tuple[int, ...]:
        return tuple(s.id for s in self.anchors)

    @functools.cached_property
    def demander_ids(self) -> tuple[int, ...]:
        return tuple(s.id for s in self.demanders)

    @property
    def noise_power_w(self) -> float:
        return _dbm_to_w(self.noise_power_dbm)

    @property
    def brbs_per_anchor(self) -> int:
        return self.mmw_band.num_brbs + self.sub6_band.num_brbs


def _dbm_to_w(dbm: float) -> float:
    """``dbm`` in watts; inf beyond the float range, 0 below it."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


def friis_reference_loss_db(frequency_hz: float) -> float:
    """Free-space loss at the 1 m reference distance for a carrier."""
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return 20.0 * math.log10(4.0 * math.pi * frequency_hz / SPEED_OF_LIGHT_M_S)


@dataclass(frozen=True)
class GenerationConfig:
    """Parameters for random scenario generation.

    Defaults reproduce the reference deployment used throughout the test
    suite: 10 stations (2 anchors), 192 mmWave + 100 sub-6 BRBs per anchor,
    4.86 MHz / 480 kHz BRB bandwidths, 1 W transmit power, -90 dBm noise,
    100 Mbit/s demand, budget 60 with prices (0.1, 10), in a 2 km square.
    """

    num_stations: int = 10
    num_anchors: int = 2
    num_mmw_brbs: int = 192
    num_sub6_brbs: int = 100
    mmw_brb_bandwidth_hz: float = 4.86e6
    sub6_brb_bandwidth_hz: float = 480e3
    mmw_center_frequency_hz: float = 73e9
    sub6_center_frequency_hz: float = 5.8e9
    tx_power_w: float = 1.0
    noise_power_dbm: float = -90.0
    demand_bps: float = 100e6
    budget: float = 60.0
    mmw_price: float = 0.1
    sub6_price: float = 10.0
    mmw_pathloss_slope: float = 2.0
    mmw_ref_loss_db: float = 70.0
    mmw_shadow_sigma_db: float = 4.1
    mmw_blockage_prob: float = 0.0
    sub6_pathloss_exponent: float = 3.0
    # None means: compute the free-space 1 m loss at the sub-6 carrier.
    sub6_ref_loss_db: float | None = None
    area_side_m: float = 2000.0


def _check_generation_config(cfg: GenerationConfig) -> None:
    """What must hold before the draw: the station counts, finite values,
    and the positive area and sub-6 carrier that ``rng.uniform`` and
    :func:`friis_reference_loss_db` need.  :func:`validate_scenario`
    checks everything else on the scenario drawn."""
    if cfg.num_anchors < 1:
        raise ConfigError(f"need at least one anchor, got {cfg.num_anchors}")
    if cfg.num_anchors >= cfg.num_stations:
        raise ConfigError(
            f"num_anchors ({cfg.num_anchors}) must be smaller than "
            f"num_stations ({cfg.num_stations}); no demanding stations left"
        )
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{f.name} must be finite, got {v}")
    for name in ("area_side_m", "sub6_center_frequency_hz"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive, got {getattr(cfg, name)}")


def generate_scenario(cfg: GenerationConfig, seed: int) -> Scenario:
    """Draw a random scenario: stations placed uniformly in the square.

    Deterministic for a given (cfg, seed).  Station ids are 0..K-1 in
    draw order and the first ``num_anchors`` stations are the anchors.
    Raises ConfigError for a config whose scenario :func:`validate_scenario`
    rejects.
    """
    _check_generation_config(cfg)
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, cfg.area_side_m, size=(cfg.num_stations, 2))
    stations = tuple(
        BaseStation(
            id=i,
            role=Role.ANCHOR if i < cfg.num_anchors else Role.DEMANDING,
            x_m=float(xy[i, 0]),
            y_m=float(xy[i, 1]),
        )
        for i in range(cfg.num_stations)
    )
    sub6_ref = cfg.sub6_ref_loss_db
    if sub6_ref is None:
        sub6_ref = friis_reference_loss_db(cfg.sub6_center_frequency_hz)
    anchor_ids = [s.id for s in stations if s.role is Role.ANCHOR]
    demander_ids = [s.id for s in stations if s.role is Role.DEMANDING]
    scenario = Scenario(
        stations=stations,
        mmw_band=Band(
            kind=BandKind.MMWAVE,
            center_frequency_hz=cfg.mmw_center_frequency_hz,
            num_brbs=cfg.num_mmw_brbs,
            brb_bandwidth_hz=cfg.mmw_brb_bandwidth_hz,
        ),
        sub6_band=Band(
            kind=BandKind.SUB6,
            center_frequency_hz=cfg.sub6_center_frequency_hz,
            num_brbs=cfg.num_sub6_brbs,
            brb_bandwidth_hz=cfg.sub6_brb_bandwidth_hz,
        ),
        prices=PriceSchedule(
            per_anchor={
                a: {BandKind.MMWAVE: cfg.mmw_price, BandKind.SUB6: cfg.sub6_price}
                for a in anchor_ids
            }
        ),
        budgets={d: cfg.budget for d in demander_ids},
        demands_bps={d: cfg.demand_bps for d in demander_ids},
        tx_power_w=cfg.tx_power_w,
        noise_power_dbm=cfg.noise_power_dbm,
        mmw=MmwParams(
            pathloss_slope=cfg.mmw_pathloss_slope,
            ref_loss_db=cfg.mmw_ref_loss_db,
            shadow_sigma_db=cfg.mmw_shadow_sigma_db,
            blockage_prob=cfg.mmw_blockage_prob,
        ),
        sub6=Sub6Params(
            pathloss_exponent=cfg.sub6_pathloss_exponent,
            ref_loss_db=sub6_ref,
        ),
        area_side_m=cfg.area_side_m,
        seed=int(seed),
    )
    problems = validate_scenario(scenario)
    if problems:
        raise ConfigError("generated scenario is invalid: " + "; ".join(problems))
    return scenario


def resample_positions(s: Scenario, rng: np.random.Generator) -> Scenario:
    """Redraw all station positions, keeping ids, roles and everything else."""
    xy = rng.uniform(0.0, s.area_side_m, size=(len(s.stations), 2))
    stations = tuple(
        BaseStation(id=st.id, role=st.role, x_m=x, y_m=y)
        for st, (x, y) in zip(s.stations, xy.tolist())
    )
    return replace(s, stations=stations)


def _positive(v: float) -> bool:
    """``v`` is a positive finite number (false for NaN)."""
    return 0 < v < math.inf


def validate_scenario(s: Scenario) -> list[str]:
    """Return a list of violation messages; an empty list means valid."""
    problems: list[str] = []
    ids = [st.id for st in s.stations]
    if len(set(ids)) != len(ids):
        problems.append("station ids are not unique")
    anchors = s.anchors
    demanders = s.demanders
    if not anchors:
        problems.append("scenario has no anchor station")
    if not demanders:
        problems.append("scenario has no demanding station")
    for st in s.stations:
        if not (0.0 <= st.x_m <= s.area_side_m and 0.0 <= st.y_m <= s.area_side_m):
            problems.append(f"station {st.id} lies outside the deployment square")
    if s.mmw_band.kind is not BandKind.MMWAVE:
        problems.append("mmw_band has the wrong kind")
    if s.sub6_band.kind is not BandKind.SUB6:
        problems.append("sub6_band has the wrong kind")
    # every check below is written to fail for NaN, and _positive also
    # rejects infinity
    for band in (s.mmw_band, s.sub6_band):
        if band.num_brbs < 0:
            problems.append(f"{band.kind.value} BRB count must be non-negative")
        if not _positive(band.brb_bandwidth_hz):
            problems.append(f"{band.kind.value} BRB bandwidth must be positive and finite")
        if not _positive(band.center_frequency_hz):
            problems.append(f"{band.kind.value} frequency must be positive and finite")
    if s.brbs_per_anchor <= 0:
        problems.append("scenario needs at least one BRB per anchor")
    if not _positive(s.tx_power_w):
        problems.append("tx_power_w must be positive and finite")
    if not _positive(s.area_side_m):
        problems.append("area_side_m must be positive and finite")
    for name, v in (
        ("noise_power_dbm", s.noise_power_dbm),
        ("mmw ref_loss_db", s.mmw.ref_loss_db),
        ("sub6 ref_loss_db", s.sub6.ref_loss_db),
    ):
        if not math.isfinite(v):
            problems.append(f"{name} must be finite, got {v}")
    if math.isfinite(s.noise_power_dbm) and not _positive(s.noise_power_w):
        problems.append(
            f"noise_power_dbm {s.noise_power_dbm} gives no positive, finite noise power"
        )
    anchor_ids = set(s.anchor_ids)
    if set(s.prices.per_anchor) != anchor_ids:
        problems.append("price schedule does not cover exactly the anchor ids")
    else:
        for a, per_band in s.prices.per_anchor.items():
            if set(per_band) != {BandKind.MMWAVE, BandKind.SUB6}:
                problems.append(f"anchor {a} must price exactly the two bands")
            elif not all(0 <= p < math.inf for p in per_band.values()):
                problems.append(
                    f"anchor {a} has a negative or non-finite price "
                    "(prices must be non-negative and finite)"
                )
    demander_ids = set(s.demander_ids)
    for name, mapping in (("budgets", s.budgets), ("demands_bps", s.demands_bps)):
        if set(mapping) != demander_ids:
            problems.append(f"{name} does not cover exactly the demanding ids")
        else:
            for d, v in mapping.items():
                if not _positive(v):
                    problems.append(f"{name}[{d}] must be positive and finite, got {v}")
    if not _positive(s.mmw.pathloss_slope):
        problems.append("mmw pathloss slope must be positive and finite")
    if not 0 <= s.mmw.shadow_sigma_db < math.inf:
        problems.append("mmw shadowing sigma must be non-negative and finite")
    if not 0.0 <= s.mmw.blockage_prob <= 1.0:
        problems.append("mmw blockage probability must lie in [0, 1]")
    if not _positive(s.sub6.pathloss_exponent):
        problems.append("sub6 pathloss exponent must be positive and finite")
    return problems


# ---------------------------------------------------------------------------
# JSON persistence.  Unknown fields are rejected by name so that a stale or
# hand-edited file fails loudly instead of being silently misread.
# ---------------------------------------------------------------------------

_FORMAT = "scbn-scenario-v1"


def _station_to_json(st: BaseStation) -> dict:
    return {"id": st.id, "role": st.role.value, "x_m": st.x_m, "y_m": st.y_m}


def _band_to_json(b: Band) -> dict:
    return {
        "center_frequency_hz": b.center_frequency_hz,
        "num_brbs": b.num_brbs,
        "brb_bandwidth_hz": b.brb_bandwidth_hz,
    }


def save_scenario(s: Scenario, path: str) -> None:
    """Write a scenario to a JSON file (UTF-8, round-trip lossless)."""
    doc = {
        "format": _FORMAT,
        "seed": s.seed,
        "area_side_m": s.area_side_m,
        "tx_power_w": s.tx_power_w,
        "noise_power_dbm": s.noise_power_dbm,
        "stations": [_station_to_json(st) for st in s.stations],
        "mmw_band": _band_to_json(s.mmw_band),
        "sub6_band": _band_to_json(s.sub6_band),
        "prices": {
            str(a): {kind.value: p for kind, p in per_band.items()}
            for a, per_band in s.prices.per_anchor.items()
        },
        "budgets": {str(d): v for d, v in s.budgets.items()},
        "demands_bps": {str(d): v for d, v in s.demands_bps.items()},
        "mmw_pathloss": {
            "slope": s.mmw.pathloss_slope,
            "ref_loss_db": s.mmw.ref_loss_db,
            "shadow_sigma_db": s.mmw.shadow_sigma_db,
            "blockage_prob": s.mmw.blockage_prob,
        },
        "sub6_pathloss": {
            "exponent": s.sub6.pathloss_exponent,
            "ref_loss_db": s.sub6.ref_loss_db,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _require(obj: dict, context: str, fields: dict[str, type | tuple]) -> dict:
    """Check ``obj`` has exactly ``fields`` with the given types."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{context}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in fields:
            raise ScenarioFormatError(f"{context}: unknown field '{key}'")
    out = {}
    for key, want in fields.items():
        if key not in obj:
            raise ScenarioFormatError(f"{context}: missing field '{key}'")
        val = obj[key]
        if want is float:
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ScenarioFormatError(
                    f"{context}: field '{key}' must be a number, got {type(val).__name__}"
                )
            val = float(val)
        elif want is int:
            if isinstance(val, bool) or not isinstance(val, int):
                raise ScenarioFormatError(
                    f"{context}: field '{key}' must be an integer, got {type(val).__name__}"
                )
        elif isinstance(want, tuple):  # enum of string literals
            if val not in want:
                raise ScenarioFormatError(
                    f"{context}: field '{key}' must be one of {want}, got {val!r}"
                )
        elif want is str:
            if not isinstance(val, str):
                raise ScenarioFormatError(
                    f"{context}: field '{key}' must be a string, got {type(val).__name__}"
                )
        elif want in (list, dict):
            if not isinstance(val, want):
                raise ScenarioFormatError(
                    f"{context}: field '{key}' must be a {want.__name__}"
                )
        out[key] = val
    return out


def _int_keyed(mapping: dict, context: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for key, val in mapping.items():
        try:
            ik = int(key)
        except (TypeError, ValueError):
            raise ScenarioFormatError(f"{context}: key '{key}' is not a station id")
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ScenarioFormatError(f"{context}[{key}]: value must be a number")
        out[ik] = float(val)
    return out


def load_scenario(path: str) -> Scenario:
    """Read a scenario JSON file, rejecting unknown fields and bad shapes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    top = _require(
        doc,
        path,
        {
            "format": str,
            "seed": int,
            "area_side_m": float,
            "tx_power_w": float,
            "noise_power_dbm": float,
            "stations": list,
            "mmw_band": dict,
            "sub6_band": dict,
            "prices": dict,
            "budgets": dict,
            "demands_bps": dict,
            "mmw_pathloss": dict,
            "sub6_pathloss": dict,
        },
    )
    if top["format"] != _FORMAT:
        raise ScenarioFormatError(
            f"{path}: unsupported format '{top['format']}', expected '{_FORMAT}'"
        )
    stations = []
    for i, raw in enumerate(top["stations"]):
        rec = _require(
            raw,
            f"{path}: stations[{i}]",
            {"id": int, "role": ("anchor", "demanding"), "x_m": float, "y_m": float},
        )
        stations.append(
            BaseStation(id=rec["id"], role=Role(rec["role"]), x_m=rec["x_m"], y_m=rec["y_m"])
        )

    def band_from(key: str, kind: BandKind) -> Band:
        rec = _require(
            top[key],
            f"{path}: {key}",
            {"center_frequency_hz": float, "num_brbs": int, "brb_bandwidth_hz": float},
        )
        return Band(kind=kind, **rec)

    prices: dict[int, dict[BandKind, float]] = {}
    for key, raw in top["prices"].items():
        try:
            anchor = int(key)
        except (TypeError, ValueError):
            raise ScenarioFormatError(f"{path}: prices: key '{key}' is not a station id")
        rec = _require(raw, f"{path}: prices[{key}]", {"mmwave": float, "sub6": float})
        prices[anchor] = {BandKind.MMWAVE: rec["mmwave"], BandKind.SUB6: rec["sub6"]}

    mmw_pl = _require(
        top["mmw_pathloss"],
        f"{path}: mmw_pathloss",
        {"slope": float, "ref_loss_db": float, "shadow_sigma_db": float, "blockage_prob": float},
    )
    sub6_pl = _require(
        top["sub6_pathloss"],
        f"{path}: sub6_pathloss",
        {"exponent": float, "ref_loss_db": float},
    )
    scenario = Scenario(
        stations=tuple(stations),
        mmw_band=band_from("mmw_band", BandKind.MMWAVE),
        sub6_band=band_from("sub6_band", BandKind.SUB6),
        prices=PriceSchedule(per_anchor=prices),
        budgets=_int_keyed(top["budgets"], f"{path}: budgets"),
        demands_bps=_int_keyed(top["demands_bps"], f"{path}: demands_bps"),
        tx_power_w=top["tx_power_w"],
        noise_power_dbm=top["noise_power_dbm"],
        mmw=MmwParams(
            pathloss_slope=mmw_pl["slope"],
            ref_loss_db=mmw_pl["ref_loss_db"],
            shadow_sigma_db=mmw_pl["shadow_sigma_db"],
            blockage_prob=mmw_pl["blockage_prob"],
        ),
        sub6=Sub6Params(
            pathloss_exponent=sub6_pl["exponent"],
            ref_loss_db=sub6_pl["ref_loss_db"],
        ),
        area_side_m=top["area_side_m"],
        seed=top["seed"],
    )
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioFormatError(f"{path}: invalid scenario: " + "; ".join(problems))
    return scenario
