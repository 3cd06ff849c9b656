"""Network scenario model: station layout, carrier bands, prices, budgets.

A scenario describes one small-cell backhaul deployment: a handful of
anchor stations with fiber backhaul that lease out backhaul resource
blocks (BRBs) on an mmWave carrier and on a sub-6 GHz carrier, plus the
demanding stations that buy them.  Scenario values are plain data, are
immutable after construction, and are safe to share across worker
processes.

Unit conventions (also used by the JSON file format):
  distances / positions  meters        (``_m``)
  powers                 watts or dBm  (``_w`` / ``_dbm``)
  frequencies            Hz            (``_hz``)
  rates                  bit/s         (``_bps``)
  losses                 dB            (``_db``)
  prices / budgets       price units   (unitless)
"""

from __future__ import annotations

import csv
import enum
import functools
import json
import math
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace

import numpy as np

__all__ = [
    "Role",
    "BandKind",
    "BaseStation",
    "Band",
    "MmwParams",
    "Sub6Params",
    "BrbTable",
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
# the largest finite float; an int beyond it is as unusable as infinity
_FLOAT_MAX = sys.float_info.max


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
    """One carrier band and its pool of equal-bandwidth BRBs per anchor.

    A band's kind is its slot in the scenario: ``mmw_band`` or
    ``sub6_band``.
    """

    center_frequency_hz: float
    num_brbs: int
    brb_bandwidth_hz: float


@dataclass(frozen=True)
class MmwParams:
    """mmWave link model: fitted log-distance loss plus lognormal shadowing.

    ``blockage_prob`` is the per-link probability that the line of sight
    is obstructed; an obstructed link carries no mmWave signal at all.
    """

    slope: float
    ref_loss_db: float
    shadow_sigma_db: float
    blockage_prob: float


@dataclass(frozen=True)
class Sub6Params:
    """Sub-6 GHz link model: log-distance loss with Rayleigh fading."""

    exponent: float
    ref_loss_db: float


# a BRB's key: (owner id, band code, index in band), band code 0 for
# mmWave and 1 for sub-6
BrbKey = tuple[int, int, int]


class _ReadOnlyArrays:
    """The base of a frozen dataclass whose arrays stay read-only in its
    pickled and copied twins.  A twin's state is the fields alone, so it
    builds its cached terms anew rather than copying them: a cached
    ``MappingProxyType`` view would not pickle."""

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        # an unpickled or deep-copied array is writable
        for v in state.values():
            if isinstance(v, np.ndarray):
                v.setflags(write=False)
        vars(self).update(state)


@dataclass(frozen=True, eq=False)
class BrbTable(_ReadOnlyArrays):
    """The canonical BRB axis of one deployment shape, as parallel arrays.

    Flat index ``k`` names the BRB of anchor axis ``k // N`` (station
    order) at global index ``k % N`` into the channel tensors, with ``N``
    BRBs per anchor: ``k`` = anchor axis * N + global index.  ``keys[k]``
    is its key, the tuple (owner id, band code, index in band) that names
    a BRB outside the table, band code 0 for mmWave and 1 for sub-6; keys
    sort as tuples do.  The arrays give its price and its position in
    ``tiers``, the distinct prices ascending.  ``tie_order`` lists the
    flat indices by (price, band, owner, index), the order in which a
    demander ranks blocks of equal utility.  ``price_of`` and ``tier_of``
    hold the prices and tier positions as Python numbers too, for the
    per-block loops of the matching and the random baseline.
    ``class_runs[a]`` lists the flat blocks of anchor axis ``a``'s mmWave
    class in index order, one run of the tie order, and ``class_order``
    the anchor axes of the classes' index-0 blocks, in the tie order; it
    is empty when there are no mmWave blocks.  A table is a term of its
    scenario (:attr:`Scenario.brb_table`), shared by the scenario's
    resampled trials and by every matching over it, so every field is
    read-only, also in a pickled or copied table.
    """

    keys: tuple[BrbKey, ...]
    price: np.ndarray
    tier: np.ndarray
    tie_order: np.ndarray
    tiers: tuple[float, ...]
    tier_sizes: tuple[int, ...]
    price_of: tuple[float, ...]
    tier_of: tuple[int, ...]
    class_order: tuple[int, ...]
    class_runs: tuple[tuple[int, ...], ...]


class _ReadOnlyDict(dict):
    """A dict that refuses every edit.  It pickles and copies by its items:
    dict's own protocol would refill it through the refused ``__setitem__``."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a scenario's money is read-only; vary it with dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return (type(self), (dict(self),))


@dataclass(frozen=True)
class Scenario:
    """One deployment: stations, bands, prices, budgets and link models.

    The anchors and the demanders are the stations of each role, in
    station order, so a file may interleave the roles;
    :func:`generate_scenario` puts the anchors first.  ``prices`` gives
    each anchor's price per band.  ``budgets`` and ``demands_bps`` are
    keyed by demanding-station id; generation assigns every demander the
    same value but files may override per station.  The scenario keeps
    read-only copies of the three mappings, or a mapping that is read-only
    already, so an edit raises TypeError; ``dataclasses.replace`` gives a
    scenario with other values.  What the schemes read besides the fields,
    the BRB table among them, are terms derived from the fields once per
    scenario, and :func:`resample_positions` hands a new scenario those
    that positions do not enter.
    """

    # the fields are the scenario file's keys, in the file's key order
    seed: int
    area_side_m: float
    tx_power_w: float
    noise_power_dbm: float
    stations: tuple[BaseStation, ...]
    mmw_band: Band
    sub6_band: Band
    prices: dict[int, dict[BandKind, float]]
    budgets: dict[int, float]
    demands_bps: dict[int, float]
    mmw_pathloss: MmwParams
    sub6_pathloss: Sub6Params

    def __post_init__(self):
        # copies, so that no dict of the caller's aliases the scenario's; a
        # read-only mapping cannot change, so one is kept as it is, as
        # ``dataclasses.replace`` passes it
        if {type(self.prices), *map(type, self.prices.values())} != {_ReadOnlyDict}:
            prices = {a: _ReadOnlyDict(per_band) for a, per_band in self.prices.items()}
            object.__setattr__(self, "prices", _ReadOnlyDict(prices))
        for name in ("budgets", "demands_bps"):
            if type(getattr(self, name)) is not _ReadOnlyDict:
                object.__setattr__(self, name, _ReadOnlyDict(getattr(self, name)))

    # every field is frozen or read-only, so the terms below are computed
    # once per scenario and cannot go stale
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

    @functools.cached_property
    def brb_table(self) -> BrbTable:
        """The table of the scenario's BRBs.  It is made of the anchor ids
        in station order, both bands' BRB counts and every anchor's two
        prices; positions, budgets, demands and bandwidths do not enter it.
        """
        anchors, n1, n2 = self.anchor_ids, self.mmw_band.num_brbs, self.sub6_band.num_brbs
        n = n1 + n2
        # numpy allocates first: a table too large to hold is refused as the
        # channel arrays are, by MemoryError, or ValueError beyond int64,
        # before the lists below fill the memory.  Lists, as a micro table is
        # built for every new instance, and there a numpy call per column
        # costs more than it saves
        price, tier, tie_order = (np.empty(len(anchors) * n, dt) for dt in (float, int, np.intp))
        # each flat block as its tie key: price, band, owner id, index in band
        blocks = [
            (p, b, a, i) for a in anchors
            for b, p, m in ((0, self.prices[a][BandKind.MMWAVE], n1),
                            (1, self.prices[a][BandKind.SUB6], n2))
            for i in range(m)
        ]
        order = sorted(range(len(blocks)), key=blocks.__getitem__)
        price_of = [blk[0] for blk in blocks]
        tiers = sorted(set(price_of))
        tier_of = list(map({p: t for t, p in enumerate(tiers)}.__getitem__, price_of))
        price[:], tier[:], tie_order[:] = price_of, tier_of, order
        for a in (price, tier, tie_order):
            a.setflags(write=False)
        return BrbTable(
            keys=tuple([(a, b, i) for _, b, a, i in blocks]),
            price=price,
            tier=tier,
            tie_order=tie_order,
            tiers=tuple(tiers),
            tier_sizes=tuple(np.bincount(tier, minlength=len(tiers)).tolist()),
            price_of=tuple(price.tolist()),
            tier_of=tuple(tier_of),
            # the anchor axis of each class's index-0 block, in the tie order
            class_order=tuple([k // n for k in order if k % n == 0]) if n1 else (),
            class_runs=tuple([tuple(range(a * n, a * n + n1)) for a in range(len(anchors))]),
        )

    @functools.cached_property
    def demander_terms(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The budgets and the demands, each in demander order."""
        ids = self.demander_ids
        return tuple(tuple(float(v[d]) for d in ids) for v in (self.budgets, self.demands_bps))

    @functools.cached_property
    def noise_power_w(self) -> float:
        return _dbm_to_w(self.noise_power_dbm)

    @functools.cached_property
    def radio(self) -> tuple[float, float, float, float]:
        """What a rate tensor folds in besides the gains: the transmit
        power, the noise power, and the mmWave and sub-6 BRB bandwidths."""
        bandwidths = (self.mmw_band.brb_bandwidth_hz, self.sub6_band.brb_bandwidth_hz)
        return (self.tx_power_w, self.noise_power_w, *bandwidths)

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
    """What must hold before the draw: the station counts, numbers in the
    float range, and the positive area and sub-6 carrier that
    ``rng.uniform`` and :func:`friis_reference_loss_db` need.
    :func:`validate_scenario` checks everything else on the scenario
    drawn."""
    if cfg.num_anchors < 1:
        raise ConfigError(f"need at least one anchor, got {cfg.num_anchors}")
    if cfg.num_anchors >= cfg.num_stations:
        raise ConfigError(
            f"num_anchors ({cfg.num_anchors}) must be smaller than "
            f"num_stations ({cfg.num_stations}); no demanding stations left"
        )
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, (int, float)) and not _finite(v):
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
        seed=int(seed),
        area_side_m=cfg.area_side_m,
        tx_power_w=cfg.tx_power_w,
        noise_power_dbm=cfg.noise_power_dbm,
        stations=stations,
        mmw_band=Band(
            center_frequency_hz=cfg.mmw_center_frequency_hz,
            num_brbs=cfg.num_mmw_brbs,
            brb_bandwidth_hz=cfg.mmw_brb_bandwidth_hz,
        ),
        sub6_band=Band(
            center_frequency_hz=cfg.sub6_center_frequency_hz,
            num_brbs=cfg.num_sub6_brbs,
            brb_bandwidth_hz=cfg.sub6_brb_bandwidth_hz,
        ),
        prices={
            a: {BandKind.MMWAVE: cfg.mmw_price, BandKind.SUB6: cfg.sub6_price}
            for a in anchor_ids
        },
        budgets={d: cfg.budget for d in demander_ids},
        demands_bps={d: cfg.demand_bps for d in demander_ids},
        mmw_pathloss=MmwParams(
            slope=cfg.mmw_pathloss_slope,
            ref_loss_db=cfg.mmw_ref_loss_db,
            shadow_sigma_db=cfg.mmw_shadow_sigma_db,
            blockage_prob=cfg.mmw_blockage_prob,
        ),
        sub6_pathloss=Sub6Params(exponent=cfg.sub6_pathloss_exponent, ref_loss_db=sub6_ref),
    )
    problems = validate_scenario(scenario)
    if problems:
        raise ConfigError("generated scenario is invalid: " + "; ".join(problems))
    return scenario


# the cached terms of a Scenario that station positions do not enter
_SHAPE_TERMS = ("anchor_ids", "demander_ids", "brb_table", "demander_terms",
                "noise_power_w", "radio")


def resample_positions(s: Scenario, rng: np.random.Generator) -> Scenario:
    """Redraw all station positions, keeping ids, roles and everything else.

    The new scenario starts with the base's :data:`_SHAPE_TERMS`, derived
    once per base: each reads only the ids and roles of the stations, the
    money, the powers or the bands, which the new scenario shares with the
    base, and every one of those is frozen or read-only, so none can go
    stale.  So the trials of one base share its BRB table.
    """
    xy = rng.uniform(0.0, s.area_side_m, size=(len(s.stations), 2))
    stations = tuple(
        BaseStation(id=st.id, role=st.role, x_m=x, y_m=y)
        for st, (x, y) in zip(s.stations, xy.tolist())
    )
    out = replace(s, stations=stations)
    vars(out).update((name, getattr(s, name)) for name in _SHAPE_TERMS)
    return out


def _finite(v: float) -> bool:
    """``v``, a float or an int, lies in the float range (false for NaN).
    Python compares an int with a float exactly, so an int beyond the range
    is rejected here rather than overflowing a conversion."""
    return -_FLOAT_MAX <= v <= _FLOAT_MAX


def _positive(v: float) -> bool:
    """``v`` is a positive number in the float range (false for NaN)."""
    return 0 < v <= _FLOAT_MAX


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
        # ids go into int64 arrays of the BRB table
        if not -(2**63) <= st.id < 2**63:
            problems.append(f"station id {st.id} lies outside the signed 64-bit range")
        if not (0.0 <= st.x_m <= s.area_side_m and 0.0 <= st.y_m <= s.area_side_m):
            problems.append(f"station {st.id} lies outside the deployment square")
    # every check below is written to fail for NaN, and each check of a
    # real number rejects infinity and an int beyond the float range
    for kind, band in zip(BandKind, (s.mmw_band, s.sub6_band)):
        if band.num_brbs < 0:
            problems.append(f"{kind.value} BRB count must be non-negative")
        if not _positive(band.brb_bandwidth_hz):
            problems.append(f"{kind.value} BRB bandwidth must be positive and finite")
        if not _positive(band.center_frequency_hz):
            problems.append(f"{kind.value} frequency must be positive and finite")
    if s.brbs_per_anchor <= 0:
        problems.append("scenario needs at least one BRB per anchor")
    if not _positive(s.tx_power_w):
        problems.append("tx_power_w must be positive and finite")
    if not _positive(s.area_side_m):
        problems.append("area_side_m must be positive and finite")
    for name, v in (
        ("noise_power_dbm", s.noise_power_dbm),
        ("mmw ref_loss_db", s.mmw_pathloss.ref_loss_db),
        ("sub6 ref_loss_db", s.sub6_pathloss.ref_loss_db),
    ):
        if not _finite(v):
            problems.append(f"{name} must be finite, got {v}")
    if _finite(s.noise_power_dbm) and not _positive(s.noise_power_w):
        problems.append(
            f"noise_power_dbm {s.noise_power_dbm} gives no positive, finite noise power"
        )
    anchor_ids = set(s.anchor_ids)
    if set(s.prices) != anchor_ids:
        problems.append("price schedule does not cover exactly the anchor ids")
    else:
        for a, per_band in s.prices.items():
            if set(per_band) != {BandKind.MMWAVE, BandKind.SUB6}:
                problems.append(f"anchor {a} must price exactly the two bands")
            elif not all(0 <= p <= _FLOAT_MAX for p in per_band.values()):
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
    if not _positive(s.mmw_pathloss.slope):
        problems.append("mmw pathloss slope must be positive and finite")
    if not 0 <= s.mmw_pathloss.shadow_sigma_db <= _FLOAT_MAX:
        problems.append("mmw shadowing sigma must be non-negative and finite")
    if not 0.0 <= s.mmw_pathloss.blockage_prob <= 1.0:
        problems.append("mmw blockage probability must lie in [0, 1]")
    if not _positive(s.sub6_pathloss.exponent):
        problems.append("sub6 pathloss exponent must be positive and finite")
    return problems


# ---------------------------------------------------------------------------
# Persistence.  Scenario files and configs are read by one strict reader:
# unknown fields are rejected by name so that a stale or hand-edited file
# fails loudly instead of being silently misread.  Every output file, CSV
# or JSON, is written by one of the two writers beside it.
# ---------------------------------------------------------------------------

_FORMAT = "scbn-scenario-v1"


def save_scenario(s: Scenario, path: str) -> None:
    """Write a scenario to a JSON file (UTF-8, round-trip lossless).

    The file is the format tag followed by the scenario's fields by name;
    json writes int keys as decimal strings and enums by value.
    """
    _write_json(path, {"format": _FORMAT, **asdict(s)})


def _write_json(path: str, doc) -> None:
    """Write ``doc`` as UTF-8 JSON, indented by two, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, header, rows) -> None:
    """Write ``header`` and ``rows`` as UTF-8 CSV by one cell rule: a bool
    as 0 or 1, an int or str as is, a float by ``repr(float(v))``, which
    keeps full precision and writes a numpy float as its bare value."""

    def cell(v):
        if isinstance(v, bool):
            return int(v)
        if isinstance(v, float):
            return repr(float(v))
        if isinstance(v, (int, str)):
            return v
        raise TypeError(f"no CSV cell rule for {type(v).__name__} {v!r}")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(cell, row) for row in rows)


def _read_json(path: str, error: type[ValueError]):
    """The JSON value in the file at ``path``; raises ``error`` for bytes
    that are not JSON text: bad UTF-8, bad syntax, or an int beyond
    Python's int-string limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def _station_id(key: str, where: str, error: type[ValueError]) -> int:
    """An object key read as a station id, in the decimal form
    :func:`save_scenario` writes, so no id has two spellings."""
    try:
        if key == str(int(key)):
            return int(key)
    except ValueError:
        pass
    raise error(f"{where}: key '{key}' is not a station id in decimal form")


def _typed(value, tp, where: str, error: type[ValueError]):
    """``value`` read as type ``tp``, or ``error`` naming ``where``.

    ``tp`` is float (which also takes an int, but no bool, and must come
    out finite), int (no bool), str, an enum (by value), ``tuple[X, ...]``
    from a list, ``dict[K, X]`` from an object whose keys are station ids
    or enum values, ``X | None``, or a nested object spec of
    :func:`_fields`.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return _typed(value, tp, where, error)
    if origin is tuple:
        if not isinstance(value, list):
            raise error(f"{where} must be a list, got {json.dumps(value)}")
        return tuple(_typed(v, args[0], where, error) for v in value)
    if origin is dict:
        if not isinstance(value, dict):
            raise error(f"{where}: expected a JSON object")
        key_tp, value_tp = args
        out = {}
        for k, v in value.items():
            key = _station_id(k, where, error) if key_tp is int else _typed(k, key_tp, where, error)
            out[key] = _typed(v, value_tp, f"{where}[{k}]", error)
        return out
    if isinstance(tp, dict) or is_dataclass(tp):
        return _fields(value, tp, where, error)
    if issubclass(tp, enum.Enum):
        choices = tuple(m.value for m in tp)
        if value not in choices:
            raise error(f"{where} must be one of {choices}, got {json.dumps(value)}")
        return tp(value)
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise error(f"{where} must be of type {tp.__name__}, got {json.dumps(value)}")
    if tp is not float:
        return value
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise error(f"{where} must be a finite number, got {json.dumps(value)}")
    return number


def _fields(doc, spec, context: str, error: type[ValueError]):
    """One JSON object read by ``spec``, or ``error`` naming the field.

    ``spec`` is a dataclass, built from the object, whose fields without
    a default are required; or a dict of field name to type, all
    required, giving a dict.  Each value is read by :func:`_typed` as its
    field's type; a field the spec does not name is rejected by name.
    """
    if not isinstance(doc, dict):
        raise error(f"{context}: expected a JSON object")
    if isinstance(spec, dict):
        hints, required = spec, spec
    else:
        hints = typing.get_type_hints(spec)
        required = [
            f.name for f in fields(spec) if f.default is MISSING and f.default_factory is MISSING
        ]
    for name in doc:
        if name not in hints:
            raise error(f"{context}: unknown field '{name}'")
    for name in required:
        if name not in doc:
            raise error(f"{context}: missing field '{name}'")
    out = {name: _typed(v, hints[name], f"{context}: '{name}'", error) for name, v in doc.items()}
    return out if isinstance(spec, dict) else spec(**out)


def load_scenario(path: str) -> Scenario:
    """Read a scenario JSON file, rejecting unknown fields and bad shapes."""
    spec = {"format": str, **typing.get_type_hints(Scenario)}
    top = _fields(_read_json(path, ScenarioFormatError), spec, path, ScenarioFormatError)
    fmt = top.pop("format")
    if fmt != _FORMAT:
        raise ScenarioFormatError(f"{path}: unsupported format '{fmt}', expected '{_FORMAT}'")
    scenario = Scenario(**top)
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioFormatError(f"{path}: invalid scenario: " + "; ".join(problems))
    return scenario
