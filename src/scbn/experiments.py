"""Monte Carlo harness: paired trials, parameter sweeps, CSV reports.

Every trial draws a fresh station placement and channel realization and
runs all enabled schemes on that identical draw, so scheme comparisons
are paired.  Per-trial RNG streams are derived from the master seed and
the trial index alone, which makes results independent of worker
scheduling, byte-reproducible for a given config, and paired across
sweep points and across configs that share the deployment shape.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .baselines import best_effort_allocate, random_allocate
from .matching import Matching, find_blocking_pairs, run_matching
from .oracle import brute_force_min_cost, check_constraints
from .propagation import ChannelRealization, realize_channels
from .scenario import (
    ConfigError,
    GenerationConfig,
    Scenario,
    generate_scenario,
    resample_positions,
)

__all__ = [
    "SCHEMES",
    "SchemeMetrics",
    "TrialResult",
    "AggregateMetrics",
    "SweepPoint",
    "SweepResult",
    "SweepConfig",
    "load_generation_config",
    "load_sweep_config",
    "run_scheme",
    "run_trial",
    "sweep_n1",
    "sweep_budget_price",
    "sweep_k",
    "write_n1_csv",
    "write_budget_price_csv",
    "write_k_csv",
    "write_manifest",
    "random_micro_config",
    "oracle_compare_rows",
    "write_oracle_csv",
    "stability_audit",
]

SCHEME_MATCHING = "matching"
SCHEME_BEST_EFFORT = "best_effort"
SCHEME_RANDOM = "random"
SCHEMES = (SCHEME_MATCHING, SCHEME_BEST_EFFORT, SCHEME_RANDOM)

_Z975 = statistics.NormalDist().inv_cdf(0.975)


@dataclass(frozen=True)
class SchemeMetrics:
    """Per-trial outcome of one scheme, averaged over demanders."""

    avg_rate_bps: float
    avg_cost: float
    demand_met_fraction: float
    rounds: int
    proposals: int
    blocking_pairs: int
    budget_bound_fraction: float


@dataclass(frozen=True)
class TrialResult:
    per_scheme: dict[str, SchemeMetrics]


@dataclass(frozen=True)
class AggregateMetrics:
    """Mean and 95% confidence half-width over a point's trials."""

    mean_rate_bps: float
    ci95_rate_bps: float
    mean_cost: float
    ci95_cost: float
    demand_met_fraction: float
    mean_rounds: float
    ci95_rounds: float
    mean_proposals: float
    ci95_proposals: float
    mean_blocking_pairs: float
    budget_bound_fraction: float
    trials: int


@dataclass(frozen=True)
class SweepPoint:
    values: dict[str, float]
    per_scheme: dict[str, AggregateMetrics]


@dataclass(frozen=True)
class SweepResult:
    kind: str
    points: tuple[SweepPoint, ...]


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a base deployment plus the axis being varied.

    Only the value list matching the sweep kind is consulted:
    ``n1_values`` for the mmWave supply sweep, ``budget_values`` with
    ``sub6_price_values`` for the budget/price grid, ``k_values`` with
    ``demand_levels_bps`` for the network-size sweep.
    """

    base: GenerationConfig
    trials: int
    zeta_bps_per_unit: float
    seed: int
    schemes: tuple[str, ...] = SCHEMES
    workers: int = 1
    n1_values: tuple[int, ...] = ()
    budget_values: tuple[float, ...] = ()
    sub6_price_values: tuple[float, ...] = ()
    k_values: tuple[int, ...] = ()
    demand_levels_bps: tuple[float, ...] = ()


# annotation -> accepted JSON types; bool is an int to Python but not here
_SCALAR_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _typed(value, annotation: str, where: str):
    """``value`` as the field's annotated type, or ConfigError."""
    if annotation.endswith(" | None"):
        if value is None:
            return None
        annotation = annotation.removesuffix(" | None")
    if annotation.startswith("tuple["):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {json.dumps(value)}")
        inner = annotation.removeprefix("tuple[").removesuffix(", ...]")
        return tuple(_typed(v, inner, where) for v in value)
    accepted = _SCALAR_TYPES.get(annotation)
    if accepted is None:  # a nested dataclass, already built by the caller
        return value
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where} must be of type {annotation}, got {json.dumps(value)}")
    if annotation != "float":
        return value
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {json.dumps(value)}")
    return value


def _strict_dataclass(cls, doc: dict, context: str):
    """``cls`` from a JSON object: known fields only, each value of its
    field's annotated type (an int field takes no bool or float, a float
    field also takes an int)."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = [k for k in doc if k not in fields]
    if unknown:
        raise ConfigError(f"{context}: unknown field '{unknown[0]}'")
    kwargs = {
        name: _typed(value, fields[name].type, f"{context}: '{name}'")
        for name, value in doc.items()
    }
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _read_json_object(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return doc


def load_generation_config(path: str) -> GenerationConfig:
    """Read a JSON object holding any subset of the GenerationConfig fields."""
    return _strict_dataclass(GenerationConfig, _read_json_object(path), path)


def load_sweep_config(path: str) -> SweepConfig:
    """Read a sweep config JSON whose fields mirror SweepConfig."""
    doc = _read_json_object(path)
    base_doc = doc.pop("base", {})
    if not isinstance(base_doc, dict):
        raise ConfigError(f"{path}: 'base' must be an object")
    base = _strict_dataclass(GenerationConfig, base_doc, f"{path}: base")
    cfg = _strict_dataclass(SweepConfig, {"base": base, **doc}, path)
    for scheme in cfg.schemes:
        if scheme not in SCHEMES:
            raise ConfigError(f"{path}: unknown scheme '{scheme}'")
    if cfg.trials < 1:
        raise ConfigError(f"{path}: trials must be at least 1")
    if cfg.workers < 1:
        raise ConfigError(f"{path}: workers must be at least 1")
    return cfg


def _budget_bound_fraction(s: Scenario, m: Matching) -> float:
    """Fraction of demanders stopped by money: demand unmet and even the
    cheapest unheld BRB no longer fits the remaining budget."""
    t = m.table
    n_tiers = len(t.tiers)
    # blocks held per (demander axis, tier), one row per demander
    held = m.holder >= 0
    held_at = np.bincount(
        m.holder[held] * n_tiers + t.tier[held],
        minlength=len(m.demander_ids) * n_tiers,
    ).reshape(-1, n_tiers).tolist()
    bound = 0
    for d, counts in zip(m.demander_ids, held_at):
        if m.rate_bps[d] >= s.demands_bps[d]:
            continue
        cheapest_unheld = next(
            (p for p, n, c in zip(t.tiers, t.tier_sizes, counts) if c < n), None
        )
        if cheapest_unheld is None:
            continue
        # the float sum every scheme compares with the budget
        if not m.cost[d] + cheapest_unheld <= s.budgets[d]:
            bound += 1
    return bound / len(s.demander_ids)


def run_scheme(
    scheme: str,
    s: Scenario,
    ch: ChannelRealization,
    zeta_bps_per_unit: float,
    rng: np.random.Generator,
) -> Matching:
    """Allocate with one named scheme; only the random baseline draws from rng."""
    if scheme == SCHEME_MATCHING:
        return run_matching(s, ch, zeta_bps_per_unit)
    if scheme == SCHEME_BEST_EFFORT:
        return best_effort_allocate(s, ch)
    if scheme == SCHEME_RANDOM:
        return random_allocate(s, ch, rng)
    raise ConfigError(f"unknown scheme '{scheme}'")


def run_trial(
    s: Scenario,
    zeta_bps_per_unit: float,
    schemes: tuple[str, ...],
    rng: np.random.Generator,
) -> TrialResult:
    """One paired trial: fresh placement and channels, all schemes on them.

    The rng drives, in order: station placement, channel realization,
    then the random baseline's choices.
    """
    trial_s = resample_positions(s, rng)
    ch = realize_channels(trial_s, rng)
    per_scheme: dict[str, SchemeMetrics] = {}
    for scheme in schemes:
        m = run_scheme(scheme, trial_s, ch, zeta_bps_per_unit, rng)
        demanders = trial_s.demander_ids
        rates = [m.rate_bps[d] for d in demanders]
        costs = [m.cost[d] for d in demanders]
        met = [
            m.rate_bps[d] >= trial_s.demands_bps[d] for d in demanders
        ]
        pairs = find_blocking_pairs(m, trial_s, ch, zeta_bps_per_unit)
        per_scheme[scheme] = SchemeMetrics(
            avg_rate_bps=float(np.mean(rates)),
            avg_cost=float(np.mean(costs)),
            demand_met_fraction=float(np.mean(met)),
            rounds=m.rounds,
            proposals=m.proposals,
            blocking_pairs=len(pairs),
            budget_bound_fraction=_budget_bound_fraction(trial_s, m),
        )
    return TrialResult(per_scheme=per_scheme)


def _trial_job(args) -> TrialResult:
    gen_cfg, zeta, schemes, seed, trial_idx = args
    base = generate_scenario(gen_cfg, seed=seed)
    # the stream depends on the trial alone, so sweep points that share a
    # deployment shape see the very same placements and channels: curves
    # over the swept axis are paired, not merely seeded alike
    rng = np.random.default_rng([seed, trial_idx])
    return run_trial(base, zeta, schemes, rng)


def _aggregate(trials: list[TrialResult], schemes) -> dict[str, AggregateMetrics]:
    out: dict[str, AggregateMetrics] = {}
    n = len(trials)

    def mean_ci(samples: list[float]) -> tuple[float, float]:
        mean = float(np.mean(samples))
        if n < 2:
            return mean, 0.0
        sd = float(np.std(samples, ddof=1))
        return mean, _Z975 * sd / n**0.5

    for scheme in schemes:
        ms = [t.per_scheme[scheme] for t in trials]
        rate_mean, rate_ci = mean_ci([m.avg_rate_bps for m in ms])
        cost_mean, cost_ci = mean_ci([m.avg_cost for m in ms])
        rounds_mean, rounds_ci = mean_ci([float(m.rounds) for m in ms])
        prop_mean, prop_ci = mean_ci([float(m.proposals) for m in ms])
        out[scheme] = AggregateMetrics(
            mean_rate_bps=rate_mean,
            ci95_rate_bps=rate_ci,
            mean_cost=cost_mean,
            ci95_cost=cost_ci,
            demand_met_fraction=float(np.mean([m.demand_met_fraction for m in ms])),
            mean_rounds=rounds_mean,
            ci95_rounds=rounds_ci,
            mean_proposals=prop_mean,
            ci95_proposals=prop_ci,
            mean_blocking_pairs=float(np.mean([m.blocking_pairs for m in ms])),
            budget_bound_fraction=float(
                np.mean([m.budget_bound_fraction for m in ms])
            ),
            trials=n,
        )
    return out


def _run_points(
    cfg: SweepConfig, point_cfgs: list[tuple[dict, GenerationConfig]]
) -> list[SweepPoint]:
    jobs = []
    for _, gen_cfg in point_cfgs:
        for trial_idx in range(cfg.trials):
            jobs.append(
                (gen_cfg, cfg.zeta_bps_per_unit, cfg.schemes, cfg.seed, trial_idx)
            )
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_trial_job, jobs, chunksize=8))
    else:
        results = [_trial_job(j) for j in jobs]
    points = []
    for point_idx, (values, _) in enumerate(point_cfgs):
        trials = results[point_idx * cfg.trials : (point_idx + 1) * cfg.trials]
        points.append(
            SweepPoint(values=values, per_scheme=_aggregate(trials, cfg.schemes))
        )
    return points


def sweep_n1(cfg: SweepConfig) -> SweepResult:
    """Sweep the per-anchor mmWave BRB supply."""
    if not cfg.n1_values:
        raise ConfigError("n1 sweep needs n1_values")
    point_cfgs = [
        ({"n1": float(v)}, replace(cfg.base, num_mmw_brbs=int(v)))
        for v in cfg.n1_values
    ]
    return SweepResult(kind="n1", points=tuple(_run_points(cfg, point_cfgs)))


def sweep_budget_price(cfg: SweepConfig) -> SweepResult:
    """Sweep the (budget, sub-6 price) grid."""
    if not cfg.budget_values or not cfg.sub6_price_values:
        raise ConfigError("budget-price sweep needs budget_values and sub6_price_values")
    point_cfgs = []
    for b in cfg.budget_values:
        for p in cfg.sub6_price_values:
            point_cfgs.append(
                (
                    {"budget": float(b), "sub6_price": float(p)},
                    replace(cfg.base, budget=float(b), sub6_price=float(p)),
                )
            )
    return SweepResult(kind="budget_price", points=tuple(_run_points(cfg, point_cfgs)))


def sweep_k(cfg: SweepConfig) -> SweepResult:
    """Sweep the station count at each configured demand level."""
    if not cfg.k_values or not cfg.demand_levels_bps:
        raise ConfigError("k sweep needs k_values and demand_levels_bps")
    point_cfgs = []
    for k in cfg.k_values:
        for dem in cfg.demand_levels_bps:
            point_cfgs.append(
                (
                    {"k": float(k), "demand_bps": float(dem)},
                    replace(cfg.base, num_stations=int(k), demand_bps=float(dem)),
                )
            )
    return SweepResult(kind="k", points=tuple(_run_points(cfg, point_cfgs)))


# ---------------------------------------------------------------------------
# CSV and manifest output.  Rates are reported in Mbit/s; repr() keeps full
# precision and byte-stable formatting.
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _aggregate_cell(agg: AggregateMetrics, column: str):
    if column == "trials":
        return agg.trials
    if column.endswith("_mbps"):
        return _fmt(getattr(agg, column.removesuffix("_mbps") + "_bps") / 1e6)
    return _fmt(getattr(agg, column))


def _write_sweep_csv(
    result: SweepResult, path: str, point_columns, point_cells, columns
) -> None:
    """One row per (sweep point, scheme): the point's own cells, the
    scheme, then the named aggregate columns."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*point_columns, "scheme", *columns])
        for point in result.points:
            cells = point_cells(point.values)
            for scheme, agg in point.per_scheme.items():
                writer.writerow(
                    [*cells, scheme, *(_aggregate_cell(agg, c) for c in columns)]
                )


def write_n1_csv(result: SweepResult, path: str) -> None:
    _write_sweep_csv(
        result,
        path,
        ["n1"],
        lambda v: [int(v["n1"])],
        [
            "mean_rate_mbps",
            "ci95_rate_mbps",
            "mean_cost",
            "ci95_cost",
            "demand_met_fraction",
            "mean_rounds",
            "mean_proposals",
            "mean_blocking_pairs",
            "budget_bound_fraction",
            "trials",
        ],
    )


def write_budget_price_csv(result: SweepResult, path: str) -> None:
    _write_sweep_csv(
        result,
        path,
        ["budget", "sub6_price"],
        lambda v: [_fmt(v["budget"]), _fmt(v["sub6_price"])],
        ["mean_rate_mbps", "ci95_rate_mbps", "mean_cost", "demand_met_fraction", "trials"],
    )


def write_k_csv(result: SweepResult, path: str) -> None:
    _write_sweep_csv(
        result,
        path,
        ["k", "demand_mbps"],
        lambda v: [int(v["k"]), _fmt(v["demand_bps"] / 1e6)],
        [
            "mean_rounds",
            "ci95_rounds",
            "mean_proposals",
            "ci95_proposals",
            "mean_rate_mbps",
            "demand_met_fraction",
            "trials",
        ],
    )


def write_manifest(out_dir: str, command: str, config_doc: dict, seed: int) -> str:
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "command": command,
                "config": config_doc,
                "seed": seed,
                "version": __version__,
            },
            fh,
            indent=2,
            default=list,
        )
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Audit helpers shared by the CLI and the acceptance suite.
# ---------------------------------------------------------------------------


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")


def random_micro_config(rng: np.random.Generator) -> GenerationConfig:
    """A tiny random instance within the exhaustive oracle's bounds."""
    k1 = int(rng.integers(1, 3))
    k2 = int(rng.integers(2, 4))
    if k1 == 1:
        n1 = int(rng.integers(1, 3))
        n2 = int(rng.integers(1, 3))
    else:
        n1, n2 = [(1, 1), (1, 2), (2, 1)][int(rng.integers(0, 3))]
    return GenerationConfig(
        num_stations=k1 + k2,
        num_anchors=k1,
        num_mmw_brbs=n1,
        num_sub6_brbs=n2,
        demand_bps=float(rng.uniform(4e6, 40e6)),
        budget=float(rng.uniform(3.0, 20.0)),
        mmw_price=float(rng.uniform(0.1, 4.0)),
        sub6_price=float(rng.uniform(1.0, 10.0)),
        mmw_blockage_prob=0.25,
        area_side_m=300.0,
    )


def oracle_compare_rows(trials: int, seed: int, zeta: float = 1e6) -> list[dict]:
    """Match the distributed algorithm against the exhaustive oracle.

    Each row reports one random micro instance: whether a feasible
    assignment exists at all, the oracle's minimum cost, the matching's
    cost, the gap when both meet every demand, and whether the matching
    satisfied the budget and per-anchor capacity constraint families.  An audit of
    no instances would check nothing, so ``trials`` must be at least 1.
    """
    _require_trials(trials)
    rows = []
    rng = np.random.default_rng([seed, 0xACE])
    for t in range(trials):
        gen_cfg = random_micro_config(rng)
        s = generate_scenario(gen_cfg, seed=int(rng.integers(2**31)))
        ch = realize_channels(s, rng)
        m = run_matching(s, ch, zeta)
        sol = brute_force_min_cost(s, ch)
        report = check_constraints(m, s, ch)
        matching_cost = float(sum(m.cost.values()))
        matching_met = all(
            m.rate_bps[d] >= s.demands_bps[d] for d in s.demander_ids
        )
        gap = (
            matching_cost - sol.total_cost
            if (sol.feasible and matching_met)
            else float("nan")
        )
        rows.append(
            {
                "instance": t,
                "feasible": sol.feasible,
                "oracle_cost": sol.total_cost if sol.feasible else float("nan"),
                "matching_cost": matching_cost,
                "matching_met_demands": matching_met,
                "gap": gap,
                "constraints_3c_3f_ok": report.budget_ok and report.per_anchor_ok,
            }
        )
    return rows


def write_oracle_csv(rows: list[dict], path: str) -> None:
    columns = (
        "instance",
        "feasible",
        "oracle_cost",
        "matching_cost",
        "matching_met_demands",
        "gap",
        "constraints_3c_3f_ok",
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in rows:
            # the instance number and 0/1 flags as integers, costs via _fmt
            writer.writerow(
                [int(r[c]) if isinstance(r[c], int) else _fmt(r[c]) for c in columns]
            )


def stability_audit(
    trials: int,
    seed: int,
    gen_cfg: GenerationConfig | None = None,
    zeta: float = 1e6,
) -> dict:
    """Run many matching trials and count blocking pairs and effort.

    Returns totals plus the worst-case rounds and proposals seen.  The
    bound proposals <= K2*K1*N holds because a demander never proposes to
    a BRB twice, and rounds <= proposals.  ``rounds_bound`` K1*N is no
    bound: displacement gives ``oracle_compare_rows(1, 98)`` 4 rounds with
    K1*N = 3.  ``trials`` must be at least 1.
    """
    _require_trials(trials)
    if gen_cfg is None:
        gen_cfg = GenerationConfig()
    base = generate_scenario(gen_cfg, seed=seed)
    k1 = len(base.anchors)
    k2 = len(base.demanders)
    n_per_anchor = base.brbs_per_anchor
    total_pairs = 0
    trials_with_pairs = 0
    max_rounds = 0
    max_proposals = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, 0x57AB, t])
        trial_s = resample_positions(base, rng)
        ch = realize_channels(trial_s, rng)
        m = run_matching(trial_s, ch, zeta)
        pairs = find_blocking_pairs(m, trial_s, ch, zeta)
        total_pairs += len(pairs)
        trials_with_pairs += bool(pairs)
        max_rounds = max(max_rounds, m.rounds)
        max_proposals = max(max_proposals, m.proposals)
    return {
        "trials": trials,
        "blocking_pairs_total": total_pairs,
        "trials_with_blocking_pairs": trials_with_pairs,
        "max_rounds": max_rounds,
        "max_proposals": max_proposals,
        "rounds_bound": k1 * n_per_anchor,
        "proposals_bound": k2 * k1 * n_per_anchor,
    }
