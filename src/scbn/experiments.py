"""Monte Carlo harness: paired trials, parameter sweeps, CSV reports.

Every trial draws a fresh station placement and channel realization and
runs all enabled schemes on that identical draw, so scheme comparisons
are paired.  Per-trial RNG streams are derived from the master seed and
the trial index alone, which makes results independent of worker
scheduling, byte-reproducible for a given config, and paired across
sweep points and across configs that share the deployment shape.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import os
import typing
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
    _fields,
    _read_json,
    _write_csv,
    _write_json,
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
    "SweepAxis",
    "SWEEPS",
    "check_schemes",
    "load_generation_config",
    "load_sweep_config",
    "run_scheme",
    "run_trial",
    "sweep",
    "write_sweep_csv",
    "write_manifest",
    "random_micro_config",
    "oracle_compare_rows",
    "write_oracle_csv",
    "stability_audit",
]

SCHEME_MATCHING = "matching"
SCHEME_BEST_EFFORT = "best_effort"
SCHEME_RANDOM = "random"
# scheme name -> its run on (s, ch, zeta, rng).  Each run looks its
# function up in this module when called, so a wrapper put in its place
# here is the one that runs
_SCHEME_RUNS = {
    SCHEME_MATCHING: lambda s, ch, zeta, rng: run_matching(s, ch, zeta),
    SCHEME_BEST_EFFORT: lambda s, ch, zeta, rng: best_effort_allocate(s, ch),
    SCHEME_RANDOM: lambda s, ch, zeta, rng: random_allocate(s, ch, rng),
}
SCHEMES = tuple(_SCHEME_RUNS)

_Z975 = 1.9599639845400536  # the standard normal's 97.5% quantile


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


# a SchemeMetrics -> its fields' values, in field order
_METRICS = operator.attrgetter(*(f.name for f in dataclasses.fields(SchemeMetrics)))


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
    """One sweep: a base deployment plus the axis values being varied.

    A sweep consults only the value lists its axis's ``SWEEPS`` entry
    names in its grid.  ``base`` defaults to the reference deployment
    and is passed by keyword.
    """

    base: GenerationConfig = dataclasses.field(default_factory=GenerationConfig, kw_only=True)
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


def check_schemes(schemes) -> None:
    """ConfigError unless ``schemes`` names at least one scheme, each a
    known one and none twice."""
    if not schemes:
        raise ConfigError(f"no scheme given (choices: {', '.join(SCHEMES)})")
    for i, scheme in enumerate(schemes):
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme '{scheme}' (choices: {', '.join(SCHEMES)})")
        if scheme in schemes[:i]:
            raise ConfigError(f"scheme '{scheme}' is given twice")


def load_generation_config(path: str) -> GenerationConfig:
    """Read a JSON object holding any subset of the GenerationConfig fields."""
    return _fields(_read_json(path, ConfigError), GenerationConfig, path, ConfigError)


def load_sweep_config(path: str) -> SweepConfig:
    """Read a sweep config JSON whose fields mirror SweepConfig, ``base``
    as an object of GenerationConfig fields."""
    cfg = _fields(_read_json(path, ConfigError), SweepConfig, path, ConfigError)
    try:
        check_schemes(cfg.schemes)
        _check_count("trials", cfg.trials)
        _check_count("workers", cfg.workers)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


def _budget_bound_fraction(s: Scenario, m: Matching) -> float:
    """Fraction of demanders stopped by money: demand unmet and even the
    cheapest unheld BRB no longer fits the remaining budget."""
    t = m.table
    n_tiers = len(t.tiers)
    # blocks held per (demander axis, tier), one row per demander, after a
    # first row that counts the free blocks
    held_at = np.bincount(
        (m.holder + 1) * n_tiers + t.tier,
        minlength=(len(m.demander_ids) + 1) * n_tiers,
    ).reshape(-1, n_tiers)[1:].tolist()
    bound = 0
    # the budgets and demands as the floats every scheme compares
    for d, counts, budget, demand in zip(m.demander_ids, held_at, *s.demander_terms):
        if m.rate_bps[d] >= demand:
            continue
        cheapest_unheld = next(
            (p for p, n, c in zip(t.tiers, t.tier_sizes, counts) if c < n), None
        )
        if cheapest_unheld is None:
            continue
        # the float sum every scheme compares with the budget
        if not m.cost[d] + cheapest_unheld <= budget:
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
    run = _SCHEME_RUNS.get(scheme)
    if run is None:
        raise ConfigError(f"unknown scheme '{scheme}'")
    return run(s, ch, zeta_bps_per_unit, rng)


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
        met = [float(r >= need) for r, need in zip(rates, trial_s.demander_terms[1])]
        # one reduction per row, each as np.mean of that row alone, which is
        # the row's sum over the count, without np.mean's wrapper; the mean
        # is finite when the sum is
        sums = _finite_rows(
            np.add.reduce, [rates, costs, met], f"{scheme}: a trial's mean over the demanders"
        )
        avg_rate, avg_cost, met_fraction = (sums / len(demanders)).tolist()
        pairs = find_blocking_pairs(m, trial_s, ch, zeta_bps_per_unit)
        per_scheme[scheme] = SchemeMetrics(
            avg_rate_bps=avg_rate,
            avg_cost=avg_cost,
            demand_met_fraction=met_fraction,
            rounds=m.rounds,
            proposals=m.proposals,
            blocking_pairs=len(pairs),
            budget_bound_fraction=_budget_bound_fraction(trial_s, m),
        )
    return TrialResult(per_scheme=per_scheme)


def _finite_rows(reduce, rows, what: str, **kwargs) -> np.ndarray:
    """``reduce(rows, axis=1, **kwargs)``, or ConfigError when a result is
    not finite: finite values can sum, or square, past the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = reduce(rows, axis=1, **kwargs)
    if not np.isfinite(out).all():
        raise ConfigError(f"{what} overflows the float range")
    return out


def _trial_job(args) -> TrialResult:
    base, zeta, schemes, seed, trial_idx = args
    # the stream depends on the trial alone, so sweep points that share a
    # deployment shape see the very same placements and channels: curves
    # over the swept axis are paired, not merely seeded alike
    rng = np.random.default_rng([seed, trial_idx])
    return run_trial(base, zeta, schemes, rng)


def _aggregate(trials: list[TrialResult], schemes) -> dict[str, AggregateMetrics]:
    out: dict[str, AggregateMetrics] = {}
    n = len(trials)
    for scheme in schemes:
        # a row per SchemeMetrics field, a column per trial, copied to C
        # order: numpy reduces a contiguous row as it reduces that row alone,
        # but the rows of a transposed view are strided and sum to other bits
        rows = np.array([_METRICS(t.per_scheme[scheme]) for t in trials], dtype=float).T.copy()
        rate, cost, met, rounds, proposals, pairs, bound = _finite_rows(
            np.mean, rows, f"{scheme}: a mean over the trials"
        ).tolist()
        rate_ci = cost_ci = rounds_ci = proposals_ci = 0.0
        if n > 1:
            sd = _finite_rows(
                np.std, rows[[0, 1, 3, 4]], f"{scheme}: a deviation over the trials", ddof=1
            )
            rate_ci, cost_ci, rounds_ci, proposals_ci = (_Z975 * sd / n**0.5).tolist()
        out[scheme] = AggregateMetrics(
            mean_rate_bps=rate,
            ci95_rate_bps=rate_ci,
            mean_cost=cost,
            ci95_cost=cost_ci,
            demand_met_fraction=met,
            mean_rounds=rounds,
            ci95_rounds=rounds_ci,
            mean_proposals=proposals,
            ci95_proposals=proposals_ci,
            mean_blocking_pairs=pairs,
            budget_bound_fraction=bound,
            trials=n,
        )
    return out


def sweep(cfg: SweepConfig, axis: str) -> SweepResult:
    """Run the grid of ``SWEEPS[axis]``, ``cfg.trials`` paired trials per point.

    The schemes, the trial count and the worker count are checked, and
    every point's base scenario is built, before the first trial, so a
    config that names no scheme, no trial or no worker, or a grid value
    that gives no valid scenario, fails the sweep at once with ConfigError.
    ``cfg.workers`` is a ceiling: a process pool starts all its processes
    at once, so the sweep starts no more than it has trials or the machine
    has cores, and runs in this process when that is one.
    """
    check_schemes(cfg.schemes)
    _check_count("trials", cfg.trials)
    _check_count("workers", cfg.workers)
    grid = SWEEPS[axis].grid
    value_lists = [getattr(cfg, values) for _, values, _ in grid]
    if not all(value_lists):
        raise ConfigError(f"{axis} sweep needs {' and '.join(v for _, v, _ in grid)}")
    values, bases = [], []
    for combo in itertools.product(*value_lists):
        fields = {field: _FIELD_CASTS[field](v) for (_, _, field), v in zip(grid, combo)}
        # as cast: float() of a count beyond the float range would overflow
        values.append({name: fields[field] for name, _, field in grid})
        bases.append(generate_scenario(replace(cfg.base, **fields), seed=cfg.seed))
    jobs = [
        (base, cfg.zeta_bps_per_unit, cfg.schemes, cfg.seed, trial_idx)
        for base in bases
        for trial_idx in range(cfg.trials)
    ]
    workers = min(cfg.workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: only a parallel sweep needs multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_job, jobs, chunksize=8))
    else:
        results = [_trial_job(j) for j in jobs]
    n = cfg.trials
    points = tuple(
        SweepPoint(values=v, per_scheme=_aggregate(results[i * n : (i + 1) * n], cfg.schemes))
        for i, v in enumerate(values)
    )
    return SweepResult(kind=axis, points=points)


# ---------------------------------------------------------------------------
# CSV and manifest output.  Rates are reported in Mbit/s.
# ---------------------------------------------------------------------------


def _mbps(values: dict, column: str):
    """``values[column]``, or ``values[x_bps] / 1e6`` for a column ``x_mbps``."""
    if column.endswith("_mbps"):
        return values[column.removesuffix("_mbps") + "_bps"] / 1e6
    return values[column]


@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis of the CLI: the grid it walks and the CSV it writes."""

    # (point value name, SweepConfig value list, GenerationConfig field it
    # sets), outermost first; a point's CSV columns are its value names,
    # *_bps ones written as *_mbps
    grid: tuple[tuple[str, str, str], ...]
    # AggregateMetrics columns, *_mbps ones read from the *_bps field
    columns: tuple[str, ...]
    filename: str


SWEEPS = {
    "n1": SweepAxis(
        grid=(("n1", "n1_values", "num_mmw_brbs"),),
        columns=(
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
        ),
        filename="results_n1.csv",
    ),
    "budget-price": SweepAxis(
        grid=(
            ("budget", "budget_values", "budget"),
            ("sub6_price", "sub6_price_values", "sub6_price"),
        ),
        columns=("mean_rate_mbps", "ci95_rate_mbps", "mean_cost", "demand_met_fraction", "trials"),
        filename="results_budget_price.csv",
    ),
    "k": SweepAxis(
        grid=(
            ("k", "k_values", "num_stations"),
            ("demand_bps", "demand_levels_bps", "demand_bps"),
        ),
        columns=(
            "mean_rounds",
            "ci95_rounds",
            "mean_proposals",
            "ci95_proposals",
            "mean_rate_mbps",
            "demand_met_fraction",
            "trials",
        ),
        filename="results_k.csv",
    ),
}

# a swept GenerationConfig field -> the type its values are cast to
_FIELD_CASTS = {
    field: typing.get_type_hints(GenerationConfig)[field]
    for axis in SWEEPS.values()
    for _, _, field in axis.grid
}


def write_sweep_csv(result: SweepResult, path: str) -> None:
    """One row per (sweep point, scheme): the point's own cells, the
    scheme, then the axis's aggregate columns."""
    axis = SWEEPS[result.kind]
    point_columns = [name.replace("_bps", "_mbps") for name, _, _ in axis.grid]
    rows = (
        [
            *(_mbps(point.values, c) for c in point_columns),
            scheme,
            *(_mbps(vars(agg), c) for c in axis.columns),
        ]
        for point in result.points
        for scheme, agg in point.per_scheme.items()
    )
    _write_csv(path, [*point_columns, "scheme", *axis.columns], rows)


def write_manifest(out_dir: str, command: str, config_doc: dict, seed: int) -> str:
    path = os.path.join(out_dir, "manifest.json")
    _write_json(
        path,
        {"command": command, "config": config_doc, "seed": seed, "version": __version__},
    )
    return path


# ---------------------------------------------------------------------------
# Audit helpers shared by the CLI and the acceptance suite.
# ---------------------------------------------------------------------------


def _check_count(name: str, count: int) -> None:
    if count < 1:
        raise ConfigError(f"{name} must be at least 1, got {count}")


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


# the keys of an oracle_compare_rows row, in order: the oracle CSV's columns
_ORACLE_COLUMNS = (
    "instance",
    "feasible",
    "oracle_cost",
    "matching_cost",
    "matching_met_demands",
    "gap",
    "constraints_3c_3f_ok",
)


def oracle_compare_rows(trials: int, seed: int, zeta: float = 1e6) -> list[dict]:
    """Match the distributed algorithm against the exhaustive oracle.

    Each row reports one random micro instance: whether a feasible
    assignment exists at all, the oracle's minimum cost, the matching's
    cost, the gap when both meet every demand, and whether the matching
    satisfied the budget constraints (``constraints_3c_3f_ok``; the
    per-anchor capacity of family 3f holds by construction).  An audit of
    no instances would check nothing, so ``trials`` must be at least 1.
    """
    _check_count("trials", trials)
    rows = []
    rng = np.random.default_rng([seed, 0xACE])
    for t in range(trials):
        gen_cfg = random_micro_config(rng)
        s = generate_scenario(gen_cfg, seed=int(rng.integers(2**31)))
        ch = realize_channels(s, rng)
        m = run_matching(s, ch, zeta)
        sol = brute_force_min_cost(s, ch)
        report = check_constraints(m, s, ch)
        # left to right: sum() adds floats with compensation from Python 3.12
        matching_cost = 0.0
        for c in m.cost.values():
            matching_cost += c
        matching_met = all(
            m.rate_bps[d] >= s.demands_bps[d] for d in s.demander_ids
        )
        gap = (
            matching_cost - sol.total_cost
            if (sol.feasible and matching_met)
            else float("nan")
        )
        oracle_cost = sol.total_cost if sol.feasible else float("nan")
        cells = (t, sol.feasible, oracle_cost, matching_cost, matching_met, gap, report.budget_ok)
        rows.append(dict(zip(_ORACLE_COLUMNS, cells)))
    return rows


def write_oracle_csv(rows: list[dict], path: str) -> None:
    _write_csv(path, _ORACLE_COLUMNS, ([r[c] for c in _ORACLE_COLUMNS] for r in rows))


def stability_audit(
    trials: int,
    seed: int,
    gen_cfg: GenerationConfig | None = None,
    zeta: float = 1e6,
) -> dict:
    """Run many matching trials and count blocking pairs and effort.

    Returns totals plus the worst-case rounds and proposals seen.  The
    bound proposals <= K2*K1*N holds because a demander never proposes to
    a BRB twice, and rounds <= proposals.  ``trials`` must be at least 1.
    """
    _check_count("trials", trials)
    if gen_cfg is None:
        gen_cfg = GenerationConfig()
    base = generate_scenario(gen_cfg, seed=seed)
    ms = [
        run_trial(
            base, zeta, (SCHEME_MATCHING,), np.random.default_rng([seed, 0x57AB, t])
        ).per_scheme[SCHEME_MATCHING]
        for t in range(trials)
    ]
    return {
        "trials": trials,
        "blocking_pairs_total": sum(m.blocking_pairs for m in ms),
        "trials_with_blocking_pairs": sum(m.blocking_pairs > 0 for m in ms),
        "max_rounds": max(m.rounds for m in ms),
        "max_proposals": max(m.proposals for m in ms),
        "proposals_bound": len(base.demanders) * len(base.anchors) * base.brbs_per_anchor,
    }
