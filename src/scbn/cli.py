"""Command-line front end for scenario generation, runs, sweeps and audits.

Exit codes: 0 on success, 1 on runtime failure (bad config contents,
infeasible input, I/O trouble), 2 on usage errors (unknown command or
flags, courtesy of argparse).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from .experiments import (
    SCHEMES,
    SWEEPS,
    check_schemes,
    load_generation_config,
    load_sweep_config,
    oracle_compare_rows,
    run_scheme,
    stability_audit,
    sweep,
    write_manifest,
    write_oracle_csv,
    write_sweep_csv,
)
from .matching import save_matching_csv
from .propagation import realize_channels, save_channels_csv
from .scenario import (
    ConfigError,
    GenerationConfig,
    ScenarioFormatError,
    _write_json,
    generate_scenario,
    load_scenario,
    save_scenario,
)


def _cmd_generate(args) -> int:
    cfg = GenerationConfig() if args.params is None else load_generation_config(args.params)
    scenario = generate_scenario(cfg, seed=args.seed)
    save_scenario(scenario, args.out)
    print(f"wrote scenario with {len(scenario.stations)} stations to {args.out}")
    return 0


def _check_zeta(zeta: float) -> None:
    # argparse reads "nan" and "inf" as floats; they are bad values, not bad usage
    if not math.isfinite(zeta):
        raise ConfigError(f"--zeta must be a finite number, got {zeta}")


def _cmd_run(args) -> int:
    _check_zeta(args.zeta)
    scenario = load_scenario(args.scenario)
    rng = np.random.default_rng([args.channel_seed, 0xC4A])
    ch = realize_channels(scenario, rng)
    schemes = args.schemes.split(",")
    check_schemes(schemes)
    # only now, so that a bad scenario or scheme leaves no directory behind
    os.makedirs(args.out, exist_ok=True)
    if args.dump_channels:
        save_channels_csv(ch, os.path.join(args.out, "channels.csv"))
    for scheme in schemes:
        m = run_scheme(scheme, scenario, ch, args.zeta, rng)
        path = os.path.join(args.out, f"matching_{scheme}.csv")
        save_matching_csv(m, scenario, ch, path)
        total_rate = sum(m.rate_bps.values())
        total_cost = sum(m.cost.values())
        print(
            f"{scheme}: total rate {total_rate / 1e6:.2f} Mbit/s, "
            f"total cost {total_cost:.2f}, rounds {m.rounds}, proposals {m.proposals}"
        )
    write_manifest(
        args.out,
        "run",
        {
            "scenario": args.scenario,
            "channel_seed": args.channel_seed,
            "zeta": args.zeta,
            "schemes": schemes,
        },
        seed=args.channel_seed,
    )
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config)
    result = sweep(cfg, args.axis)
    # only now, so that a config the sweep rejects leaves no directory behind
    os.makedirs(args.out, exist_ok=True)
    out_csv = os.path.join(args.out, SWEEPS[args.axis].filename)
    write_sweep_csv(result, out_csv)
    write_manifest(args.out, f"sweep {args.axis}", dataclasses.asdict(cfg), cfg.seed)
    print(f"wrote {out_csv} ({len(result.points)} sweep points, {cfg.trials} trials each)")
    return 0


def _cmd_oracle_compare(args) -> int:
    rows = oracle_compare_rows(args.trials, args.seed)
    os.makedirs(args.out, exist_ok=True)
    out_csv = os.path.join(args.out, "oracle_compare.csv")
    write_oracle_csv(rows, out_csv)
    write_manifest(args.out, "oracle-compare", {"trials": args.trials}, args.seed)
    feasible = sum(r["feasible"] for r in rows)
    bad_gap = sum(1 for r in rows if r["gap"] < -1e-9)  # a NaN gap compares false
    bad_constraints = sum(1 for r in rows if not r["constraints_3c_3f_ok"])
    print(
        f"{len(rows)} instances, {feasible} feasible, "
        f"{bad_gap} below oracle cost, {bad_constraints} constraint violations"
    )
    if bad_gap or bad_constraints:
        print("oracle comparison FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_stability_audit(args) -> int:
    _check_zeta(args.zeta)
    gen_cfg = (
        GenerationConfig() if args.params is None else load_generation_config(args.params)
    )
    summary = stability_audit(args.trials, args.seed, gen_cfg, zeta=args.zeta)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "stability_audit.json"), summary)
        write_manifest(
            args.out, "stability-audit", {"trials": args.trials, "zeta": args.zeta}, args.seed
        )
    print(
        f"trials={summary['trials']} blocking_pairs_total={summary['blocking_pairs_total']} "
        f"max_rounds={summary['max_rounds']} "
        f"max_proposals={summary['max_proposals']} (bound {summary['proposals_bound']})"
    )
    if summary["blocking_pairs_total"]:
        print("stability audit FAILED: blocking pairs found", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scbn",
        description="Small-cell backhaul allocation simulator",
    )
    parser.add_argument("--version", action="version", version=f"scbn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random scenario file")
    p.add_argument("--params", help="JSON file of generation parameters", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output scenario JSON path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run allocation schemes on one scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--channel-seed", type=int, default=0)
    p.add_argument("--zeta", type=float, default=1e6, help="price weight in bit/s per unit")
    p.add_argument("--schemes", default=",".join(SCHEMES))
    p.add_argument("--dump-channels", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a Monte Carlo parameter sweep")
    p.add_argument("axis", choices=list(SWEEPS))
    p.add_argument("--config", required=True, help="sweep config JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "oracle-compare", help="compare the matching against the exhaustive oracle"
    )
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_oracle_compare)

    p = sub.add_parser(
        "stability-audit", help="count blocking pairs over many seeded trials"
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zeta", type=float, default=1e6)
    p.add_argument("--params", help="JSON file of generation parameters", default=None)
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=_cmd_stability_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScenarioFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a valid but huge count, such as 10**15 BRBs, fails at its first array
        print(f"error: not enough memory: {exc or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
