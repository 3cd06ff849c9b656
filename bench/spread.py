"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload budget-bound --seeds 1 2 3 4 5 --seconds 30

Runs ``bench/run.py --trace 0`` once per seed, one run at a time, and
prints for every metric its median over the runs and the distance between
the first and third quartile as a share of that median, which is the
spread a bound in BENCHMARK.json has to cover.

With ``--record`` it also writes into ``bench/baseline.json``: each seed's
result digest, the medians and spreads of the end-to-end metrics, the
per-layer metrics of one traced run on the first seed, and what the
numbers were measured on.  The hand-written parts of that file stay.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
BASELINE = BENCH_DIR / "baseline.json"
RUN_TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its info line and its result line."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    info, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("a spread needs at least two seeds")

    values: dict[str, list[float]] = {}
    digests = {}
    for seed in args.seeds:
        info, result = run(args.workload, seed, args.seconds, 0)
        digests[str(seed)] = info["digest"]
        print(json.dumps({"seed": seed, "digest": info["digest"],
                          "wall": info["wall"], **result}), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {
        name: {"median": statistics.median(vals), "spread": spread(vals)}
        for name, vals in values.items()
    }
    for name, s in summary.items():
        print(f"{name:16s} median {s['median']:12.6g}  spread {s['spread']:.4f}")

    if args.record:
        info, traced = run(args.workload, args.seeds[0], args.seconds, 1)
        baseline = json.loads(BASELINE.read_text())
        baseline["digests"].setdefault(args.workload, {}).update(digests)
        baseline["measured"][args.workload] = {
            "seeds": args.seeds,
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "on": {k: info[k] for k in ("nproc", "python", "numpy", "commit",
                                         "src_sha256")},
        }
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
