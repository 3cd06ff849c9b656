"""End-to-end and per-layer benchmark of the scbn Monte Carlo simulator.

Run from the root of a source tree that holds ``src/scbn``:

    python3 bench/run.py --workload reference-3scheme --seed 0 --seconds 30 --trace 0

The load model is one caller in a closed loop: the next operation starts
only when the previous one returns, in one process with ``workers=1`` and
every BLAS/OpenMP pool pinned to one thread.  An operation is one
``experiments.run_trial`` call, or one ``experiments.oracle_compare_rows``
instance on ``oracle-micro``.

A run makes a workload's fixed list of distinct operations in rounds, the
same list in the same order each round, until another round would not
fit in ``--seconds``; it makes at least one.  Times are steady times: the
wall time of each block of about 0.1 s of operations, scaled by the
machine's speed during the block as the gauge in ``gauge.py`` reads it.
An operation's time is the median of its rounds.  The wall-clock figures
are printed too, on the line before the result, and so is the slowest
operation but ten (``trial_ms_tail``), also a per-layer metric.

Each operation's outputs are checked against the paper's guarantees in
the first round (see ``workloads.py``) and must repeat exactly in every
later round.  A SHA-256 over the ``repr`` of every operation's result, in
order, must equal the digest recorded in ``baseline.json`` for the seed,
when one is recorded.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
operation twice per round, untraced and with spans around every layer
entry point, alternating which goes first, checks that both variants give
the same results, and prints the per-layer metrics: per operation, median
over operations.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the run, the machine, the versions and the source
revision.
"""

import os

# must happen before numpy is first imported, here or in a set-up probe
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

BLOCK_S = 0.1           # wall time between two gauge readings
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_fraction": "fraction",
}
PER_LAYER_UNITS = {
    "matching.run_matching_ms": "ms",
    "matching.us_per_proposal": "us",
    "matching.held_per_proposal": "ratio",
    "matching.rounds": "count",
    "matching.proposals": "count",
    "matching.find_blocking_pairs_ms": "ms",
    "baselines.best_effort_allocate_ms": "ms",
    "baselines.random_allocate_ms": "ms",
    "experiments.run_trial_self_ms": "ms",
    "oracle.brute_force_min_cost_ms": "ms",
    "oracle.check_constraints_ms": "ms",
    "oracle.assignments_enumerated": "count",
    "oracle.ns_per_assignment": "ns",
    "scenario.resample_positions_ms": "ms",
    "scenario.generate_scenario_ms": "ms",
    "propagation.realize_channels_ms": "ms",
    "propagation.rate_tensor_ms": "ms",
    "bench.trial_ms_tail": "ms",
    "bench.trace_overhead_pct": "%",
}
TIME_UNITS = ("ms", "us", "ns")

# a set-up probe: a fresh interpreter timing import, config and scenario
_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].prepare({seed!r})
print(repr(time.perf_counter() - t0))
"""


class Variant:
    """Everything one variant (traced or not) observed over a run."""

    def __init__(self, traced: bool, n_ops: int):
        self.traced = traced
        self.steady: list[list[float]] = [[] for _ in range(n_ops)]  # per round
        self.wall: list[list[float]] = [[] for _ in range(n_ops)]
        self.result_hash: list[bytes | None] = [None] * n_ops
        self.failed: set[int] = set()   # raised, broke a gate or did not repeat
        self.wrong: set[int] = set()    # ... raised or broke a gate on the outputs
        self.digest = hashlib.sha256()  # over the first round's results, in order
        self.called: set[str] = set()
        self.layers: dict[str, list[float]] = defaultdict(list)

    def op_seconds(self, wall: bool = False) -> list[float]:
        """Each operation's median time over the rounds."""
        return [statistics.median(t) for t in (self.wall if wall else self.steady)]

    def latency(self, wall: bool = False) -> dict[str, float]:
        times = self.op_seconds(wall)
        return {
            "trials_per_s": len(times) / sum(times),
            "trial_ms_p50": statistics.median(times) * 1e3,
            # the highest percentile that leaves ten operations above it
            "trial_ms_tail": sorted(times)[-11] * 1e3,
        }


def run_op(v: Variant, workload, op, recorder, i: int, first_round: bool):
    """Run and time operation ``i``; check it in the first round and check
    that it repeats in later ones.  Returns its wall time and, traced, its
    per-layer values."""
    from workloads import effort_gate

    recorder.traced = v.traced
    out, dt = recorder.run(workload.operation, op, i)
    text = repr(out).encode()
    problems = []
    if isinstance(out, Exception):
        problems.append(f"raised {out!r}")
        v.wrong.add(i)
    if first_round:
        v.result_hash[i] = hashlib.sha256(text).digest()
        v.digest.update(text + b"\n")
        v.called.update(name for name, _, _ in recorder.calls)
        if not isinstance(out, Exception):
            try:
                gates = workload.check(out, recorder.calls)
            except Exception as exc:  # a malformed result is a failed operation
                gates = [f"check raised {exc!r}"]
            if gates:
                v.wrong.add(i)
            problems += gates + effort_gate(recorder.calls)
    elif hashlib.sha256(text).digest() != v.result_hash[i]:
        problems.append("result differs from the first round")
        v.wrong.add(i)
    if problems:
        v.failed.add(i)
        print(f"operation {i} failed: {'; '.join(problems)}", file=sys.stderr)
    return dt, layer_values(recorder, workload.operation) if v.traced else {}


def measure(workload, op, recorder, gauge, seconds: float, trace: bool):
    """Rounds over the workload's operations until another round would end
    after ``seconds``.  Returns the variants and the number of rounds."""
    variants = [Variant(False, workload.ops)]
    if trace:
        variants.append(Variant(True, workload.ops))
    start = perf_counter()
    rounds = 0
    gauge.scale()
    while True:
        round_start = perf_counter()
        block, block_s = [], 0.0
        for i in range(workload.ops):
            for v in variants if i % 2 == 0 else variants[::-1]:
                dt, values = run_op(v, workload, op, recorder, i, rounds == 0)
                block.append((v, i, dt, values))
                block_s += dt
            if block_s >= BLOCK_S or i == workload.ops - 1:
                scale = gauge.scale()
                for v, j, dt, values in block:
                    v.steady[j].append(dt * scale)
                    v.wall[j].append(dt)
                    for name, value in values.items():
                        timed = PER_LAYER_UNITS[name] in TIME_UNITS
                        v.layers[name].append(value * scale if timed else value)
                block, block_s = [], 0.0
        rounds += 1
        now = perf_counter()
        if 2 * now - round_start - start > seconds:
            return variants, rounds


def layer_values(recorder, operation: str) -> dict[str, float]:
    """The last traced operation's per-layer values, in wall time."""
    from scbn.propagation import rate_tensor
    from tracing import ENTRY_POINTS

    values = {f"{layer}.{name}_ms": 0.0 for name, layer in ENTRY_POINTS.items()}
    for span in recorder.spans[1:]:
        values[f"{ENTRY_POINTS[span.name]}.{span.name}_ms"] += span.seconds * 1e3
    values["experiments.run_trial_self_ms"] = (
        recorder.self_seconds() * 1e3 if operation == "run_trial" else 0.0
    )
    values["propagation.rate_tensor_ms"] = 0.0
    rounds = proposals = held = enumerated = 0
    for name, args, out in recorder.calls:
        if name == "run_matching":
            rounds += out.rounds
            proposals += out.proposals
            held += len(out.owner_of)
        elif name == "brute_force_min_cost":
            s, ch = args
            enumerated += (len(ch.demander_ids) + 1) ** (len(s.anchors) * s.brbs_per_anchor)
        elif name == "realize_channels":
            # a direct probe, outside the trial's RNG stream
            t0 = perf_counter()
            rate_tensor(args[0], out)
            values["propagation.rate_tensor_ms"] += (perf_counter() - t0) * 1e3
    values["matching.rounds"] = rounds
    values["matching.proposals"] = proposals
    values["oracle.assignments_enumerated"] = enumerated
    if proposals:
        values["matching.us_per_proposal"] = (
            values["matching.run_matching_ms"] * 1e3 / proposals
        )
        values["matching.held_per_proposal"] = held / proposals
    if enumerated:
        values["oracle.ns_per_assignment"] = (
            values["oracle.brute_force_min_cost_ms"] * 1e6 / enumerated
        )
    return values


def setup_seconds(gauge, name: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, steady and wall."""
    code = _PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    steady, wall = [], []
    gauge.scale()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        wall.append(float(done.stdout.strip().splitlines()[-1]))
        steady.append(wall[-1] * gauge.scale())
    return statistics.median(steady), statistics.median(wall)


def source_revision() -> dict:
    """The commit when the tree is a git checkout, and a hash of src/ always."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": h.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (SRC / "scbn" / "__init__.py").is_file():
        print(f"error: no scbn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scbn
    import workloads
    from gauge import Gauge
    from tracing import Recorder

    if Path(scbn.__file__).resolve().parent != SRC / "scbn":
        print(f"error: imported scbn from {scbn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    baseline = json.loads((BENCH_DIR / "baseline.json").read_text())
    expected_digest = baseline["digests"].get(workload.name, {}).get(str(args.seed))

    gauge = Gauge()
    op = workload.prepare(args.seed)
    recorder = Recorder()
    try:
        recorder.run(workload.operation, op, 0)  # lazy set-up and caches, untimed
        variants, rounds = measure(
            workload, op, recorder, gauge, args.seconds, bool(args.trace)
        )
    finally:
        recorder.close()
    plain = variants[0]
    digest = plain.digest.hexdigest()

    problems = []
    if expected_digest and digest != expected_digest:
        problems.append(f"result digest {digest} differs from the recorded {expected_digest}")
    missing = [n for n in workload.required if n not in plain.called]
    if missing:
        problems.append(f"entry points never called: {missing}")
    if args.trace and variants[1].digest.hexdigest() != digest:
        problems.append("traced and untraced operations gave different results")
    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)

    latency, wall = plain.latency(), plain.latency(wall=True)
    if args.trace:
        traced = variants[1]
        values = {
            name: statistics.median(traced.layers[name]) if traced.layers[name] else 0.0
            for name in PER_LAYER_UNITS
        }
        values["bench.trial_ms_tail"] = latency["trial_ms_tail"]
        values["bench.trace_overhead_pct"] = (
            latency["trials_per_s"] / traced.latency()["trials_per_s"] - 1.0
        ) * 100.0
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
    else:
        values = {k: latency[k] for k in ("trials_per_s", "trial_ms_p50")}
        values["setup_s"], wall["setup_s"] = setup_seconds(gauge, workload.name, args.seed)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["ok_fraction"] = (workload.ops - len(plain.failed)) / workload.ops
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    failed = set().union(*(v.failed for v in variants))
    wrong = set().union(*(v.wrong for v in variants))
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "operations": workload.ops,
        "rounds": rounds,
        "wall": wall,
        "gauge_ms_median": statistics.median(gauge.readings) * 1e3,
        "digest": digest,
        "expected_digest": expected_digest,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        **source_revision(),
    }))
    print(json.dumps({
        "correct": not problems and not wrong,
        "attempted": workload.ops,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
