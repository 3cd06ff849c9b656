"""Print the sha256 of every file the CLI's reproducible commands write.

usage: python tools/output_digests.py [ROOT]

Runs, from the source tree at ROOT (default: the tree holding this
script), the three shipped sweeps of ``configs/``, ``scbn run
--dump-channels`` on a generated scenario, ``scbn oracle-compare --trials
200`` and ``scbn stability-audit --out``.  Each command runs in a fresh
temporary directory with relative output paths, so two source trees that
behave alike print identical listings: one ``<sha256>  <file>`` line per
output file and per command's standard output.  Diff the listings of two
trees to check that a change leaves every output byte-identical.  Exits 1
if any command fails.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _commands(configs: Path) -> list[tuple[str, list[str]]]:
    """(output directory or file, CLI arguments), in running order."""
    return [
        ("scenario.json", ["generate", "--seed", "0", "--out", "scenario.json"]),
        ("run", ["run", "--scenario", "scenario.json", "--dump-channels", "--out", "run"]),
        ("n1", ["sweep", "n1", "--config", str(configs / "rate_vs_supply.json"), "--out", "n1"]),
        (
            "budget-price",
            [
                "sweep", "budget-price",
                "--config", str(configs / "budget_price_grid.json"),
                "--out", "budget-price",
            ],
        ),
        ("k", ["sweep", "k", "--config", str(configs / "rounds_vs_size.json"), "--out", "k"]),
        ("oracle", ["oracle-compare", "--trials", "200", "--seed", "0", "--out", "oracle"]),
        ("audit", ["stability-audit", "--seed", "0", "--out", "audit"]),
    ]


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as work:
        for output, args in _commands(root / "configs"):
            done = subprocess.run(
                [sys.executable, "-m", "scbn.cli", *args],
                cwd=work, env=env, capture_output=True, check=False,
            )
            if done.returncode:
                sys.stderr.write(done.stderr.decode(errors="replace"))
                print(f"scbn {' '.join(args)} exited {done.returncode}", file=sys.stderr)
                return 1
            path = Path(work, output)
            files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
            for p in files:
                digest = hashlib.sha256(p.read_bytes()).hexdigest()
                print(f"{digest}  {p.relative_to(work).as_posix()}")
            print(f"{hashlib.sha256(done.stdout).hexdigest()}  {output} (stdout)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
