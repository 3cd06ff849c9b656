"""The public surface: every exported name resolves, and the README's
library quick start runs as written."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_MODULES = ["baselines", "experiments", "matching", "oracle", "propagation", "scenario"]


@pytest.mark.parametrize("module", ["scbn"] + [f"scbn.{m}" for m in _MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})


def test_importing_the_cli_loads_neither_multiprocessing_nor_statistics():
    # only a sweep with several workers needs multiprocessing, and imports
    # it itself; no command needs statistics
    src = Path(importlib.import_module("scbn").__file__).resolve().parents[1]
    unused = ("multiprocessing", "statistics")
    script = f"import sys, scbn.cli; print([m for m in {unused} if m in sys.modules])"
    run = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert run.stdout == "[]\n"
