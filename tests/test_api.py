"""The public surface: every exported name resolves, and the README's
library quick start runs as written."""

from __future__ import annotations

import ast
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


_REFERENCE = re.compile(r":(func|meth|class):`~?([\w.]+)`")


def _names_an_object(module, role: str, name: str) -> bool:
    obj = module
    for part in name.split("."):
        if not hasattr(obj, part):
            # a bare :meth: may name a method of one of the module's classes
            return role == "meth" and "." not in name and any(
                isinstance(c, type) and c.__module__ == module.__name__ and hasattr(c, name)
                for c in vars(module).values()
            )
        obj = getattr(obj, part)
    return True


def test_every_docstring_reference_names_an_object_of_its_module():
    package = Path(importlib.import_module("scbn").__file__).resolve().parent
    checked, dangling = 0, []
    for path in sorted(package.glob("*.py")):
        name = "scbn" if path.stem == "__init__" else f"scbn.{path.stem}"
        module = importlib.import_module(name)
        text = path.read_text(encoding="utf-8")
        references = _REFERENCE.findall(text)
        if len(references) != len(re.findall(r":(?:func|meth|class):", text)):
            dangling.append(f"{path.name}: a role without a one-line `name` after it")
        for role, target in references:
            checked += 1
            if not _names_an_object(module, role, target):
                dangling.append(f"{path.name}: :{role}:`{target}`")
    assert dangling == []
    assert checked >= 29


def test_no_module_holds_state_between_calls():
    """No function cache and no ``global`` statement in the package: a
    derived term lives on the scenario it is derived from."""
    package = Path(importlib.import_module("scbn").__file__).resolve().parent
    paths = sorted(package.glob("*.py"))
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            caches = (
                isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools" and node.attr in ("lru_cache", "cache")
            ) or (
                isinstance(node, ast.ImportFrom) and node.module == "functools"
                and {a.name for a in node.names} & {"lru_cache", "cache"}
            )
            if caches or isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert len(paths) == len(_MODULES) + 2  # and __init__ and cli
