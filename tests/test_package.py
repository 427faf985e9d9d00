"""The package root re-exports the public API of each library module, and
the sources import nothing beyond the standard library and the declared
dependencies."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import crucial

_LIBRARY = ("numerics", "loss", "sampler", "data", "trainer")


@pytest.mark.parametrize("name", _LIBRARY)
def test_the_root_gives_each_public_name_as_its_module_does(name):
    module = importlib.import_module(f"crucial.{name}")
    assert module.__all__
    differ = [n for n in module.__all__ if getattr(crucial, n, None) is not getattr(module, n)]
    assert differ == []


ROOT = Path(__file__).resolve().parent.parent
# pyproject.toml declares numpy and scipy, and pytest for the tests; modules
# that happen to be installed besides (mpmath, hypothesis) are not.
_DECLARED = {"numpy", "scipy", "pytest", "crucial"}


def test_sources_import_only_declared_dependencies():
    test_modules = {p.stem for p in (ROOT / "tests").glob("*.py")}
    allowed = set(sys.stdlib_module_names) | _DECLARED | test_modules
    undeclared = []
    for top in ("src", "tests", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                undeclared += [f"{path.relative_to(ROOT)}:{node.lineno} imports {name}"
                               for name in names if name.split(".")[0] not in allowed]
    assert undeclared == []
