"""The library imports only itself and the standard library: sympy,
numpy, networkx and hypothesis may serve the tests, never `treeperm`."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "treeperm").glob("*.py"))


def _imported_modules(path):
    """(line, top-level module name) of every import; relative ones are treeperm's own."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            name = "treeperm" if node.level else node.module.partition(".")[0]
            yield node.lineno, name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_imports_only_treeperm_and_the_standard_library(path):
    outside = [(line, name) for line, name in _imported_modules(path)
               if name != "treeperm" and name not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports {outside}"


def test_every_library_module_is_checked():
    assert len(SOURCES) > 10 and {p.name for p in SOURCES} >= {"groups.py", "series.py"}
