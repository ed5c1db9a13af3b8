"""The package has zero runtime dependencies: its modules import only the
standard library and each other, and pyproject.toml lists no dependency."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coedit"


def _imported(tree: ast.AST):
    """(line, top-level module name) of every absolute import in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_imports_only_the_standard_library(module):
    tree = ast.parse((PACKAGE / module).read_text())
    foreign = [(line, name) for line, name in _imported(tree) if name != "coedit" and name not in sys.stdlib_module_names]
    assert not foreign, f"{module} imports outside the standard library: {foreign}"


def test_pyproject_lists_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # standard from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
