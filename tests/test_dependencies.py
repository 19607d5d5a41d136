"""The package declares every third-party module it imports, and its
runtime needs numpy alone: scipy is a test dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tightci").glob("*.py"))


def _requirement_names(requirements: list[str]) -> set[str]:
    """The normalized project names of PEP 508 requirement strings."""
    return {
        re.match(r"[A-Za-z0-9._-]+", req).group(0).lower().replace("-", "_")
        for req in requirements
    }


def _third_party_imports(path: Path) -> set[str]:
    """The top-level names of the absolute imports anywhere in ``path``,
    module level or inside a function, less the standard library's."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "tightci"}


def test_every_imported_module_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _requirement_names(project["dependencies"])
    assert SOURCES
    for path in SOURCES:
        undeclared = _third_party_imports(path) - declared
        assert not undeclared, f"{path.name} imports undeclared {sorted(undeclared)}"


def test_scipy_is_a_test_dependency_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert "scipy" not in _requirement_names(project["dependencies"])
    extras = project["optional-dependencies"]
    with_scipy = [k for k, reqs in extras.items() if "scipy" in _requirement_names(reqs)]
    assert with_scipy == ["test"]
