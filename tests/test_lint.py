"""Static checks over the package, the tests and the demos."""

import ast
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
# the package's __init__ imports names to re-export them
SOURCES = sorted(
    [p for p in (REPO / "src" / "lplab").glob("*.py") if p.name != "__init__.py"]
    + list((REPO / "tests").glob("*.py"))
    + list((REPO / "demos").glob("*.py"))
)


PACKAGE = sorted((REPO / "src" / "lplab").glob("*.py"))
# a private constant's name: _UPPER_CASE, not inside a longer name or after a dot
CONSTANT = re.compile(r"(?<![\w.])_[A-Z][A-Z0-9_]*\b")


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_sources_found():
    assert {p.parent.name for p in SOURCES} == {"lplab", "tests", "demos"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_detected():
    source = "import json\nimport math\nfrom os import path as p, sep\nprint(math.pi, sep)\n"
    assert unused_imports(source) == ["line 1: json", "line 3: p"]


def stale_constants(sources: list[str]) -> list[str]:
    """The _UPPER_CASE names that sources mention, in code, comments or
    docstrings, and that none of them assigns at module level."""
    assigned = set()
    for source in sources:
        for node in ast.parse(source).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            assigned.update(t.id for t in targets if isinstance(t, ast.Name))
    mentioned = {name for source in sources for name in CONSTANT.findall(source)}
    return sorted(mentioned - assigned)


def test_no_stale_constants():
    assert stale_constants([p.read_text(encoding="utf-8") for p in PACKAGE]) == []


def test_stale_constant_detected():
    sources = ["_KEPT = 1\n# within _KEPT and _GONE, not S_SUP or self._X\n",
               '"""Sized by _ALSO_GONE."""\nx = _KEPT\n']
    assert stale_constants(sources) == ["_ALSO_GONE", "_GONE"]
