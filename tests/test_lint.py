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


def public_definitions(source: str) -> set[str]:
    """The public functions and classes a module defines at top level."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def public_methods(source: str) -> set[str]:
    """The public methods and properties of the public classes a module
    defines at top level."""
    return {item.name for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def attribute_reads(source: str) -> set[str]:
    """The attribute names a module takes, as in `x.name`."""
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


def references(source: str) -> set[str]:
    """The names a module reads, the attributes it takes and the names it
    imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def traced_functions(source: str) -> set[str]:
    """The function names of the TRACED table of the benchmark's tracer."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return {name for _, names in ast.literal_eval(node.value).values()
                    for name in names}
    raise AssertionError("no TRACED table")


def unused_public_api(package: list[str], users: list[str], kept: set[str]) -> list[str]:
    """The public functions and classes of package that no module of
    package or users refers to and that are not in kept, and the public
    methods and properties of its public classes whose name no module of
    package or users reads as an attribute."""
    defined = set().union(*map(public_definitions, package))
    used = set().union(*map(references, package + users))
    methods = set().union(*map(public_methods, package))
    read = set().union(*map(attribute_reads, package + users))
    return sorted((defined - used - kept) | (methods - read))


def test_no_unused_public_api():
    # the demos and the benchmark's tracer are the package's other callers
    package = [p.read_text(encoding="utf-8") for p in PACKAGE]
    demos = [p.read_text(encoding="utf-8") for p in sorted((REPO / "demos").glob("*.py"))]
    kept = traced_functions((REPO / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    assert {"sphere_mean_max", "iterated_difference"} <= kept
    assert unused_public_api(package, demos, kept) == []


def test_unused_public_api_detected():
    package = ["def used():\n    pass\n\n\nclass Idle:\n    pass\n\n\ndef _private():\n    pass\n",
               "from .a import used\n\n\ndef kept():\n    used()\n\n\ndef spare():\n    pass\n"]
    users = ["import m\nm.Shown()\n", "class Shown:\n    pass\n"]
    assert unused_public_api(package, users, {"kept"}) == ["Idle", "spare"]


def test_unused_public_method_detected():
    # a method is read when a module takes it as an attribute (self.step,
    # engine.size); a bare name (spare = 1) is no read, and the methods of
    # private classes and private methods are not checked
    package = ["class Engine:\n    def run(self):\n        return self.step()\n\n"
               "    def step(self):\n        pass\n\n    @property\n    def size(self):\n"
               "        return 1\n\n    def spare(self):\n        pass\n\n"
               "    def _helper(self):\n        pass\n\n\n"
               "class _Private:\n    def hidden(self):\n        pass\n",
               "from .a import Engine\n\n\ndef kept():\n    spare = 1\n"
               "    return Engine().run(), spare\n"]
    users = ["def show(engine):\n    return engine.size\n"]
    assert unused_public_api(package, users, {"kept"}) == ["spare"]
