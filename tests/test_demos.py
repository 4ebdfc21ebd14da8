"""Smoke test: every demo script runs to completion in a fresh interpreter,
and the package namespace exports exactly what the demos import."""

import ast
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # the working directory and the temporary directory are tmp_path, so
    # whatever a demo writes stays there
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()


def test_exports_are_the_demo_imports():
    import lplab

    imported = set()
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "lplab":
                imported.update(alias.name for alias in node.names)
    exported = {name for name, value in vars(lplab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported - {"LplabError"} == imported
