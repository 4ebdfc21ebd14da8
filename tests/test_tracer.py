"""The benchmark's layer tracer (perfbench/tracer.py) patches lplab
functions by module and name, so each name it lists must exist, and each
module it names must be loaded once `lplab.cli` is imported."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
TRACER = REPO / "perfbench" / "tracer.py"


def traced():
    """The tracer's TRACED table, read from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_name_resolves():
    table = traced()
    missing = [
        f"{home}.{name}"
        for home, names in table.values()
        for name in names
        if not callable(getattr(importlib.import_module(home), name, None))
    ]
    assert table and missing == []


def test_cli_import_loads_every_traced_module():
    # Tracer.install looks each home module up in sys.modules after
    # `import lplab.cli`, so a module the CLI loaded lazily would break the
    # trace; a fresh interpreter shows what that import alone loads
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys, lplab.cli; print(json.dumps(list(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    homes = {home for home, _ in traced().values()}
    assert homes and homes - loaded == set()
