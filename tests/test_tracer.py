"""The benchmark's layer tracer (perfbench/tracer.py) patches lplab
functions by module and name, so each name it lists must exist."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{home}.{name}"
        for home, names in tracer.TRACED.values()
        for name in names
        if not callable(getattr(importlib.import_module(home), name, None))
    ]
    assert tracer.TRACED and missing == []
