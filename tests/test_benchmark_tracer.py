"""The benchmark's tracer rebinds package names that must keep existing.

``benchmark/tracer.py`` looks each entry up when a traced run starts, so a
renamed or deleted function or method fails only there.  This test loads
the tracer by path, without installing it, and resolves every entry.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def test_every_traced_function_and_method_exists():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, attr, *_ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), f"{mod_name}.{attr}"
    for mod_name, cls_name, attr, *_ in tracer.METHODS:
        # install() reads the class's own __dict__, so an inherited method would not do
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert attr in cls.__dict__, f"{mod_name}.{cls_name}.{attr}"
