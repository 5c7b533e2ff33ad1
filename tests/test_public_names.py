"""Every exported name resolves, and so does every layer the benchmark's
tracer wraps, so removing one fails here before a traced benchmark run
reports it as a missing layer."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import cubeforms

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_module_all_names_resolve():
    missing = []
    for info in pkgutil.iter_modules(cubeforms.__path__):
        module = importlib.import_module(f"cubeforms.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_tracer_layers_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    missing = [
        f"{module}.{function}"
        for _, module, function in tracer.LAYERS
        if not callable(getattr(importlib.import_module(f"cubeforms.{module}"), function, None))
    ]
    assert not missing
