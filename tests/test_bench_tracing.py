"""The benchmark's tracing layer binds program functions by name; each of
those names must still exist, or every benchmark run would crash."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_and_counted_layer_resolves_to_a_function():
    tracing = _tracing()
    for module, name in tracing.LAYERS + tracing.COUNTED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    layers = {tracing.layer_name(module, name) for module, name in tracing.LAYERS}
    assert set(tracing.COUNT_READERS) <= layers
