"""The benchmark's tracer (``perfbench/tracer.py``) wraps layer functions by
name in the modules that call them; a name missing there would fail every
traced call. This checks each target resolves the way the tracer does."""
import importlib.util
import sys
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_layer_function_resolves():
    tracer = _load_tracer()
    missing = []
    for module, attr, _ in tracer.LAYER_FUNCS:
        owner, key = tracer._resolve(module, attr)
        if key not in owner.__dict__:
            missing.append(f"{module}.{attr}")
    assert not missing
