"""The benchmark tracer wraps program functions by module and name, so a
deleted or renamed function must fail here, not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    names = [(mod, attr) for mod, attr, _ in tracer.TIMED + tracer.COUNTED]
    names += list(tracer.ENTRY)
    assert names
    for mod, attr in names:
        module = importlib.import_module(f"fqninfer.{mod}")
        assert callable(getattr(module, attr, None)), f"fqninfer.{mod}.{attr}"
    stat = importlib.import_module("fqninfer.stat")
    assert callable(stat.CooccurrenceModel.known_fqns_named)
