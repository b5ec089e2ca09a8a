"""The benchmark tracer's view of the package still matches the package.

bench/tracer.py looks traced functions and law classes up by name; a
rename in src/ would otherwise only fail when a traced benchmark runs.
"""
import importlib.util
import os
import sys

import mbpm
import mbpm.cli  # noqa: F401  (the tracer wraps mbpm.cli too; mbpm does not import it)

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    plan = tracer._plan(mbpm)
    assert plan
    for module, attr, label, kind, _ in plan:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({label})"
        assert kind in ("span", "counter")
    for name in tracer._LAW_CLASSES:
        assert isinstance(getattr(mbpm.laws, name, None), type), name
