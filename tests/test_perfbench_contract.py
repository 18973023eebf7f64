"""The benchmark's span tracer still finds every function it wraps.

perfbench/tracer.py patches the package from outside it, by module and
attribute name. A refactor that renames or moves a traced function would
only surface when a traced benchmark run crashes; this test surfaces it here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_modules_import():
    tracer = _load_tracer()
    assert tracer.MODULES
    for name in tracer.MODULES:
        importlib.import_module(name)


def test_tracer_targets_resolve_in_the_package():
    tracer = _load_tracer()
    assert tracer.TARGETS
    modules = set(tracer.MODULES)
    missing = []
    for span, modname, attr in tracer.TARGETS:
        assert modname in modules, (span, modname)
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                break
        if not callable(owner):
            missing.append((span, f"{modname}.{attr}"))
    assert missing == []
