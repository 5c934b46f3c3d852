"""The benchmark's traced pass wraps package names; each must exist.

perfbench/tracer.py replaces every (namespace, attribute) in TARGETS with a
timing wrapper by reading ``namespace.__dict__[attribute]``, so a renamed or
removed name fails every traced operation.  The module is only imported.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    targets = _load_tracer().TARGETS
    assert targets
    missing = [f"{getattr(ns, '__name__', ns)}.{attr}"
               for ns, attr, _, _ in targets if attr not in ns.__dict__]
    assert missing == []
