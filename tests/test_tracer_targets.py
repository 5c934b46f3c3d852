"""The benchmark's traced pass wraps package names; each must exist.

perfbench/tracer.py replaces every (namespace, attribute) in TARGETS with a
timing wrapper by reading ``namespace.__dict__[attribute]``, so a renamed or
removed name fails every traced operation.  The module is only imported.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_unused_imports_are_tracer_targets():
    # A name a module imports without using (# noqa: F401) is there only so
    # the tracer can wrap that module's copy: each must be a TARGETS pair,
    # or cli.json, which Tracer.install swaps for its shim.  A target that
    # is dropped leaves its import dead, and this names it.
    wrapped = {(ns.__name__.rpartition(".")[2], attr) for ns, attr, _, _ in _load_tracer().TARGETS}
    wrapped.add(("cli", "json"))
    imported = []
    for path in sorted((ROOT / "src" / "bracket_steer").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "# noqa: F401" in lines[node.end_lineno - 1]):
                imported += [(path.stem, alias.asname or alias.name) for alias in node.names]
    assert imported
    assert [f"{module}.{name}" for module, name in imported
            if (module, name) not in wrapped] == []
