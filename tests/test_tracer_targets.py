"""The benchmark's traced pass wraps package names; each must exist.

perfbench/tracer.py replaces every (namespace, attribute) in TARGETS with a
timing wrapper by reading ``namespace.__dict__[attribute]``, so a renamed or
removed name fails every traced operation.  The module is imported, and
its Tracer installed around short runs.
"""

import ast
import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from bracket_steer import builtin_scenario, cli, default_substeps, simulate
from bracket_steer.simulate import interval_grid

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


def _module_imports(tree):
    """The import statements of a module's own scope, not of its functions
    or classes."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _module_imports(node)


def _exported(tree):
    """The names a module's __all__ lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_unused_imports_are_tracer_targets():
    # A name a module imports without using (# noqa: F401) is there only so
    # the tracer can wrap that module's copy: each must be a TARGETS pair,
    # or cli.json, which Tracer.install swaps for its shim.  A target that
    # is dropped leaves its import dead, and this names it.  Every other
    # name a module imports at module level it must read, or list in
    # __all__: an unmarked import that nothing reads is dead.
    wrapped = {(ns.__name__.rpartition(".")[2], attr) for ns, attr, _, _ in _load_tracer().TARGETS}
    wrapped.add(("cli", "json"))
    imported, unread = [], []
    for path in sorted((ROOT / "src" / "bracket_steer").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "# noqa: F401" in lines[node.end_lineno - 1]):
                imported += [(path.stem, alias.asname or alias.name) for alias in node.names]
        read = _exported(tree) | {node.id for node in ast.walk(tree)
                                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in _module_imports(tree):
            if "# noqa: F401" not in lines[node.end_lineno - 1]:
                unread += [f"{path.stem}.{name}" for name in
                           ((alias.asname or alias.name).partition(".")[0] for alias in node.names)
                           if name not in read]
    assert imported
    assert [f"{module}.{name}" for module, name in imported
            if (module, name) not in wrapped] == []
    assert unread == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_traced_run_writes_the_untraced_bytes(monkeypatch, tmp_path, fmt):
    # The tracer counts the bytes of cli._write_text as len(args[1]), so
    # that writer is only ever handed text; streamed output goes through
    # cli._write_chunks.  A traced run exits 0 and writes what an untraced
    # one does.  Its recorder span sees every table block: at blocks of 7
    # sub-steps, 5 intervals of 40 sub-steps are 6 blocks each, and the end
    # of the tail-less horizon is one more.
    monkeypatch.setattr(simulate, "TABLE_SUBSTEPS", 7)
    uni = builtin_scenario("unicycle-leader")
    assert interval_grid(0.5, uni.gains.epsilon) == (5, 0.0)
    assert default_substeps(uni.agents[0].selection.kappa_max) == 40
    tracer = _load_tracer().Tracer()
    argv = ["run", "unicycle-leader", "--t-final", "0.5", "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", str(tmp_path / f"plain.{fmt}")]) == 0
        tracer.install()
        try:
            rc = cli.main([*argv, "--out", str(tmp_path / f"traced.{fmt}")])
        finally:
            tracer.uninstall()
    assert rc == 0
    suffixes = [f".{fmt}", ".report.json"] if fmt == "csv" else [f".{fmt}"]
    for suffix in suffixes:
        assert ((tmp_path / f"traced{suffix}").read_bytes()
                == (tmp_path / f"plain{suffix}").read_bytes())
    metrics = tracer.per_layer(1, 1.0, 1)
    assert metrics["trace.spans"]["value"] > 0
    assert metrics["cli.integrate_s"]["value"] > 0
    assert metrics["simulate.recorder.rows"]["value"] == 5 * 6 + 1
