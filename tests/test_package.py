import ast
import importlib.util
import sys
from pathlib import Path

import limshape

PACKAGE = Path(limshape.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_no_assert_statements():
    # `python -O` strips asserts, so invariants must raise real exceptions
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_benchmark_trace_targets_resolve(monkeypatch):
    # the benchmark wraps these names to time each layer; a rename in the
    # package would otherwise surface only as a crash of a traced run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", PERFBENCH / "run.py"
    )
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in run.trace_targets()
        if not hasattr(owner, attr)
    ]
    assert missing == []
