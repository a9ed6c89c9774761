import ast
import importlib.util
import json
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


def test_no_float_literals():
    # arithmetic is exact: no float constant and no float(...) call
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Constant) and type(node.value) is float)
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float")
    ]
    assert found == []


def test_groebner_imports_no_fractions():
    # the engine computes on ints alone: fraction-free over Z, residues
    # over F_p, so groebner imports nothing from fractions
    tree = ast.parse((PACKAGE / "groebner.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import)
            and any(alias.name == "fractions" for alias in node.names))
    ]
    assert found == []


def test_no_memo_caches():
    # speed comes from the algorithms, not from memos: the benchmark reuses
    # its staircases across passes, so a cache kept on them would time the
    # cache instead of the kernel, e.g. the four K-polynomials of each
    # ideal in the staircase sweep
    banned = {"cache", "lru_cache", "cached_property"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in banned)
        or (isinstance(node, ast.Name) and node.id in banned)
        or (isinstance(node, ast.alias) and node.name in banned)
    ]
    assert found == []


def test_no_attribute_memos():
    # an instance is whole once built: object.__setattr__, which writes past
    # a frozen dataclass or a class that forbids assignment, may run only in
    # __init__ or __post_init__, so that no field is filled in later by a
    # lazy memo
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        builders = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and fn.name in ("__init__", "__post_init__")
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"
            and id(node) not in builders
        ]
    assert found == []


def test_no_starred_generator_arguments():
    # f(*(x for x in row)) builds its argument tuple at a guessed size and
    # shrinks it, so CPython 3.11 parks one tuple per call on a per-size
    # free list: 20 000 calls of lcm(*(x for x in row)) on rows of 3 to 10
    # entries left 1.2 MB allocated, where lcm(*row) and
    # reduce(lcm, row, 1) left under 1 KB
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and any(
            isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp)
            for arg in node.args
        )
    ]
    assert found == []


def load_benchmark_module(monkeypatch, name):
    """A module of the benchmark, loaded without writing bytecode next to
    it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve(monkeypatch):
    # the benchmark wraps these names to time each layer; a rename in the
    # package would otherwise surface only as a crash of a traced run
    run = load_benchmark_module(monkeypatch, "run")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in run.trace_targets()
        if not hasattr(owner, attr)
    ]
    assert missing == []


def test_two_lines_pass_matches_benchmark_digest(monkeypatch, tmp_path):
    # one pass of the benchmark's two-lines workload must reproduce the
    # committed digest byte for byte, so an output change fails here too
    workloads = load_benchmark_module(monkeypatch, "workloads")
    workload = workloads.WORKLOADS["two-lines"]
    config = workload.build(1, tmp_path)
    result = workload.run_pass(config, tmp_path / "pass")
    assert result.failures == [None] * workload.m_max
    workload.check(1, result)
    assert result.problems == []
    assert result.failures == [None] * workload.m_max
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    assert result.digest == expected["two-lines"]["*"]


def test_staircase_sweep_pass_matches_benchmark_digest(monkeypatch, tmp_path):
    # one pass of the sweep at seed 1 must reproduce its committed digest, so
    # a change to counts, volumes or polyhedra fails here too
    workloads = load_benchmark_module(monkeypatch, "workloads")
    workload = workloads.WORKLOADS["staircase-sweep"]
    staircases = workload.build(1, tmp_path)
    result = workload.run_pass(staircases, tmp_path / "pass")
    ops = workload.family_size + 1
    assert result.failures == [None] * ops
    workload.check(1, result)
    assert result.problems == []
    assert result.failures == [None] * ops
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    assert result.digest == expected["staircase-sweep"]["1"]


def test_traced_two_lines_pass_reads_its_counts(monkeypatch, tmp_path):
    # a traced pass reads sizes off the values the wrapped calls return, the
    # symbolic power's through its `ideal` view; a change to what they
    # return would otherwise surface only as a crash of a `--trace 1` run
    run = load_benchmark_module(monkeypatch, "run")
    workloads = load_benchmark_module(monkeypatch, "workloads")
    workload = workloads.WORKLOADS["two-lines"]
    config = workload.build(1, tmp_path)
    passes, _ = run.run_passes(workload, config, tmp_path, seconds=0, traced=True)
    (wall, result, recorder), = passes
    assert result.failures == [None] * workload.m_max
    metrics = run.layer_metrics(recorder, wall)
    counts = {
        "configs.symbolic_power.gens_out": 13,
        "configs.symbolic_power.coeff_bits_max": 1,
        "groebner.buchberger.basis_out": 26,
        "groebner.gin.raw_gens": 13,
    }
    assert {name: metrics[name] for name in counts} == counts


def _definitions(tree):
    """(qualified name, node) of each top-level function, class and name
    assignment and of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def _referenced_name(node, method):
    """The name a node can reach a definition by: a function or class through
    a Name or an Attribute, a method only through an Attribute or a string
    that names it, as the benchmark's trace targets do."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if method:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
    elif isinstance(node, ast.Name):
        return node.id
    return None


def test_every_definition_has_a_caller():
    # code that only tests reach belongs in the tests; a reference lies
    # outside the definition itself, so imports and keyword arguments do
    # not count, and a function does not make a method of its name called
    trees = {
        path: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    }
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    uncalled = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            own = {id(n) for n in ast.walk(node)}
            method = "." in qualname
            if not any(
                _referenced_name(n, method) == name and id(n) not in own
                for n in nodes
            ):
                uncalled.append(f"{path.name}:{qualname}")
    assert uncalled == []


# the definitions only the benchmark reaches: hooks it wraps or times,
# kept until ROADMAP's item 1 moves them out of the package
BENCHMARK_ONLY = {
    "configs.py:SymbolicPower.ideal",
    "groebner.py:LastVariableError",
    "rings.py:Polynomial.linear_substitute",
    "staircase.py:MonomialStaircase.count_gamma_bruteforce",
    "staircase.py:MonomialStaircase.lm_volume",
}


def test_benchmark_only_definitions_are_pinned():
    # test_every_definition_has_a_caller counts a reference from the
    # benchmark as a caller; a new hook, or one left behind when the hooks
    # go, changes this set
    package = {
        path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
    }
    package_nodes = [node for tree in package.values() for node in ast.walk(tree)]
    bench_nodes = [
        node
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
    ]
    only_bench = set()
    for path, tree in package.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            own = {id(n) for n in ast.walk(node)}
            method = "." in qualname

            def reached(nodes):
                return any(
                    _referenced_name(n, method) == name and id(n) not in own
                    for n in nodes
                )

            if reached(bench_nodes) and not reached(package_nodes):
                only_bench.add(f"{path.name}:{qualname}")
    assert only_bench == BENCHMARK_ONLY
