"""Checks on the package source itself."""

import ast
import importlib
import random
from pathlib import Path

import fafft
from fafft import FaftEngine, LayeredEngine, mul_schoolbook

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_no_asserts_in_package():
    # python -O strips assert statements, so a check that guards
    # correctness has to raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(fafft.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_size_bound():
    # transform._MAX_M is the only bound on m: no call of _check_m in the
    # package passes a literal one
    found = []
    for path in sorted(Path(fafft.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            bounds = node.args[1:] + [k.value for k in node.keywords]
            if name == "_check_m" and any(isinstance(b, ast.Constant) for b in bounds):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _imports_reference(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("reference", "fafft.reference") or (
                module in ("", "fafft") and any(a.name == "reference" for a in node.names)
            ):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "fafft.reference" for a in node.names):
                return True
    return False


def test_only_the_front_ends_import_the_oracle():
    # the product path (field .. circuit) must run without the recursive oracle
    importers = {
        path.name
        for path in Path(fafft.__file__).parent.glob("*.py")
        if _imports_reference(ast.parse(path.read_text()))
    }
    assert "__init__.py" in importers  # the walk sees relative imports
    assert importers <= {"__init__.py", "cli.py", "reference.py"}


def test_benchmark_harness_names_are_exported():
    # perfbench/ reaches the package only through these names
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "fafft":
                used.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "fafft":
                used.add(node.attr)
    assert used, "no fafft imports found under perfbench/"
    assert sorted(used - set(fafft.__all__)) == []


def test_benchmark_harness_calls_run(monkeypatch):
    # perfbench/ also calls methods on the engines: staged_mul runs every
    # LayeredEngine stage (the --trace 1 path), transform_counts reads the
    # oracle's cross-section orbits
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    lay = LayeredEngine(FaftEngine(6))
    rng = random.Random(5)
    for m in (8, 12, 14):
        lay.plan(m)
        a, b = rng.getrandbits(1 << (m - 1)), rng.getrandbits(1 << (m - 1))
        assert layers.staged_mul(lay, a, b, layers.Tracer()) == mul_schoolbook(a, b)
    assert layers.transform_counts(FaftEngine(6), 12)["leaves"] > 0
