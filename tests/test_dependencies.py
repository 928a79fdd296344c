"""The package's runtime needs numpy and the Python standard library only, and the
benchmark's hooks name functions the package has."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rewardcentroids"
ALLOWED = {"numpy", *sys.stdlib_module_names}


def test_package_imports_only_numpy_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = {}
    for path in modules:
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: relative
                names.add(node.module.split(".")[0])
        if names - ALLOWED:
            outside[path.name] = sorted(names - ALLOWED)
    assert outside == {}


def test_benchmark_hooks_name_package_functions(monkeypatch):
    # perfbench/spans.py patches these names from outside; a clean-up that
    # renames or removes one would break a traced benchmark run
    path = PACKAGE.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up
    spec.loader.exec_module(spans)  # spans imports only the standard library
    hooks = [(module, name) for module, names in spans.TRACED.items() for name in names]
    missing = [
        f"{spans.PACKAGE}.{module}.{name}"
        for module, name in [*hooks, spans.SWEEP_FUNCTION]
        if not callable(getattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), name, None))
    ]
    assert hooks and missing == []
