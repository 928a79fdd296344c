"""The package's runtime needs numpy and the Python standard library only, the
benchmark's hooks name functions the package has and see the calls they
count, and no positivity test is written by hand."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from rewardcentroids import mdp
from rewardcentroids.mdp import RewardTable, random_mdp, value_iteration

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


def test_value_iteration_backs_up_through_the_sweep_hook(monkeypatch):
    # the benchmark counts value-iteration sweeps by wrapping
    # mdp.expected_next_values, so every call must look it up at call time
    calls = []
    original = mdp.expected_next_values
    monkeypatch.setattr(mdp, "expected_next_values", lambda *args: calls.append(1) or original(*args))
    rng = np.random.default_rng(5)
    for num_states, gamma in [(1, 0.0), (1, 0.9), (4, 0.0), (6, 0.5), (6, 0.99)]:
        before = len(calls)
        value_iteration(random_mdp(num_states, 3, gamma, rng), RewardTable(rng.normal(size=(num_states, 3))))
        assert len(calls) > before


def test_no_hand_written_positivity_test():
    # `if x <= 0` lets NaN and +inf through; mdp.check_positive rejects both
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            test = node.test if isinstance(node, ast.If) else None
            if (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and len(test.ops) == 1
                and isinstance(test.ops[0], (ast.LtE, ast.Lt))
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value == 0
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(test)}")
    assert found == []
