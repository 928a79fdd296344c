"""The package's runtime needs numpy and the Python standard library only."""

import ast
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
