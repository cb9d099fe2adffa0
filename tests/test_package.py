"""Package-wide rules: the exported API, no bare ``assert`` in the code and
no import outside the standard library."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import defeasidl

PACKAGE = Path(defeasidl.__file__).parent


def test_all_lists_only_resolvable_api_names():
    assert defeasidl.__all__
    for name in defeasidl.__all__:
        assert not isinstance(getattr(defeasidl, name), ModuleType), name
    assert {"eval_fitting", "eval_hybrid", "parse_theory", "DatalogProgram"} <= set(
        defeasidl.__all__
    )


def test_no_bare_assert_in_the_package():
    # ``python -O`` strips assert statements, so no invariant may rest on one.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_imports_only_the_standard_library():
    # The package has no runtime dependencies; relative imports stay inside it.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []
