"""Package-wide rules: the exported API and no bare ``assert`` in the code."""

import ast
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
