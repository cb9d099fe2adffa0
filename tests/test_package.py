"""Package-wide rules: the exported API, no bare ``assert`` in the code, one
home for the variable rule, no import outside the standard library, an
oracle that imports only the data model, a README row for every module and
README examples that parse."""

import ast
import re
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


def test_only_the_data_model_and_the_lexer_read_a_variable_from_its_case():
    # ``Term.is_variable`` and the parser's token kinds hold the variable
    # rule; everything else asks a term or reads a clause's ``ground``.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name in ("theory.py", "parser.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "isupper"]
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


def test_oracle_imports_only_the_theory_module():
    # The oracle is the reference the compiled path is tested against, so it
    # shares no code with it: besides the standard library it reads only
    # the data model and its grounding.
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    found = [
        name
        for name in names
        if name not in (".theory", "defeasidl.theory")
        and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert found == []


def test_every_module_has_a_readme_row():
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    rows = {line.split("|")[1].strip() for line in readme.splitlines() if line.startswith("| `")}
    modules = {
        f"`defeasidl.{path.stem}`" for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
    }
    assert modules - rows == set()


def test_readme_examples_parse():
    # Each ```prolog block is an example of the format its section names.
    from defeasidl.datalog import parse_datalog
    from defeasidl.parser import parse_theory

    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    parsed = []
    for section in readme.split("\n## ")[1:]:
        heading = section.partition("\n")[0]
        for block in re.findall(r"^```prolog\n(.*?)^```$", section, re.M | re.S):
            if "(`.dfl`)" in heading:
                result = parse_theory(block)
                assert not isinstance(result, list), [str(e) for e in result]
            else:
                assert "(`.dl`)" in heading, heading
                assert parse_datalog(block).clauses
            parsed.append(heading)
    assert parsed == ["Theory format (`.dfl`)", "Compiled form (`.dl`)"]


def test_every_private_top_level_name_has_a_package_caller():
    # A private function or class that nothing in the package uses outside
    # its own definition serves only tests, and belongs in tests/.
    defined = {}
    used = set()  # (name, the top-level definition it is used in, or None)
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and owner.startswith("_"):
                if not owner.startswith("__"):
                    defined[owner] = f"{path.name}:{top.lineno}"
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    used.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    used.add((node.attr, owner))
                elif isinstance(node, ast.alias):
                    used.add((node.name, None))
    unused = [
        f"{where} {name}"
        for name, where in defined.items()
        if not any(ref == name and owner != name for ref, owner in used)
    ]
    assert unused == []
