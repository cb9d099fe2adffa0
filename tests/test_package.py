"""Package-wide rules: the exported API, no bare ``assert`` in the code, one
home for the variable rule, no import outside the standard library, an
oracle that imports only the data model, collector settings made only by
the command line, a README row for every module, README examples that
parse, and no definition or module that nothing in the package calls or
imports."""

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


def test_only_the_command_line_sets_the_collector():
    # A collector setting holds for the whole process, so it is the
    # command's to make around a request, never a library function's.
    setters = {"disable", "enable", "freeze", "set_threshold"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "gc"):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} gc.{name}" for name in names if name in setters]
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


def test_every_definition_and_module_has_a_package_caller():
    """The package holds only what its own pipeline reads.

    Every function, class, method and property, public or private (dunders
    exempt), needs a reference by its name from package code outside its
    own definition: a read of the name or of an attribute so named, or an
    import of it.  Every module but ``__init__`` and ``__main__`` needs an
    importer in the package.  What only tests use belongs in ``tests/``.

    Matching is by name only, so a member whose name the package reads for
    something else passes unseen: a ``value``, ``clauses`` or ``edges``
    member would, since those names are read elsewhere.  Such members are
    found by reading the code, not by this test.
    """
    defined = []  # (name, file, first line, last line)
    used = []  # (name, file, line)
    imported = set()  # module names
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((node.name, path.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.append((node.attr, path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("defeasidl").lstrip(".")
                if node.level or node.module.startswith("defeasidl"):
                    if module:
                        imported.add(module.partition(".")[0])
                    else:  # from . import x
                        imported.update(alias.name for alias in node.names)
                used += [(alias.name, path.name, node.lineno) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported.update(alias.name.removeprefix("defeasidl.") for alias in node.names)
    unused = [
        f"{where}:{first} {name}"
        for name, where, first, last in defined
        if not any(ref == name and (at != where or not first <= line <= last)
                   for ref, at, line in used)
    ]
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert (unused, sorted(modules - imported)) == ([], [])
