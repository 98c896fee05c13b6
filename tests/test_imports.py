"""Every module of the package uses each name it imports, defines nothing
the package leaves unused, and importing the package generates no code.

No linter ships with the project, so this reads each module's syntax tree:
a name bound by ``import`` or ``from ... import`` must be read somewhere in
the module, or be listed in its ``__all__``; a module-level function,
class or UPPER_CASE constant must be referenced outside its own definition
somewhere in the package, or be listed in ``__all__``.  No module may
import ``dataclasses`` or ``inspect`` or call ``exec``, ``eval`` or
``compile``: a CLI call pays for everything the package runs at import.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import chevalley_chow

PACKAGE = pathlib.Path(chevalley_chow.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(tau)\n") == [
        "os (line 1)", "pi (line 2)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def defined_functions(stmt: ast.stmt) -> list[str]:
    """The function or class a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    return []


def defined_constants(stmt: ast.stmt) -> list[str]:
    """The UPPER_CASE names a top-level assignment binds."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]


def unreferenced_definitions(sources: dict[str, str], defines=defined_functions) -> list[str]:
    """``module.name`` of each module-level name that ``defines`` reports
    (by default each function or class) that no other top-level statement
    of any module references, and no ``__all__`` lists."""
    defined, used = {}, {}
    for module, source in sources.items():
        for index, stmt in enumerate(ast.parse(source).body):
            where = (module, index)
            for name in defines(stmt):
                defined[f"{module}.{name}"] = (name, where)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                    names = [elt.value for elt in node.value.elts]
                else:
                    continue
                for name in names:
                    used.setdefault(name, set()).add(where)
    return sorted(label for label, (name, where) in defined.items() if not used.get(name, set()) - {where})


def test_finds_an_unreferenced_definition():
    sources = {"a": "def f():\n    return f()\n\ndef g():\n    pass\n\nclass C:\n    pass\n",
               "b": "from .a import g\n\ndef h(x):\n    return x.C\n\n__all__ = ['h']\n"}
    assert unreferenced_definitions(sources) == ["a.f"]


def test_every_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreferenced_definitions(sources) == []


def test_finds_an_unread_constant():
    sources = {"a": "LIMIT = 3\nSPARE: int = 4\nOLD = 5\nspare = 6\n\ndef f():\n    return LIMIT\n",
               "b": "from .a import OLD\n\n__all__ = ['SPARE']\n",
               "c": "SIZE: int = 1\nCAP = 2\nprint(CAP)\n"}
    assert unreferenced_definitions(sources, defined_constants) == ["c.SIZE"]


def test_every_constant_is_read():
    # a retired knob must go with the code that read it
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreferenced_definitions(sources, defined_constants) == []


SLOW_IMPORTS = {"dataclasses", "inspect"}
CODE_GENERATORS = {"exec", "eval", "compile"}


def generated_code(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.partition(".")[0] in SLOW_IMPORTS]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] in SLOW_IMPORTS:
            found.append(node.module)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in CODE_GENERATORS:
            found.append(f"{node.func.id}()")
    return found


def test_finds_generated_code():
    assert generated_code("from dataclasses import dataclass\nimport inspect\n") == [
        "dataclasses", "inspect"]
    assert generated_code("exec('x = 1')\nf = eval\ncompile('', '', 'exec')\n") == [
        "exec()", "compile()"]
    assert generated_code("import re\nre.compile('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_generated_code(path):
    assert generated_code(path.read_text()) == []


REPORT_MODULES = {"chow", "schubert", "invariants", "structure"}


def package_imports(source: str) -> set[str]:
    """The package modules a module imports from, at any depth of its tree."""
    return {node.module or "" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_finds_package_imports():
    assert package_imports("from .chow import a\ndef f():\n    from .structure import b\n"
                           "from json import dumps\n") == {"chow", "structure"}


def test_formats_imports_no_report_module():
    # reports say their own JSON shape, so the file format needs none of their modules
    assert package_imports((PACKAGE / "formats.py").read_text()) & REPORT_MODULES == set()


def test_invariants_imports_no_root_datum_layer():
    # polynomial slices and graded quotients sit below the root-datum,
    # Schubert and Chow layers: callers bound group orders before they ask
    assert package_imports((PACKAGE / "invariants.py").read_text()) & {"rootdata", "schubert", "chow"} == set()


def imported_names(source: str) -> set[str]:
    """``module.name`` for each name a module imports from a package module."""
    return {f"{node.module}.{alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def test_finds_imported_names():
    assert imported_names("from .rootdata import reflection as r\nfrom math import pi\n") == {"rootdata.reflection"}


def test_subgroup_reflections_have_one_builder():
    # K's reflections are built in descriptors alone, which reads X(H0) and
    # X(H) off them; chow takes K from there and never rebuilds X(H)
    definers = [path.stem for path in MODULES
                if any("_subgroup_reflections" in defined_functions(stmt) for stmt in ast.parse(path.read_text()).body)]
    assert definers == ["descriptors"]
    forbidden = {"rootdata.reflection", "descriptors.descended_coroot", "descriptors.subgroup_characters"}
    assert imported_names((PACKAGE / "chow.py").read_text()) & forbidden == set()


def test_package_takes_only_the_probed_names_from_qlinalg():
    # perfbench's probes wrap qlinalg.qsolve and SpanBuilder.add, so the
    # module stays until they move.  Meanwhile it holds the one elimination
    # over Q, SpanBuilder's, which qsolve reads: it defines no other public
    # name, so no second elimination grows back
    taken = {path.stem: {name for name in imported_names(path.read_text())
                         if name.startswith("qlinalg.") or name == "None.qlinalg"} for path in MODULES}
    assert {stem: names for stem, names in taken.items() if names} == {
        "chow": {"qlinalg.SpanBuilder"}, "invariants": {"qlinalg.SpanBuilder"}, "rootdata": {"qlinalg.qsolve"}}
    body = ast.parse((PACKAGE / "qlinalg.py").read_text()).body
    bound = {node.id for stmt in body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             for node in ast.walk(stmt) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    defined = bound.union(*map(defined_functions, body))
    assert {name for name in defined if not name.startswith("_")} == {"qsolve", "SpanBuilder"}


def test_cli_import_loads_no_code_generators():
    code = f"import chevalley_chow.cli, sys; print(sorted({SLOW_IMPORTS!r} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
