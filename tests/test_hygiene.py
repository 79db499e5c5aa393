"""Source hygiene of the package, read with the standard library's ast.

Every name a module imports at top level is used in that module. The
package's __init__ imports only to re-export, so it is left out. Every
top-level definition of a module is named somewhere beyond its own
definition: in its module, in another module of the package, in the
acceptance tests or in the benchmark harness; a definition only the unit
tests read is test code and belongs in tests/.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ou_spectra"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
READ_BY_THE_SCHEMA_TESTS = ["cli.py:REPORT_SCHEMA"]


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import and never read in the module."""
    tree = ast.parse(source)
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from math import isqrt, sqrt\nimport numpy as np\n\nx = sqrt(np.pi)\n"
    assert unused_imports(source) == ["isqrt"]


def names_in(node: ast.AST) -> set[str]:
    """Every name node mentions: bare names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
    return out


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unnamed_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """'module:name' for each top-level definition of the modules (file name
    to source), __init__.py aside, that no other statement of any module,
    nor any reader, names."""
    statements = [
        (module, node) for module, source in modules.items() for node in ast.parse(source).body
    ]
    named = [names_in(node) for _, node in statements] + [names_in(ast.parse(s)) for s in readers]
    return [
        f"{module}:{name}"
        for k, (module, node) in enumerate(statements)
        if module != "__init__.py"
        for name in defined_names(node)
        if not any(name in names for i, names in enumerate(named) if i != k)
    ]


def test_every_top_level_definition_is_named():
    modules = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    found = unnamed_definitions(modules, [p.read_text() for p in READERS])
    assert found == READ_BY_THE_SCHEMA_TESTS


def test_an_unnamed_definition_is_found():
    modules = {
        "a.py": "LIMIT = 3\n\ndef helper():\n    return LIMIT\n\ndef dead():\n    return dead()\n",
        "b.py": "from a import helper\n",
    }
    assert unnamed_definitions(modules, ["import a\n"]) == ["a.py:dead"]
