"""Source hygiene of the package, read with the standard library's ast.

Every name a module imports at top level is used in that module. The
package's __init__ imports only to re-export, so it is left out, and a
re-export is no caller. Every top-level definition of a module is named
somewhere beyond its own definition: in its module, in another module of
the package, in the acceptance tests or in the benchmark harness; a
definition only the unit tests read is test code and belongs in tests/.
Likewise every defaulted parameter of a function, method or dataclass is
set by some call there: a setting that no caller sets is a constant. Every
error class of errors.py is raised in the package, or is the base of one
that is: a class that outlives its last raise is a refusal nothing makes.
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
    to source) that no other statement of a module, nor any reader, names.
    __init__.py is left out: its re-exports name nothing."""
    statements = [
        (module, node)
        for module, source in modules.items()
        if module != "__init__.py"
        for node in ast.parse(source).body
    ]
    named = [names_in(node) for _, node in statements] + [names_in(ast.parse(s)) for s in readers]
    return [
        f"{module}:{name}"
        for k, (module, node) in enumerate(statements)
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


def test_a_definition_only_reexported_is_found():
    modules = {
        "__init__.py": "from .a import helper, exported\n\n__all__ = ['helper', 'exported']\n",
        "a.py": "def helper():\n    return 1\n\ndef exported():\n    return 2\n",
        "b.py": "from .a import helper\n",
    }
    assert unnamed_definitions(modules, []) == ["a.py:exported"]


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, list[str], list[str]]]:
    """(callee name, parameters in call position order, defaulted
    parameters) of each function, method and dataclass of a module. A
    method's positions skip self or cls; __init__ and a dataclass are called
    by the class name."""
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any("dataclass" in names_in(d) for d in node.decorator_list):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            out.append((node.name, [f.target.id for f in fields], [f.target.id for f in fields if f.value]))
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            name = owner[id(node)] if node.name == "__init__" else node.name
            out.append((name, positional[id(node) in owner :], defaulted))
    return out


def set_parameters(trees: list[ast.AST]) -> dict[str, set]:
    """For each callee name, the keywords its calls pass and their counts of
    positional arguments; "*" when a call passes * or **."""
    out: dict[str, set] = {}
    for call in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)):
        seen = out.setdefault(getattr(call.func, "id", getattr(call.func, "attr", None)), set())
        seen.add(len(call.args))
        seen.update(k.arg or "*" for k in call.keywords)
        if any(isinstance(a, ast.Starred) for a in call.args):
            seen.add("*")
    return out


def unset_defaults(modules: dict[str, str], readers: list[str]) -> list[str]:
    """'module:callee(parameter)' for each defaulted parameter of the
    modules' functions, methods and dataclasses that no call of a module or
    a reader sets, by keyword or by position. Calls are matched to
    definitions by the callee's name alone."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    calls = set_parameters([*trees.values(), *map(ast.parse, readers)])
    found = []
    for module, tree in trees.items():
        for name, positional, defaulted in defaulted_parameters(tree):
            seen = calls.get(name, set())
            if "*" in seen:
                continue
            reached = positional[: max((n for n in seen if isinstance(n, int)), default=0)]
            found += [f"{module}:{name}({p})" for p in defaulted if p not in seen and p not in reached]
    return found


def test_every_default_is_set_by_some_call():
    modules = {p.name: p.read_text() for p in MODULES}
    assert unset_defaults(modules, [p.read_text() for p in READERS]) == []


def test_an_unset_default_is_found():
    modules = {
        "a.py": (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Cfg:\n    size: int\n    tol: float = 1e-9\n    seed: int = 0\n\n"
            "def solve(x, tol=1e-9, steps=10, *, exact=None):\n    return x\n\n"
            "class Table:\n    def __init__(self, rows, cap=None):\n        self.rows = rows\n\n"
            "    def at(self, k, default=0):\n        return default\n"
        ),
        "b.py": "from a import Cfg, Table, solve\n\nsolve(1, 1e-6)\nCfg(3, seed=1)\nTable([]).at(2, 5)\n",
    }
    assert unset_defaults(modules, ["from a import Table\n\nTable(*[[1], 2])\n"]) == [
        "a.py:Cfg(tol)",
        "a.py:solve(steps)",
        "a.py:solve(exact)",
    ]


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """The classes of errors_source that no raise statement of the sources
    names, directly or through a subclass defined there."""
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
    }
    live = {
        getattr(node.exc, "func", node.exc).id
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and isinstance(getattr(node.exc, "func", node.exc), ast.Name)
    }
    while True:
        grown = live | {base for name in live for base in bases.get(name, ())}
        if grown == live:
            return [name for name in bases if name not in live]
        live = grown


def test_every_error_class_is_raised():
    sources = [p.read_text() for p in MODULES]
    assert unraised_errors((PACKAGE / "errors.py").read_text(), sources) == []


def test_an_unraised_error_is_found():
    errors = (
        "class Base(Exception):\n    pass\n\nclass Bad(Base):\n    pass\n\n"
        "class Used(Bad, ValueError):\n    pass\n\nclass Stale(Base):\n    pass\n"
    )
    sources = ["def f(x):\n    if x:\n        raise Used('no') from None\n    raise ValueError\n"]
    assert unraised_errors(errors, sources) == ["Stale"]
