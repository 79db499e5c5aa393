"""The benchmark in perfbench/ wraps and imports program functions by name:
a rename in the program must fail here, not only when the benchmark runs."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
RUN = PERFBENCH / "run.py"


def _layers() -> list[tuple[str, str]]:
    """(module, function) of every entry of LAYERS, read from the source
    without running it."""
    tree = ast.parse(SPANS.read_text())
    value = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )
    return [(entry.elts[0].value, entry.elts[1].value) for entry in value.elts]


@pytest.mark.parametrize("module, function", _layers())
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function))


def _run_imports() -> list[tuple[str, str]]:
    """(module, name) of every "from ou_spectra... import name" in run.py."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(RUN.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ou_spectra"
        for alias in node.names
    ]


@pytest.mark.parametrize("module, name", _run_imports())
def test_benchmark_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
