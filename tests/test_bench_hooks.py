"""The benchmark in perfbench/ wraps program functions by name: a rename in
the program must fail here, not only when the benchmark is traced."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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


def test_worker_count_exists():
    from ou_spectra import simulate

    assert callable(simulate.worker_count)
