"""Every name a module lists in __all__, or a demo imports, resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sparseland

MODULES = [sparseland] + [
    importlib.import_module(f"sparseland.{info.name}")
    for info in pkgutil.iter_modules(sparseland.__path__)
]
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    # parsed, not run: the demos are slow and write files
    missing = []
    for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sparseland":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    assert missing == []


def test_demos_found():
    assert len(DEMOS) >= 5
