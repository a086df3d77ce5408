"""Every name a module lists in __all__ resolves on that module."""

import importlib
import pkgutil

import pytest

import sparseland

MODULES = [sparseland] + [
    importlib.import_module(f"sparseland.{info.name}")
    for info in pkgutil.iter_modules(sparseland.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
