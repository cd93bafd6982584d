"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import charwave

MODULES = ["charwave"] + [
    f"charwave.{m.name}" for m in pkgutil.iter_modules(charwave.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = module.__all__
    assert len(set(exports)) == len(exports)
    assert [n for n in exports if not hasattr(module, n)] == []
