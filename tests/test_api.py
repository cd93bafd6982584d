"""The public surface: every exported name resolves, and the region fields
have one reader."""

import importlib
import inspect
import pkgutil
import re

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


def test_region_fields_have_one_reader():
    # outside the two region solves only RegionField reads a field's array by
    # position; the readers name nodes by (level, offset)
    from charwave import assembly, goursat, verify

    sources = {
        "assembly.py": inspect.getsource(assembly),
        "verify.py": inspect.getsource(verify),
        "goursat.goursat_traces": inspect.getsource(goursat.goursat_traces),
    }
    pattern = re.compile(r"\.(w|u|p|q)\[")
    found = {name: pattern.findall(src) for name, src in sources.items()}
    assert {name: hits for name, hits in found.items() if hits} == {}
