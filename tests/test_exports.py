"""Every name a module exports through __all__ resolves."""

import importlib
import pkgutil

import pytest

import transverse

MODULES = ["transverse"] + sorted(
    f"transverse.{m.name}" for m in pkgutil.iter_modules(transverse.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
