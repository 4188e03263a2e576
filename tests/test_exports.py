"""Every name a module exports resolves: tools that walk ``__all__`` rely on it."""

import importlib
import pkgutil

import pytest

import reafuse

MODULES = ["reafuse"] + [f"reafuse.{m.name}" for m in pkgutil.iter_modules(reafuse.__path__)
                         if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
