"""The package's import surface: what ``__all__`` promises must exist."""

import importlib
import pkgutil

import symdefect


def test_every_exported_name_is_defined():
    # a stale __all__ entry breaks ``from symdefect.<module> import *``
    for info in pkgutil.iter_modules(symdefect.__path__):
        module = importlib.import_module(f"symdefect.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"symdefect.{info.name}.__all__ names undefined {missing}"

