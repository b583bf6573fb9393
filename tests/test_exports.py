"""Every exported name resolves, so `from module import *` cannot break."""

import importlib
import pkgutil

import pytest

import atiyahcheck

MODULES = ["atiyahcheck"] + [f"atiyahcheck.{info.name}"
                             for info in pkgutil.iter_modules(atiyahcheck.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
