"""Every name a module lists in ``__all__`` exists, so a star import of
the package or of any submodule never fails on a stale entry."""
import importlib
import pkgutil

import pytest

import claimcheck

MODULES = ["claimcheck"] + [f"claimcheck.{m.name}"
                            for m in pkgutil.iter_modules(claimcheck.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
