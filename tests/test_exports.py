"""Every name a module lists in ``__all__`` exists, so a star import of
the package or of any submodule never fails on a stale entry; and each
module imports on its own, so no import cycle hides behind an import
order that another module happens to set up first."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import claimcheck

MODULES = ["claimcheck"] + [f"claimcheck.{m.name}"
                            for m in pkgutil.iter_modules(claimcheck.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_imports_alone(name):
    # a fresh interpreter: this process has every module imported already
    src = str(Path(claimcheck.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", f"import {name}"],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
