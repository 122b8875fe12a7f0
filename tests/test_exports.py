"""Each module imports on its own, so no import cycle hides behind an
import order that another module happens to set up first."""
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
def test_imports_alone(name):
    # a fresh interpreter: this process has every module imported already
    src = str(Path(claimcheck.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", f"import {name}"],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
