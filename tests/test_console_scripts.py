"""Each console script that ``pyproject.toml`` declares names a click command:
the tests drive the CLI through ``CliRunner`` and the benchmark through
``python -m claimcheck.cli``, so nothing else runs the installed entry."""
import importlib
import tomllib
from pathlib import Path

import click
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))[
    "project"]["scripts"]


def test_a_script_is_declared():
    assert "claimcheck" in SCRIPTS


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_resolves_to_a_click_command(name):
    module, _, attr = SCRIPTS[name].partition(":")
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert isinstance(target, click.Command)
