"""The package's imports and its declared dependencies agree: every module
``src/claimcheck`` imports is in the standard library, is the package
itself, or is a dependency ``pyproject.toml`` lists, and every listed
dependency is imported somewhere."""
import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_modules() -> set[str]:
    """Top-level names of the absolute imports in src/claimcheck/*.py."""
    names = set()
    for path in (ROOT / "src" / "claimcheck").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set[str]:
    """The import names of [project].dependencies, e.g. "click>=8.0" -> click."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.match(r"[A-Za-z0-9._-]+", spec).group().lower().replace("-", "_")
            for spec in project["dependencies"]}


def test_every_import_is_stdlib_the_package_or_declared():
    undeclared = imported_modules() - sys.stdlib_module_names - {"claimcheck"}
    assert undeclared <= declared_dependencies(), undeclared - declared_dependencies()


def test_every_declared_dependency_is_imported():
    assert declared_dependencies() - imported_modules() == set()
