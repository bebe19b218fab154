"""The package's public surface and its promise of no runtime dependencies.

``dfca.__all__`` lists exactly what the package binds, the package
imports nothing beyond the standard library and itself, and a one-shot
command loads none of the standard library's heavier modules.
"""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dfca

PACKAGE = Path(dfca.__file__).resolve().parent


def test_all_lists_each_name_once():
    assert len(dfca.__all__) == len(set(dfca.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in dfca.__all__ if not hasattr(dfca, name)]
    assert missing == []


def test_all_equals_the_public_bindings():
    """A removed name cannot linger in __all__, nor an export go unlisted."""
    bound = {
        name
        for name, value in vars(dfca).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(dfca.__all__) == bound


def imported_modules(path):
    """Top-level names of the modules a source file imports, ``dfca`` for its own."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "dfca" if node.level else node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        (path.name, name)
        for path in sources
        for name in imported_modules(path)
        if name != "dfca" and name not in sys.stdlib_module_names
    }
    assert foreign == set()


def test_the_project_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(PACKAGE.parent.parent / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == []


def test_the_cli_leaves_the_heavy_standard_modules_unloaded():
    """``dataclasses`` pulls in ``inspect``, ``dis`` and ``ast``: tens of
    milliseconds on every one-shot ``dfca`` call. ``-S`` keeps the host's
    ``site`` from loading any of them first."""
    done = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, dfca.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
