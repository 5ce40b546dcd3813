"""The package's public names: every export resolves, the root imports cleanly,
and no module imports a name it does not use."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bohrlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(bohrlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"bohrlab.{name}")
    exports = module.__all__
    assert len(set(exports)) == len(exports)
    assert [export for export in exports if not hasattr(module, export)] == []


def test_root_imports_cleanly():
    # A fresh interpreter with warnings as errors: a stale name among the
    # root's imports raises ImportError here.
    src = str(Path(bohrlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-W", "error", "-c", "import bohrlab"],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


def _unused_imports(path: Path) -> list[str]:
    """``path``'s imported names that it neither uses nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {element.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for element in node.value.elts}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used and name not in exported]


def test_no_unused_imports():
    # The root __init__ is skipped: its imports are the package's re-exports.
    src = Path(bohrlab.__file__).resolve().parent
    modules = sorted(p for p in src.glob("*.py") if p.name != "__init__.py")
    assert [line for path in modules for line in _unused_imports(path)] == []
