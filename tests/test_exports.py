"""The package's public names: every export resolves, and the root imports cleanly."""

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
