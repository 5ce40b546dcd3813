"""Process set-up shared by every benchmark entry point.

Importing this module pins the BLAS/OpenMP thread pools to one thread and
puts the checkout's ``src`` directory first on ``sys.path``.  It must be
imported before numpy or bohrlab: OpenBLAS reads its thread count once, when
it is loaded, and would otherwise start one worker per core for the
evaluators' ``@`` products.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class MissingProgram(RuntimeError):
    """The checkout holds no importable bohrlab sources."""


def import_bohrlab():
    """Import bohrlab from this checkout's ``src``, never from site-packages."""
    if not (SRC / "bohrlab" / "__init__.py").is_file():
        raise MissingProgram(f"no bohrlab sources under {SRC}")
    import bohrlab

    origin = Path(bohrlab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgram(f"bohrlab was imported from {origin}, not from {SRC}")
    return bohrlab


def describe() -> dict:
    """Facts that make two results comparable: cores, Python, numpy, BLAS."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }
