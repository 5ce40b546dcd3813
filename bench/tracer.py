"""Per-layer spans around bohrlab's module-level functions, installed from outside.

The program is not edited: :class:`Tracer` replaces every module-level
function of the traced modules by a timing wrapper, at every binding that
refers to it.  ``harness``, ``cli``, ``selftest`` and the package root import
many functions by name (``schur_from_parameters``, the ``eval_*`` functions,
``maximal_root``, ``slice_series``), so patching only the defining module
would miss most calls.  Wrappers are removed again on :meth:`Tracer.uninstall`.

Spans are aggregated in memory as they close: per span name the call count,
inclusive seconds and self seconds (inclusive minus the time covered by
direct child spans).  A few counters record work where it is done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

TRACED_MODULES = ("series", "spaces", "radii", "functionals", "harness", "cli")

_ROOT_FINDERS = ("radii.maximal_root", "radii.unique_root")
_NO_SPANS = (0, 0.0, 0.0)


def _batch_schur_coeffs(params, T):
    return params.shape[0] * (T + 1)


def _schur_coeffs(gamma, truncation_order):
    return truncation_order + 1


#: Work counters read from a wrapped function's arguments.
_WORK = {
    "harness._batch_schur": _batch_schur_coeffs,
    "series.schur_from_parameters": _schur_coeffs,
}


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, child seconds]
        self._active: Counter = Counter()

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"bohrlab.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "bohrlab" and not modname.startswith("bohrlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans -------------------------------------------------------------
    def _wrap(self, name: str, fn):
        work = _WORK.get(name)
        signature = inspect.signature(fn) if work else None
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span = f"cli.main.{argv[0] if argv else 'none'}"
            elif work is not None:
                bound = signature.bind(*args, **kwargs)
                tracer.counts[f"{name}.coeffs"] += work(*bound.args, **bound.kwargs)
            elif name == "harness.evaluate_kind":
                if tracer._active["harness.empirical_radius"]:
                    tracer.counts["harness.empirical_radius.evals"] += 1
            elif name in _ROOT_FINDERS:
                if not any(tracer._active[f] for f in _ROOT_FINDERS):
                    tracer.counts["radii.roots"] += 1
            frame = [span, clock(), 0.0]
            tracer._stack.append(frame)
            tracer._active[span] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                tracer._stack.pop()
                tracer._active[span] -= 1
                rec = tracer.stats.get(span)
                if rec is None:
                    rec = tracer.stats[span] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += dur

        return wrapper

    # -- results -----------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, _NO_SPANS)[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, _NO_SPANS)[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, _NO_SPANS)[2]
