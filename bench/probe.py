"""Host-speed probe: a fixed kernel timed between a workload's ops.

The speed of a shared host changes by up to 1.7x over seconds to minutes as
other tenants load it, and CPU time moves with wall time, so a run's raw
times depend on how much of the run fell into a slow spell.  The probe
measures those spells.  It is a fixed kernel of the same kind of work as the
workload, written here, so no change to bohrlab can make it faster or
slower.  ``run.py`` times it every ``PERIOD_S`` between ops, outside the
ops' timed regions, and divides each op's time by the median of the probe
samples taken around that op (:func:`normalise`).  Multiplied by the
kernel's reference time, the result is the op's time at the speed the host
had when the reference was taken.

Two kernels cover the workloads:

* ``calls``: interpreter work and numpy calls on 64-element arrays, the mix
  of root isolation and the scalar CLI path (``radii``, ``verify``);
* ``arrays``: one step of a Schur-type recurrence on a 10,000 x 48 complex
  array (allocation, a shifted copy, a broadcast product), the memory-bound
  mix of the batch Schur recurrence (``campaign``).

``setup_s`` is scaled the same way with the ``calls`` kernel, sampled
between the fresh processes that measure it: importing is interpreter work.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Seconds of op time between probe samples.
PERIOD_S = 0.02
#: At most this many samples after one long op.
BURST = 5
#: Samples on each side of an op that set its speed factor.
WINDOW = 5

#: Median kernel time on the baseline host (2 vCPUs, see README.md).
REFERENCE_S = {"calls": 0.17e-3, "arrays": 7.5e-3}
WORKLOAD_KERNEL = {"campaign": "arrays", "radii": "calls", "verify": "calls"}


class Probe:
    """One fixed kernel, timed on demand."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.reference_s = REFERENCE_S[kernel]
        if kernel == "calls":
            self._small = np.linspace(0.1, 0.9, 64)
            self._run = self._calls
        else:
            self._rows = np.exp(1j * np.linspace(0.0, 6.0, 10_000 * 48)).reshape(10_000, 48)
            self._column = 0.3 * np.exp(1j * np.linspace(0.0, 1.0, 10_000))[:, None]
            self._run = self._arrays
        for _ in range(20):  # first calls allocate; keep them out of the samples
            self._run()

    def _calls(self) -> float:
        acc, last = 0.0, {}
        for i in range(300):
            acc += math.sin(i * 0.01) * 1.0001
            last[i & 31] = acc
        x = self._small
        for _ in range(20):
            x = np.cos(x) * 0.5 + self._small
        return acc + float(x.sum())

    def _arrays(self) -> float:
        # One step of a Schur-type recurrence: fresh arrays, a shifted copy
        # and a column-broadcast product over every row.
        rows = self._rows
        shifted = np.zeros_like(rows)
        shifted[:, 1:] = rows[:, :-1]
        return float(abs((self._column * rows + 0.5 * shifted)[0, 0]))

    def sample(self) -> float:
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start


def normalise(times: list[float], samples: list[tuple[int, float]],
              reference_s: float) -> list[float]:
    """Each op time at reference speed.

    ``samples`` holds ``(i, seconds)`` pairs in pass order: a probe sample
    taken right after op ``i`` (``i = -1`` before the first op).  Op ``i`` is
    scaled by the median of the ``WINDOW`` samples before it and the
    ``WINDOW`` after it.
    """
    positions = [i for i, _ in samples]
    seconds = [s for _, s in samples]
    # Index of the first sample taken after each op.
    afters = np.searchsorted(positions, np.arange(len(times)))
    return [t * reference_s / statistics.median(seconds[max(0, a - WINDOW): a + WINDOW])
            for t, a in zip(times, afters.tolist())]
