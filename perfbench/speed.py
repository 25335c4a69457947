"""Machine-speed probe: a fixed calibration kernel timed between the items of
a pass, so that the benchmark's timings can be scaled to one reference speed.

The benchmark runs on small shared machines whose speed moves with the load
other tenants put on the host: the same pass can take 1.7 times as long a few
minutes later, with CPU time equal to wall time.  A median over one run cannot
remove a change that lasts for the whole run, so every pass also times a
kernel after each item, for about ``SHARE`` of the item's time, and the
pass's timings are multiplied by the kernel's reference time over its mean
time in that pass.  The machine flips between a fast and a slow state many
times a second, and a pass slows in proportion to the share of its time spent
in the slow state; the mean of the samples follows that share, where their
median would jump from one state to the other.  The highest and lowest
``TRIM`` of the samples are left out of the mean, so that one stall in a
sample does not move it, and a first untimed sample after each item warms
the caches the item left cold.  The result reads as seconds on a machine on
which one kernel sample takes its reference time.

Each workload is calibrated with the kind of work it spends its time on,
since a change of state speeds the interpreter up more than a large LAPACK
eigensolve: ``interpreter`` does JSON decoding, dict and tuple bookkeeping,
sorting and tiny eigensolves; ``dense`` is one symmetric eigensolve of
dimension 300.  Neither touches the program, so a change to the program
moves the scaled timings as much as the raw ones.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from typing import Callable

import numpy as np

# Calibration time after an item, as a share of the item's time (at least
# one sample follows every item).
SHARE = 0.03
TRIM = 0.02

# Bound now, so that the layer wrappers of a traced run never see the kernel.
_eigvalsh = np.linalg.eigvalsh
_eigh = np.linalg.eigh
_TEXT = json.dumps({f"({i},{j})": [i * 0.5, j * 0.25] for i in range(12) for j in range(12)})
_RING = np.diag(np.arange(6.0)) + np.eye(6, k=1) + np.eye(6, k=-1)
_DENSE = np.random.default_rng(0).standard_normal((300, 300))
_DENSE = _DENSE + _DENSE.T


def interpreter_kernel() -> float:
    """One calibration sample; returns a value so that no step is dead code."""
    raw = json.loads(_TEXT)
    keys = list(raw)[:20]
    table = {(a, b): raw[a][0] * raw[b][1] for a in keys for b in keys}
    total = sum(v for _, v in sorted(table.items())[:10])
    counts: dict[int, int] = {}
    for i in range(1500):
        k = (i * 7) % 101
        counts[k] = counts.get(k, 0) + i
    points = [(i % 13, (i * 5) % 17) for i in range(400)]
    index = {p: n for n, p in enumerate(sorted(set(points)))}
    total += sum(index[p] for p in points) + len(counts)
    for _ in range(20):
        total += float(_eigvalsh(_RING)[0])
    return total


def dense_kernel() -> float:
    return float(_eigh(_DENSE)[0][0])


# Kernel and reference time per kind.  The references are about a sample's
# time on the 2-vCPU machine the benchmark was defined on, so that scaled
# timings are near its raw ones.
KERNELS: dict[str, tuple[Callable[[], float], float]] = {
    "interpreter": (interpreter_kernel, 1.2e-3),
    "dense": (dense_kernel, 11e-3),
}


class Probe:
    """Calibration samples of the current pass and the time they took."""

    def __init__(self, kind: str = "interpreter") -> None:
        self.kernel, self.reference_s = KERNELS[kind]
        self.enabled = True
        self.samples: list[float] = []
        self.spent_s = 0.0

    def follow(self, busy_s: float, at_least: int = 1) -> None:
        """Sample after an item that took ``busy_s`` seconds."""
        if not self.enabled:
            return
        start = time.perf_counter()
        # Untimed: the item may have left the caches cold, and how cold
        # depends on the program, which must not move the scale.
        self.kernel()
        for n in itertools.count(1):
            t0 = time.perf_counter()
            self.kernel()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            if n >= at_least and t1 - start >= SHARE * busy_s:
                break
        self.spent_s += time.perf_counter() - start

    def take(self) -> tuple[float, float, int]:
        """(scale, seconds spent sampling, sample count) since the last take;
        the scale turns this stretch's seconds into reference seconds."""
        ordered = sorted(self.samples)
        cut = int(TRIM * len(ordered))
        scale = self.reference_s / statistics.fmean(ordered[cut:len(ordered) - cut]) if ordered else 1.0
        out = (scale, self.spent_s, len(self.samples))
        self.samples, self.spent_s = [], 0.0
        return out
