"""Host speed: a fixed reference loop, and timings scaled by it.

On a shared host, neighbours slow every instruction of the benchmark
for seconds to minutes at a time: the same operations ran 0.65x to 1.0x
as fast within one minute on a 2-core VM.  That swamps the changes the
benchmark exists to show.  So the timed loop runs ``reference()``
before every cycle of operations.  It is fixed numpy work, the same
whatever the seed and whatever the library does: small-array calls
through numpy's Python layer, as most of the library's calls are, and
the copy of a 3.2 MB array.  Its time tracks how fast the host runs at
that moment.  Under neighbour load both parts slowed about as much as
the library's operations did (log-log slope 0.84 to 1.1 over 1 s
windows); pure interpreter loops and small LAPACK calls slowed twice as
much, and are left out.

``scale`` multiplies each operation's wall-clock latency by
``NOMINAL_NS / reference time`` around it.  The scaled time is what the
operation would have taken on a host where the reference loop takes
``NOMINAL_NS``.  Set-up time is scaled the same way, by reference runs
made right after set-up in the same process.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SMALL_ROUNDS = 150
COPIES = 3
# About the median reference() time, between cycles of the workloads,
# on a quiet 2-core x86-64 VM (Python 3.11, numpy 2.4 with OpenBLAS, one
# thread).  It only sets the units: scaled times read as on that host.
NOMINAL_NS = 4.0e6
# Cycles on each side of a cycle whose reference times are pooled, so
# that one interrupted reference run does not set a cycle's scale.
HALF_WINDOW = 4

_X = np.random.default_rng(0).uniform(-1.0, 1.0, 20)
_POWERS = np.arange(8)
_BLOCK = np.ones(400_000)


def reference() -> int:
    """Run the reference loop once; return its wall-clock time in ns."""
    t0 = time.perf_counter_ns()
    for _ in range(SMALL_ROUNDS):
        w = (np.asarray(_X, float)[:, None] ** _POWERS).sum(axis=0)
        np.abs(w).max()
        np.concatenate([w, w])
    for _ in range(COPIES):
        _BLOCK.copy().sum()
    return time.perf_counter_ns() - t0


def factor(ref_ns) -> float:
    """NOMINAL_NS over the median of some reference times."""
    return NOMINAL_NS / statistics.median(ref_ns)


def factors(ref_ns) -> list:
    """Per cycle: the factor of the reference times around it."""
    return [factor(ref_ns[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1])
            for i in range(len(ref_ns))]


def scale(latencies_ns, ref_ns, cycle: int) -> list:
    """Latencies in ns, each scaled by the factor of its cycle."""
    f = factors(ref_ns)
    return [lat * f[i // cycle] for i, lat in enumerate(latencies_ns)]
