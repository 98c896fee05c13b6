"""Reference speed of the machine, sampled between requests.

A vCPU of a shared host runs the same pure-Python code up to 1.7x slower
for tens of seconds at a time, as its neighbours come and go.  The
benchmark therefore times, next to the requests, a fixed piece of
pure-Python work that touches nothing of the package (rational arithmetic,
and building and dropping a few MB of tuples, lists and rationals, as the
package's exact linear algebra and its tables do) and scales every time it
reports by ``NOMINAL_S / reference``: a time is reported at the speed at
which the reference takes ``NOMINAL_S``.  On a 2-vCPU Xeon VM, over 210 s
of alternating samples, the raw times of a cold A3 ``chow_presentation``
plus first ``schubert_product`` (caches cleared) and of a warm
``schubert_product`` loop moved by 25% and 27% between 10 s windows
(quartile distance over median), their ratios to this reference by 1% and
3%.

The raw times are printed on standard error next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: seconds the reference takes on a 2-vCPU Intel Xeon VM, Python 3.11, when
#: its neighbours are quiet; scaled times read as seconds at that speed
NOMINAL_S = 0.008
#: the smallest gap between two samples during a pass, in seconds
EVERY_S = 0.25


def reference() -> float:
    """Seconds the fixed reference work takes now.

    Half of it is arithmetic on small rationals and ints, half builds and
    drops a few MB of tuples, lists and rationals, as the package's tables
    do.  The cyclic garbage collector is off while it runs: the work frees
    all it allocates, and a collection started by its allocations would
    scan the caller's heap (tens of MB in a warm Schubert session) and
    charge that to the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 1500):
            acc += Fraction(i % 7 + 1, i % 11 + 2)
            table[(i, i % 13)] = acc.numerator % 1000
        rows = [[(a * b + table[(a + 1, (a + 1) % 13)]) % 97 for b in range(40)]
                for a in range(40)]
        big = {(i, i % 17): [Fraction(i, i % 5 + 1), i * i] for i in range(6000)}
        total = sum(big[(k, k % 17)][1] % 7 for k in range(0, 6000, 3))
        lists = [list(range(i % 50, i % 50 + 40)) for i in range(1500)]
        if sum(map(sum, rows)) + total + len(lists) < 0:
            raise AssertionError("unreachable")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Reference samples taken between the steps of a timed sequence.

    ``maybe(pos)`` takes a sample before step ``pos`` when ``EVERY_S`` has
    passed since the last one.
    """

    def __init__(self):
        self.samples: list[tuple[int, float]] = []   # (position, seconds)
        self.spent = 0.0
        self.last = -1e9

    def take(self, pos: int):
        t0 = time.perf_counter()
        self.samples.append((pos, reference()))
        self.last = time.perf_counter()
        self.spent += self.last - t0

    def maybe(self, pos: int):
        if time.perf_counter() - self.last >= EVERY_S:
            self.take(pos)


def factors(samples: list, positions, near: int = 8) -> dict:
    """Scale for each position: ``NOMINAL_S`` over the median of the
    ``near`` samples taken last before it and the ``near`` taken first
    after it (about 4 s of a pass)."""
    ordered = sorted(samples)
    out = {}
    for pos in positions:
        before = [s for p, s in ordered if p <= pos][-near:]
        after = [s for p, s in ordered if p > pos][:near]
        window = before + after or [s for _, s in ordered]
        out[pos] = NOMINAL_S / statistics.median(window)
    return out
