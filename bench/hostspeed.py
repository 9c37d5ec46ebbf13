"""Host-speed calibration for timings taken on a shared, noisy machine.

On a host shared with other tenants, the speed of this process swings
between a fast and a slow state (up to 1.9x apart) within fractions of a
second, and CPU time swings with it, so neither wall nor CPU time of an
item can be compared across runs.  ``HostClock`` therefore times a fixed
block of plain Python (no smallvol code) right before every item, and
once more after the last.  Each item's time is reported multiplied by
``REFERENCE_S`` over the median of the ``WINDOW`` blocks around it
(three before it, three after it): that is, in seconds of a host on
which the block takes ``REFERENCE_S``.  A change to smallvol moves the
item times and not the block, so the scaling keeps every real
difference while it removes most of the swings.  The blocks run outside
the timed regions.

``setup_s`` spawns are scaled the same way, by blocks run in this process
just before and after each spawn.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

REFERENCE_S = 0.001  # block time in the fast state of a 2-CPU x86-64 host, Python 3.11
WINDOW = 3  # blocks on each side of an item


def _block_once() -> float:
    acc = 0.0
    rows = []
    for i in range(3000):
        row = (i * 0.5, i / 3.0, i % 7)
        rows.append(row)
        acc += math.sqrt(row[0] + 1.0) * row[1]
    sums = {}
    for a, b, c in rows:
        sums[c] = sums.get(c, 0.0) + a * b
    rows.sort(key=lambda row: -row[1])
    return acc + sum(sums.values())


def block_seconds() -> float:
    """Time one calibration block, with the collector held off so that
    garbage the measured code left behind does not bill it."""
    gc.disable()
    try:
        start = time.perf_counter()
        _block_once()
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostClock:
    def __init__(self):
        self.blocks = []

    def before_item(self) -> None:
        self.blocks.append(block_seconds())

    def finish(self) -> None:
        """One block after the last item, so that it too has one after it."""
        self.blocks.append(block_seconds())

    def scaled(self, times) -> list:
        """Item times in reference seconds; item i ran between blocks i
        and i + 1."""
        b = self.blocks
        return [t * REFERENCE_S / statistics.median(b[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
                for i, t in enumerate(times)]

    def speed(self) -> float:
        """Host speed over the run, relative to the reference host (for
        the record only; the scaling is local)."""
        return REFERENCE_S / statistics.median(self.blocks)
