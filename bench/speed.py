"""Times at reference speed.

The machine the benchmark runs on is shared, and its speed drifts by a
quarter or more within minutes; no run length averages that away. So a
fixed CPU probe runs between operations, and each operation's time is
multiplied by REFERENCE_PROBE_S over the mean of the probes taken around
it. One probe is short and lands in one of the machine's fast or slow
spells (neighbours differ by up to a half), while an operation spans
several; the mean of a few probes on either side estimates the speed the
operation saw without adding one probe's noise to it. Raw times are kept
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

PROBE_EVERY_S = 0.25  # operation time between two probes
PROBE_WINDOW = 4  # probes on either side of an operation whose mean scales it
REFERENCE_PROBE_S = 0.0065  # the probe's usual time where the baseline was recorded


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python mix of big-int and Fraction arithmetic.

    It uses no mpmath: in cli-cold the parent process must stay small (a
    child's peak RSS counts the parent that forks it), and the probe must
    not depend on anything a change to gbzeta can touch.
    """
    t0 = time.perf_counter()
    for _ in range(5):
        x = 1
        for k in range(1, 2000):
            x = (x * 3 + k) % (1 << 512)
        q = Fraction(0)
        for k in range(1, 300):
            q += Fraction(1, k * k)
    return time.perf_counter() - t0


def setup_probe(count: int = 5) -> float:
    """Mean of a few probes, for scaling one set-up sample."""
    return statistics.fmean(speed_probe() for _ in range(count))


class SpeedMeter:
    """Probes taken between operations, and the scale factor of each operation."""

    def __init__(self):
        self.probes = [speed_probe()]
        self._since = 0.0

    def after_op(self, latency: float) -> int:
        """Account for one op; return the index of the last probe before it."""
        before = len(self.probes) - 1
        self._since += latency
        if self._since >= PROBE_EVERY_S:
            self.probes.append(speed_probe())
            self._since = 0.0
        return before

    def close(self) -> None:
        """Take the probe that follows the last operation."""
        self.probes.append(speed_probe())

    def scale(self, before: int) -> float:
        """Factor for an op between probes `before` and `before + 1` (after close)."""
        near = self.probes[max(0, before + 1 - PROBE_WINDOW):before + 1 + PROBE_WINDOW]
        return REFERENCE_PROBE_S / statistics.fmean(near)
