"""CPU time expressed at a fixed reference speed.

The benchmark's host is shared: its CPU speed swings by up to 2x, both
from second to second (per-second medians of a 2000-round kernel ranged
0.88-1.59 ms on a 2-core machine) and within a few milliseconds. The
ratio between the program's work and a fixed big-integer kernel stays
steady (msm2 / kernel within about 2%, interquartile range over 60
one-second windows). So the meter times a short probe of that kernel,
which does not depend on the program, just before and just after each
timed operation, and scales the operation's CPU time by REFERENCE_S /
(mean of the two probes): the result is the operation's time on a machine
where one probe takes REFERENCE_S. Bracketing beat rolling windows: on a
fixed msm2 loop, p99/p50 of the scaled times was 1.19 with the two
adjacent probes, 1.46 with a median of the last nine, 1.49 unscaled.
"""

from __future__ import annotations

import statistics
import time

_PRIME = 2**224 - 2**96 + 1  # a 224-bit modulus, like the protocol's; fixed here on purpose
_ROUNDS = 400
REFERENCE_S = 0.00027  # median probe time on the 2-core machine of the README baseline


def _kernel() -> int:
    x = 0xB70E0CBD6BB4BF7F321390B94A03C1D356C21122343280D6115C1D21
    for _ in range(_ROUNDS):
        x = x * x % _PRIME
    return x


def _probe() -> float:
    t0 = time.thread_time()
    _kernel()
    return time.thread_time() - t0


class Meter:
    """Probes the machine's current speed and rescales CPU times to it."""

    def __init__(self):
        self.factors: list[float] = []
        self._before = _probe()

    def start(self) -> None:
        """Probe just before a timed operation."""
        self._before = _probe()

    def stop(self) -> float:
        """Probe just after it; return the factor from raw CPU to reference time."""
        factor = REFERENCE_S / ((self._before + _probe()) / 2)
        self.factors.append(factor)
        return factor

    def sample(self) -> None:
        """One probe between untimed steps, for set-up spans too long to bracket."""
        self.factors.append(REFERENCE_S / _probe())

    def median_factor(self, since: int = 0) -> float:
        return statistics.median(self.factors[since:])
