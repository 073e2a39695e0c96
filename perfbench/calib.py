"""Machine-speed calibration for timings taken on a shared machine.

Other tenants of a shared machine slow every process down for tens of
seconds at a time.  On the reference box (2 vCPUs, Python 3.11.7) one
`cyclocone pi1` process took 72 ms in one 10 s block and 109 ms in another,
and a fixed batch of `semisimplicity_report(3, 3, .)` calls 8.4 ms or
14.7 ms.  A fixed loop timed next to the work slows down with it: over
fifteen 10 s blocks the ratio of either to this calibration stayed within
about 8% of its median.

`calibration_s` times a fixed loop of the two kinds of work the program
does, small-integer arithmetic and exact rationals with tuple-keyed dicts.
It uses only the standard library, so no change to cyclocone can move it.
A time t taken between calibrations c0 and c1 is reported as
t * REFERENCE_S / mean(c0, c1): seconds at the speed the reference box has
when undisturbed.
"""

from __future__ import annotations

import time
from fractions import Fraction

# calibration_s() on the reference box when undisturbed.  Never change it:
# every recorded baseline is in these units.
REFERENCE_S = 0.0056


def calibration_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i % 7
    acc = Fraction(0)
    seen: dict[tuple[int, int], int] = {}
    for i in range(1, 600):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        key = (i % 13, i % 5)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor to reference speed for work timed between two calibrations."""
    return REFERENCE_S * 2 / (before + after)


def normalize(walls: list[float], cals: list[float]) -> list[float]:
    """Scale wall i by the calibrations taken just before and just after it.

    `cals` has one more entry than `walls`: cals[i] was taken before wall i
    and cals[i + 1] after it.
    """
    return [wall * scale(b, a) for wall, b, a in zip(walls, cals, cals[1:])]
