"""The calibration probe: a fixed stdlib loop that runs no kcycle code.

On a shared host the CPU speed one process gets swings by half or more
within minutes (a busy neighbour on the same core), and a whole run can
sit in a fast or a slow stretch.  So the benchmark times this probe
between the spans it measures, in the same process, and scales each
measured time by ``PROBE_REF_S / mean probe time`` over the same
stretch: the figure reads as seconds on a host on which the probe takes
``PROBE_REF_S``.  The probe is pure-Python ``Fraction`` arithmetic, the
same kind of work kcycle does; no kcycle change can speed it up.
"""

from __future__ import annotations

import time
from fractions import Fraction

PROBE_REF_S = 0.010  # the probe's nominal time; calibrated figures are in these seconds


def probe() -> tuple:
    """(wall seconds, CPU seconds of this process) for one run of the loop."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 2001):
        acc = (acc + Fraction(i % 97, i % 89 + 1)) % 1
    return time.perf_counter() - wall0, time.process_time() - cpu0
