"""The fixed pure-Python probe that measures the host's current speed.

Stdlib only and imported after ``zeroreg.cli`` where import time is
measured, so it pre-loads nothing the package needs.
"""

import gc
import time
from fractions import Fraction

# the probe's duration on an unloaded 2-core Xeon (Python 3.11)
PROBE_REF_S = 0.0015


def probe() -> float:
    """Seconds the fixed probe takes now, garbage collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 400):
            acc += Fraction(i % 97, i % 13 + 1)
            table[i % 61] = table.get(i % 61, 0) + i * i
        return time.perf_counter() - start
    finally:
        gc.enable()
