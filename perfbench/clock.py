"""Host time scaled by a reference loop, so load from other processes cancels.

The benchmark shares its machine with other work, and the speed of one
core drifts by a third over minutes.  Every timed region is therefore
bracketed by :func:`reference_s`, a fixed pure-Python loop shaped like
the simulator's hot path (integer arithmetic, an LRU ``OrderedDict``
over a key space large enough to miss in the processor's caches, as
the cache directories do), and reported in *reference-scaled seconds*: measured seconds times
``NOMINAL_REF_S`` over the reference loop's time next to the region.  A change
that makes the program slower still slows the scaled time by the same
factor; a slower machine slows the loop too and cancels out.
"""

from __future__ import annotations

import gc
import time
from collections import OrderedDict
from collections.abc import Callable
from typing import TypeVar

T = TypeVar("T")

#: The reference loop's time, in seconds, on one core of a quiet 2-core
#: x86-64 sandbox: the speed scaled times are quoted at.
NOMINAL_REF_S = 0.050

_REF_STEPS = 60_000
_REF_KEYS = 1 << 17


def reference_s() -> float:
    """Run the reference loop once; returns its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        lru: OrderedDict[int, int] = OrderedDict()
        x = 12345
        for _ in range(_REF_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = (x >> 4) % _REF_KEYS
            if key in lru:
                lru.move_to_end(key)
            else:
                lru[key] = x
                if len(lru) > _REF_KEYS // 2:
                    lru.popitem(last=False)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def timed(fn: Callable[[], T],
          scaled: bool = False) -> tuple[T, float, float]:
    """``(fn(), measured seconds, scaled seconds)``.

    With ``scaled``, the reference loop runs just before and just after
    ``fn``, and the scaled time is the measured time times
    ``NOMINAL_REF_S`` over the faster of those two reference runs (the
    one less disturbed by other load); otherwise both times are equal.
    """
    before = reference_s() if scaled else 0.0
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    if not scaled:
        return result, elapsed, elapsed
    ref = min(before, reference_s())
    return result, elapsed, elapsed * NOMINAL_REF_S / ref
