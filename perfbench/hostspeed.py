"""The host's current speed, measured by a fixed loop of interpreter work.

The shared host this benchmark was built on (2 vCPUs) runs the same call up
to ~1.8x slower for seconds to minutes at a time, so raw times of one code
version spread by 25-30% between runs. Every time the benchmark reports is
therefore taken between two calibration loops and scaled by
CALIBRATION_REF_S over their mean time. CALIBRATION_REF_S is the loop's time
on that host at full speed, so scaled times read as seconds there. Only the
host's speed cancels: the loop runs none of stratopt's code.
"""

from __future__ import annotations

import gc
import time

CALIBRATION_LOOPS = 50_000
CALIBRATION_REF_S = 0.0085


def calibrate() -> float:
    """Seconds for the calibration loop: float arithmetic, sums of ~1100-bit
    integers like the solver's cost units, and dict stores.

    The collector is off during the loop, so the program's live objects do
    not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        table = {}
        x = 1.0
        for k in range(CALIBRATION_LOOPS):
            x = x * 1.0000001 + 0.5
            acc += (k * 2654435761) << 1074
            table[k & 255] = x
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to reference-speed seconds, given the
    calibration times taken right before and right after the timed work."""
    return CALIBRATION_REF_S / ((before + after) / 2.0)
