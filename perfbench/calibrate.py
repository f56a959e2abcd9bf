"""A fixed reference loop that measures how fast the machine is right now.

On a shared host, other tenants slow the benchmark process by up to 1.6x
for stretches of seconds to minutes.  The loop below runs between the ops
of a timed run; an op's latency divided by the loop's time around it is
the op's cost in *reference units*, which such stretches change far less
than the latency itself.  The loop uses only numpy and plain Python, never
bykov, so no change to the program can move it.  It mixes array
arithmetic with a scalar Python loop, as the workloads do.
"""

from __future__ import annotations

import time

import numpy as np

# about the loop's time on the 2-vCPU host the benchmark was tuned on
REFERENCE_S = 0.004

_X = np.linspace(0.0, 10.0, 8192)


def reference_s() -> float:
    """Seconds one run of the reference loop takes now (a few ms)."""
    started = time.perf_counter()
    acc = 0.0
    for i in range(16):
        y = np.exp(-0.01 * i * _X) * np.cos(2.0 * _X + i)
        acc += float(np.sort(y)[-1])
        for v in y[:1500].tolist():
            acc += v * 0.5 if v > 0.0 else -v
    if not np.isfinite(acc):
        raise ArithmeticError("reference loop lost its result")
    return time.perf_counter() - started


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` timed between two runs of the loop that took ``before`` and ``after``."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
