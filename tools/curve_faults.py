"""Minor page faults and wall time of one 12,000-point ``curve_arrays`` call, as the ``sweep`` workload makes it.

Usage, from the root of a checkout (bykov is imported from its ``src/``)::

    python tools/curve_faults.py [CALLS]

Runs five warm-up calls on the dense config, then CALLS calls (default 500)
in ten batches, and prints the minor faults per call from
``resource.getrusage`` and the fastest and median batch's time per call.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bykov.params import load_saddle_params  # noqa: E402
from bykov.returncurve import curve_arrays  # noqa: E402


def main() -> None:
    calls = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    p = load_saddle_params(json.loads((ROOT / "perfbench" / "configs" / "dense_params.json").read_text()))
    # eight reversal periods at 1,500 points a period, as in the sweep workload
    s = p.eps * np.exp(-np.linspace(0.0, 8.0 * math.pi * p.E_v / p.alpha_v, 12_000))
    for _ in range(5):
        curve_arrays(0.3, s, p)
    batch = max(1, calls // 10)
    times = []
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        start = time.perf_counter()
        for _ in range(batch):
            curve_arrays(0.3, s, p)
        times.append((time.perf_counter() - start) / batch * 1e6)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(f"minor faults per call: {faults / (10 * batch):.2f}")
    print(f"us per call: fastest batch {min(times):.1f}, median batch {statistics.median(times):.1f}")


if __name__ == "__main__":
    main()
