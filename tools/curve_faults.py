"""Minor page faults per ``sweep`` op across heap layouts: whether glibc trims the heap after every op.

Usage, from the root of a checkout (bykov is imported from its ``src/``)::

    python tools/curve_faults.py

Runs real ``sweep`` ops (``perfbench/workloads.py``, seed 1), with the
reference loop of ``perfbench/calibrate.py`` between ops as
``perfbench/run.py`` runs them, in 24 fresh interpreters.  Each interpreter
first allocates a string of 0, 200, ..., 4,600 bytes, before it imports
numpy or bykov, so that each puts the heap in another layout, as
checkouts whose paths differ in length do.  After two warm-up passes it
counts the minor faults (``resource.getrusage``) of four passes of ten
ops.  Prints the faults per op for each shift, then the number of shifts
above 100 faults per op.  An op that leaves more free memory at the top of
the heap than glibc's dynamic trim threshold has the heap trimmed after
it, and the next op faults its pages back in: about 300 faults an op,
against under 10.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIFTS = range(0, 4_800, 200)
WARM_PASSES, PASSES = 2, 4
# a trimming layout faults about 300 times an op, a grown heap under 10
TRIM_FAULTS = 100
# the child's code: the shift's string comes before numpy, bykov and perfbench are imported
CHILD = "pad = 'x' * {shift}\nimport sys\nsys.path.insert(0, {tools!r})\nimport curve_faults\ncurve_faults.child()\n"


def child() -> None:
    """Print the minor faults per op of ``PASSES`` passes of seed-1 ``sweep`` ops, after ``WARM_PASSES``."""
    import resource
    import tempfile

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from calibrate import reference_s
    from tracing import NoTracer
    from workloads import Sweep

    tracer = NoTracer()

    def run_pass(k: int) -> int:
        ops = sweep.pass_ops(k)
        for op in ops:
            op.run(tracer)
            reference_s()
        return len(ops)

    with tempfile.TemporaryDirectory() as work_dir:
        sweep = Sweep(1, Path(work_dir))
        reference_s()
        for k in range(WARM_PASSES):
            run_pass(k)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        ops = sum(run_pass(k) for k in range(WARM_PASSES, WARM_PASSES + PASSES))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(faults / ops)


def main() -> None:
    trimmed = 0
    print("shift (bytes)  minor faults per sweep op")
    for shift in SHIFTS:
        code = CHILD.format(shift=shift, tools=str(ROOT / "tools"))
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True)
        per_op = float(out.stdout)
        trimmed += per_op > TRIM_FAULTS
        print(f"{shift:>13}  {per_op:.1f}")
    print(f"shifts above {TRIM_FAULTS} faults per op: {trimmed} of {len(SHIFTS)}")


if __name__ == "__main__":
    main()
