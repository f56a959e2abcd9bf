"""Benchmark of the bykov toolkit: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; bykov is imported from ``src/`` of that
checkout and nowhere else.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it runs every op of
a fixed number of passes once untraced and once with spans on, and reports
the per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the metrics
that BENCHMARK.json names.  A result file with provenance, every metric,
every failure and (for traced runs) the spans goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up is sampled in fresh interpreters, some before the timed body and
# some after it, so that the median spans the run's changes in machine speed
PROBES_BEFORE, PROBES_AFTER = 2, 3
# a run on a much slower machine stops early rather than overrun its time limit
MAX_STRETCH = 4
WAIT_NOTE = "no queues or waiting: one process runs one op at a time, so no layer reports a wait time"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "horseshoe", "flow", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_bykov():
    """Import the workloads, with bykov taken from this checkout's src/ only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import bykov
    import workloads

    if Path(bykov.__file__).resolve().parent != (src / "bykov").resolve():
        raise SystemExit(f"error: bykov was imported from {bykov.__file__}, not from {src}")
    return workloads


def setup_probe_time(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its first timed op: (wall clock, at reference speed)."""
    from calibrate import at_reference_speed, reference_s

    before = reference_s()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("error: set-up probe did not exit")
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return ready, at_reference_speed(ready, before, reference_s())


def run_op(op, tracer, records: list) -> float:
    """Run one op, appending (kind, latency, failures); returns the latency in seconds."""
    with tracer.op(len(records), op.kind):
        t0 = time.perf_counter()
        try:
            failures = op.run(tracer)
        except Exception as exc:  # a failed op must not stop the run
            failures = [("exception", f"op raised {type(exc).__name__}: {exc}")]
        latency = time.perf_counter() - t0
    records.append((op.kind, latency, failures))
    return latency


def run_passes(args, wl) -> int:
    """Passes in a run: ``--seconds`` at the workload's pass rate at the seed commit.

    The count depends only on ``--seconds`` and the workload, never on how
    fast the program or the machine is, so a seed always runs the same ops
    and the same ones fail.
    """
    return max(1, round(args.seconds * wl.PASSES_PER_S))


def end_to_end(args, wl, bench, setup_samples, lines, result):
    """Untraced run of a fixed number of passes; returns (records, values, metric specs).

    The reference loop of calibrate.py runs before the first op and after
    every op, so each op's latency can be put at reference speed with the
    loop's times on either side of it.  ``ops_per_s`` is the ops of a pass
    over the median pass time at reference speed; every pass has the same
    mix of ops.  ``wall_ops_per_s`` is the plain rate by the wall clock.
    """
    from calibrate import REFERENCE_S, at_reference_speed, reference_s
    from tracing import NoTracer

    tracer = NoTracer()
    records: list = []
    passes = run_passes(args, wl)
    pass_s: list[float] = []
    pass_ref_s: list[float] = []
    refs = [reference_s()]
    started = time.perf_counter()
    for k in range(passes):
        wall = scaled = 0.0
        for op in wl.pass_ops(k):
            latency = run_op(op, tracer, records)
            refs.append(reference_s())
            wall += latency
            scaled += at_reference_speed(latency, refs[-2], refs[-1])
        pass_s.append(wall)
        pass_ref_s.append(scaled)
        if time.perf_counter() - started > MAX_STRETCH * args.seconds:
            lines.append(f"  stopped after {k + 1} of {passes} passes: the run took {MAX_STRETCH}x --seconds")
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples += [setup_probe_time(args) for _ in range(PROBES_AFTER)]
    latencies_ms = [latency * 1e3 for _, latency, _ in records]
    n_ops = len(records)
    per_pass = n_ops / len(pass_s)
    failed = sum(1 for _, _, failures in records if failures)
    values = {
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        "ops_per_s": per_pass / statistics.median(pass_ref_s),
        "peak_rss_mb": peak_rss_mb,
        "wall_setup_s": statistics.median(wall for wall, _ in setup_samples),
        "wall_ops_per_s": n_ops / sum(pass_s),
        "reference_ms": statistics.median(refs) * 1e3,
        "op_p50_ms": statistics.median(latencies_ms),
        "fail_ratio": failed / n_ops,
    }
    samples = {
        "setup_s": f"median of {len(setup_samples)} set-ups in fresh interpreters, at reference speed",
        "ops_per_s": f"{n_ops} ops in {len(pass_s)} passes, median pass at reference speed",
        "peak_rss_mb": "getrusage of this process",
        "wall_setup_s": "the same set-ups by the wall clock",
        "wall_ops_per_s": f"{n_ops} ops in {sum(pass_s):.2f} s by the wall clock",
        "reference_ms": f"median of {len(refs)} runs of the reference loop; {REFERENCE_S * 1e3:g} ms is reference speed",
        "op_p50_ms": f"n = {n_ops}, wall clock",
        "fail_ratio": f"{failed} of {n_ops} ops attempted",
    }
    rows = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    rows += [("wall_setup_s", "s"), ("wall_ops_per_s", "1/s"), ("reference_ms", "ms"), ("op_p50_ms", "ms")]
    # the 90th percentile needs >= 100 ops, so that 10 lie beyond it
    if n_ops >= 100:
        values["op_p90_ms"] = percentile(latencies_ms, 90)
        samples["op_p90_ms"] = f"n = {n_ops}, wall clock"
        rows.append(("op_p90_ms", "ms"))
    rows.append(("fail_ratio", "ratio"))
    for name, unit in rows:
        lines.append(f"  {name:<14} {values[name]:>12.6g} {unit:<6} ({samples[name]})")
    result["setup_samples_s"] = [{"wall": wall, "at_reference_speed": scaled} for wall, scaled in setup_samples]
    result["latencies_ms"] = latencies_ms
    result["pass_s"] = pass_s
    result["pass_at_reference_speed_s"] = pass_ref_s
    result["reference_s"] = refs
    return records, values, bench["end_to_end"]


def per_layer(args, wl, workloads, bench, lines, result):
    """Each op of half the passes of an untraced run runs once untraced, then once traced.

    The tracing overhead is the median over ops of traced / untraced
    latency - 1; pairing each op with itself keeps drift in machine speed
    out of it.
    """
    from tracing import NoTracer, Tracer

    passes = max(1, run_passes(args, wl) // 2)
    untraced, tracer = NoTracer(), Tracer()
    records: list = []
    ratios = []
    for k in range(passes):
        for op in wl.pass_ops(k):
            plain = run_op(op, untraced, records)
            ratios.append(run_op(op, tracer, records) / plain)
    values = workloads.layer_metrics(tracer)
    values["trace.overhead_ratio"] = statistics.median(ratios) - 1.0
    lines.append(f"  {passes} passes, {len(ratios)} ops, each run untraced and then traced: "
                 f"tracing overhead {values['trace.overhead_ratio']:+.2%} (median over ops)")
    for m in bench["per_layer"]:
        lines.append(f"  {m['name']:<50} {values[m['name']]:>12.6g} {m['unit']}")
    result["spans"] = [{"name": n, "start": s, "end": e, "parent": p, "op": o} for n, s, e, p, o in tracer.spans]
    return records, values, bench["per_layer"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def provenance(args) -> dict:
    info = {
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_revision": None,
        "git_dirty": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30)
            if rev.returncode == 0:
                info["git_revision"] = rev.stdout.strip()
                info["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def summarise_failures(records, known: dict) -> tuple[int, int, list[dict]]:
    """(failed ops, failed ops with an unexpected reason, one entry per failed op)."""
    listed = []
    unexpected = 0
    for op_id, (kind, _, failures) in enumerate(records):
        if failures:
            codes = {code for code, _ in failures}
            unexpected += not codes <= known.keys()
            listed.append({"op": op_id, "kind": kind, "reasons": [{"code": c, "message": m} for c, m in failures]})
    return len(listed), unexpected, listed


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in THREAD_VARS:
        os.environ[name] = "1"
    if not (ROOT / "src" / "bykov" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'bykov'} not found; run from the root of a bykov checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    probes = 0 if args.setup_probe or args.trace else PROBES_BEFORE
    setup_samples = [setup_probe_time(args) for _ in range(probes)]

    workloads = load_bykov()
    from tracing import NoTracer

    work_dir = HERE / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        wl.pass_ops(0)[0].run(NoTracer())
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return measure(args, bench, setup_samples, workloads, wl)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()


def measure(args, bench, setup_samples, workloads, wl) -> int:
    result: dict = {"provenance": provenance(args), "wait": WAIT_NOTE}
    lines = [f"bykov benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    if args.trace:
        records, values, wanted = per_layer(args, wl, workloads, bench, lines, result)
    else:
        records, values, wanted = end_to_end(args, wl, bench, setup_samples, lines, result)

    failed, unexpected, listed = summarise_failures(records, workloads.KNOWN_DEFECTS)
    lines.append(f"  failed ops: {failed} of {len(records)} ({unexpected} with an unexpected reason)")
    for code, what in workloads.KNOWN_DEFECTS.items():
        hits = sum(1 for entry in listed if any(r["code"] == code for r in entry["reasons"]))
        if hits:
            lines.append(f"    {hits} x {code}: {what}")
    for entry in listed[:5]:
        lines.append(f"    op {entry['op']} ({entry['kind']}): {entry['reasons'][0]['message']}")
    lines.append(f"  {WAIT_NOTE}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report = {"correct": unexpected == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    result.update({"values": values, "failures": listed, "report": report})
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    lines.append(f"  result file: {out.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
