"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

Each ``cmd_*`` loads its config, computes and replays its ``--verify``
checks, then returns ``(file_name, content, diagnostics)``; ``_run`` writes
that one artifact and its manifest.  A ``.json`` artifact is the command's
result object as it is, a result dataclass written as its fields in
declaration order (``dataclasses.asdict``), with ``indent=2``, and echoed
to stdout once it and the manifest are written; a ``.csv`` artifact is an
iterator of rows, each formatted as it is written, and is not echoed.
Every file is written to a temporary file that replaces the target only
once complete.  Nothing is written or echoed unless the command and its
checks succeed, so a failed ``--verify`` leaves no files.

Exit codes: 0 success, 1 invariant violation under --verify, 2 usage or
config error.  Data files carry no timestamps, so identical inputs produce
byte-identical output; run metadata (including wall-clock) goes to the
manifest instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .flow import (
    DWELL_DISCARD,
    SAMPLE_SPACING,
    boundary_residual,
    chirality_check,
    integrate,
    invariant_subspace_residuals,
    load_model_config,
    sojourn_analysis,
    sphere_residual,
)
from .horseshoe import (
    build_strips,
    find_multipulse,
    jacobian_report,
    return_jacobian,
    strip_family_violations,
    strip_image_report,
)
from .oracles import OnManifoldError, eta_composed, replay_pulse, return_jacobian_fd, turning_range_grid
from .params import ParameterError, classify_region, load_saddle_params
from .returncurve import curve_arrays, find_tangency, reversal_sequence

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

CURVE_HEADER = "s,t,phi,x_w,x_w_mod_2pi,y_w,dxw_ds"
STRIPS_HEADER = "n,t,a_n,b_n"
JACOBIAN_HEADER = "x,y,det,trace,class"
TRAJ_HEADER = "t,x1,x2,x3,x4,r2"


class VerifyFailure(RuntimeError):
    """An invariant replay failed under --verify."""


def _atomic_write(path: Path, lines) -> None:
    """Write ``lines``, each ended by a newline, into a temporary file that then replaces ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value: float) -> str:
    return repr(float(value))


def _cell(value) -> str:
    return value if isinstance(value, str) else str(value) if isinstance(value, int) else _fmt(value)


def _csv(header: str, *columns):
    """Rows of a CSV artifact, lazily: strings and ints as they are, floats through :func:`_fmt`."""
    yield header
    for row in zip(*columns):
        yield ",".join(map(_cell, row))


def _too_deep(args, s: float, exc: OnManifoldError) -> ParameterError:
    """The --verify oracle cannot represent the point at s: a field-level refusal."""
    return ParameterError(f"s_min={args.s_min} is too deep for --verify: the oracle cannot represent s={_fmt(s)}: {exc}")


def cmd_classify(args):
    p = load_saddle_params(args.config)
    region = classify_region(p)
    doc = {**vars(region), "constants": p.constants}
    if args.verify:
        # the grid must stay inside the closed-form range and reach both ends
        # to within its spacing error (< 5e-10 R, see bykov.oracles)
        lo, hi = turning_range_grid(p)
        scale = max(1.0, abs(region.a_min), abs(region.a_max))
        if lo < region.a_min - 1e-12 * scale or hi > region.a_max + 1e-12 * scale:
            raise VerifyFailure("turning-function grid leaves the closed-form extrema")
        if lo - region.a_min > 1e-9 * scale or region.a_max - hi > 1e-9 * scale:
            raise VerifyFailure("turning-function grid falls short of the closed-form extrema")
    return "region.json", doc, {"tag": region.tag}


def cmd_curve(args):
    p = load_saddle_params(args.config)
    if not (0.0 < args.s_min < args.s_max <= p.eps):
        raise ParameterError(
            f"need 0 < s_min < s_max <= eps, got s_min={args.s_min}, s_max={args.s_max}, eps={p.eps}"
        )
    if args.n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {args.n_samples}")
    if args.n_samples == 1:
        s_values = np.array([args.s_min])
    else:
        s_values = np.geomspace(args.s_min, args.s_max, args.n_samples)
    phi, x_w, y_w, dxw_ds = curve_arrays(args.t, s_values, p)
    deep = np.flatnonzero(~np.isfinite(dxw_ds))
    if deep.size:
        raise ParameterError(f"s_min={args.s_min} is too deep: dxw_ds overflows at s={_fmt(s_values[deep[0]])}")
    rows = _csv(CURVE_HEADER, s_values, [args.t] * len(s_values), phi, x_w, x_w % (2 * math.pi), y_w, dxw_ds)
    if args.verify:
        for s, x, y in zip(s_values.tolist(), x_w.tolist(), y_w.tolist()):
            try:
                x_c, y_c = eta_composed(args.t, s, p)
            except OnManifoldError as exc:
                raise _too_deep(args, s, exc) from exc
            y_ok = abs(y_c) < 1e-250 or abs(y / y_c - 1.0) < 1e-9
            if abs(x - x_c) > 1e-9 or not y_ok:
                raise VerifyFailure(f"curve row at s={s} disagrees with the composition oracle")
    return "curve.csv", rows, {"n_samples": args.n_samples}


def cmd_reversals(args):
    p = load_saddle_params(args.config)
    seq = reversal_sequence(args.t, args.n_max, p)
    columns = (seq.s_values, seq.log_s_values, seq.phi_values, seq.x_values, seq.x_values % (2 * math.pi))
    rows = _csv("n,s,log_s,phi,x_w,x_w_mod_2pi,kind", range(len(seq)), *columns, seq.kinds)
    if args.verify and len(seq) >= 3:
        period = math.exp(-math.pi / p.constants.g_v)
        s = seq.s_values
        if np.any((s[2:] > 0) & (np.abs(s[2:] / s[:-2] / period - 1.0) > 1e-10)):
            raise VerifyFailure("period ratio s_{n+2}/s_n violated")
        # the heights descend, so those above 1e-280 are a prefix
        s = seq.s_values[:32]
        s = s[s > 1e-280]
        bad = np.flatnonzero(np.abs(curve_arrays(args.t, s, p)[3]) > 1e-8 / s)
        if bad.size:
            raise VerifyFailure(f"nonzero turning derivative at reversal {bad[0]}")
    return "reversals.csv", rows, {"count": len(seq), "reason": seq.reason}


def cmd_tangency(args):
    p = load_saddle_params(args.config)
    report = find_tangency(args.x0, args.t, args.n_max, p)
    if args.verify:
        history = report.history
        if any(b[1] > a[1] for a, b in zip(history, history[1:])):
            raise VerifyFailure("running minimum distance is not non-increasing")
    return "tangency.json", report, {"amplitude": report.amplitude}


def cmd_strips(args):
    p = load_saddle_params(args.config)
    family = build_strips(args.tau, args.n_limit, p)
    strips = family.strips
    index = [strip.index for strip in strips for _ in strip.t_grid]
    t, a, b = ([v for strip in strips for v in getattr(strip, name)] for name in ("t_grid", "a_of_t", "b_of_t"))
    rows = _csv(STRIPS_HEADER, index, t, a, b)
    diagnostics = {
        "case": family.case,
        "tau": family.tau,
        "count": len(family),
        "notes": list(family.notes),
    }
    if args.verify:
        violations = strip_family_violations(family, p)
        if violations:
            raise VerifyFailure("; ".join(violations[:5]))
        images = strip_image_report(family, p)
        bad = [r for r in images if not (r["spans_vertically"] and r["within_width"])]
        if bad:
            raise VerifyFailure(f"strip image fails to stand across the rectangle: {bad[0]}")
        diagnostics["image_checks"] = len(images)
    return "strips.csv", rows, diagnostics


def cmd_jacobian(args):
    p = load_saddle_params(args.config)
    if args.k_min > args.k_max:
        raise ParameterError(f"need k_min <= k_max, got k_min={args.k_min}, k_max={args.k_max}")
    p.constants  # a config error surfaces here, not as a height of the sweep
    reports = []
    worst_miss = 0.0
    for kk in range(args.k_min, args.k_max + 1):
        y = 2.0**-kk
        if y > p.eps:
            continue
        try:
            rep = jacobian_report(args.x, y, p)
        except ValueError as exc:
            raise ParameterError(f"k_max={args.k_max} is too deep at k={kk}: {exc}") from exc
        if args.verify:
            # the exact Jacobian against Richardson differences of the
            # elementary-map composition
            fd, gap = return_jacobian_fd(args.x, y, p)
            scale = max(abs(float(np.linalg.det(fd))), abs(float(np.trace(fd))), 1.0)
            if gap > 1e-4 * scale:
                raise VerifyFailure(f"finite-difference stencil not converged at y={y}: gap {gap}")
            miss = float(np.max(np.abs(return_jacobian(args.x, y, p) - fd)) / max(1.0, np.max(np.abs(fd))))
            if miss > 1e-5:
                raise VerifyFailure(f"Jacobian misses the finite-difference oracle at y={y}: {miss:.3g} relative")
            worst_miss = max(worst_miss, miss)
        reports.append((rep.x, rep.y, rep.det, rep.trace, rep.eigen_class))
    rows = _csv(JACOBIAN_HEADER, *zip(*reports))
    diagnostics: dict = {"count": len(reports)}
    if args.verify:
        diagnostics["oracle_rel_error"] = worst_miss
    return "jacobian.csv", rows, diagnostics


def cmd_multipulse(args):
    p = load_saddle_params(args.config)
    if (args.s_min is None) != (args.s_max is None):
        raise ParameterError("--s-min and --s-max must be given together")
    window = (args.s_min, args.s_max) if args.s_min is not None else None
    points = find_multipulse(args.n, p, x0=args.x0, s_window=window)
    if args.verify:
        for pt in points:
            try:
                replay = replay_pulse(pt.s, pt.n, p, x0=args.x0)
            except OnManifoldError as exc:
                raise _too_deep(args, pt.s, exc) from exc
            if replay.residual > 1e-8:
                raise VerifyFailure(f"pulse replay misses the trace by {replay.residual}")
    return "multipulse.json", points, {"count": len(points)}


def _simulate(args):
    config = load_model_config(args.config)
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError:
        x0 = []
    if len(x0) != config.dim or not all(map(math.isfinite, x0)):
        raise ParameterError(f"--x0 must be {config.dim} finite comma-separated numbers, got {args.x0!r}")
    series = integrate(x0, T=args.T, rtol=args.rtol, atol=args.atol, config=config)
    return config, series


def _traj_header(config) -> str:
    return TRAJ_HEADER if config.dim == 4 else "t,x,y,z,r2"


def _collapse(series, config) -> dict | None:
    """Where the orbit fell exactly onto a coordinate subspace, named by its CSV column."""
    if series.collapse is None:
        return None
    j, t = series.collapse
    return {"coordinate": _traj_header(config).split(",")[j + 1], "t": t}


def _run_counts(series) -> dict:
    """Samples, vector-field evaluations and the smallest nonzero |coordinate| of a run."""
    magnitude = np.abs(series.states)
    nonzero = magnitude > 0.0
    return {
        "samples": len(series.times),
        # k1 once, then stages 2 to 7 of each attempted step: an accepted
        # step's stage 7 is the next step's k1
        "rhs_calls": 1 + 6 * (series.accepted + series.rejected),
        "floor_abs": float(np.min(magnitude, where=nonzero, initial=math.inf)) if nonzero.any() else None,
    }


def cmd_simulate(args):
    config, series = _simulate(args)
    # one row at a time, formatted as it is written: a nested list of the
    # whole table, or its text, would add to the peak memory of the run
    table = np.column_stack([series.times, series.states, series.r2()])
    rows = itertools.chain(
        [_traj_header(config)], (",".join(map(repr, row)) for row in map(np.ndarray.tolist, table))
    )
    diagnostics: dict = {
        "accepted": series.accepted,
        "rejected": series.rejected,
        "max_error_estimate": series.max_error_estimate,
        "failure": series.failure,
        "collapse": _collapse(series, config),
        **_run_counts(series),
    }
    if config.dim == 4:
        diagnostics["sphere_residual"] = sphere_residual(series)
        diagnostics["chirality"] = chirality_check(config, series).verdict
    if args.verify:
        if series.failure is not None:
            raise VerifyFailure(series.failure)
        if config.dim == 4 and config.lam == 0.0 and series.states[0][2] == 0.0:
            resid = invariant_subspace_residuals(series, config)["x3=0"]
            diagnostics["x3_residual"] = resid
            if resid > 1e-12:
                raise VerifyFailure(f"x3 = 0 subspace drift {resid}")
        spacing = float(np.max(np.linalg.norm(np.diff(series.states, axis=0), axis=1)))
        if spacing > SAMPLE_SPACING:
            raise VerifyFailure(f"sample spacing {spacing} exceeds {SAMPLE_SPACING}")
    return "trajectory.csv", rows, diagnostics


def cmd_sojourn(args):
    # the poles are 2 apart: above 1 their neighbourhoods overlap
    if not 0.0 < args.radius <= 1.0:
        raise ParameterError(f"--radius must be > 0 and <= 1, got {args.radius}")
    config, series = _simulate(args)
    collapse = _collapse(series, config)
    if args.verify:
        # checked before the analysis, whose refusal of a short run exits 2
        if series.failure is not None:
            raise VerifyFailure(series.failure)
        if collapse is not None:
            raise VerifyFailure(f"{collapse['coordinate']} collapsed to 0.0 at t={collapse['t']}")
    report = sojourn_analysis(series, neighborhood_radius=args.radius)
    diagnostics = {
        "accepted": series.accepted,
        "rejected": series.rejected,
        "median_ratio": report.median_ratio,
        "collapse": collapse,
        **_run_counts(series),
    }
    if args.verify:
        if len(report.dwells) < DWELL_DISCARD + 2:
            raise VerifyFailure(f"{len(report.dwells)} complete dwells, need {DWELL_DISCARD + 2}")
        residual = diagnostics["boundary_residual"] = boundary_residual(series, report, args.radius)
        if residual > SAMPLE_SPACING**2 / args.radius:
            raise VerifyFailure(f"a dwell boundary is off the radius sphere by {residual}")
    return "sojourn.json", report, diagnostics


def _run(args) -> int:
    """Run ``args.fn``; write its artifact and manifest atomically, echoing a JSON artifact."""
    started = time.monotonic()
    # nan passes no comparison, so it slips through every range check
    # written as one; inf would run a search or a horizon without end
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"--{name.replace('_', '-')} must be finite, got {value}")
    name, content, diagnostics = args.fn(args)
    echo = name.endswith(".json")
    if echo:
        content = [json.dumps(content, indent=2, default=dataclasses.asdict)]
    out_dir = Path(args.out)
    path = out_dir / name
    _atomic_write(path, content)
    # the manifest is strict JSON: a non-finite diagnostic is null there,
    # and its value is spelled out under "non_finite"
    non_finite = {
        key: repr(value) for key, value in diagnostics.items() if isinstance(value, float) and not math.isfinite(value)
    }
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "config_digest": hashlib.sha256(Path(args.config).read_bytes()).hexdigest(),
        "tolerances": {"rtol": getattr(args, "rtol", None), "atol": getattr(args, "atol", None)},
        "outputs": [str(path)],
        "wall_clock_s": time.monotonic() - started,
        "diagnostics": {key: None if key in non_finite else value for key, value in diagnostics.items()},
        "non_finite": non_finite,
    }
    _atomic_write(out_dir / f"{args.command}_manifest.json", [json.dumps(manifest, indent=2, allow_nan=False)])
    if echo:
        print(content[0])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bykov",
        description="Numerics near a Bykov heteroclinic cycle with nodes of different chirality",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON parameter file")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument("--verify", action="store_true", help="replay invariants, exit 1 on failure")

    sp = sub.add_parser("classify", help="region classification of a parameter point")
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("curve", help="exit-curve samples as CSV")
    common(sp)
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--s-min", type=float, required=True)
    sp.add_argument("--s-max", type=float, required=True)
    sp.add_argument("--n-samples", type=int, default=200)
    sp.set_defaults(fn=cmd_curve)

    sp = sub.add_parser("reversals", help="turning points of the exit curve")
    common(sp)
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--n-max", type=int, default=10**4)
    sp.set_defaults(fn=cmd_reversals)

    sp = sub.add_parser("tangency", help="nearest reversal and tangency-creating bump")
    common(sp)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--n-max", type=int, default=10**4)
    sp.set_defaults(fn=cmd_tangency)

    sp = sub.add_parser("strips", help="horizontal strip construction")
    common(sp)
    sp.add_argument("--tau", type=float, default=0.4)
    sp.add_argument("--n-limit", type=int, default=5)
    sp.set_defaults(fn=cmd_strips)

    sp = sub.add_parser("jacobian", help="return-map derivative sweep along y = 2^-k")
    common(sp)
    sp.add_argument("--x", type=float, default=0.1)
    sp.add_argument("--k-min", type=int, default=4)
    sp.add_argument("--k-max", type=int, default=20)
    sp.set_defaults(fn=cmd_jacobian)

    sp = sub.add_parser("multipulse", help="n-pulse connection search")
    common(sp)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--s-min", type=float, default=None)
    sp.add_argument("--s-max", type=float, default=None)
    sp.set_defaults(fn=cmd_multipulse)

    def flow_run(sp):
        common(sp)
        sp.add_argument("--rtol", type=float, default=1e-10)
        sp.add_argument("--atol", type=float, default=1e-12)
        sp.add_argument(
            "--x0", default="-0.5,-0.139,-0.8807,0.3013", help="comma-separated state; if negative, join it: --x0=-1,..."
        )
        sp.add_argument("--T", type=float, default=500.0)

    sp = sub.add_parser("simulate", help="integrate the explicit vector field")
    flow_run(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("sojourn", help="dwell-time table and growth-ratio estimate")
    flow_run(sp)
    sp.add_argument("--radius", type=float, default=0.3)
    sp.set_defaults(fn=cmd_sojourn)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalise other codes
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _run(args)
    except VerifyFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
