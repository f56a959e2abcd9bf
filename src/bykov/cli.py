"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

``_run`` reads and parses the config once and hands each ``cmd_*`` the
loaded point; the command computes and replays its ``--verify`` checks,
then returns ``(file_name, content, diagnostics)``, and ``_run`` writes
that one artifact and its manifest.  A ``.json`` artifact is the command's
result object as it is, a result dataclass written as its fields in
declaration order (``dataclasses.asdict``), with ``indent=2``, and echoed
to stdout once it and the manifest are written; a ``.csv`` artifact is an
iterator of blocks of ``CSV_BLOCK`` rows, each block formatted column by
column as it is written, and is not echoed.  Every file is written to a
temporary file that replaces the target only once complete.  Nothing is
written or echoed unless the command and its checks succeed, so a failed
``--verify`` leaves no files.

Exit codes: 0 success, 1 invariant violation under --verify, 2 usage or
config error.  Data files carry no timestamps, so identical inputs produce
byte-identical output; run metadata (including wall-clock) goes to the
manifest instead.

One parser serves every :func:`main` call of a process; a subcommand
records the name of its loader, and ``_run`` looks up ``cmd_<command>``
and that loader in this module when it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
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
    strip_boundary_residual,
    strip_family_violations,
    strip_image_report,
)
from .oracles import OUT_W, WallPoint, eta_log, psi_wv, replay_pulse, return_jacobian_fd, turning_range_grid
from .params import ParameterError, classify_region, load_saddle_params
from .returncurve import PHI_LIMIT, TWO_PI, _exit_bend, _exit_values, circle_dist, curve_arrays, find_tangency, reversal_sequence

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

CURVE_HEADER = "s,t,phi,x_w,x_w_mod_2pi,y_w,dxw_ds"
STRIPS_HEADER = "n,t,a_n,b_n"
JACOBIAN_HEADER = "x,y,det,trace,class"
TRAJ_HEADER = "t,x1,x2,x3,x4,r2"
# rows formatted and written per block: two writes per block, and at most
# one block of text in memory
CSV_BLOCK = 1024


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
        # mkstemp's file is 0600; give it the mode that open(path, "w") would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cells(column):
    """The text of a slice of a CSV column: a numpy array as floats in one ``repr`` pass, any other column by ``str``.

    The other columns hold labels, indices or Python floats, and ``str`` of a
    Python float is its ``repr``.
    """
    if isinstance(column, np.ndarray):
        return map(repr, column.astype(float, copy=False).tolist())
    return map(str, column)


def _csv(header: str, *columns):
    """A CSV artifact, lazily: the header, then ``CSV_BLOCK`` rows at a time, joined by newlines.

    The columns are sequences (numpy arrays, lists, tuples, ranges); as with
    ``zip``, the shortest one ends the table.
    """
    yield header
    for start in range(0, min(map(len, columns), default=0), CSV_BLOCK):
        block = (_cells(column[start : start + CSV_BLOCK]) for column in columns)
        yield "\n".join(map(",".join, zip(*block)))


def cmd_classify(args, p):
    region = classify_region(p)
    doc = {**vars(region), "constants": p.constants}
    if args.verify:
        # the grid must stay inside the closed-form range and reach both ends
        # to within its spacing error (< 5e-10 R, see bykov.oracles)
        lo, hi = turning_range_grid(p)
        scale = max(1.0, abs(region.a_min), abs(region.a_max))
        if not (lo >= region.a_min - 1e-12 * scale and hi <= region.a_max + 1e-12 * scale):
            raise VerifyFailure("turning-function grid leaves the closed-form extrema")
        if not (lo - region.a_min <= 1e-9 * scale and region.a_max - hi <= 1e-9 * scale):
            raise VerifyFailure("turning-function grid falls short of the closed-form extrema")
    return "region.json", doc, {"tag": region.tag}


def cmd_curve(args, p):
    if not (0.0 < args.s_min < args.s_max <= p.eps):
        raise ParameterError(
            f"need 0 < s_min < s_max <= eps, got s_min={args.s_min}, s_max={args.s_max}, eps={p.eps}"
        )
    if args.n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {args.n_samples}")
    try:
        return _curve(args, p)
    except MemoryError as exc:
        raise ParameterError(f"--n-samples={args.n_samples} needs more memory than is available: {exc}") from exc


def _curve(args, p):
    """The body of :func:`cmd_curve`, which allocates every array of n_samples."""
    s_values = np.geomspace(args.s_min, args.s_max, args.n_samples)
    phi, x_w, y_w, dxw_ds = curve_arrays(args.t, s_values, p)
    deep = np.flatnonzero(~np.isfinite(dxw_ds))
    if deep.size:
        raise ParameterError(f"s_min={args.s_min} is too deep: dxw_ds overflows at s={float(s_values[deep[0]])}")
    deep = np.flatnonzero(~(np.abs(phi) < PHI_LIMIT))
    if deep.size:
        raise ParameterError(f"--s-min={args.s_min} is too deep: |phi| >= 2^50 at s={float(s_values[deep[0]])}")
    rows = _csv(CURVE_HEADER, s_values, [args.t] * len(s_values), phi, x_w, x_w % TWO_PI, y_w, dxw_ds)
    diagnostics: dict = {"n_samples": args.n_samples}
    if args.verify:
        k = p.constants
        u = np.log(s_values)
        # W bounds every term of x_w and every partial sum that the kernel or
        # the oracle forms; their roundings part the two routes by at most
        # 30 * 2^-53 W (README), under 16 * 2^-52 W, which passes 1e-9 only
        # at large |u|, |t| or |g_w|
        terms = abs(k.g_w) * (k.delta_v * np.abs(u) + abs(math.log(k.c1)) + abs(math.log(p.a)) + 1.0)
        x_tol = np.maximum(1e-9, 16.0 * np.finfo(float).eps * (terms + np.abs(phi) + abs(k.c3) + math.pi))
        columns = (s_values, u, x_w, _exit_values(args.t, u, p).log_y, x_tol)
        x_miss = log_y_miss = 0.0
        for s, u_i, x, log_y, tol in zip(*map(np.ndarray.tolist, columns)):
            x_c, log_y_c = eta_log(args.t, u_i, p)
            if not (abs(x - x_c) <= tol and abs(log_y - log_y_c) <= 1e-9):
                raise VerifyFailure(f"curve row at s={s} disagrees with the composition oracle")
            x_miss, log_y_miss = max(x_miss, abs(x - x_c)), max(log_y_miss, abs(log_y - log_y_c))
        diagnostics["oracle_x_w_miss"] = x_miss
        diagnostics["oracle_log_y_miss"] = log_y_miss
    return "curve.csv", rows, diagnostics


def cmd_reversals(args, p):
    seq = reversal_sequence(args.t, args.n_max, p)
    columns = (np.exp(seq.log_s_values), seq.log_s_values, seq.phi_values, seq.x_values, seq.x_values % TWO_PI)
    # entry n's kind is kinds[n % 2]; the table ends with its shortest column, the n column
    rows = _csv("n,s,log_s,phi,x_w,x_w_mod_2pi,kind", range(len(seq)), *columns, seq.kinds * (len(seq) // 2 + 1))
    diagnostics = {"count": len(seq), "reason": seq.reason}
    if args.verify:
        # in u = ln s, which never underflows; |x_u| <= 1e-8 is |dxw_ds| <= 1e-8/s
        log_s, g_v = seq.log_s_values, p.constants.g_v
        phi = np.abs(seq.phi_values)
        # past the first-order bounds below: from g_v |ln s| = 2^48 on, the
        # 8.35-ulp error of ln s moves phi by up to half a radian (README),
        # and from |phi| = PHI_LIMIT on, as in curve, one ulp of phi is a quarter radian
        steep = g_v * np.abs(log_s) >= 2.0**48
        deep = np.flatnonzero(steep | (phi >= PHI_LIMIT))
        if deep.size:
            n = deep[0]
            if steep[n]:
                there = "g_v |ln s| >= 2^48, and one ulp of ln s moves phi by 2^-5 radian or more"
            else:
                there = "|phi| >= 2^50, and one ulp of phi is a quarter radian or more"
            raise ParameterError(f"cannot verify reversal {n} of --n-max={args.n_max}: there {there}")
        # each u rounds at the size of c2 + t - phi, in units of 1/g_v; c = 16 (README)
        terms = abs(p.constants.c2) + abs(args.t) + np.maximum(phi[2:], phi[:-2])
        period_miss = np.abs(log_s[2:] - log_s[:-2] + math.pi / g_v)
        if not np.all(period_miss <= np.maximum(1e-10, 16.0 * np.spacing(terms) / g_v)):
            raise VerifyFailure("period ln s_{n+2} - ln s_n = -pi/g_v violated")
        slope, x_uu = _exit_bend(args.t, log_s, p)
        x_u = np.abs(slope.x_u)
        # the rounding of u, at most 8.35 ulp(|u| + (|t| + 1)/g_v), leaves x_u
        # up to |x_uu| times it; c = 16 (README)
        ulp_u = np.spacing(np.abs(log_s) + (abs(args.t) + 1.0) / g_v)
        bad = np.flatnonzero(~(x_u <= np.maximum(1e-8, 16.0 * np.abs(x_uu) * ulp_u)))
        if bad.size:
            raise VerifyFailure(f"nonzero turning derivative at reversal {bad[0]}")
        diagnostics["period_miss"] = float(np.max(period_miss, initial=0.0))
        diagnostics["max_abs_x_u"] = float(np.max(x_u, initial=0.0))
    return "reversals.csv", rows, diagnostics


def cmd_tangency(args, p):
    report = find_tangency(args.x0, args.t, args.n_max, p)
    center_y = report.bump.center[1]
    # the centre's true height; below the float range its y underflows to 0.0
    log_y = float(_exit_values(args.t, report.log_s_best, p).log_y)
    diagnostics = {"amplitude": report.amplitude, "center_log_y": log_y, "center_underflow": center_y == 0.0}
    if args.verify:
        history = report.history
        if not all(b[1] <= a[1] for a, b in zip(history, history[1:])):
            raise VerifyFailure("running minimum distance is not non-increasing")
        if report.amplitude != history[-1][1]:
            raise VerifyFailure(f"amplitude {report.amplitude!r} is not the last history distance {history[-1][1]!r}")
        # the wall transition with the bump carries the chosen reversal onto the trace x0
        moved = psi_wv(WallPoint(section=OUT_W, x=report.x_best, y=center_y), report.bump)
        residual = diagnostics["bump_residual"] = circle_dist(-moved.y, math.remainder(report.x0, TWO_PI))
        if not residual <= 2.0 * math.ulp(max(abs(report.x_best), math.pi)):
            raise VerifyFailure(f"the bump moves reversal {report.n_best} to {residual!r} from x0")
    return "tangency.json", report, diagnostics


def cmd_strips(args, p):
    family = build_strips(args.tau, args.n_limit, p)
    strips = family.strips
    index = [n for n, strip in enumerate(strips) for _ in strip.t_grid]
    t, a, b = ([v for strip in strips for v in getattr(strip, name).tolist()] for name in ("t_grid", "a_of_t", "b_of_t"))
    rows = _csv(STRIPS_HEADER, index, t, a, b)
    diagnostics = {
        "case": family.case,
        "tau": family.tau,
        "count": len(family),
        "notes": list(family.notes),
        "solver_passes": family.solver_passes,
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
        diagnostics["boundary_residual"] = strip_boundary_residual(family, p)
    return "strips.csv", rows, diagnostics


def cmd_jacobian(args, p):
    if args.k_min > args.k_max:
        raise ParameterError(f"need k_min <= k_max, got k_min={args.k_min}, k_max={args.k_max}")
    reports = []
    worst_miss = 0.0
    # below k = -1023, 2^-k overflows; those heights lie above eps too
    for kk in range(max(args.k_min, -1023), args.k_max + 1):
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
            # a nan entry makes the scale nan, which no gap passes
            scale = max(abs(float(fd[0, 0] * fd[1, 1] - fd[0, 1] * fd[1, 0])), abs(float(np.trace(fd))), 1.0)
            if not gap <= 1e-4 * scale:
                raise VerifyFailure(f"finite-difference stencil not converged at y={y}: gap {gap}")
            miss = float(np.max(np.abs(np.array(rep.jacobian) - fd)) / max(1.0, np.max(np.abs(fd))))
            if not miss <= 1e-5:
                raise VerifyFailure(f"Jacobian misses the finite-difference oracle at y={y}: {miss:.3g} relative")
            worst_miss = max(worst_miss, miss)
        reports.append((args.x, y, rep.det, rep.trace, rep.eigen_class))
    if not reports:
        raise ParameterError(f"no 2^-k with k_min={args.k_min} <= k <= k_max={args.k_max} lies in (0, eps], eps={p.eps}")
    rows = _csv(JACOBIAN_HEADER, *zip(*reports))
    diagnostics: dict = {"count": len(reports)}
    if args.verify:
        diagnostics["oracle_rel_error"] = worst_miss
    return "jacobian.csv", rows, diagnostics


def cmd_multipulse(args, p):
    if (args.s_min is None) != (args.s_max is None):
        raise ParameterError("--s-min and --s-max must be given together")
    window = (args.s_min, args.s_max) if args.s_min is not None else None
    points = find_multipulse(args.n, p, x0=args.x0, s_window=window)
    diagnostics: dict = {"count": len(points)}
    if args.verify:
        residuals = [replay_pulse(pt.s, pt.n, p, x0=args.x0).residual for pt in points]
        missed = [r for r in residuals if not r <= 1e-8]
        if missed:
            raise VerifyFailure(f"pulse replay misses the trace by {missed[0]}")
        diagnostics["replay_residual"] = max(residuals, default=0.0)
    return "multipulse.json", points, diagnostics


def _simulate(args, config):
    """Integrate the run of ``simulate`` or ``sojourn``: (series, its manifest record).

    The record holds the step counts, where the orbit fell exactly onto a
    coordinate subspace (named by its CSV column), the samples, the
    vector-field evaluations and the smallest nonzero |coordinate|.  Under
    --verify a failed run is refused here.
    """
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError:
        x0 = []
    if len(x0) != config.dim or not all(map(math.isfinite, x0)):
        raise ParameterError(f"--x0 must be {config.dim} finite comma-separated numbers, got {args.x0!r}")
    series = integrate(x0, T=args.T, rtol=args.rtol, atol=args.atol, config=config)
    if args.verify and series.failure is not None:
        raise VerifyFailure(series.failure)
    collapse = None
    if series.collapse is not None:
        j, t = series.collapse
        collapse = {"coordinate": _traj_header(config).split(",")[j + 1], "t": t}
    magnitude = np.abs(series.states)
    nonzero = magnitude > 0.0
    record = {
        "accepted": series.accepted,
        "rejected": series.rejected,
        "collapse": collapse,
        "samples": len(series.times),
        # k1 once, then stages 2 to 7 of each attempted step: an accepted
        # step's stage 7 is the next step's k1
        "rhs_calls": 1 + 6 * (series.accepted + series.rejected),
        "floor_abs": float(np.min(magnitude, where=nonzero, initial=math.inf)) if nonzero.any() else None,
    }
    return series, record


def _traj_header(config) -> str:
    return TRAJ_HEADER if config.dim == 4 else "t,x,y,z,r2"


def cmd_simulate(args, config):
    series, diagnostics = _simulate(args, config)
    rows = _csv(_traj_header(config), series.times, *series.states.T, series.r2())
    diagnostics["max_error_estimate"] = series.max_error_estimate
    diagnostics["failure"] = series.failure
    if config.dim == 4:
        diagnostics["sphere_residual"] = sphere_residual(series)
        chirality = chirality_check(config, series)
        diagnostics["chirality"] = chirality.verdict
        diagnostics["max_identity_residual"] = chirality.max_identity_residual
        diagnostics["samples_near_v"] = chirality.samples_near_v
        diagnostics["samples_near_w"] = chirality.samples_near_w
    if args.verify:
        # lam = 0, as in every 3D config, keeps the start's coordinate planes invariant
        planes = invariant_subspace_residuals(series, config) if config.lam == 0.0 else {}
        for plane, resid in planes.items():
            diagnostics[plane.replace("=0", "_residual")] = resid
            if not resid <= 1e-12:
                raise VerifyFailure(f"{plane.replace('=', ' = ')} subspace drift {resid}")
        spacing = float(np.max(np.linalg.norm(np.diff(series.states, axis=0), axis=1)))
        if not spacing <= SAMPLE_SPACING:
            raise VerifyFailure(f"sample spacing {spacing} exceeds {SAMPLE_SPACING}")
    return "trajectory.csv", rows, diagnostics


def cmd_sojourn(args, config):
    # the poles are 2 apart: above 1 their neighbourhoods overlap
    if not 0.0 < args.radius <= 1.0:
        raise ParameterError(f"--radius must be > 0 and <= 1, got {args.radius}")
    series, diagnostics = _simulate(args, config)
    collapse = diagnostics["collapse"]
    # checked before the analysis, whose refusal of a short run exits 2
    if args.verify and collapse is not None:
        raise VerifyFailure(f"{collapse['coordinate']} collapsed to 0.0 at t={collapse['t']}")
    report = sojourn_analysis(series, neighborhood_radius=args.radius)
    diagnostics["median_ratio"] = report.median_ratio
    if args.verify:
        if len(report.dwells) < DWELL_DISCARD + 2:
            raise VerifyFailure(f"{len(report.dwells)} complete dwells, need {DWELL_DISCARD + 2}")
        residual = diagnostics["boundary_residual"] = boundary_residual(series, report, args.radius)
        if not residual <= SAMPLE_SPACING**2 / args.radius:
            raise VerifyFailure(f"a dwell boundary is off the radius sphere by {residual}")
    return "sojourn.json", report, diagnostics


def _run(args) -> int:
    """Run ``cmd_<command>`` on the config its loader parses; write its artifact and manifest atomically, echo JSON."""
    started = time.monotonic()
    # nan passes no comparison, so it slips through every range check
    # written as one; inf would run a search or a horizon without end
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"--{name.replace('_', '-')} must be finite, got {value}")
    # the exit curve's angle range
    t = getattr(args, "t", 0.0)
    if abs(t) >= PHI_LIMIT:
        raise ParameterError(f"--t must satisfy |t| < 2^50, got {t}")
    # read once, so that the manifest's digest is that of the bytes parsed
    raw = Path(args.config).read_bytes()
    fn, load = globals()[f"cmd_{args.command}"], globals()[args.load]
    name, content, diagnostics = fn(args, load(json.loads(raw.decode("utf-8"))))
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
        "config_digest": hashlib.sha256(raw).hexdigest(),
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

    def command(name, summary, load="load_saddle_params"):
        """A subcommand that runs ``cmd_<name>`` on the config that the loader named ``load`` parses.

        Both are looked up by name when a command runs, so one parser
        serves a process in which either is replaced.
        """
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", required=True, help="JSON parameter file")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument("--verify", action="store_true", help="replay invariants, exit 1 on failure")
        sp.set_defaults(load=load)
        return sp

    command("classify", "region classification of a parameter point")

    sp = command("curve", "exit-curve samples as CSV")
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--s-min", type=float, required=True)
    sp.add_argument("--s-max", type=float, required=True)
    sp.add_argument("--n-samples", type=int, default=200)

    sp = command("reversals", "turning points of the exit curve")
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--n-max", type=int, default=10**4)

    sp = command("tangency", "nearest reversal and tangency-creating bump")
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--n-max", type=int, default=10**4)

    sp = command("strips", "horizontal strip construction")
    sp.add_argument("--tau", type=float, default=0.4)
    sp.add_argument("--n-limit", type=int, default=5)

    sp = command("jacobian", "return-map derivative sweep along y = 2^-k")
    sp.add_argument("--x", type=float, default=0.1)
    sp.add_argument("--k-min", type=int, default=4)
    sp.add_argument("--k-max", type=int, default=20)

    sp = command("multipulse", "n-pulse connection search")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--s-min", type=float, default=None)
    sp.add_argument("--s-max", type=float, default=None)

    def flow_run(name, summary):
        sp = command(name, summary, "load_model_config")
        sp.add_argument("--rtol", type=float, default=1e-10)
        sp.add_argument("--atol", type=float, default=1e-12)
        sp.add_argument(
            "--x0", default="-0.5,-0.139,-0.8807,0.3013", help="comma-separated state; if negative, join it: --x0=-1,..."
        )
        sp.add_argument("--T", type=float, default=500.0)
        return sp

    flow_run("simulate", "integrate the explicit vector field")
    sp = flow_run("sojourn", "dwell-time table and growth-ratio estimate")
    sp.add_argument("--radius", type=float, default=0.3)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call in this process, built once."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
