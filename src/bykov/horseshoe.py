"""First-return map, horizontal strips, hyperbolicity and multi-pulse search.

The first return to the incoming wall is the exit curve followed by the
quarter-turn transition: g(x, y) = (y_w(x, y), -x_w(x, y)) with the second
coordinate reduced to (-pi, pi].  A horizontal strip across the rectangle
[0, tau]^2 is a band a_n(t) <= s <= b_n(t) on which the exit angle sweeps a
full copy of [-tau, 0] modulo 2*pi; the quarter turn then stands the image
vertically across the same rectangle.  Hyperbolicity of g is diagnosed by
finite differences with the legacy closed forms carried along as flagged
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .localmaps import IN_V, OUT_W, BumpSpec, WallPoint, circle_dist, psi_wv
from .params import DerivedConstants, SaddleParams, classify_region, derive_constants, turning_harmonic
from .returncurve import (
    NoReversalsError,
    curve_arrays,
    curve_sample,
    reversal_angle_set,
    stretch_sq,
    turning_crossings,
    turning_function,
    turning_level,
)

__all__ = [
    "ResonanceError",
    "PeriodicTangencyError",
    "return_map",
    "JacobianReport",
    "jacobian_report",
    "PeriodicTangencyResult",
    "detect_periodic_tangency",
    "Strip",
    "StripFamily",
    "build_strips",
    "strip_family_violations",
    "strip_image_report",
    "PulsePoint",
    "find_multipulse",
]

TWO_PI = 2.0 * math.pi
LN_FLOOR = math.log(1e-300)


class ResonanceError(ValueError):
    """gamma = 1 resonance: the strip construction is not supported there."""


class PeriodicTangencyError(ValueError):
    """A reversal point sits on the stable-manifold trace; strips are refused."""

    def __init__(self, message: str, witness_n: int, angle: float):
        super().__init__(message)
        self.witness_n = witness_n
        self.angle = angle


def return_map(p_in: WallPoint, p: SaddleParams, bump: BumpSpec | None = None) -> WallPoint:
    """First-return map on the incoming wall: quarter turn after the exit curve.

    Output heights <= 0 mean the orbit came back on or below the stable
    manifold of the first node; the caller decides whether that terminates
    the itinerary (it does for connection hunting).
    """
    if p_in.section != IN_V:
        raise ValueError(f"return_map expects a point on {IN_V}, got {p_in.section}")
    sample = curve_sample(p_in.x, p_in.y, p)
    return psi_wv(WallPoint(section=OUT_W, x=sample.x_w, y=sample.y_w), bump)


def _raw_return(t: float, s: float, p: SaddleParams, k: DerivedConstants) -> tuple[float, float]:
    """Unreduced return components (y_w, -x_w); differences of these are wrap-free."""
    _, x_w, y_w, _ = curve_arrays(t, s, p, k)
    return float(y_w), float(-x_w)


@dataclass(frozen=True)
class JacobianReport:
    """Finite-difference and closed-form derivative data of the return map at a point."""

    x: float
    y: float
    det_fd: float
    trace_fd: float
    det_cf: float
    trace_cf: float
    eigen_class: str
    det_agrees: bool
    trace_agrees: bool
    fd_refinement_gap: float

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "det_fd": self.det_fd,
            "trace_fd": self.trace_fd,
            "det_cf": self.det_cf,
            "trace_cf": self.trace_cf,
            "class": self.eigen_class,
            "det_agrees": self.det_agrees,
            "trace_agrees": self.trace_agrees,
        }


def _fd_matrix(t: float, s: float, p: SaddleParams, k: DerivedConstants, h_x: float, h_y: float):
    fxp = _raw_return(t + h_x, s, p, k)
    fxm = _raw_return(t - h_x, s, p, k)
    fyp = _raw_return(t, s + h_y, p, k)
    fym = _raw_return(t, s - h_y, p, k)
    return np.array(
        [
            [(fxp[0] - fxm[0]) / (2 * h_x), (fyp[0] - fym[0]) / (2 * h_y)],
            [(fxp[1] - fxm[1]) / (2 * h_x), (fyp[1] - fym[1]) / (2 * h_y)],
        ]
    )


def _eigen_moduli(trace: float, det: float) -> tuple[float, float]:
    disc = trace * trace - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        l1, l2 = (trace - root) / 2.0, (trace + root) / 2.0
        m = sorted((abs(l1), abs(l2)))
    else:
        m = [math.sqrt(det)] * 2
    return m[0], m[1]


def jacobian_report(
    x: float,
    y: float,
    p: SaddleParams,
    agree_tol: float = 1e-6,
    unit_tol: float = 1e-6,
) -> JacobianReport:
    """Derivative diagnostics of the unperturbed return map at (x, y).

    ``det_fd``/``trace_fd`` come from Richardson-extrapolated centered
    differences with step h = max(1e-7, 1e-7*y); the closed forms are
    legacy expressions kept as cross-checks only: when they disagree beyond
    ``agree_tol`` (relative) the report flags it and the finite-difference
    values govern the eigenvalue classification.
    """
    if y <= 0.0:
        raise ValueError(f"jacobian_report requires y > 0, got {y}")
    k = derive_constants(p)
    # angle direction takes the absolute step; the height direction must
    # scale with y or the stencil would cross the stable manifold
    h_x = max(1e-7, 1e-7 * y)
    h_y = 1e-7 * y
    coarse = _fd_matrix(x, y, p, k, h_x, h_y)
    fine = _fd_matrix(x, y, p, k, h_x / 2.0, h_y / 2.0)
    fd = (4.0 * fine - coarse) / 3.0
    gap = float(np.max(np.abs(fine - coarse)))
    det_fd = float(fd[0, 0] * fd[1, 1] - fd[0, 1] * fd[1, 0])
    trace_fd = float(fd[0, 0] + fd[1, 1])

    phi = -k.g_v * math.log(y) + x + k.c2
    a = p.a
    shear2 = a * a - 1.0 / (a * a)
    c = float(stretch_sq(phi, a))
    sc = math.sin(phi) * math.cos(phi)
    det_cf = (
        k.c1**k.delta_w
        * k.delta
        * y ** (k.delta - 1.0)
        * c ** (k.delta_w / 2.0 - 1.0)
        * (1.0 + (k.c4 - 1.0) * k.g_w * shear2 * sc)
    )
    level = turning_level(p)
    trace_cf = (
        -(k.c1**k.delta_w) * k.delta_w * y**k.delta * c ** (k.delta_w / 2.0 - 1.0) * shear2 * sc
        + (1.0 / y) * (p.alpha_w / (p.E_w * p.E_v * c)) * (float(turning_function(phi, p)) - level)
    )

    m1, m2 = _eigen_moduli(trace_fd, det_fd)
    if abs(m1 - 1.0) < unit_tol or abs(m2 - 1.0) < unit_tol:
        eigen_class = "non-hyperbolic-within-tol"
    elif m2 < 1.0:
        eigen_class = "double-contraction"
    elif m1 > 1.0:
        eigen_class = "double-expansion"
    else:
        eigen_class = "saddle"

    def _agrees(fd_val: float, cf_val: float) -> bool:
        return abs(fd_val - cf_val) <= agree_tol * max(abs(fd_val), 1e-300)

    return JacobianReport(
        x=x,
        y=y,
        det_fd=det_fd,
        trace_fd=trace_fd,
        det_cf=float(det_cf),
        trace_cf=float(trace_cf),
        eigen_class=eigen_class,
        det_agrees=_agrees(det_fd, float(det_cf)),
        trace_agrees=_agrees(trace_fd, float(trace_cf)),
        fd_refinement_gap=gap,
    )


@dataclass(frozen=True)
class PeriodicTangencyResult:
    found: bool
    witness_n: int | None
    angle: float | None
    distance: float

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "witness_n": self.witness_n,
            "angle": self.angle,
            "distance": self.distance,
        }


def detect_periodic_tangency(
    p: SaddleParams,
    x0: float = 0.0,
    n_probe: int = 4096,
    tol: float = 1e-9,
    t: float = 0.0,
) -> PeriodicTangencyResult:
    """True when some reversal angle coincides with the stable-manifold trace x0.

    Parameter points without reversals are trivially clean.
    """
    try:
        angles = reversal_angle_set(t, n_probe, p)
    except NoReversalsError:
        return PeriodicTangencyResult(found=False, witness_n=None, angle=None, distance=math.inf)
    dist = np.abs(np.remainder(angles.x_values - x0 + math.pi, TWO_PI) - math.pi)
    best = int(np.argmin(dist))
    return PeriodicTangencyResult(
        found=bool(dist[best] < tol),
        witness_n=best if dist[best] < tol else None,
        angle=float(angles.x_values[best] % TWO_PI),
        distance=float(dist[best]),
    )


def _xw_scalar(t: float, u: float, p: SaddleParams, k: DerivedConstants) -> float:
    """Exit angle at s = e^u; scalar fast path for bisection loops."""
    phi = -k.g_v * u + t + k.c2
    a = p.a
    cphi, sphi = math.cos(phi), math.sin(phi)
    c = a * a * cphi * cphi + sphi * sphi / (a * a)
    kq = math.floor(2.0 * phi / math.pi)
    base = math.atan2(sphi / a, a * cphi)
    arg = base + TWO_PI * round(((kq + 0.5) * (math.pi / 2.0) - base) / TWO_PI)
    return -k.g_w * k.delta_v * u - 0.5 * k.g_w * math.log(c) + arg + k.c3 - k.g_w * math.log(k.c1)


def _solve_xw(
    t: float,
    target: float,
    u_lo: float,
    u_hi: float,
    p: SaddleParams,
    k: DerivedConstants,
    tol: float = 1e-13,
) -> float:
    """Bisection for x_w(t, e^u) = target on a monotone u-interval."""
    f_lo = _xw_scalar(t, u_lo, p, k) - target
    f_hi = _xw_scalar(t, u_hi, p, k) - target
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise RuntimeError("target not bracketed by the monotone interval")
    while u_hi - u_lo > tol:
        mid = 0.5 * (u_lo + u_hi)
        f_mid = _xw_scalar(t, mid, p, k) - target
        if (f_lo < 0.0) != (f_mid < 0.0):
            u_hi = mid
        else:
            u_lo, f_lo = mid, f_mid
    return 0.5 * (u_lo + u_hi)


@dataclass(frozen=True)
class Strip:
    """One horizontal strip: boundary heights over the t-grid and its winding."""

    index: int
    winding: int
    t_grid: np.ndarray
    a_of_t: np.ndarray
    b_of_t: np.ndarray
    # unreduced exit-angle targets solved at the two boundaries
    target_a: float
    target_b: float


@dataclass(frozen=True)
class StripFamily:
    """Disjoint horizontal strips across [0, tau]^2 plus construction metadata."""

    tau: float
    tau_requested: float
    case: str
    gamma: float
    strips: tuple[Strip, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.strips)


_CASE_OF_TAG = {
    "OutsideB": "I",
    "NoReversal_aEq1": "I",
    "InteriorB_GammaRational": "II",
    "DenseReversals_D": "III",
    "BoundaryB": "IV",
}


def _case_pieces(
    t: float,
    p: SaddleParams,
    k: DerivedConstants,
    roots: list[float],
    want_sign: int,
    max_pieces: int,
):
    """Monotone phi-pieces (ascending) with the requested turning sign.

    Returns (phi_lo, phi_hi) pairs; s decreases as phi grows.
    """
    level = turning_level(p)
    out = []
    m = min(math.ceil((t - r) / math.pi) for r in roots)
    seq: list[float] = []
    while len(out) < max_pieces:
        for r in sorted(roots):
            phi_n = r + m * math.pi
            if phi_n < t:
                continue
            seq.append(phi_n)
            if len(seq) >= 2:
                lo, hi = seq[-2], seq[-1]
                mid_val = float(turning_function(0.5 * (lo + hi), p)) - level
                if (1 if mid_val > 0 else -1) == want_sign:
                    out.append((lo, hi))
                    if len(out) >= max_pieces:
                        break
        m += 1
        if (k.c2 + t - m * math.pi) / k.g_v < LN_FLOOR:
            break
    return out


def build_strips(
    tau: float,
    n_limit: int,
    p: SaddleParams,
    t_samples: int = 33,
    slack: float = 1e-9,
    rationality_tol: float = 1e-9,
    q_max: int = 10**4,
) -> StripFamily:
    """Horizontal strips across [0, tau]^2 whose return images stand vertically across it.

    Case I (no reversals): one strip per full winding of the monotone exit
    angle.  Cases II/III: strips live inside monotone pieces between
    consecutive reversals whose image covers a full copy of the target
    window; for dense reversals tau is shrunk below half the root
    separation.  Case IV treats the tangential crossing as Case II/III with
    an exclusion zone around the inflection angles.  Construction retries
    once on a four-fold finer t-grid if an invariant fails marginally.
    """
    k = derive_constants(p)
    if abs(k.gamma - 1.0) < 1e-12:
        raise ResonanceError("gamma = 1 resonance is detected and rejected, not analysed")
    if not 0.0 < tau <= min(math.pi, p.eps):
        raise ValueError(f"tau must lie in (0, min(pi, eps)], got {tau}")
    region = classify_region(p, rationality_tol=rationality_tol, q_max=q_max)
    case = _CASE_OF_TAG[region.tag]
    notes: list[str] = [f"region {region.tag}"]
    if case == "II":
        probe = detect_periodic_tangency(p, x0=0.0)
        if probe.found:
            raise PeriodicTangencyError(
                f"periodic tangency at reversal {probe.witness_n} (angle {probe.angle:.6g}); "
                "strip images are not guaranteed to cross the unstable-manifold trace",
                witness_n=probe.witness_n,
                angle=probe.angle,
            )
    tau_eff = tau
    roots = turning_crossings(p) if case in ("II", "III") else []
    if case == "III":
        d = roots[1] - roots[0]
        if tau_eff >= d / 2.0:
            tau_eff = 0.45 * d
            notes.append(f"tau shrunk to {tau_eff:.6g} (< half the root separation {d:.6g})")
    endpoint_margin = slack
    if case == "IV":
        # tangential crossing: the monotone pieces run between the grazing
        # angles, and strip targets must keep a wide berth from the piece
        # endpoint values (the inflection angles)
        theta = turning_harmonic(p)[2]
        at_min = abs(region.a_min - region.k) < abs(region.a_max - region.k)
        graze = (0.5 * (theta + math.pi) if at_min else 0.5 * theta) % math.pi
        roots = [graze, graze + math.pi]
        endpoint_margin = 10.0 * tau_eff
        notes.append(f"inflection exclusion half-width {endpoint_margin:.6g}")

    for grid_n in (t_samples, 4 * (t_samples - 1) + 1):
        t_grid = np.linspace(0.0, tau_eff, grid_n)
        strips = _collect_strips(tau_eff, n_limit, p, k, case, roots, t_grid, slack, endpoint_margin)
        family = StripFamily(
            tau=tau_eff,
            tau_requested=tau,
            case=case,
            gamma=k.gamma,
            strips=tuple(strips),
            notes=tuple(notes),
        )
        if not strip_family_violations(family, p):
            return family
        notes.append(f"t-grid refined from {grid_n} samples")
    return family


def _collect_strips(
    tau: float,
    n_limit: int,
    p: SaddleParams,
    k: DerivedConstants,
    case: str,
    roots: list[float],
    t_grid: np.ndarray,
    slack: float,
    endpoint_margin: float,
) -> list[Strip]:
    increasing = k.gamma > 1.0
    strips: list[Strip] = []
    ts = [float(t) for t in t_grid]

    def targets_for(winding: int) -> tuple[float, float]:
        # a-boundary carries the -tau residue for increasing exit angle,
        # the 0 residue for decreasing (the mirrored case)
        if increasing:
            return TWO_PI * winding - tau, TWO_PI * winding
        return TWO_PI * winding, TWO_PI * winding - tau

    def solve_strip(winding: int, u_los: list[float], u_his: list[float]) -> Strip | None:
        tgt_a, tgt_b = targets_for(winding)
        a_vals = np.empty(len(ts))
        b_vals = np.empty(len(ts))
        for i, t in enumerate(ts):
            u_lo, u_hi = u_los[i], u_his[i]
            x_lo = _xw_scalar(t, u_lo, p, k)
            x_hi = _xw_scalar(t, u_hi, p, k)
            x_min, x_max = min(x_lo, x_hi), max(x_lo, x_hi)
            for tgt in (tgt_a, tgt_b):
                if not (x_min + endpoint_margin <= tgt <= x_max - endpoint_margin):
                    return None
            if i == 0:
                # cheap height gate before paying for the bisections: the
                # exit height at the interpolated target location must be
                # at least near the rectangle width already
                frac = (0.5 * (tgt_a + tgt_b) - x_lo) / (x_hi - x_lo)
                u_est = u_lo + min(max(frac, 0.0), 1.0) * (u_hi - u_lo)
                y_est = float(curve_arrays(t, math.exp(u_est), p, k)[2])
                if y_est > 4.0 * tau:
                    return None
            u_a = _solve_xw(t, tgt_a, u_lo, u_hi, p, k)
            u_b = _solve_xw(t, tgt_b, u_lo, u_hi, p, k)
            a_vals[i] = math.exp(min(u_a, u_b))
            b_vals[i] = math.exp(max(u_a, u_b))
        # the return image must stay inside the rectangle's width: its
        # horizontal extent is the exit height, so early windings whose
        # heights still exceed tau are skipped (strips accumulate downward)
        for i, t in enumerate(ts):
            for s_chk in np.linspace(a_vals[i], b_vals[i], 5):
                if float(curve_arrays(t, float(s_chk), p, k)[2]) > tau:
                    return None
        return Strip(
            index=len(strips),
            winding=winding,
            t_grid=t_grid.copy(),
            a_of_t=a_vals,
            b_of_t=b_vals,
            target_a=tgt_a,
            target_b=tgt_b,
        )

    if case == "I":
        u_top = math.log(p.eps)
        x_tops = [_xw_scalar(t, u_top, p, k) for t in ts]
        if increasing:
            w = math.floor((min(x_tops) - slack - tau) / TWO_PI)
        else:
            w = math.ceil((max(x_tops) + slack + tau) / TWO_PI)
        # march a bracket cursor downward in u for every t; x_w is monotone
        # on the whole tail so [cursor, top] always brackets the targets
        cursors = [(u_top, x_tops[i]) for i in range(len(ts))]
        while len(strips) < n_limit:
            tgt_a, tgt_b = targets_for(w)
            beyond = min(tgt_a, tgt_b) - 1.0 if increasing else max(tgt_a, tgt_b) + 1.0
            u_los = []
            for i, t in enumerate(ts):
                u_cur, x_cur = cursors[i]
                while (x_cur >= beyond) if increasing else (x_cur <= beyond):
                    u_cur -= 1.0
                    if u_cur < LN_FLOOR:
                        return strips
                    x_cur = _xw_scalar(t, u_cur, p, k)
                cursors[i] = (u_cur, x_cur)
                u_los.append(u_cur)
            strip = solve_strip(w, u_los, [u_top] * len(ts))
            if strip is not None:
                strips.append(strip)
            w = w - 1 if increasing else w + 1
        return strips

    # cases II/III/IV: monotone pieces between consecutive reversals
    want_sign = 1 if increasing else -1
    max_pieces = max(64, 16 * n_limit)
    pieces = _case_pieces(0.0, p, k, roots, want_sign, max_pieces)
    for lo, hi in pieces:
        if len(strips) >= n_limit:
            break
        if (k.c2 - hi) / k.g_v < LN_FLOOR:
            break
        u_los = [(k.c2 + t - hi) / k.g_v for t in ts]
        u_his = [(k.c2 + t - lo) / k.g_v for t in ts]
        # candidate windings common to all t
        ok: set[int] | None = None
        for i, t in enumerate(ts):
            x_a = _xw_scalar(t, u_los[i], p, k)
            x_b = _xw_scalar(t, u_his[i], p, k)
            x_min, x_max = min(x_a, x_b), max(x_a, x_b)
            lo_w = math.ceil((x_min + endpoint_margin + tau) / TWO_PI)
            hi_w = math.floor((x_max - endpoint_margin) / TWO_PI)
            cand = set(range(lo_w, hi_w + 1))
            ok = cand if ok is None else (ok & cand)
            if not ok:
                break
        if not ok:
            continue
        for w in sorted(ok, reverse=increasing):
            strip = solve_strip(w, u_los, u_his)
            if strip is not None:
                strips.append(strip)
                if len(strips) >= n_limit:
                    break
    return strips


def strip_family_violations(family: StripFamily, p: SaddleParams, tol: float = 1e-9) -> list[str]:
    """Replay the strip invariants; returns human-readable violations (empty when clean)."""
    k = derive_constants(p)
    out: list[str] = []
    increasing = family.gamma > 1.0
    for strip in family.strips:
        for i, t in enumerate(strip.t_grid):
            a, b = float(strip.a_of_t[i]), float(strip.b_of_t[i])
            if not 0.0 < a < b <= p.eps:
                out.append(f"strip {strip.index}: boundaries out of order at t={t}")
                continue
            xa = curve_sample(float(t), a, p, k).x_w
            xb = curve_sample(float(t), b, p, k).x_w
            lo_res = -family.tau if increasing else 0.0
            hi_res = 0.0 if increasing else -family.tau
            if circle_dist(xa, lo_res) > tol:
                out.append(f"strip {strip.index}: lower boundary misses target at t={t}")
            if circle_dist(xb, hi_res) > tol:
                out.append(f"strip {strip.index}: upper boundary misses target at t={t}")
            for frac in (0.125, 0.375, 0.625, 0.875):
                s_mid = a + frac * (b - a)
                d = curve_sample(float(t), s_mid, p, k).dxw_ds
                if increasing and d <= 0 or (not increasing and d >= 0):
                    out.append(f"strip {strip.index}: wrong monotonicity inside at t={t}")
                    break
    for i, t in enumerate(family.strips[0].t_grid if family.strips else []):
        spans = sorted(
            (float(s.a_of_t[i]), float(s.b_of_t[i]), s.index) for s in family.strips
        )
        for (a1, b1, i1), (a2, b2, i2) in zip(spans, spans[1:]):
            if b1 >= a2:
                out.append(f"strips {i1} and {i2} overlap in s at t={t}")
    return out


def strip_image_report(family: StripFamily, p: SaddleParams, boundary_samples: int = 33) -> list[dict]:
    """Check that each strip's return image stands vertically across the rectangle.

    Reports, per strip, the height range covered by the image of the four
    boundary curves (it must span [0, tau]) and the horizontal extent (it
    must stay inside the rectangle's width).
    """
    out = []
    for strip in family.strips:
        xs: list[float] = []
        ys: list[float] = []
        for i, t in enumerate(strip.t_grid):
            for s in (float(strip.a_of_t[i]), float(strip.b_of_t[i])):
                img = return_map(WallPoint(section=IN_V, x=float(t), y=s), p)
                xs.append(img.x)
                ys.append(img.y)
        for j in (0, len(strip.t_grid) - 1):
            t_edge = float(strip.t_grid[j])
            a, b = float(strip.a_of_t[j]), float(strip.b_of_t[j])
            for s in np.linspace(a, b, boundary_samples):
                img = return_map(WallPoint(section=IN_V, x=t_edge, y=float(s)), p)
                xs.append(img.x)
                ys.append(img.y)
        y_lo, y_hi = min(ys), max(ys)
        x_lo, x_hi = min(xs), max(xs)
        out.append(
            {
                "index": strip.index,
                "winding": strip.winding,
                "image_y_min": y_lo,
                "image_y_max": y_hi,
                "image_x_min": x_lo,
                "image_x_max": x_hi,
                "spans_vertically": y_lo <= 1e-6 and y_hi >= family.tau - 1e-6,
                "within_width": 0.0 <= x_lo and x_hi <= family.tau,
            }
        )
    return out


@dataclass(frozen=True)
class PulsePoint:
    """Candidate n-pulse connection seeded on the unstable-manifold segment."""

    s: float
    n: int
    trace: tuple[tuple[float, float], ...]
    residual: float


def _grid_crossings(values: np.ndarray, us: np.ndarray, x0: float, from_top: bool = True):
    """(u-bracket, target) pairs where the unreduced angle crosses x0 mod 2*pi.

    ``from_top`` scans the window downward (shallower crossings first);
    refinement windows that accumulate at their top edge are scanned the
    other way so the well-conditioned roots come first.
    """
    hits = []
    order = range(len(us) - 2, -1, -1) if from_top else range(len(us) - 1)
    for i in order:
        v0, v1 = values[i], values[i + 1]
        if not (np.isfinite(v0) and np.isfinite(v1)):
            continue
        lo, hi = (v0, v1) if v0 <= v1 else (v1, v0)
        k_lo = math.ceil((lo - x0) / TWO_PI)
        k_hi = math.floor((hi - x0) / TWO_PI)
        for kk in range(k_lo, k_hi + 1):
            hits.append(((float(us[i]), float(us[i + 1])), x0 + TWO_PI * kk))
    return hits


def _bisect_fn(fn, target: float, u_lo: float, u_hi: float, tol: float = 1e-13) -> float | None:
    f_lo = fn(u_lo) - target
    f_hi = fn(u_hi) - target
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)) or (f_lo < 0) == (f_hi < 0):
        return None
    while u_hi - u_lo > tol:
        mid = 0.5 * (u_lo + u_hi)
        f_mid = fn(mid) - target
        if not math.isfinite(f_mid):
            return None
        if (f_lo < 0) != (f_mid < 0):
            u_hi = mid
        else:
            u_lo, f_lo = mid, f_mid
    return 0.5 * (u_lo + u_hi)


def find_multipulse(
    n: int,
    p: SaddleParams,
    x0: float = 0.0,
    s_window: tuple[float, float] | None = None,
    max_points: int = 4,
    grid_per_period: int = 48,
) -> list[PulsePoint]:
    """Points of the unstable-manifold segment whose orbit closes onto the stable trace.

    n = 2 solves the crossing equation on the exit curve directly; higher n
    applies the first-return map n-2 times and re-solves the crossing on
    the image curve, refining the parameter geometrically toward the seed
    where the previous level touched the trace (images accumulate there).
    An empty list means no crossing in the window, which is not an error.
    """
    if n < 2:
        raise ValueError(f"pulse count must be at least 2, got {n}")
    k = derive_constants(p)
    u_hi = math.log(p.eps) - 1e-12
    if s_window is not None:
        u_lo = math.log(s_window[0])
        u_hi = min(u_hi, math.log(s_window[1]))
    else:
        drift = abs(1.0 - k.gamma) * k.g_v
        u_lo = max(u_hi - (8.0 * math.pi / max(drift, 1e-3)) - TWO_PI / k.g_v, LN_FLOOR / 4)

    def chain_point(u: float, depth: int) -> WallPoint | None:
        point = WallPoint(section=IN_V, x=0.0, y=math.exp(u))
        for _ in range(depth):
            point = return_map(point, p)
            if not 0.0 < point.y <= p.eps:
                return None
        return point

    def exit_angle(u: float, depth: int) -> float:
        point = chain_point(u, depth)
        if point is None:
            return math.nan
        return curve_sample(point.x, point.y, p, k).x_w

    def solve_level(depth: int, u_window: tuple[float, float], refine_to: float | None):
        """Crossing parameters of the depth-th image curve inside the window."""
        a, b = u_window
        if refine_to is None:
            n_grid = max(64, int((b - a) / (math.pi / (k.g_v * grid_per_period))) + 1)
            us = np.linspace(a, b, min(n_grid, 200_000))
        else:
            # geometric refinement toward the accumulation end
            ratio = 2.0 ** (-1.0 / 8.0)
            pts = [a, b]
            span = b - a
            while span > 1e-13 * max(1.0, abs(b)) and len(pts) < 600:
                span *= ratio
                pts.append(a + span if refine_to == a else b - span)
            us = np.unique(np.array(pts))
        vals = np.array([exit_angle(float(u), depth) for u in us])
        found = []
        # harvest away from the accumulation end: those roots are the
        # well-conditioned ones
        from_top = refine_to is None or refine_to == a
        for (lo, hi), tgt in _grid_crossings(vals, us, x0, from_top=from_top):
            root = _bisect_fn(lambda u: exit_angle(u, depth), tgt, lo, hi)
            if root is not None:
                found.append(root)
            if len(found) >= max_points * 4:
                break
        return found

    def accumulation_window(u_r: float, depth_prev: int) -> tuple[float, float, float] | None:
        """Sub-window next to a crossing where the following return stays on-section.

        The next-return height is positive where the previous-level angle
        sits just below its crossing value, so march geometrically away
        from the root on that side until the angle has moved by almost eps.
        """
        base = exit_angle(u_r, depth_prev)
        scale = max(1.0, abs(u_r))
        d0 = 1e-11 * scale
        g_minus = exit_angle(u_r - d0, depth_prev)
        g_plus = exit_angle(u_r + d0, depth_prev)
        if math.isfinite(g_minus) and g_minus < base:
            sign = -1.0
        elif math.isfinite(g_plus) and g_plus < base:
            sign = 1.0
        else:
            return None
        d_prev, d = d0, d0
        threshold = base - 0.999 * p.eps
        for _ in range(200):
            d *= 2.0
            g = exit_angle(u_r + sign * d, depth_prev)
            if not math.isfinite(g) or g <= threshold:
                break
            d_prev = d
        else:
            return None
        edge = _bisect_fn(
            lambda u: exit_angle(u, depth_prev),
            threshold,
            *sorted((u_r + sign * d_prev, u_r + sign * d)),
        )
        if edge is None:
            # the image curve left the section before sweeping a full eps;
            # use the last on-section sample as the window edge
            edge = u_r + sign * d_prev
        near = u_r + sign * d0
        lo, hi = sorted((edge, near))
        return lo, hi, (hi if sign < 0 else lo)

    roots = solve_level(0, (u_lo, u_hi), None)
    for depth in range(1, n - 1):
        next_roots: list[float] = []
        for u_r in roots:
            win = accumulation_window(u_r, depth - 1)
            if win is None:
                continue
            w_lo, w_hi, acc_end = win
            next_roots.extend(solve_level(depth, (w_lo, w_hi), refine_to=acc_end))
            if len(next_roots) >= max_points * 2:
                break
        roots = next_roots
        if not roots:
            return []
    out: list[PulsePoint] = []
    for u in roots:
        if len(out) >= max_points:
            break
        s0 = math.exp(u)
        trace: list[tuple[float, float]] = []
        point = WallPoint(section=IN_V, x=0.0, y=s0)
        ok = True
        for _ in range(n - 1):
            sample = curve_sample(point.x, point.y, p, k)
            trace.append((sample.x_w, sample.y_w))
            point = psi_wv(WallPoint(section=OUT_W, x=sample.x_w, y=sample.y_w))
            if not 0.0 < point.y <= p.eps and len(trace) < n - 1:
                ok = False
                break
        residual = circle_dist(trace[-1][0], x0) if ok else math.inf
        # roots hugging the accumulation edge cannot be resolved to the
        # contract tolerance in this parametrisation; drop them
        if not ok or residual > 5e-9:
            continue
        out.append(PulsePoint(s=s0, n=n, trace=tuple(trace), residual=residual))
    return out
