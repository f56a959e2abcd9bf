"""First-return map, horizontal strips, hyperbolicity and multi-pulse search.

The first return to the incoming wall is the exit curve followed by the
quarter-turn transition: g(x, y) = (y_w(x, y), -x_w(x, y)) with the second
coordinate reduced to (-pi, pi].  A horizontal strip across the rectangle
[0, tau]^2 is a band a_n(t) <= s <= b_n(t) on which the exit angle sweeps a
full copy of [-tau, 0] modulo 2*pi; the quarter turn then stands the image
vertically across the same rectangle.  Hyperbolicity of g is read off its
exact Jacobian, assembled from the partials of the exit-curve kernel
:func:`bykov.returncurve.exit_curve`; finite differences of the return map
live only in :mod:`bykov.oracles`, as the test and ``--verify`` oracle.
Everything that needs only x_w and ln y_w (the strip bisections, which
solve both boundaries of a strip in one call, the return chain of the
multi-pulse search, the strip checks and images) runs on the kernel's
values step, which skips the partials; only the Jacobian and the
monotonicity check of the strip invariants pay for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .localmaps import IN_V, OUT_W, BumpSpec, WallPoint, circle_dist, psi_wv
from .params import DerivedConstants, Region, SaddleParams, classify_region, derive_constants, turning_harmonic
from .returncurve import (
    NoReversalsError,
    _exit_values,
    curve_sample,
    exit_curve,
    reversal_angle_set,
    turning_crossings,
)

__all__ = [
    "ResonanceError",
    "PeriodicTangencyError",
    "return_map",
    "return_jacobian",
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
# an eigenvalue modulus this close to 1 is not called hyperbolic
UNIT_TOL = 1e-6


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


def return_jacobian(x: float, y: float, p: SaddleParams) -> np.ndarray:
    """Exact Jacobian of the unreduced return (y_w, -x_w) at (x, y), y > 0.

    J = [[y_w (ln y)_t, y_w (ln y)_u / y], [-x_t, -x_u / y]] from the
    partials of the exit-curve kernel in u = ln y.
    """
    if y <= 0.0:
        raise ValueError(f"the return-map Jacobian requires y > 0, got {y}")
    curve = exit_curve(x, math.log(y), p)
    y_w = np.exp(curve.log_y)
    return np.array(
        [
            [y_w * curve.log_y_t, y_w * curve.log_y_u / y],
            [-curve.x_t, -curve.x_u / y],
        ]
    )


@dataclass(frozen=True)
class JacobianReport:
    """Determinant, trace and eigenvalue class of the return-map Jacobian at a point."""

    x: float
    y: float
    det: float
    trace: float
    eigen_class: str


def _eigen_moduli(trace: float, det: float) -> tuple[float, float]:
    disc = trace * trace - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        l1, l2 = (trace - root) / 2.0, (trace + root) / 2.0
        m = sorted((abs(l1), abs(l2)))
    else:
        m = [math.sqrt(det)] * 2
    return m[0], m[1]


def jacobian_report(x: float, y: float, p: SaddleParams) -> JacobianReport:
    """Hyperbolicity of the unperturbed return map at (x, y) from its exact Jacobian."""
    jac = return_jacobian(x, y, p)
    det = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
    trace = float(jac[0, 0] + jac[1, 1])
    m1, m2 = _eigen_moduli(trace, det)
    if abs(m1 - 1.0) < UNIT_TOL or abs(m2 - 1.0) < UNIT_TOL:
        eigen_class = "non-hyperbolic-within-tol"
    elif m2 < 1.0:
        eigen_class = "double-contraction"
    elif m1 > 1.0:
        eigen_class = "double-expansion"
    else:
        eigen_class = "saddle"
    return JacobianReport(x=x, y=y, det=det, trace=trace, eigen_class=eigen_class)


@dataclass(frozen=True)
class PeriodicTangencyResult:
    found: bool
    witness_n: int | None
    angle: float | None
    distance: float


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


def _bisect(fn, target, lo, hi, tol: float = 1e-13) -> np.ndarray:
    """Bisection for fn(u) = target over float arrays of brackets [lo, hi].

    ``fn`` maps an array of u to an array of values.  Each element stops on
    its own once its bracket is at most ``tol`` wide, so it ends where a
    scalar bisection from the same bracket would.  A bracket that reaches
    |u| >= 512, where the default tol is below one ulp, stops instead once
    it is no wider than one ulp of its larger end.  An element comes back
    nan when its bracket does not straddle the target or when ``fn`` turns
    non-finite on it.
    """
    tol = np.maximum(tol, np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    f_lo = fn(lo) - target
    f_hi = fn(hi) - target
    below_lo = f_lo < 0.0
    ok = np.isfinite(f_lo) & np.isfinite(f_hi) & (below_lo != (f_hi < 0.0))
    active = ok & (hi - lo > tol)
    while active.any():
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid) - target
        finite = np.isfinite(f_mid)
        if not finite.all():
            ok &= finite | ~active
            active &= ok
        below_mid = f_mid < 0.0
        to_lo = active & (below_lo != below_mid)
        to_hi = active ^ to_lo
        hi = np.where(to_lo, mid, hi)
        lo = np.where(to_hi, mid, lo)
        below_lo = np.where(to_hi, below_mid, below_lo)
        active = ok & (hi - lo > tol)
    return np.where(ok, 0.5 * (lo + hi), np.nan)


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


def _period_pieces(p: SaddleParams, region: Region) -> list[tuple[float, float, int]]:
    """Monotone phi-pieces of one period of the turning function, ascending.

    Each is (phi_lo, phi_hi, sign) with the sign of A - K on the piece; the
    pieces repeat with period pi.  A transversal crossing starts a piece
    with A > K when it is upward, i.e. when dA/dphi = -2R sin(2 phi - theta)
    > 0: the direction test of the reversal kinds.  At the boundary of B the
    level grazes one extremum, once per period, and A - K keeps one sign
    between the grazes: negative below the maximum, positive above the
    minimum.
    """
    theta = turning_harmonic(p)[2]
    if region.tag == "BoundaryB":
        at_min = abs(region.a_min - region.k) < abs(region.a_max - region.k)
        graze = (0.5 * (theta + math.pi) if at_min else 0.5 * theta) % math.pi
        return [(graze, graze + math.pi, 1 if at_min else -1)]
    r0, r1 = turning_crossings(p)
    sign = 1 if math.sin(2.0 * r0 - theta) < 0.0 else -1
    return [(r0, r1, sign), (r1, r0 + math.pi, -sign)]


def _case_pieces(
    t: float,
    k: DerivedConstants,
    period: list[tuple[float, float, int]],
    want_sign: int,
    max_pieces: int,
) -> list[tuple[float, float]]:
    """Copies of the ``period`` pieces shifted by multiples of pi, from phi = t on.

    Keeps those on which A - K has the sign ``want_sign`` and returns them
    as (phi_lo, phi_hi) pairs, ascending; s decreases as phi grows.
    """
    out: list[tuple[float, float]] = []
    m = min(math.ceil((t - lo) / math.pi) for lo, _, _ in period)
    while len(out) < max_pieces:
        for lo, hi, sign in period:
            if sign == want_sign and lo + m * math.pi >= t:
                out.append((lo + m * math.pi, hi + m * math.pi))
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
    period = [] if case == "I" else _period_pieces(p, region)
    if case == "III":
        d = period[0][1] - period[0][0]
        if tau_eff >= d / 2.0:
            tau_eff = 0.45 * d
            notes.append(f"tau shrunk to {tau_eff:.6g} (< half the root separation {d:.6g})")
    endpoint_margin = slack
    if case == "IV":
        # tangential crossing: the monotone pieces run between the grazing
        # angles, and strip targets must keep a wide berth from the piece
        # endpoint values (the inflection angles)
        endpoint_margin = 10.0 * tau_eff
        notes.append(f"inflection exclusion half-width {endpoint_margin:.6g}")

    for grid_n in (t_samples, 4 * (t_samples - 1) + 1):
        t_grid = np.linspace(0.0, tau_eff, grid_n)
        strips = _collect_strips(tau_eff, n_limit, p, k, case, period, t_grid, slack, endpoint_margin)
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
    period: list[tuple[float, float, int]],
    t_grid: np.ndarray,
    slack: float,
    endpoint_margin: float,
) -> list[Strip]:
    increasing = k.gamma > 1.0
    strips: list[Strip] = []

    t_pair = np.concatenate([t_grid, t_grid])

    def x_at(u):
        return _exit_values(t_grid, u, p, k).x_w

    def x_pair(u):
        return _exit_values(t_pair, u, p, k).x_w

    def targets_for(winding: int) -> tuple[float, float]:
        # a-boundary carries the -tau residue for increasing exit angle,
        # the 0 residue for decreasing (the mirrored case)
        if increasing:
            return TWO_PI * winding - tau, TWO_PI * winding
        return TWO_PI * winding, TWO_PI * winding - tau

    def solve_strip(winding: int, u_los: np.ndarray, u_his: np.ndarray) -> Strip | None:
        tgt_a, tgt_b = targets_for(winding)
        x_lo, x_hi = x_at(u_los), x_at(u_his)
        x_min, x_max = np.minimum(x_lo, x_hi), np.maximum(x_lo, x_hi)
        for tgt in (tgt_a, tgt_b):
            if not np.all((x_min + endpoint_margin <= tgt) & (tgt <= x_max - endpoint_margin)):
                return None
        # cheap height gate before paying for the bisections: the exit
        # height at the interpolated target location must be at least near
        # the rectangle width already
        frac = (0.5 * (tgt_a + tgt_b) - x_lo[0]) / (x_hi[0] - x_lo[0])
        u_est = u_los[0] + min(max(frac, 0.0), 1.0) * (u_his[0] - u_los[0])
        if _exit_values(t_grid[0], u_est, p, k).log_y > math.log(4.0 * tau):
            return None
        # both boundaries in one bisection; each bracket stops on its own
        n = len(t_grid)
        targets = np.concatenate([np.full(n, tgt_a), np.full(n, tgt_b)])
        u_ab = _bisect(x_pair, targets, np.concatenate([u_los, u_los]), np.concatenate([u_his, u_his]))
        if np.isnan(u_ab).any():
            raise RuntimeError("target not bracketed by the monotone interval")
        u_a, u_b = u_ab[:n], u_ab[n:]
        # libm's exp, not numpy's: the two can differ in the last bit, and
        # the boundaries are written to strips.csv, which stays bit-stable
        a_vals = np.array([math.exp(u) for u in np.minimum(u_a, u_b)])
        b_vals = np.array([math.exp(u) for u in np.maximum(u_a, u_b)])
        # the return image must stay inside the rectangle's width: its
        # horizontal extent is the exit height, so early windings whose
        # heights still exceed tau are skipped (strips accumulate downward)
        s_chk = np.linspace(a_vals, b_vals, 5)
        with np.errstate(under="ignore"):
            heights = np.exp(_exit_values(t_grid, np.log(s_chk), p, k).log_y)
        if np.any(heights > tau):
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
        u_tops = np.full(len(t_grid), math.log(p.eps))
        x_tops = x_at(u_tops)
        if increasing:
            w = math.floor((float(np.min(x_tops)) - slack - tau) / TWO_PI)
        else:
            w = math.ceil((float(np.max(x_tops)) + slack + tau) / TWO_PI)
        # march a bracket cursor downward in u for every t; x_w is monotone
        # on the whole tail so [cursor, top] always brackets the targets
        u_cur, x_cur = u_tops, x_tops
        while len(strips) < n_limit:
            tgt_a, tgt_b = targets_for(w)
            beyond = min(tgt_a, tgt_b) - 1.0 if increasing else max(tgt_a, tgt_b) + 1.0
            behind = (x_cur >= beyond) if increasing else (x_cur <= beyond)
            while np.any(behind):
                u_cur = np.where(behind, u_cur - 1.0, u_cur)
                if np.any(u_cur < LN_FLOOR):
                    return strips
                x_cur = x_at(u_cur)
                behind = (x_cur >= beyond) if increasing else (x_cur <= beyond)
            strip = solve_strip(w, u_cur, u_tops)
            if strip is not None:
                strips.append(strip)
            w = w - 1 if increasing else w + 1
        return strips

    # cases II/III/IV: monotone pieces between consecutive reversals
    want_sign = 1 if increasing else -1
    max_pieces = max(64, 16 * n_limit)
    for lo, hi in _case_pieces(0.0, k, period, want_sign, max_pieces):
        if len(strips) >= n_limit:
            break
        if (k.c2 - hi) / k.g_v < LN_FLOOR:
            break
        u_los = (k.c2 + t_grid - hi) / k.g_v
        u_his = (k.c2 + t_grid - lo) / k.g_v
        # candidate windings common to all t
        x_a, x_b = x_at(u_los), x_at(u_his)
        lo_w = int(np.max(np.ceil((np.minimum(x_a, x_b) + endpoint_margin + tau) / TWO_PI)))
        hi_w = int(np.min(np.floor((np.maximum(x_a, x_b) - endpoint_margin) / TWO_PI)))
        windings = range(hi_w, lo_w - 1, -1) if increasing else range(lo_w, hi_w + 1)
        for w in windings:
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
    lo_res = -family.tau if increasing else 0.0
    hi_res = 0.0 if increasing else -family.tau
    fracs = np.array([0.125, 0.375, 0.625, 0.875])[:, None]
    for strip in family.strips:
        t_grid, a, b = strip.t_grid, strip.a_of_t, strip.b_of_t
        ordered = (0.0 < a) & (a < b) & (b <= p.eps)
        # out-of-order samples are reported as such; evaluate them at eps
        a = np.where(ordered, a, p.eps)
        b = np.where(ordered, b, p.eps)
        x_ab = _exit_values(np.concatenate([t_grid, t_grid]), np.log(np.concatenate([a, b])), p, k).x_w
        x_a, x_b = np.split(x_ab, 2)
        miss_a = np.abs(np.remainder(x_a - lo_res + math.pi, TWO_PI) - math.pi) > tol
        miss_b = np.abs(np.remainder(x_b - hi_res + math.pi, TWO_PI) - math.pi) > tol
        # dx_w/ds = x_u / s has the sign of x_u
        slope = exit_curve(t_grid, np.log(a + fracs * (b - a)), p, k).x_u
        wrong = np.any((slope <= 0) if increasing else (slope >= 0), axis=0)
        for i, t in enumerate(t_grid):
            if not ordered[i]:
                out.append(f"strip {strip.index}: boundaries out of order at t={t}")
                continue
            if miss_a[i]:
                out.append(f"strip {strip.index}: lower boundary misses target at t={t}")
            if miss_b[i]:
                out.append(f"strip {strip.index}: upper boundary misses target at t={t}")
            if wrong[i]:
                out.append(f"strip {strip.index}: wrong monotonicity inside at t={t}")
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
    k = derive_constants(p)
    out = []
    for strip in family.strips:
        t_grid, a, b = strip.t_grid, strip.a_of_t, strip.b_of_t
        edges = [0, len(t_grid) - 1]
        ts = np.concatenate([t_grid, t_grid, np.repeat(t_grid[edges], boundary_samples)])
        ss = np.concatenate([a, b, np.linspace(a[edges], b[edges], boundary_samples, axis=1).ravel()])
        curve = _exit_values(ts, np.log(ss), p, k)
        # the return map is (x, y) -> (y_w, -x_w) with the height reduced
        with np.errstate(under="ignore"):
            xs = np.exp(curve.log_y)
        ys = np.remainder(math.pi - curve.x_w, TWO_PI) - math.pi
        y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
        x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
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


def _wrap_pi(x: np.ndarray) -> np.ndarray:
    """Array form of :func:`bykov.localmaps.wrap_pi`, bit for bit."""
    r = np.fmod(x, TWO_PI)
    return np.where(r > math.pi, r - TWO_PI, np.where(r <= -math.pi, r + TWO_PI, r))


def _chain_angle(u, depth: int, p: SaddleParams, k: DerivedConstants) -> np.ndarray:
    """Exit angle after ``depth`` returns of the points (0, e^u) of the incoming wall.

    The array form of ``depth`` calls of :func:`return_map` followed by
    :func:`curve_sample`, on the exit-curve kernel.  An element is nan once
    its orbit leaves the height range (0, eps]; an overflowing seed counts
    as off-section.  Seeds use libm's exp, as the strip boundaries do.
    """
    u = np.asarray(u, dtype=float)
    y = np.array([math.exp(v) if v < 709.0 else math.inf for v in u.ravel()]).reshape(u.shape)
    x = np.zeros_like(y)
    with np.errstate(under="ignore"):
        for _ in range(depth + 1):
            y = np.where((0.0 < y) & (y <= p.eps), y, np.nan)
            curve = _exit_values(x, np.log(y), p, k)
            x, y = np.exp(curve.log_y), _wrap_pi(-curve.x_w)
    return curve.x_w


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
    Every level runs whole u-grids through :func:`_chain_angle` and refines
    all crossings in one :func:`_bisect`.  An empty list means no crossing
    in the window, which is not an error.
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

    def solve_level(depth: int, a: float, b: float, refine_to: float | None) -> list[float]:
        """Crossing parameters of the depth-th image curve inside [a, b]."""
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
        vals = _chain_angle(us, depth, p, k)
        # every multiple of 2*pi (shifted by x0) between the values at the
        # two ends of a grid cell is one bracketed crossing
        v0, v1 = vals[:-1], vals[1:]
        cells = np.flatnonzero(np.isfinite(v0) & np.isfinite(v1))
        # harvest away from the accumulation end: those roots are the
        # well-conditioned ones
        if refine_to is None or refine_to == a:
            cells = cells[::-1]
        k_lo = np.ceil((np.minimum(v0, v1)[cells] - x0) / TWO_PI)
        k_hi = np.floor((np.maximum(v0, v1)[cells] - x0) / TWO_PI)
        counts = np.maximum(k_hi - k_lo + 1.0, 0.0).astype(int)
        cell = np.repeat(cells, counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        winding = np.repeat(k_lo, counts) + (np.arange(len(cell)) - first)
        roots = _bisect(partial(_chain_angle, depth=depth, p=p, k=k), x0 + TWO_PI * winding, us[cell], us[cell + 1])
        return roots[~np.isnan(roots)][: max_points * 4].tolist()

    def accumulation_windows(roots: np.ndarray, depth_prev: int) -> list[tuple[float, float, float]]:
        """Sub-windows next to crossings where the following return stays on-section.

        The next-return height is positive where the previous-level angle
        sits just below its crossing value, so march geometrically away
        from each root on that side until the angle has moved by almost eps.
        """
        d0 = 1e-11 * np.maximum(1.0, np.abs(roots))
        base, g_minus, g_plus = _chain_angle([roots, roots - d0, roots + d0], depth_prev, p, k)
        sign = np.where(
            np.isfinite(g_minus) & (g_minus < base),
            -1.0,
            np.where(np.isfinite(g_plus) & (g_plus < base), 1.0, np.nan),
        )
        threshold = base - 0.999 * p.eps
        steps = d0[:, None] * 2.0 ** np.arange(201)
        g = _chain_angle(roots[:, None] + sign[:, None] * steps[:, 1:], depth_prev, p, k)
        stop = ~np.isfinite(g) | (g <= threshold[:, None])
        first = np.argmax(stop, axis=1)
        rows = np.arange(len(roots))
        d_prev, d = steps[rows, first], steps[rows, first + 1]
        inside = roots + sign * d_prev
        edge = _bisect(
            partial(_chain_angle, depth=depth_prev, p=p, k=k),
            threshold,
            np.minimum(inside, roots + sign * d),
            np.maximum(inside, roots + sign * d),
        )
        # the image curve left the section before sweeping a full eps: use
        # the last on-section sample as the window edge
        edge = np.where(np.isnan(edge), inside, edge)
        near = roots + sign * d0
        windows = []
        for i in np.flatnonzero(~np.isnan(sign) & stop.any(axis=1)):
            lo, hi = sorted((float(edge[i]), float(near[i])))
            windows.append((lo, hi, hi if sign[i] < 0 else lo))
        return windows

    roots = solve_level(0, u_lo, u_hi, None)
    for depth in range(1, n - 1):
        next_roots: list[float] = []
        for w_lo, w_hi, acc_end in accumulation_windows(np.array(roots), depth - 1):
            next_roots.extend(solve_level(depth, w_lo, w_hi, refine_to=acc_end))
            if len(next_roots) >= max_points * 2:
                break
        roots = next_roots
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
