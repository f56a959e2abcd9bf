"""Closed-form exit curve on the outgoing wall and its turning analysis.

A vertical segment beta_t(s) = (t, s) on the incoming wall is carried by the
composition of the two local maps and the disk shear to a curve
(x_w(s), y_w(s)) on the outgoing wall.  With the shear stretch
C(phi) = a^2 cos^2(phi) + sin^2(phi)/a^2 and the sheared angle Phi(phi)
unwound to the quarter turn containing phi, the curve is

    phi      = -g_v ln s + t + c2
    x_w(s)   = -g_w delta_v ln s - (g_w/2) ln C(phi) + Phi(phi) + c3 - g_w ln c1
    y_w(s)   = c4 c1^delta_w s^delta C(phi)^(delta_w/2)

:func:`exit_curve` evaluates it in u = ln s, where phi is affine in (t, u)
and ln y_w is exact down to any depth.  The formula itself lives in the
values step :func:`_exit_values`, which takes sin phi and cos phi once and
returns x_w and ln y_w; the strip bisections, the return chain and the
tangency heights call it directly.  :func:`exit_curve` adds the partials on
top, so they are built only where a Jacobian or a slope needs them.  With
sigma = a^2 - a^-2, sc = sin phi cos phi, Phi' = 1/C and C' = -2 sigma sc,
the partials are

    x_t      = B/C                          B = 1 + g_w sigma sc
    x_u      = -(g_w delta_v + g_v B/C)
    (ln y)_t = -delta_w sigma sc/C
    (ln y)_u = delta + delta_w g_v sigma sc/C

and dx_w/ds = x_u/s vanishes exactly where the turning function

    A(phi)   = C_v a^2 cos^2 phi + (C_v/a^2) sin^2 phi
               + alpha_v (a^2 - a^-2) sin phi cos phi

crosses the level K = alpha_v E_w / alpha_w; indeed
sign(dx_w/ds) = sign(A(phi) - K) pointwise.  In the double angle A is the
harmonic m + R cos(2 phi - theta) (:func:`bykov.params.turning_harmonic`),
so the crossings are (theta -/+ arccos((K - m)/R))/2 mod pi in closed form
and the sign of sin(2 phi - theta) tells their direction; no grid is
involved.  Turning points come in a
geometric sequence s_n = s_0 exp(-n pi / g_v) and satisfy the rotation
identity x_w(s_n) = x_w(s_0) + n pi (1 - gamma), which drives the density
and tangency analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .localmaps import BumpSpec, circle_dist, wrap_pi
from .params import (
    DerivedConstants,
    SaddleParams,
    classify_region,
    derive_constants,
    turning_harmonic,
    turning_level,
)

__all__ = [
    "NoReversalsError",
    "ReturnCurveSample",
    "ReversalSequence",
    "TangencyReport",
    "stretch_sq",
    "sheared_angle",
    "turning_function",
    "turning_level",
    "turning_crossings",
    "ExitCurve",
    "exit_curve",
    "curve_sample",
    "curve_arrays",
    "reversal_sequence",
    "reversal_angle_set",
    "rotation_identity_residual",
    "find_tangency",
]

TWO_PI = 2.0 * math.pi
S_UNDERFLOW = 1e-300


class NoReversalsError(ValueError):
    """Requested reversal-based construction on a parameter point without reversals."""


def _stretch(cos, sin, a: float):
    return (a * a) * cos * cos + (sin * sin) / (a * a)


def _unwound(phi, cos, sin, a: float):
    k = np.floor(2.0 * phi / np.pi)
    base = np.arctan2(sin / a, a * cos)
    return base + TWO_PI * np.rint(((k + 0.5) * (np.pi / 2.0) - base) / TWO_PI)


def stretch_sq(phi, a: float):
    """Squared radial stretch of a unit vector at angle phi under diag(a, 1/a)."""
    return _stretch(np.cos(phi), np.sin(phi), a)


def sheared_angle(phi, a: float):
    """Angle of (a cos phi, sin phi / a), unwound to the quarter turn containing phi.

    The shear preserves the open quadrants, so the image angle lies in the
    same interval [k pi/2, (k+1) pi/2] as phi; that pins the 2*pi branch.
    """
    arr = np.asarray(phi, dtype=float)
    out = _unwound(arr, np.cos(arr), np.sin(arr), a)
    return float(out) if out.ndim == 0 else out


def turning_function(phi, p: SaddleParams):
    """Function whose crossings of :func:`turning_level` mark the exit-curve turnings."""
    a = p.a
    c = np.cos(phi)
    s = np.sin(phi)
    return (
        p.C_v * a * a * c * c
        + (p.C_v / (a * a)) * s * s
        + p.alpha_v * (a * a - 1.0 / (a * a)) * s * c
    )


def turning_crossings(p: SaddleParams) -> list[float]:
    """Transversal roots of A(phi) = K in [0, pi), ascending, from the harmonic form.

    A(phi) - K = R (cos(2 phi - theta) - c) with c = (K - m)/R, so the roots
    are (theta -/+ arccos c)/2 mod pi.  There are none when |K - m| >= R:
    no shear (R = 0), or the level misses A or touches it tangentially.
    """
    m, r, theta = turning_harmonic(p)
    offset = turning_level(p) - m
    if abs(offset) >= r:
        return []
    half = 0.5 * math.acos(offset / r)
    return sorted((0.5 * theta + sign * half) % math.pi for sign in (-1.0, 1.0))


@dataclass(frozen=True)
class ReturnCurveSample:
    """One point of the exit curve, with the turning derivative attached."""

    s: float
    t: float
    phi: float
    x_w: float
    y_w: float
    dxw_ds: float

    @property
    def x_w_mod_2pi(self) -> float:
        return self.x_w % TWO_PI


class ExitCurve(NamedTuple):
    """Exit curve at (t, u = ln s) with the exact partials of x_w and ln y_w."""

    phi: np.ndarray
    x_w: np.ndarray
    log_y: np.ndarray
    x_t: np.ndarray
    x_u: np.ndarray
    log_y_t: np.ndarray
    log_y_u: np.ndarray


class _ExitValues(NamedTuple):
    """Exit curve at (t, u = ln s) without partials, plus what the partials reuse."""

    phi: np.ndarray
    x_w: np.ndarray
    log_y: np.ndarray
    sin: np.ndarray
    cos: np.ndarray
    stretch: np.ndarray


def _exit_values(t, u, p: SaddleParams, k: DerivedConstants) -> _ExitValues:
    """The exit-curve formula: x_w and ln y_w with one sin and one cos of phi."""
    u = np.asarray(u, dtype=float)
    phi = -k.g_v * u + t + k.c2
    sin = np.sin(phi)
    cos = np.cos(phi)
    c = _stretch(cos, sin, p.a)
    ln_c = np.log(c)
    x_w = -k.g_w * k.delta_v * u - 0.5 * k.g_w * ln_c + _unwound(phi, cos, sin, p.a) + k.c3 - k.g_w * math.log(k.c1)
    log_y = math.log(k.c4) + k.delta_w * math.log(k.c1) + k.delta * u + 0.5 * k.delta_w * ln_c
    return _ExitValues(phi, x_w, log_y, sin, cos, c)


def exit_curve(t, u, p: SaddleParams, k: DerivedConstants | None = None) -> ExitCurve:
    """The one exit-curve kernel with its partials; broadcasts over t and u = ln s.

    Working in u keeps every value finite for any s > 0: the height is
    returned as ln y_w, which the caller exponentiates (an underflow then
    degrades to a zero height, not a NaN).  Callers that need only x_w and
    ln y_w use the values step :func:`_exit_values`, which skips the partials.
    """
    if k is None:
        k = derive_constants(p)
    v = _exit_values(t, u, p, k)
    a = p.a
    sigma = a * a - 1.0 / (a * a)
    c = v.stretch
    sc = v.sin * v.cos
    return ExitCurve(
        phi=v.phi,
        x_w=v.x_w,
        log_y=v.log_y,
        x_t=(1.0 + k.g_w * sigma * sc) / c,
        x_u=-(k.g_w * k.delta_v + (k.g_v * k.g_w * sigma * sc + k.g_v) / c),
        log_y_t=-k.delta_w * sigma * sc / c,
        log_y_u=k.delta + k.delta_w * k.g_v * sigma * sc / c,
    )


def curve_arrays(t: float, s, p: SaddleParams, k: DerivedConstants | None = None):
    """The exit curve in s; returns (phi, x_w, y_w, dxw_ds) arrays."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise ValueError("curve parameter s must be strictly positive")
    curve = exit_curve(t, np.log(s_arr), p, k)
    with np.errstate(under="ignore"):
        y_w = np.exp(curve.log_y)
    return curve.phi, curve.x_w, y_w, curve.x_u / s_arr


def curve_sample(t: float, s: float, p: SaddleParams, k: DerivedConstants | None = None) -> ReturnCurveSample:
    """Image on the outgoing wall of the point (t, s) on the incoming wall."""
    if not 0.0 < s <= p.eps:
        raise ValueError(f"curve parameter s must lie in (0, eps], got {s}")
    phi, x_w, y_w, dxw = curve_arrays(t, s, p, k)
    return ReturnCurveSample(
        s=float(s), t=float(t), phi=float(phi), x_w=float(x_w), y_w=float(y_w), dxw_ds=float(dxw)
    )


@dataclass(frozen=True)
class ReversalSequence:
    """Turning points of the exit curve along one vertical segment.

    ``s_values`` stops at float underflow (1e-300); ``log_s_values`` is
    always exact.  ``x_values`` are the exit angles at the turning points,
    obtained from the rotation identity, and ``kinds`` labels each as a
    local maximum or minimum of the exit angle in s.
    """

    t: float
    s_values: np.ndarray
    log_s_values: np.ndarray
    phi_values: np.ndarray
    x_values: np.ndarray
    kinds: tuple[str, ...]
    reason: str | None = None
    inflection: bool = False

    def __len__(self) -> int:
        return len(self.s_values)


def _reversal_entries(
    t: float,
    n_max: int,
    p: SaddleParams,
    k: DerivedConstants,
    stop_at_underflow: bool,
):
    """Shared enumeration of turning points phi_n = root + m*pi with s_n <= eps.

    The turning kind follows the crossing direction of the turning function:
    an upward crossing (dA/dphi = -2R sin(2 phi - theta) > 0) makes the exit
    angle switch from falling to rising as s decreases, i.e. a local
    maximum in s.  Raises when A does not cross the level transversally.
    """
    roots = turning_crossings(p)
    if len(roots) < 2:
        raise NoReversalsError("parameter point has no transversal turning points")
    theta = turning_harmonic(p)[2]
    upward = math.sin(2.0 * roots[0] - theta) < 0.0
    kinds = ("maxima", "minima") if upward else ("minima", "maxima")
    entries = []
    m = min(math.ceil((t - r) / math.pi) for r in roots)
    ln_floor = math.log(S_UNDERFLOW)
    while len(entries) < n_max:
        batch = sorted((r + m * math.pi, j) for j, r in enumerate(roots))
        for phi_n, j in batch:
            if phi_n < t:
                continue
            ln_s = (k.c2 + t - phi_n) / k.g_v
            if stop_at_underflow and ln_s < ln_floor:
                return entries
            entries.append((phi_n, ln_s, kinds[j]))
            if len(entries) >= n_max:
                break
        m += 1
    return entries


def _sequence_from_entries(t, p, k, entries, reason=None, inflection=False) -> ReversalSequence:
    phis = np.array([e[0] for e in entries], dtype=float)
    log_s = np.array([e[1] for e in entries], dtype=float)
    with np.errstate(under="ignore"):
        s_vals = np.exp(log_s)
    # exit angles via the rotation identity anchored at the first entry of
    # each parity class; direct evaluation would underflow in s
    parity = np.arange(len(entries)) % 2
    turns = np.round((phis - phis[parity]) / math.pi)
    x_vals = _exit_values(t, log_s[:2], p, k).x_w[parity] + turns * math.pi * (1.0 - k.gamma)
    return ReversalSequence(
        t=t,
        s_values=s_vals,
        log_s_values=log_s,
        phi_values=phis,
        x_values=x_vals,
        kinds=tuple(e[2] for e in entries),
        reason=reason,
        inflection=inflection,
    )


def reversal_sequence(
    t: float,
    n_max: int,
    p: SaddleParams,
    rationality_tol: float = 1e-9,
    q_max: int = 10**6,
) -> ReversalSequence:
    """Turning points s_n of the exit curve, largest first, capped at underflow.

    Empty (with a reason) when the parameter point admits no reversals;
    a tangential crossing is reported as an inflection.
    """
    k = derive_constants(p)
    region = classify_region(p, rationality_tol=rationality_tol, q_max=q_max)
    if region.tag in ("NoReversal_aEq1", "OutsideB"):
        return _sequence_from_entries(t, p, k, [], reason=region.tag)
    if region.tag == "BoundaryB":
        return _sequence_from_entries(t, p, k, [], reason="BoundaryB", inflection=True)
    entries = _reversal_entries(t, n_max, p, k, stop_at_underflow=True)
    return _sequence_from_entries(t, p, k, entries)


def reversal_angle_set(t: float, n_max: int, p: SaddleParams) -> ReversalSequence:
    """Analytic continuation of the reversal sequence past s-underflow.

    The exit angles of the turning points obey the rotation identity
    exactly, so they stay computable long after the s-values themselves
    degrade to zero; ``log_s_values`` remains exact throughout.  Raises
    when no reversals exist.
    """
    k = derive_constants(p)
    entries = _reversal_entries(t, n_max, p, k, stop_at_underflow=False)
    return _sequence_from_entries(t, p, k, entries)


def rotation_identity_residual(s0: float, n: int, t: float, p: SaddleParams) -> float:
    """|x_w(s0 e^{-n pi/g_v}) - x_w(s0) - n pi (1 - gamma)|, both points evaluated directly."""
    k = derive_constants(p)
    if not 0.0 < s0 <= p.eps:
        raise ValueError(f"s0 must lie in (0, eps], got {s0}")
    s_n = s0 * math.exp(-n * math.pi / k.g_v)
    if not 0.0 < s_n <= p.eps:
        raise ValueError(f"shifted parameter {s_n} left (0, eps]")
    x0 = curve_sample(t, s0, p, k).x_w
    xn = curve_sample(t, s_n, p, k).x_w
    return abs(xn - x0 - n * math.pi * (1.0 - k.gamma))


@dataclass(frozen=True)
class TangencyReport:
    """Constructive tangency data: nearest reversal and the bump realising it."""

    x0: float
    t: float
    n_max: int
    n_best: int
    x_best: float
    log_s_best: float
    amplitude: float
    bump: BumpSpec
    region_tag: str
    warning: str | None
    history: tuple[tuple[int, float], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "x0": self.x0,
            "t": self.t,
            "n_max": self.n_max,
            "n_best": self.n_best,
            "x_best": self.x_best,
            "log_s_best": self.log_s_best,
            "amplitude": self.amplitude,
            "bump": {
                "amplitude": self.bump.amplitude,
                "center": list(self.bump.center),
                "radius": self.bump.radius,
            },
            "region_tag": self.region_tag,
            "warning": self.warning,
            "history": [list(h) for h in self.history],
        }


def find_tangency(
    x0: float,
    t: float,
    n_max: int,
    p: SaddleParams,
    default_radius: float = 0.05,
) -> TangencyReport:
    """Nearest reversal to the stable-manifold trace and the bump moving the trace onto it.

    Scans the first ``n_max`` turning points, picks the one whose exit
    angle is closest to ``x0`` on the circle, and returns a compactly
    supported displacement of that exact amplitude whose support excludes
    the neighbouring turning points.  The recorded history of running
    minima shows how the distance shrinks as more turning points are
    admitted.
    """
    region = classify_region(p)
    warning = None
    if region.tag == "InteriorB_GammaRational":
        warning = "gamma is rational within tolerance; reversal angles form a finite set"
    elif region.tag not in ("DenseReversals_D",):
        # OutsideB / boundary / a=1 have no reversal points at all
        seq = reversal_sequence(t, 1, p)
        if len(seq) == 0:
            raise NoReversalsError(
                f"no reversal points available for tangency construction (region {region.tag})"
            )
    angles = reversal_angle_set(t, n_max, p)
    k = derive_constants(p)
    dist = np.abs(np.remainder(angles.x_values - x0 + math.pi, TWO_PI) - math.pi)
    best = int(np.argmin(dist))
    history = []
    running = math.inf
    for i, d in enumerate(dist):
        if d < running:
            running = float(d)
            history.append((i + 1, running))
    x_best = float(angles.x_values[best])
    signed = wrap_pi(x0 - x_best)
    # cylinder position of the chosen reversal point
    center_x = wrap_pi(x0 - signed)
    with np.errstate(under="ignore"):
        heights = np.exp(_exit_values(t, angles.log_s_values, p, k).log_y)
    center_y = float(heights[best])
    # keep the support clear of the other turning points
    sep = math.inf
    for i in range(len(angles.x_values)):
        if i == best:
            continue
        gap = math.hypot(circle_dist(float(angles.x_values[i]), x_best), float(heights[i]) - center_y)
        sep = min(sep, gap)
    radius = max(min(default_radius, 0.45 * sep), 1e-12)
    bump = BumpSpec(amplitude=signed, center=(center_x, center_y), radius=radius)
    return TangencyReport(
        x0=x0,
        t=t,
        n_max=n_max,
        n_best=best,
        x_best=x_best,
        log_s_best=float(angles.log_s_values[best]),
        amplitude=abs(signed),
        bump=bump,
        region_tag=region.tag,
        warning=warning,
        history=tuple(history),
    )
