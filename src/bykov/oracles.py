"""Independent oracles: the elementary maps and their compositions, pulse
replay, the return-map Jacobian by the chain rule through those maps,
vector-field finite differences, turning-function grid, rotation-identity
residual.

Everything here deliberately avoids the closed-form shortcuts of
:mod:`bykov.returncurve` and :mod:`bykov.params`; the exit curve is rebuilt
step by step through the elementary maps (and differentiated by multiplying
their own Jacobians), and the turning-function range is sampled from its
direct trigonometric form, so the two routes can be compared against each
other.
The composition is written twice: in s as the maps are stated
(:func:`eta_composed`), and in log radii (:func:`eta_log`), which every
``--verify`` replays because it represents every height.
The one exception is :func:`rotation_identity_residual`, which evaluates
the closed form twice to check the identity the reversal enumeration
extrapolates with.

Each node sits in a cylindrical neighbourhood whose boundary splits into a
wall (angle/height coordinates ``x, y``) and a top disk (polar ``r, phi``).
Trajectories enter the first node through the wall ``In_v``, exit through
the disk ``Out_v``, enter the second node through the disk ``In_w`` and
exit through the wall ``Out_w``.  Angles are stored unreduced; spiral
winding counts carry real information and reduction happens only at
comparison sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import ModelConfig, make_rhs
from .params import DerivedConstants, SaddleParams
from .returncurve import TWO_PI, BumpSpec, circle_dist, curve_arrays, turning_function, wrap_pi

# grid spacing h = pi / 100000 puts each sampled extremum within
# R (1 - cos h) < 5e-10 R of the true one
TURNING_GRID_POINTS = 100_001
# the grid is evaluated this many points at a time, so only one slice's
# temporaries are alive at once
TURNING_GRID_SLICE = 8192

IN_V = "In_v"
OUT_V = "Out_v"
IN_W = "In_w"
OUT_W = "Out_w"


class OnManifoldError(ValueError):
    """The point lies on an invariant manifold and never reaches the target section."""


@dataclass(frozen=True)
class WallPoint:
    """Point on a cylinder-wall section: angle ``x`` (unreduced), height ``y``."""

    section: str
    x: float
    y: float


@dataclass(frozen=True)
class DiskPoint:
    """Point on a disk section in polar coordinates; ``phi`` unreduced."""

    section: str
    r: float
    phi: float


@dataclass(frozen=True)
class RectPoint:
    """Rectangular coordinates on a disk section."""

    X: float
    Y: float


def phi_v(p: WallPoint, k: DerivedConstants) -> DiskPoint:
    """Local map through the first node: wall ``In_v`` to disk ``Out_v``.

    (x, y) with 0 < y <= eps is sent to (r, phi) = (c1 * y**delta_v,
    -g_v*ln(y) + x + c2).  Heights y <= 0 lie on (or below) the stable
    manifold and never exit.
    """
    if p.section != IN_V:
        raise ValueError(f"phi_v expects a point on {IN_V}, got {p.section}")
    if p.y <= 0.0:
        raise OnManifoldError("point on the stable manifold of the first node (y <= 0)")
    return DiskPoint(
        section=OUT_V,
        r=k.c1 * p.y**k.delta_v,
        phi=-k.g_v * math.log(p.y) + p.x + k.c2,
    )


def phi_w(p: DiskPoint, k: DerivedConstants) -> WallPoint:
    """Local map through the second node: disk ``In_w`` to wall ``Out_w``.

    (r, phi) with 0 < r <= eps is sent to (x, y) = (c3 - g_w*ln(r) + phi,
    c4 * r**delta_w); the output angle is unreduced.
    """
    if p.section != IN_W:
        raise ValueError(f"phi_w expects a point on {IN_W}, got {p.section}")
    if p.r <= 0.0:
        raise OnManifoldError("point on the stable manifold of the second node (r <= 0)")
    return WallPoint(
        section=OUT_W,
        x=k.c3 - k.g_w * math.log(p.r) + p.phi,
        y=k.c4 * p.r**k.delta_w,
    )


def psi_vw(p: RectPoint, a: float) -> RectPoint:
    """Transition between the disks: the area-preserving shear (X, Y) -> (aX, Y/a)."""
    return RectPoint(X=a * p.X, Y=p.Y / a)


def psi_wv(p: WallPoint, bump: BumpSpec | None = None) -> WallPoint:
    """Transition from wall ``Out_w`` to wall ``In_v``: a quarter-turn of the chart.

    The section charts are rotated against each other by pi/2, so
    (x, y) -> (y, -x): the unstable-manifold trace {y = 0} of the second
    node lands on the vertical segment {x = 0} of ``In_v`` and the strip
    target [-tau, 0] in x lands on heights [0, tau].  An optional bump
    displaces the x-coordinate before the turn, which bends the
    stable-manifold trace {x = 0} without touching anything outside the
    support disk.  The output height is reduced to (-pi, pi]; a value <= 0
    means the point arrived on or below the stable manifold of the first
    node.
    """
    if p.section != OUT_W:
        raise ValueError(f"psi_wv expects a point on {OUT_W}, got {p.section}")
    x_eff = p.x
    if bump is not None:
        x_eff += bump.displacement(wrap_pi(p.x), p.y)
    return WallPoint(section=IN_V, x=p.y, y=wrap_pi(-x_eff))


def polar_rect(p: DiskPoint) -> RectPoint:
    return RectPoint(X=p.r * math.cos(p.phi), Y=p.r * math.sin(p.phi))


def rect_polar(p: RectPoint, branch_hint: float) -> DiskPoint:
    """Convert back to polar on ``In_w``, choosing the angle branch closest to ``branch_hint``.

    The hint resolves the winding count that plain atan2 loses; it must be
    within pi of the true unwound angle.
    """
    if p.X == 0.0 and p.Y == 0.0:
        raise OnManifoldError("origin of the disk lies on the one-dimensional connection")
    base = math.atan2(p.Y, p.X)
    phi = base + TWO_PI * round((branch_hint - base) / TWO_PI)
    return DiskPoint(section=IN_W, r=math.hypot(p.X, p.Y), phi=phi)


def flight_map_v(x: float, y: float, p: SaddleParams) -> DiskPoint:
    """Time-of-flight oracle for :func:`phi_v` using exact exponentials.

    Integrates the linear node dynamics from (rho, theta, z) = (eps, x, y)
    until z = eps; independent of the closed-form map.
    """
    if y <= 0.0:
        raise OnManifoldError("point on the stable manifold of the first node (y <= 0)")
    flight = math.log(p.eps / y) / p.E_v
    return DiskPoint(
        section=OUT_V,
        r=p.eps * math.exp(-p.C_v * flight),
        phi=x + p.alpha_v * flight,
    )


def flight_map_w(r: float, phi: float, p: SaddleParams) -> WallPoint:
    """Time-of-flight oracle for :func:`phi_w` (enter disk at z = eps, exit at rho = eps)."""
    if r <= 0.0:
        raise OnManifoldError("point on the stable manifold of the second node (r <= 0)")
    flight = math.log(p.eps / r) / p.E_w
    return WallPoint(
        section=OUT_W,
        x=phi - p.alpha_w * flight,
        y=p.eps * math.exp(-p.C_w * flight),
    )


def eta_composed(t: float, s: float, p: SaddleParams) -> tuple[float, float]:
    """Exit-wall image of (t, s) built through the elementary maps.

    The angle branch after the shear is resolved with the pre-shear angle as
    hint: the shear maps each open quadrant to itself, so the unwound image
    angle stays within a quarter turn of the input.
    """
    disk = phi_v(WallPoint(section=IN_V, x=t, y=s), p.constants)
    sheared = psi_vw(polar_rect(disk), p.a)
    unwound = rect_polar(sheared, branch_hint=disk.phi)
    out = phi_w(unwound, p.constants)
    return out.x, out.y


def eta_log(t: float, u: float, p: SaddleParams) -> tuple[float, float]:
    """Exit-wall image (x_w, ln y_w) of (t, e^u), composed through the elementary maps in log radii.

    The shear is linear, so it acts on the unit direction at phi = -g_v u + t + c2,
    and ln r = ln c1 + delta_v u + ln|sheared unit| goes through :func:`phi_w`'s
    x_w = c3 - g_w ln r + unwound angle and ln y_w = ln c4 + delta_w ln r.  No
    radius is formed, so every finite u is represented.
    """
    k = p.constants
    phi = -k.g_v * u + t + k.c2
    unit = rect_polar(psi_vw(polar_rect(DiskPoint(section=OUT_V, r=1.0, phi=phi)), p.a), branch_hint=phi)
    ln_r = math.log(k.c1) + k.delta_v * u + math.log(unit.r)
    return k.c3 - k.g_w * ln_r + unit.phi, math.log(k.c4) + k.delta_w * ln_r


def composed_return(point: WallPoint, p: SaddleParams) -> WallPoint:
    """First-return image built through the elementary maps only."""
    x_w, y_w = eta_composed(point.x, point.y, p)
    return psi_wv(WallPoint(section=OUT_W, x=x_w, y=y_w))


@dataclass(frozen=True)
class PulseReplay:
    """Forward replay of a candidate multi-pulse connection."""

    out_w_crossings: int
    residual: float
    heights: tuple[float, ...]


def replay_pulse(s0: float, n: int, p: SaddleParams, x0: float = 0.0) -> PulseReplay:
    """Follow beta(s0) through n-1 exit-wall crossings of :func:`eta_log` and measure the final miss.

    A genuine n-pulse connection crosses the exit wall n times in total: the
    first crossing happens on the local unstable manifold itself (height
    zero), the remaining n-1 are produced by loops around the cycle, and at
    the last one the angle must agree with the stable-manifold trace x0 on
    the circle.  Raises if an intermediate return leaves the section.
    """
    if n < 2:
        raise ValueError(f"pulse count must be at least 2, got {n}")
    point = WallPoint(section=IN_V, x=0.0, y=s0)
    heights = []
    for _ in range(n - 1):
        x_w, log_y = eta_log(point.x, math.log(point.y), p)
        y_w = math.exp(log_y)
        heights.append(y_w)
        point = psi_wv(WallPoint(section=OUT_W, x=x_w, y=y_w))
        if not 0.0 < point.y <= p.eps and len(heights) < n - 1:
            raise ValueError(f"pulse replay left the section after crossing {len(heights)}: height {point.y}")
    # x0 is read mod 2 pi, reduced exactly as find_multipulse reduces it
    return PulseReplay(
        out_w_crossings=1 + len(heights), residual=circle_dist(x_w, math.remainder(x0, TWO_PI)), heights=tuple(heights)
    )


def return_jacobian_chain(x: float, y: float, p: SaddleParams) -> np.ndarray:
    """Jacobian of the unreduced return (y_w, -x_w) at (x, y), the chain rule through :func:`eta_log`'s maps.

    At t = x mod 2 pi, reduced exactly (the return map has period 2 pi in x),
    and u = ln y, it multiplies the maps' Jacobians: :func:`phi_v` in log
    radii, (t, u) -> (ln r, phi), is [[0, delta_v], [1, -g_v]]; the shear is
    [[1, .], [0, .]], where :func:`psi_vw` carries the turn (-sin phi, cos phi)
    of the unit direction to (dX, dY) and :func:`rect_polar`'s ln r and angle
    move by (X dX + Y dY)/|.|^2 and (X dY - Y dX)/|.|^2; :func:`phi_w` in log
    radii, (ln r, phi) -> (ln y_w, x_w), is [[delta_w, 0], [-g_w, 1]].  The
    product goes to (x, y) by d/dy = (1/y) d/du and dy_w = y_w d ln y_w.  No
    step is taken, and no partial of the exit-curve kernel is shared.
    """
    k = p.constants
    t, u = math.remainder(x, TWO_PI), math.log(y)
    unit = polar_rect(DiskPoint(section=OUT_V, r=1.0, phi=-k.g_v * u + t + k.c2))
    sheared, turned = psi_vw(unit, p.a), psi_vw(RectPoint(X=-unit.Y, Y=unit.X), p.a)
    (X, Y), (dX, dY) = (sheared.X, sheared.Y), (turned.X, turned.Y)
    norm2 = X * X + Y * Y
    shear = np.array([[1.0, (X * dX + Y * dY) / norm2], [0.0, (X * dY - Y * dX) / norm2]])
    chain = np.array([[k.delta_w, 0.0], [-k.g_w, 1.0]]) @ shear @ np.array([[0.0, k.delta_v], [1.0, -k.g_v]])
    y_w = math.exp(eta_log(t, u, p)[1])
    with np.errstate(over="ignore"):
        return np.array([[y_w, y_w / y], [-1.0, -1.0 / y]]) * chain


def numeric_jacobian(config: ModelConfig, state) -> np.ndarray:
    """Centered finite-difference Jacobian of the vector field at a state, step 1e-6."""
    field = make_rhs(config)
    state = np.asarray(state, dtype=float)
    columns = []
    for j in range(len(state)):
        dp, dm = state.copy(), state.copy()
        dp[j] += 1e-6
        dm[j] -= 1e-6
        columns.append(np.subtract(field(*dp), field(*dm)) / 2e-6)
    return np.column_stack(columns)


def turning_range_grid(p: SaddleParams) -> tuple[float, float]:
    """Smallest and largest value of the turning function on a uniform grid over [0, pi].

    A plain sample of the direct form, with no refinement: every value is a
    true value of A, so the grid range lies inside the exact extrema and
    approaches them to the spacing error.  The grid is one ``np.linspace``,
    evaluated in slices of ``TURNING_GRID_SLICE`` points whose extrema are
    folded; the function is elementwise, so the values are those of the
    whole grid at once.
    """
    grid = np.linspace(0.0, math.pi, TURNING_GRID_POINTS)
    lo, hi = math.inf, -math.inf
    for start in range(0, grid.size, TURNING_GRID_SLICE):
        vals = turning_function(grid[start : start + TURNING_GRID_SLICE], p)
        # np.minimum and np.maximum keep a nan, as np.min and np.max do
        lo = np.minimum(lo, np.min(vals))
        hi = np.maximum(hi, np.max(vals))
    return float(lo), float(hi)


def rotation_identity_residual(s0: float, n: int, t: float, p: SaddleParams) -> float:
    """|x_w(s0 e^{-n pi/g_v}) - x_w(s0) - n pi (1 - gamma)|, both points evaluated directly in one call."""
    k = p.constants
    if not 0.0 < s0 <= p.eps:
        raise ValueError(f"s0 must lie in (0, eps], got {s0}")
    s_n = s0 * math.exp(-n * math.pi / k.g_v)
    if not 0.0 < s_n <= p.eps:
        raise ValueError(f"shifted parameter {s_n} left (0, eps]")
    x0, xn = curve_arrays(t, np.array([s0, s_n]), p)[1].tolist()
    return abs(xn - x0 - n * math.pi * (1.0 - k.gamma))
