"""Cross-section coordinates and the four elementary maps near the cycle.

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

from .params import DerivedConstants, SaddleParams

__all__ = [
    "IN_V",
    "OUT_V",
    "IN_W",
    "OUT_W",
    "OnManifoldError",
    "WallPoint",
    "DiskPoint",
    "RectPoint",
    "BumpSpec",
    "phi_v",
    "phi_w",
    "psi_vw",
    "psi_wv",
    "polar_rect",
    "rect_polar",
    "wrap_pi",
    "circle_dist",
]

IN_V = "In_v"
OUT_V = "Out_v"
IN_W = "In_w"
OUT_W = "Out_w"

TWO_PI = 2.0 * math.pi


class OnManifoldError(ValueError):
    """The point lies on an invariant manifold and never reaches the target section."""


def wrap_pi(x: float) -> float:
    """Representative of x mod 2*pi in (-pi, pi]."""
    r = math.fmod(x, TWO_PI)
    if r > math.pi:
        r -= TWO_PI
    elif r <= -math.pi:
        r += TWO_PI
    return r


def circle_dist(x: float, y: float) -> float:
    """Distance between two angles on the circle of circumference 2*pi."""
    return abs(wrap_pi(x - y))


def _wrap_pi(x: np.ndarray) -> np.ndarray:
    """Array form of :func:`wrap_pi`, bit for bit."""
    r = np.fmod(x, TWO_PI)
    return np.where(r > math.pi, r - TWO_PI, np.where(r <= -math.pi, r + TWO_PI, r))


def _angle_dist(x: np.ndarray, x0: float) -> np.ndarray:
    """Distances on the circle from the angles ``x`` to ``x0``, as |(x - x0 + pi) mod 2*pi - pi|."""
    return np.abs(np.remainder(x - x0 + math.pi, TWO_PI) - math.pi)


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


@dataclass(frozen=True)
class BumpSpec:
    """Compactly supported smooth displacement applied by the wall transition.

    The profile is the standard mollifier amplitude * exp(1 - 1/(1 - (d/radius)^2))
    on the support disk of the given radius around ``center`` (cylinder
    metric: circle distance in x, euclidean in y) and identically zero
    outside it.
    """

    amplitude: float
    center: tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError(f"bump radius must be positive, got {self.radius}")

    def displacement(self, x: float, y: float) -> float:
        d2 = circle_dist(x, self.center[0]) ** 2 + (y - self.center[1]) ** 2
        u = d2 / (self.radius * self.radius)
        if u >= 1.0:
            return 0.0
        return self.amplitude * math.exp(1.0 - 1.0 / (1.0 - u))


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


def rect_polar(p: RectPoint, branch_hint: float, section: str = IN_W) -> DiskPoint:
    """Convert back to polar, choosing the angle branch closest to ``branch_hint``.

    The hint resolves the winding count that plain atan2 loses; it must be
    within pi of the true unwound angle.
    """
    if p.X == 0.0 and p.Y == 0.0:
        raise OnManifoldError("origin of the disk lies on the one-dimensional connection")
    base = math.atan2(p.Y, p.X)
    phi = base + TWO_PI * round((branch_hint - base) / TWO_PI)
    return DiskPoint(section=section, r=math.hypot(p.X, p.Y), phi=phi)


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
