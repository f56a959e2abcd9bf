"""Independent oracles: map compositions, pulse replay, return-map finite
differences, turning-function grid.

Everything here deliberately avoids the closed-form shortcuts of
:mod:`bykov.returncurve` and :mod:`bykov.params`; the exit curve is rebuilt
step by step through the elementary maps (and differentiated numerically
from there), and the turning-function range is sampled from its direct
trigonometric form, so the two routes can be compared against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .localmaps import (
    IN_V,
    OUT_W,
    BumpSpec,
    WallPoint,
    circle_dist,
    phi_v,
    phi_w,
    polar_rect,
    psi_vw,
    psi_wv,
    rect_polar,
)
from .params import SaddleParams, derive_constants
from .returncurve import turning_function

__all__ = [
    "eta_composed",
    "composed_return",
    "PulseReplay",
    "replay_pulse",
    "return_jacobian_fd",
    "turning_range_grid",
]

# grid spacing h = pi / 100000 puts each sampled extremum within
# R (1 - cos h) < 5e-10 R of the true one
TURNING_GRID_POINTS = 100_001


def eta_composed(t: float, s: float, p: SaddleParams) -> tuple[float, float]:
    """Exit-wall image of (t, s) built through the elementary maps.

    The angle branch after the shear is resolved with the pre-shear angle as
    hint: the shear maps each open quadrant to itself, so the unwound image
    angle stays within a quarter turn of the input.
    """
    k = derive_constants(p)
    disk = phi_v(WallPoint(section=IN_V, x=t, y=s), k)
    sheared = psi_vw(polar_rect(disk), p.a)
    unwound = rect_polar(sheared, branch_hint=disk.phi)
    out = phi_w(unwound, k)
    return out.x, out.y


def composed_return(point: WallPoint, p: SaddleParams, bump: BumpSpec | None = None) -> WallPoint:
    """First-return image built through the elementary maps only."""
    x_w, y_w = eta_composed(point.x, point.y, p)
    return psi_wv(WallPoint(section=OUT_W, x=x_w, y=y_w), bump)


@dataclass(frozen=True)
class PulseReplay:
    """Forward replay of a candidate multi-pulse connection."""

    s0: float
    out_w_crossings: int
    residual: float
    heights: tuple[float, ...]


def replay_pulse(s0: float, n: int, p: SaddleParams, x0: float = 0.0) -> PulseReplay:
    """Follow beta(s0) through n-1 exit-wall crossings and measure the final miss.

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
    x_w = y_w = math.nan
    for _ in range(n - 1):
        x_w, y_w = eta_composed(point.x, point.y, p)
        heights.append(y_w)
        point = psi_wv(WallPoint(section=OUT_W, x=x_w, y=y_w))
        if not 0.0 < point.y <= p.eps and len(heights) < n - 1:
            raise ValueError(
                f"pulse replay left the section after crossing {len(heights)}: height {point.y}"
            )
    return PulseReplay(
        s0=s0,
        out_w_crossings=1 + len(heights),
        residual=circle_dist(x_w, x0),
        heights=tuple(heights),
    )


def return_jacobian_fd(x: float, y: float, p: SaddleParams) -> tuple[np.ndarray, float]:
    """Finite-difference Jacobian of the unreduced return (y_w, -x_w) at (x, y).

    Richardson-extrapolated centred differences of :func:`eta_composed`
    with steps h = (max(1e-7, 1e-7 y), 1e-7 y) and h/2; the height step
    scales with y so that the stencil never crosses the stable manifold.
    Returns the extrapolated matrix and the largest entry change between
    the two step sizes, a measure of how far the stencil has converged.
    """

    def raw(t: float, s: float) -> np.ndarray:
        x_w, y_w = eta_composed(t, s, p)
        return np.array([y_w, -x_w])

    def centred(h_x: float, h_y: float) -> np.ndarray:
        d_x = (raw(x + h_x, y) - raw(x - h_x, y)) / (2.0 * h_x)
        d_y = (raw(x, y + h_y) - raw(x, y - h_y)) / (2.0 * h_y)
        return np.column_stack([d_x, d_y])

    h_x, h_y = max(1e-7, 1e-7 * y), 1e-7 * y
    coarse = centred(h_x, h_y)
    fine = centred(h_x / 2.0, h_y / 2.0)
    return (4.0 * fine - coarse) / 3.0, float(np.max(np.abs(fine - coarse)))


def turning_range_grid(p: SaddleParams) -> tuple[float, float]:
    """Smallest and largest value of the turning function on a uniform grid over [0, pi].

    A plain sample of the direct form, with no refinement: every value is a
    true value of A, so the grid range lies inside the exact extrema and
    approaches them to the spacing error.
    """
    vals = turning_function(np.linspace(0.0, math.pi, TURNING_GRID_POINTS), p)
    return float(np.min(vals)), float(np.max(vals))
