"""Closed-form exit curve on the outgoing wall and its turning analysis.

A vertical segment beta_t(s) = (t, s) on the incoming wall is carried by the
composition of the two local maps and the disk shear to a curve
(x_w(s), y_w(s)) on the outgoing wall.  With the shear stretch
C(phi) = a^2 cos^2(phi) + sin^2(phi)/a^2 and the sheared angle Phi(phi),
the argument of (a cos phi, sin phi / a) unwound to the turn nearest phi,
the curve is

    phi      = -g_v ln s + t + c2
    x_w(s)   = -g_w delta_v ln s - (g_w/2) ln C(phi) + Phi(phi) + c3 - g_w ln c1
    y_w(s)   = c4 c1^delta_w s^delta C(phi)^(delta_w/2)

The shear keeps phi's quarter turn, so the nearest turn is found as
base + 2 pi rint((phi - base) / 2 pi) from the principal argument base;
that rounding has a quarter turn of margin for every |phi| < 2^50.

:func:`exit_curve` evaluates it in u = ln s, where phi is affine in (t, u)
and ln y_w is exact down to any depth.  The formula itself lives in the
values step :func:`_exit_values`, which takes sin phi and cos phi once and
returns x_w and ln y_w.  It has two bodies with the same bits, which one
test holds together: floats and arrays under ``BLOCK_MIN`` heights take
the expression, and larger arrays the block body :func:`_values_block`,
which writes every intermediate into the rows of one array, since the
expression's temporaries made glibc grow and trim the heap on every
call.  A large call allocates that block and nothing else, and
:func:`curve_arrays` takes ln s into a ninth row of it: glibc's trim
threshold is twice the first block freed, and a ``sweep`` op clears it by
248 KB, against 64 KB with ln s apart (see :func:`_values_block`).
The strips' windows, height checks and images, the tangency heights and
the ``curve --verify`` replay call the values step directly.
The slope step :func:`_exit_slope` adds x_u alone, which is all that the
sampled curve (:func:`curve_arrays`), the strip boundaries' Newton solve
and the strips' monotonicity check read; the bend step :func:`_exit_bend`
adds x_uu to it for the ``reversals --verify`` replay.
:func:`exit_curve` adds the other three partials on top of it, for the
return step of :mod:`bykov.horseshoe` (the Jacobian and the multi-pulse
return chain).  With
sigma = a^2 - a^-2, sc = sin phi cos phi, Phi' = 1/C and C' = -2 sigma sc,
the partials are

    x_t      = B/C                          B = 1 + g_w sigma sc
    x_u      = -(g_w delta_v + g_v B/C)
    x_uu     = g_v^2 (g_w sigma cos 2phi C + 2 sigma sc B) / C^2
    (ln y)_t = -delta_w sigma sc/C
    (ln y)_u = delta + delta_w g_v sigma sc/C

and dx_w/ds = x_u/s vanishes exactly where the turning function

    A(phi)   = C_v a^2 cos^2 phi + (C_v/a^2) sin^2 phi
               + alpha_v (a^2 - a^-2) sin phi cos phi

crosses the level K = alpha_v E_w / alpha_w; indeed
sign(dx_w/ds) = sign(A(phi) - K) pointwise.  In the double angle A is the
harmonic m + R cos(2 phi - theta) (:func:`bykov.params.turning_harmonic`),
so the crossings are (theta -/+ arccos((K - m)/R))/2 mod pi in closed form
and the sign of sin(2 phi - theta) tells their direction (:func:`_upward`,
which the reversal kinds and the strips' monotone piece both read); no grid
is involved.  The turning points form the lattice phi_n = root_j + m pi,
so s_n = s_0 exp(-n pi / g_v) and x_w(s_n) = x_w(s_0) + n pi (1 - gamma),
the rotation identity that drives the density and tangency analysis.  One
block walk of the lattice (:func:`_lattice`) serves every caller: the
reversal sequences, the tangency scan, and in :mod:`bykov.horseshoe` the
case-II guard and the strip pieces, each stating its own end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .params import (
    ParameterError,
    Region,
    SaddleParams,
    classify_region,
    turning_harmonic,
    turning_level,
)

TWO_PI = 2.0 * math.pi
# the exit curve's angle range |phi| < 2^50, past which an ulp of phi is 1/4 rad or more (``_unwound``)
PHI_LIMIT = 2.0**50
S_UNDERFLOW = 1e-300
LN_FLOOR = math.log(S_UNDERFLOW)
# heights from which the values and slope steps take the block body (_values_block):
# in a loop that never faults, the block body's extra ufunc calls make it 5-15%
# slower than the expression up to 1,024 heights, and it breaks even near 2,048
# (medians of nine timeit runs, dense config, 2-CPU Xeon with AVX-512)
BLOCK_MIN = 2048


class NoReversalsError(ValueError):
    """Requested reversal-based construction on a parameter point without reversals."""


def wrap_pi(x):
    """Representative of x mod 2*pi in (-pi, pi], exactly: a float for a float, elementwise on an array.

    fmod is exact, and so is the one step of TWO_PI after it (Sterbenz's lemma);
    subtracting a zero where no step is due keeps the sign of a zero.
    """
    r = np.fmod(x, TWO_PI)
    r = r - (TWO_PI * (r > math.pi) - TWO_PI * (r <= -math.pi))
    return r if np.ndim(r) else float(r)


def circle_dist(x, y):
    """Distance between angles on the circle of circumference 2*pi; elementwise on arrays."""
    return abs(wrap_pi(x - y))


@dataclass(frozen=True)
class BumpSpec:
    """Compactly supported smooth displacement applied by the wall transition (:func:`bykov.oracles.psi_wv`).

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


def _stretch(cos, sin, a: float):
    return (a * a) * cos * cos + (sin * sin) / (a * a)


def _unwound(phi, cos, sin, a: float):
    """The angle of (a cos phi, sin phi / a), unwound to the turn nearest phi.

    The shear keeps the signs of cos and sin, so ``base`` lies in phi's
    quarter turn mod 2*pi and the representative base + 2*pi*n nearest phi
    sits within a quarter turn of it; rint((phi - base) / TWO_PI) finds that
    n with a margin of a quarter turn against the rounding error of
    phi - base.  That holds for |phi| < PHI_LIMIT = 2**50, where the rule
    gives the quadrant-midpoint rule's bits; from there on, one ulp of phi is a
    quarter radian or more, and the two rules may pick turns 2*pi apart.
    """
    base = np.arctan2(sin / a, a * cos)
    return base + TWO_PI * np.rint((phi - base) / TWO_PI)


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


def _upward(root: float, p: SaddleParams) -> bool:
    """Whether A crosses the level upward at the crossing ``root``: dA/dphi = -2R sin(2 phi - theta) > 0.

    The one direction test: the reversal kinds (:func:`_reversals`) and the
    strips' piece (:func:`_wanted_piece`) both read it.
    """
    return math.sin(2.0 * root - turning_harmonic(p)[2]) < 0.0


def _wanted_piece(p: SaddleParams, region: Region, want_sign: int) -> tuple[float, float] | None:
    """The first monotone phi-piece (phi_lo, phi_hi) on which A - K has the sign ``want_sign``, or None.

    The pieces repeat with period pi, and phi_lo lies in [0, pi).  The
    crossings r0 < r1 split a period into (r0, r1) and (r1, r0 + pi), of
    opposite signs; (r0, r1) has A > K when r0 is upward (:func:`_upward`).
    At the boundary of B the level grazes one extremum, once per period,
    and A - K keeps one sign between the grazes: negative below the
    maximum, positive above the minimum; the other sign has no piece.
    """
    if region.case == "IV":
        at_min = abs(region.a_min - region.k) < abs(region.a_max - region.k)
        if want_sign != (1 if at_min else -1):
            return None
        theta = turning_harmonic(p)[2]
        graze = (0.5 * (theta + math.pi) if at_min else 0.5 * theta) % math.pi
        return graze, graze + math.pi
    r0, r1 = turning_crossings(p)
    return (r0, r1) if _upward(r0, p) == (want_sign > 0) else (r1, r0 + math.pi)


@dataclass(frozen=True)
class ReturnCurveSample:
    """One point of the exit curve, with the turning derivative attached."""

    phi: float
    x_w: float
    y_w: float
    dxw_ds: float


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


def _exit_values(t, u, p: SaddleParams) -> _ExitValues:
    """The exit-curve formula: x_w and ln y_w with one sin and one cos of phi.

    Arrays of ``BLOCK_MIN`` heights or more take the block body
    :func:`_values_block`; floats and smaller arrays take the expression
    below, with the same bits.
    """
    k = p.constants
    # a float (np.float64 included) stays a float: numpy's operations on a 0-d array cost several times more
    if not isinstance(u, float):
        u = np.asarray(u, dtype=float)
        if u.size >= BLOCK_MIN:
            return _values_block(t, u, p, _block(8, t, u))
    phi = -k.g_v * u + t + k.c2
    sin = np.sin(phi)
    cos = np.cos(phi)
    c = _stretch(cos, sin, p.a)
    ln_c = np.log(c)
    x_w = -k.g_w * k.delta_v * u - 0.5 * k.g_w * ln_c + _unwound(phi, cos, sin, p.a) + k.c3 - k.g_w * math.log(k.c1)
    log_y = math.log(k.c4) + k.delta_w * math.log(k.c1) + k.delta * u + 0.5 * k.delta_w * ln_c
    return _ExitValues(phi, x_w, log_y, sin, cos, c)


def _block(rows: int, t, u) -> np.ndarray:
    """An empty block of ``rows`` rows of the shape that t and u broadcast to."""
    return np.empty((rows,) + np.broadcast_shapes(np.shape(t), np.shape(u)))


def _values_block(t, u: np.ndarray, p: SaddleParams, block: np.ndarray) -> _ExitValues:
    """The values step's array body: every intermediate in a row of ``block``, in the expression's operation order.

    Fills the block's first eight rows and returns the values, six of them;
    the slope step takes the other two, and :func:`curve_arrays` keeps u in
    a ninth.  The values and slope expressions allocate 35 arrays of u's
    shape a call; at 12,000 heights each is 96 KB, just under glibc's
    128 KiB mmap threshold, so the heap grew and was trimmed back on every
    call, with over 100 minor page faults.  So a large call allocates one
    array, the block, and nothing else.  The first block is mmapped, and
    freeing it sets glibc's mmap threshold to its size and its trim
    threshold to twice that (for blocks up to 32 MiB); later blocks come
    from the heap, which glibc trims whenever more than the trim threshold
    lies free at its top.  A ``sweep`` op leaves up to 1,440 KB free there:
    the 864 KB block with ln s in it clears the threshold by 248 KB, where
    a 768 KB block and a separate ln s cleared it by 64 KB, and in some
    heap layouts the heap was trimmed after every op.  Each row is written
    by the expression's own ufunc on the same operands; the in-place steps
    swap only the operands of a sum or product, which keeps every bit.
    """
    k = p.constants
    a = p.a
    phi, x_w, log_y, sin, cos, c, ln_c, w = block[:8]
    np.multiply(-k.g_v, u, out=phi)
    phi += t
    phi += k.c2
    np.sin(phi, out=sin)
    np.cos(phi, out=cos)
    # _stretch
    np.multiply(a * a, cos, out=c)
    c *= cos
    c += np.divide(np.multiply(sin, sin, out=w), a * a, out=w)
    np.log(c, out=ln_c)
    np.multiply(-k.g_w * k.delta_v, u, out=x_w)
    x_w -= np.multiply(0.5 * k.g_w, ln_c, out=w)
    np.multiply(k.delta, u, out=log_y)
    log_y += math.log(k.c4) + k.delta_w * math.log(k.c1)
    log_y += np.multiply(0.5 * k.delta_w, ln_c, out=w)
    # _unwound, in the rows of ln_c and w, which nothing reads any more
    base = np.arctan2(np.divide(sin, a, out=w), np.multiply(a, cos, out=ln_c), out=w)
    turn = np.subtract(phi, base, out=ln_c)
    turn /= TWO_PI
    np.rint(turn, out=turn)
    turn *= TWO_PI
    x_w += np.add(base, turn, out=turn)
    x_w += k.c3
    x_w -= k.g_w * math.log(k.c1)
    return _ExitValues(phi, x_w, log_y, sin, cos, c)


class _ExitSlope(NamedTuple):
    """The values step plus x_u, with the shear terms that the other partials reuse."""

    values: _ExitValues
    x_u: np.ndarray
    sigma: float
    sc: np.ndarray


def _exit_slope(t, u, p: SaddleParams) -> _ExitSlope:
    """The values step plus x_u, the one partial that the turning sign and the strip boundaries read.

    x_u = -(g_w delta_v + g_v B/C) is written here only; :func:`exit_curve`
    takes it, sigma and sc = sin phi cos phi from this step.
    """
    if not isinstance(u, float):
        u = np.asarray(u, dtype=float)
        if u.size >= BLOCK_MIN:
            return _slope_block(t, u, p, _block(8, t, u))
    k = p.constants
    sigma = p.a * p.a - 1.0 / (p.a * p.a)
    v = _exit_values(t, u, p)
    sc = v.sin * v.cos
    x_u = -(k.g_w * k.delta_v + (k.g_v * k.g_w * sigma * sc + k.g_v) / v.stretch)
    return _ExitSlope(v, x_u, sigma, sc)


def _slope_block(t, u: np.ndarray, p: SaddleParams, block: np.ndarray) -> _ExitSlope:
    """The slope step's array body: the values block (:func:`_values_block`), with sc and x_u in its rows 6 and 7."""
    k = p.constants
    sigma = p.a * p.a - 1.0 / (p.a * p.a)
    v = _values_block(t, u, p, block)
    sc, x_u = block[6:8]
    np.multiply(v.sin, v.cos, out=sc)
    np.multiply(k.g_v * k.g_w * sigma, sc, out=x_u)
    x_u += k.g_v
    x_u /= v.stretch
    x_u += k.g_w * k.delta_v
    return _ExitSlope(v, np.negative(x_u, out=x_u), sigma, sc)


def _exit_bend(t, u, p: SaddleParams) -> tuple[_ExitSlope, np.ndarray]:
    """The slope step plus x_uu, the rate of x_u in u, which only the ``reversals --verify`` replay reads.

    With B = 1 + g_w sigma sc, x_uu = g_v^2 (g_w sigma cos 2phi C + 2 sigma sc B) / C^2
    is written here only, so the slope step that the strip boundaries' Newton
    solve calls does not grow.
    """
    k = p.constants
    slope = _exit_slope(t, u, p)
    v, sigma, sc = slope.values, slope.sigma, slope.sc
    c = v.stretch
    bend = k.g_w * sigma * (v.cos * v.cos - v.sin * v.sin) * c + 2.0 * sigma * sc * (1.0 + k.g_w * sigma * sc)
    return slope, k.g_v * k.g_v * bend / (c * c)


def exit_curve(t, u, p: SaddleParams) -> ExitCurve:
    """The one exit-curve kernel with its partials; broadcasts over t and u = ln s.

    Working in u keeps every value finite for any s > 0: the height is
    returned as ln y_w, which the caller exponentiates (an underflow then
    degrades to a zero height, not a NaN).  Callers that need only x_w and
    ln y_w use the values step :func:`_exit_values`, and callers that need
    only the slope x_u the slope step :func:`_exit_slope`.
    """
    k = p.constants
    v, x_u, sigma, sc = _exit_slope(t, u, p)
    c = v.stretch
    return ExitCurve(
        phi=v.phi,
        x_w=v.x_w,
        log_y=v.log_y,
        x_t=(1.0 + k.g_w * sigma * sc) / c,
        x_u=x_u,
        log_y_t=-k.delta_w * sigma * sc / c,
        log_y_u=k.delta + k.delta_w * k.g_v * sigma * sc / c,
    )


def curve_arrays(t: float, s, p: SaddleParams):
    """The exit curve in s; returns (phi, x_w, y_w, dxw_ds) arrays."""
    s_arr = np.asarray(s, dtype=float)
    # written so that a NaN height fails it too
    if not np.all(s_arr > 0.0):
        raise ValueError("curve parameter s must be strictly positive")
    if s_arr.size >= BLOCK_MIN:
        # ln s takes the block's ninth row: the call allocates the block and nothing else
        block = _block(9, t, s_arr)
        slope = _slope_block(t, np.log(s_arr, out=block[8]), p, block)
    else:
        slope = _exit_slope(t, np.log(s_arr), p)
    v = slope.values
    # at subnormal s the slope overflows; the caller decides what to refuse
    with np.errstate(over="ignore"):
        if not isinstance(v.log_y, np.ndarray):
            return v.phi, v.x_w, np.exp(v.log_y), slope.x_u / s_arr
        # the kernel's arrays are this call's own: y_w and dx_w/ds take the rows of ln y_w and x_u
        return v.phi, v.x_w, np.exp(v.log_y, out=v.log_y), np.divide(slope.x_u, s_arr, out=slope.x_u)


def curve_sample(t: float, s: float, p: SaddleParams) -> ReturnCurveSample:
    """Image on the outgoing wall of the point (t, s) on the incoming wall."""
    if not 0.0 < s <= p.eps:
        raise ValueError(f"curve parameter s must lie in (0, eps], got {s}")
    phi, x_w, y_w, dxw = curve_arrays(t, s, p)
    return ReturnCurveSample(phi=float(phi), x_w=float(x_w), y_w=float(y_w), dxw_ds=float(dxw))


@dataclass(frozen=True)
class ReversalSequence:
    """Turning points of the exit curve along one vertical segment, as the lattice walk computes them.

    Per entry, ``log_s_values`` holds ln s (exact at any depth; s itself
    is ``np.exp`` of it, which underflows below 1e-300), ``phi_values``
    the angle and ``x_values`` the exit angle from the rotation identity.
    Entry n is a local maximum or minimum of the exit angle in s by
    ``kinds[n % 2]``: the kinds alternate, so ``kinds`` holds two labels,
    entry 0's first (none at a point without reversals).
    """

    log_s_values: np.ndarray
    phi_values: np.ndarray
    x_values: np.ndarray
    kinds: tuple[str, ...]
    reason: str | None = None

    def __len__(self) -> int:
        return len(self.log_s_values)


# periods in the first block of a lattice walk; each later block doubles, up to LAST_BLOCK
FIRST_BLOCK = 1024
LAST_BLOCK = 1 << 16
# most entries of one reversal walk: a walk peaks at 49 traced bytes an entry
# (73 in find_tangency), so a refused one would need 0.7 GB or more
WALK_LIMIT = 15_000_000


def _lattice(bases, t: float):
    """The lattice angles bases[j] + m*pi >= t, ascending, block by block without end.

    The array ``bases`` ascends within [0, pi], so the first len(bases) angles from t,
    one per row, repeat with period pi: entry q*rows + r is row r shifted
    by q periods.  Yields (j, q, shifts) per block of periods q, with the
    rows' base indices j and the shifts (m_r + q)*pi as a (rows, periods)
    array.  The blocks keep the memory bounded however far a caller walks,
    and the first is large enough that most walks end inside it.
    """
    n = len(bases)
    # only the first two periods from the start can hold angles below t
    m, j = np.divmod(np.arange(3 * n), n)
    m += min(math.ceil((t - b) / math.pi) for b in bases)
    rows = np.flatnonzero(bases[j] + m * math.pi >= t)[:n]
    m, j = m[rows, None], j[rows]
    start, size = 0, FIRST_BLOCK
    while True:
        q = np.arange(start, start + size)
        yield j, q, (m + q) * math.pi
        start += size
        size = min(2 * size, LAST_BLOCK)


def _turn(q, gamma: float):
    """The exit-angle turn q pi (1 - gamma) of the rotation identity after q periods of pi."""
    return q * math.pi * (1.0 - gamma)


def _reversals(t: float, p: SaddleParams, ln_floor: float):
    """The turning points phi_n = root_j + m*pi >= t, ascending, block by block down to ``ln_floor`` in ln s.

    Yields (kinds, phi_n, ln s_n, x_n) with entries in order and ``kinds``
    the labels of entries 0 and 1, which alternate from there.  The turning
    kind follows the crossing direction of the turning function: an upward
    crossing (:func:`_upward`) makes the exit angle switch from falling to
    rising as s decreases, i.e. a local maximum in s.  The exit angles come
    from the rotation identity, since direct evaluation would underflow:
    entry 2q + r is entry r turned q times by pi (1 - gamma).  Raises when
    A does not cross the level transversally.
    """
    k = p.constants
    roots = np.asarray(turning_crossings(p))
    if len(roots) < 2:
        raise NoReversalsError("parameter point has no transversal turning points")
    labels = ("maxima", "minima") if _upward(roots[0], p) else ("minima", "maxima")
    head = None
    for j, q, shifts in _lattice(roots, t):
        # entry 2q + r from row r, a strided copy per row
        phi = np.empty(2 * len(q))
        phi[0::2], phi[1::2] = roots[j, None] + shifts
        log_s = (k.c2 + t - phi) / k.g_v
        if head is None:
            kinds = tuple(labels[r] for r in j)
            head = _exit_values(t, log_s[:2], p).x_w[:, None]
        x = np.empty_like(phi)
        x[0::2], x[1::2] = head + _turn(q, k.gamma)
        # ln s_n descends, so the entries above the floor are a prefix
        above = np.count_nonzero(log_s >= ln_floor)
        yield kinds, phi[:above], log_s[:above], x[:above]
        if above < len(phi):
            return


def _reversal_walk(t: float, n_max: int, p: SaddleParams, ln_floor: float) -> ReversalSequence:
    """The first ``n_max`` turning points from t that lie above ``ln_floor`` in ln s.

    Refuses, before any block is built, a walk of more than ``WALK_LIMIT``
    entries: ``n_max``, or if smaller the 2 (L/pi + 1) lattice angles or
    fewer in the span L = c2 - g_v ln_floor of phi above the floor.
    """
    k = p.constants
    entries = min(n_max, 2.0 * ((k.c2 - k.g_v * ln_floor) / math.pi + 1.0))
    if entries > WALK_LIMIT:
        raise ParameterError(f"--n-max={n_max} walks {entries:.4g} reversals, more than the {WALK_LIMIT:,} a walk may hold")
    blocks = []
    count = 0
    for kinds, *block in _reversals(t, p, ln_floor):
        blocks.append([values[: n_max - count] for values in block])
        count += len(blocks[-1][0])
        if count == n_max:
            break
    phis, log_s, x_vals = (np.concatenate(column) for column in zip(*blocks))
    return ReversalSequence(log_s, phis, x_vals, kinds)


def _check_walk(n_max: int, **angles: float) -> None:
    """Refuse a walk length below 1 and a start angle that is not finite, each by name."""
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    for name, value in angles.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def reversal_sequence(t: float, n_max: int, p: SaddleParams) -> ReversalSequence:
    """The first ``n_max`` turning points s_n of the exit curve, largest first, capped at underflow.

    Empty (with a reason) when the parameter point admits no reversals;
    a tangential crossing has the reason ``BoundaryB``.  Rational and
    dense gamma give the same sequence, so no rationality policy enters.
    """
    _check_walk(n_max, t=t)
    region = classify_region(p)
    if region.case in ("I", "IV"):
        none = np.empty(0)
        return ReversalSequence(none, none, none, (), reason=region.tag)
    return _reversal_walk(t, n_max, p, LN_FLOOR)


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


def find_tangency(x0: float, t: float, n_max: int, p: SaddleParams) -> TangencyReport:
    """Nearest reversal to the stable-manifold trace and the bump moving the trace onto it.

    Scans the first ``n_max`` turning points, picks the one whose exit
    angle is closest to ``x0`` on the circle, and returns a compactly
    supported displacement of that exact amplitude, of radius at most 0.05,
    whose support excludes the neighbouring turning points.  The recorded
    history of running minima shows how the distance shrinks as more
    turning points are admitted.
    """
    _check_walk(n_max, x0=x0, t=t)
    region = classify_region(p)
    if region.case not in ("II", "III"):
        # cases I and IV (outside B, a = 1, the boundary of B) have no reversal points at all
        raise NoReversalsError(
            f"no reversal points available for tangency construction (region {region.tag})"
        )
    warning = None
    if region.case == "II":
        warning = "gamma is rational within tolerance; reversal angles form a finite set"
    angles = _reversal_walk(t, n_max, p, -math.inf)
    # only x0 mod 2 pi matters, and x0 - angle would round away the residue of a
    # large x0; the remainder is exact, and x0 itself on [-pi, pi]
    trace = math.remainder(x0, TWO_PI)
    # reduced once, exactly: both distance passes and the amplitude read the same
    # angles, so the amplitude is the last history distance bit for bit
    reduced = wrap_pi(angles.x_values)
    dist = circle_dist(reduced, trace)
    best = int(np.argmin(dist))
    # a record wherever the running minimum drops
    records = np.flatnonzero(np.diff(np.minimum.accumulate(dist), prepend=math.inf) < 0.0)
    history = tuple(zip((records + 1).tolist(), dist[records].tolist()))
    x_best = float(angles.x_values[best])
    signed = wrap_pi(trace - reduced[best])
    # keep the support clear of the other turning points.  One 0.12 or more
    # away in x cannot bring 0.45 * sep below the 0.05 cap, so heights are
    # needed only for the nearer ones and the chosen one, which comes last
    gap_x = circle_dist(reduced, reduced[best])
    gap_x[best] = math.inf
    rows = np.append(np.flatnonzero(gap_x < 0.12), best)
    heights = np.exp(_exit_values(t, angles.log_s_values[rows], p).log_y)
    center_y = float(heights[-1])
    # the nearest one's gap is taken again from math.hypot, which np.hypot can miss by an ulp
    gap_y = heights - center_y
    near = int(np.argmin(np.hypot(gap_x[rows], gap_y)))
    sep = math.hypot(gap_x[rows[near]], gap_y[near])
    radius = max(min(0.05, 0.45 * sep), 1e-12)
    # centred on the chosen reversal point's exact position on the cylinder
    bump = BumpSpec(amplitude=signed, center=(float(reduced[best]), center_y), radius=radius)
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
        history=history,
    )
