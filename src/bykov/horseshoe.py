"""First-return map, horizontal strips, hyperbolicity and multi-pulse search.

The first return to the incoming wall is the exit curve followed by the
quarter-turn transition: g(x, y) = (y_w(x, y), -x_w(x, y)) with the second
coordinate reduced to (-pi, pi].  A horizontal strip across the rectangle
[0, tau]^2 is a band a_n(t) <= s <= b_n(t), inside a monotone piece between
reversals (taken from the reversal lattice), on which the exit angle sweeps
a full copy of [-tau, 0] mod 2*pi; the quarter turn then stands the image
vertically across the same rectangle.  The chain rule through the partials
of the exit-curve kernel :func:`bykov.returncurve.exit_curve` is written
once, in :func:`_return_step`, which the exact Jacobian of g (its
hyperbolicity) and the multi-pulse return chain share; the quarter turn is
written there and in :func:`strip_image_report`, which turns the strips'
boundary samples on the kernel's values step, without partials.  The
Jacobian's oracle, the chain rule through the elementary maps, lives in
:mod:`bykov.oracles`.
Every root is solved by one safeguarded Newton, :func:`_solve`, on the
kernel's or the chain's slope.  What needs only x_w and ln y_w (the strips'
windows, height checks and images) runs on the kernel's values step, which
skips the partials; the strip boundaries' Newton solve and the monotonicity
check read x_u alone, from the kernel's slope step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .params import ParameterError, SaddleParams, classify_region
from .returncurve import (
    LN_FLOOR,
    TWO_PI,
    _exit_slope,
    _exit_values,
    _lattice,
    _reversals,
    _turn,
    _wanted_piece,
    circle_dist,
    exit_curve,
    turning_crossings,
    wrap_pi,
)

# an eigenvalue modulus this close to 1 is not called hyperbolic
UNIT_TOL = 1e-6
# least distance of a strip target from the exit angle at a piece end
SLACK = 1e-9
# most candidates of one strip family whose return image is too wide for
# tau: a steep angle puts more windings above the heights that fit than can
# be walked (at g_v = 2e13 every candidate fails, about 28,000 a second on a
# 2-CPU x86-64 host); the largest family built in the tests, at g_v = 1e4,
# solves 10,427 candidates for its 5 strips
STRIP_MISSES = 100_000
# most candidates one batch of a strip family solves, so that a family's
# memory does not grow with n_limit while its candidates fail: the 320 that
# n_limit 5 reaches at 64 per missing strip, so a family of 5 keeps its batches
STRIP_BATCH = 320
# most n-pulse points a search returns
PULSE_POINTS = 4
# most seeds of an n-pulse search's level-0 grid, and most crossings that one
# seed grid may bracket: each crossing takes a slot in every array of the
# grid's solve, and a steep angle brackets far more than any root can be
# told apart (at g_v = 2e13, 2.2e14 crossings on 1,024 seeds, about 8e9 per
# ulp of u)
GRID_LIMIT = 200_000


class ResonanceError(ValueError):
    """gamma = 1 resonance: the strip construction is not supported there."""


class PeriodicTangencyError(ValueError):
    """A reversal point sits on the stable-manifold trace; strips are refused."""


def _return_step(x, ln_y, p: SaddleParams):
    """One return (y_w, -x_w) of (x, e^ln_y), unreduced, and its derivative there; broadcasts.

    From one :func:`exit_curve` call; the derivative takes a tangent
    (dx, d ln y) to (y_w ((ln y)_t dx + (ln y)_u du), -(x_t dx + x_u du)).
    """
    c = exit_curve(x, ln_y, p)
    y_w = np.exp(c.log_y)
    return (y_w, -c.x_w), lambda dx, du: (y_w * (c.log_y_t * dx + c.log_y_u * du), -(c.x_t * dx + c.x_u * du))


@dataclass(frozen=True)
class JacobianReport:
    """The return-map Jacobian at a point, as rows of floats, with its determinant, trace and eigenvalue class."""

    jacobian: tuple[tuple[float, float], tuple[float, float]]
    det: float
    trace: float
    eigen_class: str


def _eigen_moduli(trace: float, det: float) -> tuple[float, float]:
    """Moduli of the eigenvalues of a real 2x2 matrix, ascending, from its trace and determinant.

    The discriminant is taken of trace and det scaled by the least power of
    two above max(|trace|, sqrt|det|), so it cannot overflow; scaling by a
    power of two is exact, so the moduli are those of the unscaled formula
    wherever that one neither overflows nor underflows.
    """
    e = math.frexp(max(abs(trace), math.sqrt(abs(det))))[1]
    t, d = math.ldexp(trace, -e), math.ldexp(det, -2 * e)
    disc = t * t - 4.0 * d
    if disc >= 0.0:
        root = math.sqrt(disc)
        m = sorted((abs(t - root) / 2.0, abs(t + root) / 2.0))
    else:
        m = [math.sqrt(d)] * 2
    return math.ldexp(m[0], e), math.ldexp(m[1], e)


def _eigen_class(m1: float, m2: float) -> str:
    """Hyperbolicity class of eigenvalue moduli m1 <= m2; within UNIT_TOL of 1 is not hyperbolic."""
    if abs(m1 - 1.0) < UNIT_TOL or abs(m2 - 1.0) < UNIT_TOL:
        return "non-hyperbolic-within-tol"
    if m2 < 1.0:
        return "double-contraction"
    if m1 > 1.0:
        return "double-expansion"
    return "saddle"


def jacobian_report(x: float, y: float, p: SaddleParams) -> JacobianReport:
    """Hyperbolicity of the unperturbed return map at (x, y) from its exact Jacobian, with the rows it classified.

    The Jacobian of the unreduced return (y_w, -x_w) at y > 0 is
    :func:`_return_step` on the unit tangents in (x, ln y), the second column
    divided by y.  The return map has period 2 pi in x, so the step runs at x
    mod 2 pi, reduced exactly, and every finite x has the Jacobian of its
    residue.  Deep enough, the entries overflow: the dense config is refused
    from y = 2^-1022 on and the README config from 2^-1024; a Jacobian with an
    entry that is not finite is refused rather than classified.
    """
    if y <= 0.0:
        raise ValueError(f"the return-map Jacobian requires y > 0, got {y}")
    with np.errstate(over="ignore", invalid="ignore"):
        tangent = _return_step(math.remainder(x, TWO_PI), math.log(y), p)[1]
        (j00, j10), (j01, j11) = tangent(1.0, 0.0), tangent(0.0, 1.0)
        jac = (j00, j01), (j10, j11) = (float(j00), float(j01 / y)), (float(j10), float(j11 / y))
    if not all(map(math.isfinite, jac[0] + jac[1])):
        raise ValueError(f"the return-map Jacobian is not finite at y={y}")
    det = j00 * j11 - j01 * j10
    trace = j00 + j11
    return JacobianReport(jac, det, trace, _eigen_class(*_eigen_moduli(trace, det)))


def _libm_exp(u) -> np.ndarray:
    """e**u element by element through libm's exp, inf from u >= 709 on.

    numpy's exp can differ from libm's in the last bit.  The strip
    boundaries and the multi-pulse seeds are exponentiated here, so
    strips.csv and multipulse.json stay bit-stable.
    """
    u = np.asarray(u, dtype=float)
    y = np.fromiter(map(math.exp, np.minimum(u, 709.0).ravel().tolist()), float, u.size).reshape(u.shape)
    return np.where(u < 709.0, y, math.inf)


# bracket width at which _solve stops
BISECT_TOL = 1e-13


def _solve(fn, targets, lo, hi, v_lo, v_hi) -> tuple[np.ndarray, int]:
    """Roots u of f(u) = targets over float arrays of brackets [lo, hi], and the Newton passes taken.

    Safeguarded Newton (``rtsafe``, Numerical Recipes 9.4).  The caller
    hands in the values ``v_lo`` and ``v_hi`` of f at the bracket ends,
    which start every element at its regula falsi point.  ``fn(u, live)``
    returns the values and slopes in u of the elements indexed by ``live``,
    element by element, at an array ``u`` of their points.  Each pass calls
    ``fn`` on the elements still active, keeps a sign bracket per element
    and takes the bracket's midpoint where the Newton point leaves the
    closed bracket or would not shrink the step to half the one before
    last, so a slope that is wrong, or a function that is not monotone in
    the bracket, costs passes but not the bracket.  Each element stops on
    its own: when its step is at most ``1e-15 * max(1, |u|)``, when its
    bracket is at most ``BISECT_TOL`` wide (or one ulp of its larger end,
    from |u| >= 512 on, where BISECT_TOL is below one ulp), or when its
    residual is exactly 0; the active arrays shrink only on a pass where
    some element stops.  An element comes back nan when its bracket does
    not straddle the target or when the value turns non-finite on it.
    """
    tol = np.maximum(BISECT_TOL, np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    f_lo, f_hi = v_lo - targets, v_hi - targets
    # lo only ever moves onto a point of its own sign
    below = f_lo < 0.0
    ok = np.isfinite(f_lo) & np.isfinite(f_hi) & (below != (f_hi < 0.0))
    roots = np.where(ok, 0.5 * (lo + hi), np.nan)
    live = np.flatnonzero(ok & (hi - lo > tol))
    targets, lo, hi, below, tol, f_lo, f_hi = (v[live] for v in (targets, lo, hi, below, tol, f_lo, f_hi))
    u = np.clip(lo - f_lo * ((hi - lo) / (f_hi - f_lo)), lo, hi)
    step = before = hi - lo
    passes = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.size:
            passes += 1
            value, slope = fn(u, live)
            f = value - targets
            finite = np.isfinite(f)
            moves_lo = (f < 0.0) == below
            lo, hi = np.where(moves_lo, u, lo), np.where(moves_lo, hi, u)
            newton = u - f / slope
            inside = (lo <= newton) & (newton <= hi) & (np.abs(newton - u) <= 0.5 * before)
            new = np.where(f == 0.0, u, np.where(inside, newton, 0.5 * (lo + hi)))
            before, step = step, np.abs(new - u)
            done = (step <= 1e-15 * np.maximum(1.0, np.abs(u))) | (hi - lo <= tol)
            stop = done | ~finite
            u = new
            if stop.any():
                roots[live[stop]] = np.where(finite, new, np.nan)[stop]
                keep = ~stop
                live, targets, lo, hi, below, tol, u, step, before = (
                    v[keep] for v in (live, targets, lo, hi, below, tol, u, step, before)
                )
    return roots, passes


@dataclass(frozen=True)
class Strip:
    """One horizontal strip: boundary heights over the family's t-grid and its winding."""

    winding: int
    t_grid: np.ndarray
    a_of_t: np.ndarray
    b_of_t: np.ndarray


@dataclass(frozen=True)
class StripFamily:
    """Disjoint horizontal strips across [0, tau]^2 plus construction metadata."""

    tau: float
    case: str
    strips: tuple[Strip, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)
    # Newton passes of the boundary solves, summed over the batches
    solver_passes: int = 0

    def __len__(self) -> int:
        return len(self.strips)


def _residues(tau: float, gamma: float) -> tuple[float, float]:
    """The exit angles mod 2 pi of the a- and b-boundaries: -tau on the a-boundary when gamma > 1, else on b."""
    return (-tau, 0.0) if gamma > 1.0 else (0.0, -tau)


def build_strips(tau: float, n_limit: int, p: SaddleParams) -> StripFamily:
    """Horizontal strips across [0, tau]^2 whose return images stand vertically across it.

    Case I (no reversals): one strip per full winding of the exit angle,
    which is monotone on the whole tail, so the tail from the s-underflow
    floor to the top is one piece.  Cases II/III: strips live inside
    monotone pieces between consecutive reversals whose image covers a full
    copy of the target window; for dense reversals tau is shrunk below half
    the root separation.  Case IV treats the tangential crossing as Case
    II/III with an exclusion zone around the inflection angles.  Every case
    then takes its windings and brackets by one rule, in
    :func:`_collect_strips`.  The case follows
    :func:`bykov.params.classify_region` at its default rationality policy.
    Boundaries are solved on one 33-point t-grid; the family's invariants
    are not replayed here, the caller checks them with
    :func:`strip_family_violations`.  A family may hold fewer than
    ``n_limit`` strips: the pieces stop at the s-underflow floor, and when
    the first piece's exit-angle window common to all t cannot hold tau
    and both margins, no piece's can.  A family whose candidates fail the
    height check more than ``STRIP_MISSES`` times is refused.
    """
    if n_limit < 1:
        raise ParameterError(f"n_limit must be >= 1, got {n_limit}")
    gamma = p.constants.gamma
    if abs(gamma - 1.0) < 1e-12:
        raise ResonanceError("gamma = 1 resonance is detected and rejected, not analysed")
    if not 0.0 < tau <= min(math.pi, p.eps):
        raise ParameterError(f"tau must lie in (0, min(pi, eps)], got {tau}")
    region = classify_region(p)
    case = region.case
    notes: list[str] = [f"region {region.tag}"]
    if case == "II":
        # the first reversal above the s-underflow floor within 1e-9 of the trace x = 0
        n0 = 0
        for _, _, _, x in _reversals(0.0, p, LN_FLOOR):
            hits = np.flatnonzero(circle_dist(x, 0.0) < 1e-9)
            if hits.size:
                raise PeriodicTangencyError(
                    f"periodic tangency at reversal {n0 + hits[0]} (angle {x[hits[0]] % TWO_PI:.6g}); "
                    "strip images are not guaranteed to cross the unstable-manifold trace"
                )
            n0 += len(x)
    tau_eff = tau
    piece = None if case == "I" else _wanted_piece(p, region, 1 if gamma > 1.0 else -1)
    if case == "III":
        r0, r1 = turning_crossings(p)
        d = r1 - r0
        if tau_eff >= d / 2.0:
            tau_eff = 0.45 * d
            notes.append(f"tau shrunk to {tau_eff:.6g} (< half the root separation {d:.6g})")
    endpoint_margin = SLACK
    if case == "IV":
        # tangential crossing: the monotone pieces run between the grazing
        # angles, and strip targets must keep a wide berth from the piece
        # endpoint values (the inflection angles)
        endpoint_margin = 10.0 * tau_eff
        notes.append(f"inflection exclusion half-width {endpoint_margin:.6g}")

    t_grid = np.linspace(0.0, tau_eff, 33)
    strips, passes = _collect_strips(tau_eff, n_limit, p, case, piece, t_grid, endpoint_margin)
    return StripFamily(tau=tau_eff, case=case, strips=tuple(strips), notes=tuple(notes), solver_passes=passes)


def _collect_strips(
    tau: float,
    n_limit: int,
    p: SaddleParams,
    case: str,
    piece: tuple[float, float] | None,
    t_grid: np.ndarray,
    endpoint_margin: float,
) -> list[Strip]:
    """The first ``n_limit`` strips of the family on ``t_grid``, in construction order.

    Candidates come by one rule from the monotone pieces of the exit angle.
    Case I is one piece, since x_w is monotone on the whole tail: brackets
    u = LN_FLOOR and u = ln eps at every t.  The other cases walk the
    copies of ``piece`` down to the s-underflow floor: copy i lies i
    periods of pi past the first, with brackets (c2 + t - phi_hi|phi_lo) /
    g_v.  The kernel runs once, on both ends of the first piece; by the
    rotation identity copy i's exit-angle window common to all t is that
    one turned by i pi (1 - gamma).  A piece's candidates are the windings
    whose two targets its window encloses ``endpoint_margin`` clear of its
    ends.  Its return heights are at least e**(ln c4 + delta_w ln c1 +
    delta u - delta_w |ln a|) at its lowest u, since the stretch c is at
    least min(a**2, a**-2); a piece whose bound stands above tau is
    skipped, allowing 1e-12 of the terms the bound sums for rounding.

    A candidate becomes a strip when its 5-point height check keeps the
    return image within tau; a boundary target that its bracket does not
    straddle raises a ValueError naming tau, the winding and t, and more than
    ``STRIP_MISSES`` failed height checks a ParameterError naming tau, g_v
    and their count.  The candidates
    are solved in batches, all boundaries in one :func:`_solve` call on the
    kernel's exact slope x_u: ``grow`` times as many as strips are still
    missing, where ``grow`` starts at 1 and doubles, up to 64, after each
    batch in which a candidate fails, and never more than ``STRIP_BATCH``.
    A batch may thus solve candidates past the last strip; they are
    dropped, and since each bracket stops on its own, a boundary does not
    depend on its batch and the strips are those of solving one candidate
    at a time.  Returns the strips and the
    Newton passes of all batches.
    """
    k = p.constants
    increasing = k.gamma > 1.0
    n = len(t_grid)
    residues = _residues(tau, k.gamma)

    def pieces():
        """Blocks (i, u_low, brackets): the pieces' period counts and lowest u, and brackets(c) -> (u_los, u_his)."""
        if case == "I":
            ends = np.full(n, LN_FLOOR), np.full(n, math.log(p.eps))
            yield np.zeros(1, dtype=int), np.array([LN_FLOOR]), lambda c: ends
            return
        if piece is None:
            return
        lo, hi = piece
        for _, i, shifts in _lattice(np.array([lo]), 0.0):
            los, his = lo + shifts[0], hi + shifts[0]
            u_low = (k.c2 - his) / k.g_v
            above = np.count_nonzero(u_low >= LN_FLOOR)
            yield i[:above], u_low[:above], lambda c, los=los, his=his: (
                (k.c2 + t_grid - his[c]) / k.g_v,
                (k.c2 + t_grid - los[c]) / k.g_v,
            )
            if above < len(i):
                return

    def candidates():
        """(winding, u_los, u_his) of every candidate, in construction order."""
        blocks = pieces()
        first = next(blocks, None)
        if first is None:
            return
        # both ends of the first piece in one kernel call
        x_a, x_b = _exit_values(t_grid, np.stack(first[2](0)), p).x_w
        x_lo0, x_hi0 = float(np.max(np.minimum(x_a, x_b))), float(np.min(np.maximum(x_a, x_b)))
        if x_hi0 - x_lo0 < tau + 2.0 * endpoint_margin:
            return
        log_y0 = math.log(k.c4) + k.delta_w * math.log(k.c1)
        stretch_floor = k.delta_w * abs(math.log(p.a))
        for i, u_low, brackets in chain([first], blocks):
            turned = _turn(i, k.gamma)
            lo_w = np.ceil((x_lo0 + turned + endpoint_margin + tau) / TWO_PI)
            hi_w = np.floor((x_hi0 + turned - endpoint_margin) / TWO_PI)
            y_slack = 1e-12 * (1.0 + abs(log_y0) + stretch_floor + k.delta * np.abs(u_low))
            fits = (lo_w <= hi_w) & (log_y0 + k.delta * u_low - stretch_floor <= math.log(tau) + y_slack)
            for c in np.flatnonzero(fits).tolist():
                u_los, u_his = brackets(c)
                low, high = int(lo_w[c]), int(hi_w[c])
                for w in range(high, low - 1, -1) if increasing else range(low, high + 1):
                    yield w, u_los, u_his

    strips: list[Strip] = []
    passes, grow, misses = 0, 1, 0
    stream = candidates()
    while len(strips) < n_limit:
        if misses > STRIP_MISSES:
            raise ParameterError(
                f"tau={tau}: at g_v={k.g_v!r} the return images of {misses:,} candidate strips were wider than tau,"
                f" more than the {STRIP_MISSES:,} one family may try; {len(strips)} of {n_limit} strips fit"
            )
        batch = list(islice(stream, min(grow * (n_limit - len(strips)), STRIP_BATCH)))
        if not batch:
            break
        # both boundaries of every candidate in one solve
        windings, u_los, u_his = zip(*batch)
        m = len(batch)
        t = np.tile(t_grid, 2 * m)

        def boundary(u, live):
            slope = _exit_slope(t[live], u, p)
            return slope.values.x_w, slope.x_u

        targets = np.repeat([[TWO_PI * w + r for r in residues] for w in windings], n)
        lo, hi = (np.repeat(ends, 2, axis=0).ravel() for ends in (u_los, u_his))
        v_lo, v_hi = boundary(np.stack([lo, hi]), slice(None))[0]
        u_ab, batch_passes = _solve(boundary, targets, lo, hi, v_lo, v_hi)
        passes += batch_passes
        if np.isnan(u_ab).any():
            c, j = divmod(int(np.argmax(np.isnan(u_ab))), 2 * n)
            w, t_j = windings[c], t_grid[j % n]
            raise ValueError(f"strip target not bracketed by its monotone piece at tau={tau}, winding={w}, t={t_j}")
        u_a, u_b = u_ab.reshape(m, 2, n).transpose(1, 0, 2)
        a_vals, b_vals = _libm_exp(np.minimum(u_a, u_b)), _libm_exp(np.maximum(u_a, u_b))
        # the return image must stay inside the rectangle's width: its
        # horizontal extent is the exit height, so early windings whose
        # heights still exceed tau are skipped (strips accumulate downward)
        s_chk = np.linspace(a_vals, b_vals, 5, axis=1)
        heights = np.exp(_exit_values(t_grid, np.log(s_chk), p).log_y)
        fits = ~np.any(heights > tau, axis=(1, 2))
        for c in np.flatnonzero(fits)[: n_limit - len(strips)].tolist():
            strips.append(Strip(winding=windings[c], t_grid=t_grid, a_of_t=a_vals[c], b_of_t=b_vals[c]))
        if not fits.all():
            misses += m - int(np.count_nonzero(fits))
            # the next batch is larger while candidates fail, up to 64 per missing strip
            grow = min(2 * grow, 64)
    return strips, passes


def _strip_table(family: StripFamily) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t, a and b of a nonempty family's boundary samples, as (strips, points) arrays."""
    return tuple(np.array([getattr(s, name) for s in family.strips]) for name in ("t_grid", "a_of_t", "b_of_t"))


def _boundary_misses(family: StripFamily, p: SaddleParams):
    """Every boundary sample of a nonempty family, as (strips, points) arrays: (t, a, b, ordered, miss_a, miss_b).

    miss_a and miss_b are the circle distances of the exit angles at a and b
    from their targets.  A sample out of order (not 0 < a < b <= eps) is
    evaluated at a = b = eps instead, where its misses mean nothing.
    """
    lo_res, hi_res = _residues(family.tau, p.constants.gamma)
    t, a, b = _strip_table(family)
    ordered = (0.0 < a) & (a < b) & (b <= p.eps)
    a = np.where(ordered, a, p.eps)
    b = np.where(ordered, b, p.eps)
    x_a, x_b = _exit_values(np.stack([t, t]), np.log(np.stack([a, b])), p).x_w
    return t, a, b, ordered, circle_dist(x_a, lo_res), circle_dist(x_b, hi_res)


def strip_boundary_residual(family: StripFamily, p: SaddleParams) -> float:
    """Largest circle distance of a boundary's exit angle from its target, over the ordered samples.

    This is the miss :func:`strip_family_violations` holds to 1e-9; 0.0 for
    a family without strips or without ordered samples.
    """
    if not family.strips:
        return 0.0
    _, _, _, ordered, miss_a, miss_b = _boundary_misses(family, p)
    return float(np.max(np.maximum(miss_a, miss_b), initial=0.0, where=ordered))


def strip_family_violations(family: StripFamily, p: SaddleParams) -> list[str]:
    """Replay the strip invariants; returns human-readable violations (empty when clean).

    A boundary misses its target when its exit angle is more than 1e-9 off.
    The whole family is evaluated at once; the messages come strip by strip
    in t order, then the overlaps in t order.
    """
    if not family.strips:
        return []
    increasing = p.constants.gamma > 1.0
    t, a, b, ordered, miss_a, miss_b = _boundary_misses(family, p)
    miss_a, miss_b = miss_a > 1e-9, miss_b > 1e-9
    # dx_w/ds = x_u / s has the sign of x_u
    fracs = np.array([0.125, 0.375, 0.625, 0.875])[:, None, None]
    slope = _exit_slope(t, np.log(a + fracs * (b - a)), p).x_u
    wrong = np.any((slope <= 0) if increasing else (slope >= 0), axis=0)
    out: list[str] = []
    for i, j in zip(*np.nonzero(~ordered | miss_a | miss_b | wrong)):
        head, at = f"strip {i}:", f"at t={t[i, j]}"
        if not ordered[i, j]:
            out.append(f"{head} boundaries out of order {at}")
            continue
        if miss_a[i, j]:
            out.append(f"{head} lower boundary misses target {at}")
        if miss_b[i, j]:
            out.append(f"{head} upper boundary misses target {at}")
        if wrong[i, j]:
            out.append(f"{head} wrong monotonicity inside {at}")
    # at each t, the spans sorted by (a, b, index); neighbours must not
    # touch.  The stored boundaries: _boundary_misses moved unordered ones to eps
    _, a, b = _strip_table(family)
    columns = zip(a.T.tolist(), b.T.tolist())
    for t_i, (a_j, b_j) in zip(t[0], columns):
        spans = sorted(zip(a_j, b_j, range(len(a_j))))
        for (_, b1, i1), (a2, _, i2) in zip(spans, spans[1:]):
            if b1 >= a2:
                out.append(f"strips {i1} and {i2} overlap in s at t={t_i}")
    return out


def strip_image_report(family: StripFamily, p: SaddleParams) -> list[dict]:
    """Check that each strip's return image stands vertically across the rectangle.

    Reports, per strip, the height range covered by the image of the four
    boundary curves (it must span [0, tau]) and the horizontal extent (it
    must stay inside the rectangle's width).  The two side curves are
    sampled at 33 heights each.  All strips go through one kernel call.
    """
    if not family.strips:
        return []
    t, a, b = _strip_table(family)
    # the heights of both side curves of every strip, at its first and last t, (strips, 2, 33)
    sides = np.linspace(a[:, [0, -1]], b[:, [0, -1]], 33, axis=2)
    # one row per strip: its two boundaries, then its two sides
    ts = np.hstack([t, t, np.repeat(t[:, [0, -1]], 33, axis=1)])
    curve = _exit_values(ts, np.log(np.hstack([a, b, sides.reshape(len(t), -1)])), p)
    # the return map is (x, y) -> (y_w, -x_w) with the height reduced
    xs = np.exp(curve.log_y)
    ys = wrap_pi(-curve.x_w)
    y_los, y_his = ys.min(axis=1).tolist(), ys.max(axis=1).tolist()
    x_los, x_his = xs.min(axis=1).tolist(), xs.max(axis=1).tolist()
    return [
        {
            "index": i,
            "winding": strip.winding,
            "image_y_min": y_lo,
            "image_y_max": y_hi,
            "image_x_min": x_lo,
            "image_x_max": x_hi,
            "spans_vertically": y_lo <= 1e-6 and y_hi >= family.tau - 1e-6,
            "within_width": 0.0 <= x_lo and x_hi <= family.tau,
        }
        for i, (strip, y_lo, y_hi, x_lo, x_hi) in enumerate(zip(family.strips, y_los, y_his, x_los, x_his))
    ]


@dataclass(frozen=True)
class PulsePoint:
    """Candidate n-pulse connection seeded on the unstable-manifold segment."""

    s: float
    n: int
    residual: float
    trace: tuple[tuple[float, float], ...]


def _return_chain(u, depth: int, p: SaddleParams) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(x_w, y_w, x_w'): exit angle, height and slope of the angle in u at each of ``depth + 1`` returns of (0, e^u).

    Each return is a :func:`_return_step` on the tangent (dx, d ln y), (0, 1)
    at the seed, then y is reduced to (-pi, pi] and du = dy / y.  An element
    is nan from the first return that starts off (0, eps], such as at y = 0,
    where du divides by zero, or from an overflowing seed.  Seeds go through
    :func:`_libm_exp`, as the strip boundaries do.
    """
    y = _libm_exp(u)
    x = np.zeros_like(y)
    dx, du = 0.0, 1.0
    steps = []
    with np.errstate(divide="ignore"):
        while True:
            y = np.where((0.0 < y) & (y <= p.eps), y, np.nan)
            (x, y_up), tangent = _return_step(x, np.log(y), p)
            dx, dy = tangent(dx, du)
            steps.append((-y_up, x, -dy))
            # the last return starts no further one
            if len(steps) > depth:
                return steps
            y = wrap_pi(y_up)
            du = dy / y


def find_multipulse(
    n: int,
    p: SaddleParams,
    x0: float = 0.0,
    s_window: tuple[float, float] | None = None,
) -> list[PulsePoint]:
    """Points of the unstable-manifold segment whose orbit closes onto the stable trace.

    Level d solves for the crossings of the exit angle at the seed's d-th
    return, from d = 0 (the exit curve, n = 2) to d = n - 2.  The last level
    targets x0 + 2 pi k; an intermediate return must land on the section
    near height 0, so its level targets 2 pi k.  One loop runs the levels,
    each over its seed grids: at level 0 a uniform grid of 48 points per pi
    of the angle phi, after it one outward geometric grid per root r of the
    level before, u = r + side 1e-11 max(1, |r|) 2^(j/8) for j = 0..384,
    where side = -sign of the previous angle's slope, taken once per level,
    so that the return lands just above the trace.  A grid is built and run
    through :func:`_return_chain` only when the harvest reaches it, and is
    cut at its first seed whose orbit leaves the section; its crossings,
    from its far end back toward its start, are solved in one
    :func:`_solve` by safeguarded Newton on the chain's slope in u.  A level
    stops at the grid that brings it to 2 ``PULSE_POINTS`` roots; one without
    crossings ends the search with an empty list, not an error, and a grid
    that brackets more than ``GRID_LIMIT`` crossings is refused.  Each
    point's trace and residual come from one more pass of the chain.
    """
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if s_window is not None and not 0.0 < s_window[0] < min(s_window[1], p.eps):
        raise ParameterError(f"s_window must satisfy 0 < s_min < min(s_max, eps), got {s_window}, eps={p.eps}")
    # only x0 mod 2 pi matters, and x0 + 2 pi k would round away the residue of a
    # large x0; the remainder is exact, and x0 itself on [-pi, pi]
    x0 = math.remainder(x0, TWO_PI)
    k = p.constants
    u_hi = math.log(p.eps) - 1e-12
    if s_window is not None:
        u_lo = math.log(s_window[0])
        u_hi = min(u_hi, math.log(s_window[1]))
    else:
        drift = abs(1.0 - k.gamma) * k.g_v
        u_lo = max(u_hi - (8.0 * math.pi / max(drift, 1e-3)) - TWO_PI / k.g_v, LN_FLOOR / 4)

    def angle(u, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """x_w at the depth-th return of the seeds e^u, and its slope in u."""
        x_w, _, slope = _return_chain(u, depth, p)[-1]
        return x_w, slope

    def grids(depth: int, roots: list[float]):
        """One outward geometric grid per root of level ``depth``, each built when the harvest reaches it."""
        r = np.array(roots)
        # the next return lands just above the trace where this level's
        # angle falls below its crossing value; 48 doublings from 1e-11
        # reach past every seed the chain can represent
        d0 = -np.sign(angle(r, depth)[1]) * 1e-11 * np.maximum(1.0, np.abs(r))
        for r_i, d_i in zip(r, d0):
            yield r_i + d_i * 2.0 ** (np.arange(385) / 8.0)

    def solve_level(depth: int, us: np.ndarray) -> list[float]:
        """Crossing parameters of the depth-th image curve between neighbouring seeds of the grid us."""
        target = x0 if depth == n - 2 else 0.0
        vals = angle(us, depth)[0]
        # the cells before the first non-finite angle, where the orbit leaves
        # the section, from the grid's far end back to its start: next to a
        # previous root, the far roots are the well-conditioned ones
        cells = np.arange(np.isfinite(vals).cumprod().sum() - 1)[::-1]
        # every multiple of 2*pi (shifted by the target) between the values
        # at the two ends of a grid cell is one bracketed crossing
        v0, v1 = vals[cells], vals[cells + 1]
        k_lo = np.ceil((np.minimum(v0, v1) - target) / TWO_PI)
        k_hi = np.floor((np.maximum(v0, v1) - target) / TWO_PI)
        counts = np.maximum(k_hi - k_lo + 1.0, 0.0)
        # refused before the arrays of one slot per crossing are allocated
        crossings = counts.sum()
        if not crossings <= GRID_LIMIT:
            raise ParameterError(
                f"n={n}: at g_v={k.g_v!r} a seed grid of level {depth} brackets {crossings:,.0f} crossings,"
                f" more than the {GRID_LIMIT:,} one grid may solve"
            )
        counts = counts.astype(int)
        cell = np.repeat(cells, counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        winding = np.repeat(k_lo, counts) + (np.arange(len(cell)) - first)
        # a cell's ends in ascending u, with their values from the grid's own
        # pass; every grid is monotone, so its two ends order all its cells
        ends = np.stack([cell, cell + 1])
        if us[-1] < us[0]:
            ends = ends[::-1]
        (lo, hi), (v_lo, v_hi) = us[ends], vals[ends]
        roots, _ = _solve(lambda u, live: angle(u, depth), target + TWO_PI * winding, lo, hi, v_lo, v_hi)
        return roots[~np.isnan(roots)][: PULSE_POINTS * 4].tolist()

    n_grid = max(64, int((u_hi - u_lo) / (math.pi / (k.g_v * 48))) + 1)
    level = [np.linspace(u_lo, u_hi, min(n_grid, GRID_LIMIT))]
    for depth in range(n - 1):
        roots: list[float] = []
        for us in level:
            roots.extend(solve_level(depth, us))
            if len(roots) >= PULSE_POINTS * 2:
                break
        if not roots:
            # a level without crossings leaves no seeds for the next one
            return []
        level = grids(depth, roots)
    chain = _return_chain(roots, n - 2, p)
    residual = circle_dist(chain[-1][0], x0)
    # an orbit that left the section has a nan residual and is dropped; so is
    # a root whose miss plus |x_w'| ulp(u), the angle's move over one ulp of
    # u, exceeds 5e-9, such as one next to a root of the level before
    resolved = residual + np.abs(chain[-1][2]) * np.spacing(np.abs(roots)) <= 5e-9
    return [
        PulsePoint(
            s=math.exp(roots[i]),
            n=n,
            residual=float(residual[i]),
            trace=tuple((float(x_w[i]), float(y_w[i])) for x_w, y_w, _ in chain),
        )
        for i in np.flatnonzero(resolved)[:PULSE_POINTS]
    ]
