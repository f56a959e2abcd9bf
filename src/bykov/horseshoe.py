"""First-return map, horizontal strips, hyperbolicity and multi-pulse search.

The first return to the incoming wall is the exit curve followed by the
quarter-turn transition: g(x, y) = (y_w(x, y), -x_w(x, y)) with the second
coordinate reduced to (-pi, pi].  A horizontal strip across the rectangle
[0, tau]^2 is a band a_n(t) <= s <= b_n(t), inside a monotone piece between
reversals (taken from the reversal lattice), on which the exit angle sweeps
a full copy of [-tau, 0] mod 2*pi; the quarter turn then stands the image
vertically across the same rectangle.  Hyperbolicity of g is read off its
exact Jacobian, assembled from the partials of the exit-curve kernel
:func:`bykov.returncurve.exit_curve`; finite differences of the return map
live only in :mod:`bykov.oracles`, as the test and ``--verify`` oracle.
Everything that needs only x_w and ln y_w (the strip bisection, which
solves the boundaries of every strip a family still needs in one call,
the return chain of the multi-pulse search, the strip checks and images,
each one call for the whole family) runs on the kernel's values step,
which skips the partials; only the Jacobian and the monotonicity check of
the strip invariants pay for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from .params import (
    ParameterError,
    Region,
    SaddleParams,
    classify_region,
    turning_harmonic,
)
from .returncurve import (
    LN_FLOOR,
    TWO_PI,
    _angle_dist,
    _exit_values,
    _lattice,
    _reversals,
    _wrap_pi,
    exit_curve,
    turning_crossings,
)

__all__ = [
    "ResonanceError",
    "PeriodicTangencyError",
    "return_jacobian",
    "JacobianReport",
    "jacobian_report",
    "Strip",
    "StripFamily",
    "build_strips",
    "strip_family_violations",
    "strip_image_report",
    "PulsePoint",
    "find_multipulse",
]

# an eigenvalue modulus this close to 1 is not called hyperbolic
UNIT_TOL = 1e-6
# least distance of a strip target from the exit angle at a piece end
SLACK = 1e-9


class ResonanceError(ValueError):
    """gamma = 1 resonance: the strip construction is not supported there."""


class PeriodicTangencyError(ValueError):
    """A reversal point sits on the stable-manifold trace; strips are refused."""


def return_jacobian(x: float, y: float, p: SaddleParams) -> np.ndarray:
    """Exact Jacobian of the unreduced return (y_w, -x_w) at (x, y), y > 0.

    J = [[y_w (ln y)_t, y_w (ln y)_u / y], [-x_t, -x_u / y]] from the
    partials of the exit-curve kernel in u = ln y.  At subnormal y the
    divisions overflow; a Jacobian with an entry that is not finite is
    refused rather than classified.
    """
    if y <= 0.0:
        raise ValueError(f"the return-map Jacobian requires y > 0, got {y}")
    curve = exit_curve(x, math.log(y), p)
    with np.errstate(over="ignore", invalid="ignore"):
        y_w = np.exp(curve.log_y)
        jac = np.array(
            [
                [y_w * curve.log_y_t, y_w * curve.log_y_u / y],
                [-curve.x_t, -curve.x_u / y],
            ]
        )
    if not np.all(np.isfinite(jac)):
        raise ValueError(f"the return-map Jacobian is not finite at y={y}")
    return jac


@dataclass(frozen=True)
class JacobianReport:
    """Determinant, trace and eigenvalue class of the return-map Jacobian at a point."""

    x: float
    y: float
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
    """Hyperbolicity of the unperturbed return map at (x, y) from its exact Jacobian."""
    jac = return_jacobian(x, y, p)
    det = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
    trace = float(jac[0, 0] + jac[1, 1])
    eigen_class = _eigen_class(*_eigen_moduli(trace, det))
    return JacobianReport(x=x, y=y, det=det, trace=trace, eigen_class=eigen_class)


def _libm_exp(u) -> np.ndarray:
    """e**u element by element through libm's exp, inf from u >= 709 on.

    numpy's exp can differ from libm's in the last bit.  The strip
    boundaries and the multi-pulse seeds are exponentiated here, so
    strips.csv and multipulse.json stay bit-stable.
    """
    u = np.asarray(u, dtype=float)
    y = np.fromiter(map(math.exp, np.minimum(u, 709.0).ravel().tolist()), float, u.size).reshape(u.shape)
    return np.where(u < 709.0, y, math.inf)


# kernel points per call up to which _bisect adds levels to its bisection
# tree: on a few brackets a kernel call costs its overhead, not arithmetic
TREE_POINTS = 250
# bracket width at which _bisect stops
BISECT_TOL = 1e-13


def _bisect(fn, target, lo, hi) -> np.ndarray:
    """Bisection for fn(u) = target over float arrays of brackets [lo, hi].

    ``fn`` maps an array of u to an array of values, element by element,
    and takes a ``(rows, n)`` array against the ``n`` brackets: both ends
    go in one call, then each call advances every bracket by L halvings.
    L is the most levels whose ``2**L - 1`` midpoints per bracket keep a
    call within ``TREE_POINTS`` points, and at least 1, where this is one
    halving per call.  The midpoints form a bisection tree held in order,
    each node ``0.5 * (lo + hi)`` of the bracket the levels above leave
    it, and the walk down the tree takes the serial steps on the serial
    floats, so every root is bit for bit that of one halving per call.
    The strip batches (hundreds of brackets, where the kernel costs real
    arithmetic) take one or two levels, the multi-pulse levels (a few
    brackets, where a call costs its overhead) four or five.  Each element
    stops on its own once its bracket is at most ``BISECT_TOL`` wide, so it
    ends where a scalar bisection from the same bracket would.  A bracket
    that reaches |u| >= 512, where BISECT_TOL is below one ulp, stops
    instead once it is no wider than one ulp of its larger end.  An element
    comes back nan when its bracket does not straddle the target or when
    ``fn`` turns non-finite on it.
    """
    n = len(lo)
    tol = np.maximum(BISECT_TOL, np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    f_lo, f_hi = fn(np.stack([lo, hi])) - target
    # lo only ever moves onto a mid of its own sign
    below_lo = f_lo < 0.0
    ok = np.isfinite(f_lo) & np.isfinite(f_hi) & (below_lo != (f_hi < 0.0))
    active = ok & (hi - lo > tol)
    levels = max(1, (TREE_POINTS // max(n, 1) + 1).bit_length() - 1)
    # the tree in order: the bounds in the first and last rows and the
    # 2**L - 1 midpoints between them, the nodes of a level a stride apart;
    # f_tree keeps fn - target in the same rows
    tree = np.empty((2**levels + 1, n))
    tree[0], tree[-1] = lo, hi
    lo, hi = tree[0], tree[-1]
    f_tree = np.zeros_like(tree)
    steps = [2 ** (levels - level) for level in range(levels)]
    columns = np.arange(n)
    while active.any():
        for step in steps:
            # each node halfway between the two nodes above that bound it
            tree[step // 2 :: step] = 0.5 * (tree[:-1:step] + tree[step::step])
        np.subtract(fn(tree[1:-1]), target, out=f_tree[1:-1])
        flips = (f_tree < 0.0) != below_lo
        finite = np.isfinite(f_tree)
        all_finite = finite.all()
        # every bracket starts at the root, the one node of the top level
        node, at = 0, 0
        for step in steps:
            level = slice(step // 2, None, step)
            mid = tree[level][at]
            if not all_finite:
                ok &= finite[level][at] | ~active
                active &= ok
            to_lo = active & flips[level][at]
            to_hi = active ^ to_lo
            np.copyto(hi, mid, where=to_lo)
            np.copyto(lo, mid, where=to_hi)
            active = ok & (hi - lo > tol)
            if step > 2:
                # on to the upper child where lo moved, else the lower one
                node = 2 * node + to_hi
                at = (node, columns)
    return np.where(ok, 0.5 * (lo + hi), np.nan)


@dataclass(frozen=True)
class Strip:
    """One horizontal strip: boundary heights over the t-grid and its winding."""

    index: int
    winding: int
    t_grid: np.ndarray
    a_of_t: np.ndarray
    b_of_t: np.ndarray


@dataclass(frozen=True)
class StripFamily:
    """Disjoint horizontal strips across [0, tau]^2 plus construction metadata."""

    tau: float
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


def _case_pieces(t: float, period: list[tuple[float, float, int]], want_sign: int):
    """Copies of the ``period`` pieces on which A - K has the sign ``want_sign``, from phi = t on.

    Yields (i, phi_lo, phi_hi) arrays block by block, without end, from the
    lattice walk of the piece starts: piece i is the first wanted one
    shifted by i periods of pi, since the signs repeat with the period.  s
    decreases as phi grows, and the caller stops at s-underflow.
    """
    los, his, signs = (np.array(column) for column in zip(*period))
    for j, i, shifts in _lattice(los, t):
        rows = np.flatnonzero(signs[j] == want_sign)
        if not rows.size:
            return
        r = rows[0]
        yield i, los[j[r]] + shifts[r], his[j[r]] + shifts[r]


def build_strips(tau: float, n_limit: int, p: SaddleParams) -> StripFamily:
    """Horizontal strips across [0, tau]^2 whose return images stand vertically across it.

    Case I (no reversals): one strip per full winding of the monotone exit
    angle.  Cases II/III: strips live inside monotone pieces between
    consecutive reversals whose image covers a full copy of the target
    window; for dense reversals tau is shrunk below half the root
    separation.  Case IV treats the tangential crossing as Case II/III with
    an exclusion zone around the inflection angles.  The case follows
    :func:`bykov.params.classify_region` at its default rationality policy.
    Boundaries are solved on one 33-point t-grid; the family's invariants
    are not replayed here, the caller checks them with
    :func:`strip_family_violations`.  A family may hold fewer than
    ``n_limit`` strips: the Case I march and the monotone pieces stop at
    the s-underflow floor, and when the first piece's exit-angle window
    common to all t cannot hold tau and both margins, no piece's can.
    """
    if n_limit < 1:
        raise ParameterError(f"n_limit must be >= 1, got {n_limit}")
    gamma = p.constants.gamma
    if abs(gamma - 1.0) < 1e-12:
        raise ResonanceError("gamma = 1 resonance is detected and rejected, not analysed")
    if not 0.0 < tau <= min(math.pi, p.eps):
        raise ParameterError(f"tau must lie in (0, min(pi, eps)], got {tau}")
    region = classify_region(p)
    case = _CASE_OF_TAG[region.tag]
    notes: list[str] = [f"region {region.tag}"]
    if case == "II":
        # the first reversal above the s-underflow floor within 1e-9 of the trace x = 0
        n0 = 0
        for _, _, _, x in _reversals(0.0, p, LN_FLOOR):
            hits = np.flatnonzero(_angle_dist(x, 0.0) < 1e-9)
            if hits.size:
                raise PeriodicTangencyError(
                    f"periodic tangency at reversal {n0 + hits[0]} (angle {x[hits[0]] % TWO_PI:.6g}); "
                    "strip images are not guaranteed to cross the unstable-manifold trace"
                )
            n0 += len(x)
    tau_eff = tau
    period = [] if case == "I" else _period_pieces(p, region)
    if case == "III":
        d = period[0][1] - period[0][0]
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
    strips = _collect_strips(tau_eff, n_limit, p, case, period, t_grid, endpoint_margin)
    return StripFamily(tau=tau_eff, case=case, gamma=gamma, strips=tuple(strips), notes=tuple(notes))


def _collect_strips(
    tau: float,
    n_limit: int,
    p: SaddleParams,
    case: str,
    period: list[tuple[float, float, int]],
    t_grid: np.ndarray,
    endpoint_margin: float,
) -> list[Strip]:
    """The first ``n_limit`` strips of the family on ``t_grid``, in construction order.

    Candidate windings arrive in order from the Case I cursor march or the
    monotone pieces, each with its brackets: every winding whose two
    targets the brackets' exit angles enclose, ``endpoint_margin`` clear of
    their ends.  A candidate becomes a strip when its bisection brackets
    and its 5-point height check keeps the return image within tau.  The
    candidates are solved in batches of as many as strips are still
    missing, all boundaries in one bisection: a batch never holds a
    candidate that the strip count would have cut off, and each bracket
    stops on its own, so the strips are those of solving one candidate at
    a time.
    """
    k = p.constants
    increasing = k.gamma > 1.0
    n = len(t_grid)

    def x_at(u):
        return _exit_values(t_grid, u, p).x_w

    def targets_for(winding: int) -> tuple[float, float]:
        # a-boundary carries the -tau residue for increasing exit angle,
        # the 0 residue for decreasing (the mirrored case)
        if increasing:
            return TWO_PI * winding - tau, TWO_PI * winding
        return TWO_PI * winding, TWO_PI * winding - tau

    def window(lo: float, hi: float):
        """The brackets of the piece [lo, hi] and its exit-angle window common to all t."""
        u_los = (k.c2 + t_grid - hi) / k.g_v
        u_his = (k.c2 + t_grid - lo) / k.g_v
        x_a, x_b = x_at(u_los), x_at(u_his)
        return u_los, u_his, float(np.max(np.minimum(x_a, x_b))), float(np.min(np.maximum(x_a, x_b)))

    def piece_candidates():
        """Cases II/III/IV: the windings of the monotone pieces between consecutive reversals.

        Piece i lies i periods of pi past the first, so by the rotation
        identity its exit-angle window common to all t is the first one's
        turned by i pi (1 - gamma).  Its return heights are at least
        e**(ln c4 + delta_w ln c1 + delta u - delta_w |ln a|) at its lowest
        u, since the stretch c is at least min(a**2, a**-2).  The kernel runs only on the
        pieces whose turned window can hold a winding and whose height bound
        stays within tau, so no piece is skipped that could give a strip.
        Both tests allow 1e-12 of the terms they sum for rounding; the two
        ways to a window differ by a few ulps.
        """
        want_sign = 1 if increasing else -1
        turn = math.pi * (1.0 - k.gamma)
        log_y0 = math.log(k.c4) + k.delta_w * math.log(k.c1)
        stretch_floor = k.delta_w * abs(math.log(p.a))
        head = None
        for i, los, his in _case_pieces(0.0, period, want_sign):
            u_low = (k.c2 - his) / k.g_v
            above = np.count_nonzero(u_low >= LN_FLOOR)
            if head is None:
                if not above:
                    return
                head = window(los[0], his[0])
                x_lo0, x_hi0 = head[2:]
                if x_hi0 - x_lo0 < tau + 2.0 * endpoint_margin:
                    return
            turned, u_low = i[:above] * turn, u_low[:above]
            x_slack = 1e-12 * (1.0 + k.gamma) * (1.0 + abs(k.c2) + his[:above])
            y_slack = 1e-12 * (1.0 + abs(log_y0) + stretch_floor + k.delta * np.abs(u_low))
            fits = np.ceil((x_lo0 + turned + endpoint_margin + tau - x_slack) / TWO_PI) <= np.floor(
                (x_hi0 + turned - endpoint_margin + x_slack) / TWO_PI
            )
            fits &= log_y0 + k.delta * u_low - stretch_floor <= math.log(tau) + y_slack
            for piece in np.flatnonzero(fits):
                u_los, u_his, x_lo, x_hi = head if i[piece] == 0 else window(los[piece], his[piece])
                lo_w = math.ceil((x_lo + endpoint_margin + tau) / TWO_PI)
                hi_w = math.floor((x_hi - endpoint_margin) / TWO_PI)
                for w in range(hi_w, lo_w - 1, -1) if increasing else range(lo_w, hi_w + 1):
                    yield w, u_los, u_his
            if above < len(i):
                return

    def candidates():
        """(winding, u_los, u_his) of every candidate, in construction order."""
        if case != "I":
            yield from piece_candidates()
            return
        u_tops = np.full(n, math.log(p.eps))
        x_tops = x_at(u_tops)
        if increasing:
            w = math.floor((float(np.min(x_tops)) - SLACK - tau) / TWO_PI)
        else:
            w = math.ceil((float(np.max(x_tops)) + SLACK + tau) / TWO_PI)
        # case I: march a bracket cursor downward in u for every t; x_w is
        # monotone on the whole tail so [cursor, top] always brackets the
        # targets, until the cursor reaches the floor
        u_cur, x_cur = u_tops, x_tops
        while True:
            tgt_a, tgt_b = targets_for(w)
            beyond = min(tgt_a, tgt_b) - 1.0 if increasing else max(tgt_a, tgt_b) + 1.0
            behind = (x_cur >= beyond) if increasing else (x_cur <= beyond)
            while np.any(behind):
                u_cur = np.where(behind, u_cur - 1.0, u_cur)
                if np.any(u_cur < LN_FLOOR):
                    return
                x_cur = x_at(u_cur)
                behind = (x_cur >= beyond) if increasing else (x_cur <= beyond)
            yield w, u_cur, u_tops
            w = w - 1 if increasing else w + 1

    strips: list[Strip] = []
    stream = candidates()
    while len(strips) < n_limit:
        batch = list(islice(stream, n_limit - len(strips)))
        if not batch:
            break
        # both boundaries of every candidate in one bisection
        windings, u_los, u_his = zip(*batch)
        m = len(batch)
        targets = np.repeat([targets_for(w) for w in windings], n)
        t_all = np.tile(t_grid, 2 * m)
        u_ab = _bisect(
            lambda u: _exit_values(t_all, u, p).x_w,
            targets,
            np.repeat(u_los, 2, axis=0).ravel(),
            np.repeat(u_his, 2, axis=0).ravel(),
        )
        if np.isnan(u_ab).any():
            raise RuntimeError("target not bracketed by the monotone interval")
        u_a, u_b = u_ab.reshape(m, 2, n).transpose(1, 0, 2)
        a_vals, b_vals = _libm_exp(np.minimum(u_a, u_b)), _libm_exp(np.maximum(u_a, u_b))
        # the return image must stay inside the rectangle's width: its
        # horizontal extent is the exit height, so early windings whose
        # heights still exceed tau are skipped (strips accumulate downward);
        # one linspace per candidate, since linspace changes its formula for
        # a whole call when any of its steps is zero
        s_chk = np.stack([np.linspace(a, b, 5) for a, b in zip(a_vals, b_vals)])
        with np.errstate(under="ignore"):
            heights = np.exp(_exit_values(t_grid, np.log(s_chk), p).log_y)
        for w, a, b, h in zip(windings, a_vals, b_vals, heights):
            if not np.any(h > tau):
                strips.append(Strip(index=len(strips), winding=w, t_grid=t_grid.copy(), a_of_t=a, b_of_t=b))
    return strips


def strip_family_violations(family: StripFamily, p: SaddleParams) -> list[str]:
    """Replay the strip invariants; returns human-readable violations (empty when clean).

    A boundary misses its target when its exit angle is more than 1e-9 off.
    The whole family is evaluated at once; the messages come strip by strip
    in t order, then the overlaps in t order.
    """
    if not family.strips:
        return []
    increasing = family.gamma > 1.0
    lo_res = -family.tau if increasing else 0.0
    hi_res = 0.0 if increasing else -family.tau
    # one row per strip; the strips of a family share their t-grid length
    t_grid = np.array([s.t_grid for s in family.strips])
    t = t_grid.ravel()
    a = np.concatenate([s.a_of_t for s in family.strips])
    b = np.concatenate([s.b_of_t for s in family.strips])
    ordered = (0.0 < a) & (a < b) & (b <= p.eps)
    # out-of-order samples are reported as such; evaluate them at eps
    a = np.where(ordered, a, p.eps)
    b = np.where(ordered, b, p.eps)
    x_a, x_b = np.split(_exit_values(np.concatenate([t, t]), np.log(np.concatenate([a, b])), p).x_w, 2)
    miss_a = _angle_dist(x_a, lo_res) > 1e-9
    miss_b = _angle_dist(x_b, hi_res) > 1e-9
    # dx_w/ds = x_u / s has the sign of x_u
    fracs = np.array([0.125, 0.375, 0.625, 0.875])[:, None]
    slope = exit_curve(t, np.log(a + fracs * (b - a)), p).x_u
    wrong = np.any((slope <= 0) if increasing else (slope >= 0), axis=0)
    out: list[str] = []
    for i in np.flatnonzero(~ordered | miss_a | miss_b | wrong).tolist():
        head = f"strip {family.strips[i // t_grid.shape[1]].index}:"
        if not ordered[i]:
            out.append(f"{head} boundaries out of order at t={t[i]}")
            continue
        if miss_a[i]:
            out.append(f"{head} lower boundary misses target at t={t[i]}")
        if miss_b[i]:
            out.append(f"{head} upper boundary misses target at t={t[i]}")
        if wrong[i]:
            out.append(f"{head} wrong monotonicity inside at t={t[i]}")
    # at each t, the spans sorted by (a, b, index); neighbours must not touch
    columns = zip(*(zip(s.a_of_t.tolist(), s.b_of_t.tolist(), [s.index] * len(s.t_grid)) for s in family.strips))
    for t_i, spans in zip(t_grid[0], columns):
        spans = sorted(spans)
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
    ts, ss = [], []
    for strip in family.strips:
        t_grid, a, b = strip.t_grid, strip.a_of_t, strip.b_of_t
        edges = [0, len(t_grid) - 1]
        ts.append(np.concatenate([t_grid, t_grid, np.repeat(t_grid[edges], 33)]))
        ss.append(np.concatenate([a, b, np.linspace(a[edges], b[edges], 33, axis=1).ravel()]))
    starts = np.cumsum([0] + [len(t) for t in ts[:-1]])
    curve = _exit_values(np.concatenate(ts), np.log(np.concatenate(ss)), p)
    # the return map is (x, y) -> (y_w, -x_w) with the height reduced
    with np.errstate(under="ignore"):
        xs = np.exp(curve.log_y)
    ys = np.remainder(math.pi - curve.x_w, TWO_PI) - math.pi
    y_los, y_his = np.minimum.reduceat(ys, starts).tolist(), np.maximum.reduceat(ys, starts).tolist()
    x_los, x_his = np.minimum.reduceat(xs, starts).tolist(), np.maximum.reduceat(xs, starts).tolist()
    return [
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
        for strip, y_lo, y_hi, x_lo, x_hi in zip(family.strips, y_los, y_his, x_los, x_his)
    ]


@dataclass(frozen=True)
class PulsePoint:
    """Candidate n-pulse connection seeded on the unstable-manifold segment."""

    s: float
    n: int
    residual: float
    trace: tuple[tuple[float, float], ...]


def _return_chain(u, depth: int, p: SaddleParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exit angle and height (x_w, y_w) at each of ``depth + 1`` returns of the points (0, e^u).

    Each return is the kernel's values step ``_exit_values`` at (x, ln y),
    then the quarter turn (y_w, -x_w) with the height reduced to (-pi, pi].
    An element is nan from the first return whose start leaves the height
    range (0, eps]; an overflowing seed counts as off-section.  Seeds go
    through :func:`_libm_exp`, as the strip boundaries do.
    """
    y = _libm_exp(u)
    x = np.zeros_like(y)
    steps = []
    with np.errstate(under="ignore"):
        for _ in range(depth + 1):
            y = np.where((0.0 < y) & (y <= p.eps), y, np.nan)
            curve = _exit_values(x, np.log(y), p)
            steps.append((curve.x_w, np.exp(curve.log_y)))
            x, y = steps[-1][1], _wrap_pi(-curve.x_w)
    return steps


def find_multipulse(
    n: int,
    p: SaddleParams,
    x0: float = 0.0,
    s_window: tuple[float, float] | None = None,
    max_points: int = 4,
) -> list[PulsePoint]:
    """Points of the unstable-manifold segment whose orbit closes onto the stable trace.

    n = 2 solves the crossing equation on the exit curve directly; higher n
    applies the first-return map n-2 times and re-solves the crossing on
    the image curve, refining the parameter geometrically toward the seed
    where the previous level touched the trace (images accumulate there);
    the first level samples 48 points per pi of the angle phi.  Only the
    last level targets x0 + 2 pi k; an intermediate return must land on
    the section near height 0, so its level targets 2 pi k.
    Every level runs whole u-grids through :func:`_return_chain` and refines
    all crossings in one :func:`_bisect`, which advances a level's few
    brackets by four or five halvings per pass of the chain; each point's
    trace and residual come from one more pass.  A level without crossings
    leaves no window for the next, so the search stops there.  An empty
    list means no crossing in the window, which is not an error.
    """
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if max_points < 1:
        raise ParameterError(f"max_points must be >= 1, got {max_points}")
    if s_window is not None and not 0.0 < s_window[0] < min(s_window[1], p.eps):
        raise ParameterError(f"s_window must satisfy 0 < s_min < min(s_max, eps), got {s_window}, eps={p.eps}")
    k = p.constants
    u_hi = math.log(p.eps) - 1e-12
    if s_window is not None:
        u_lo = math.log(s_window[0])
        u_hi = min(u_hi, math.log(s_window[1]))
    else:
        drift = abs(1.0 - k.gamma) * k.g_v
        u_lo = max(u_hi - (8.0 * math.pi / max(drift, 1e-3)) - TWO_PI / k.g_v, LN_FLOOR / 4)

    def angle(u, depth: int) -> np.ndarray:
        return _return_chain(u, depth, p)[-1][0]

    def solve_level(depth: int, a: float, b: float, refine_to: float | None) -> list[float]:
        """Crossing parameters of the depth-th image curve inside [a, b]."""
        if refine_to is None:
            n_grid = max(64, int((b - a) / (math.pi / (k.g_v * 48))) + 1)
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
        vals = angle(us, depth)
        target = x0 if depth == n - 2 else 0.0
        # every multiple of 2*pi (shifted by the target) between the values
        # at the two ends of a grid cell is one bracketed crossing
        v0, v1 = vals[:-1], vals[1:]
        cells = np.flatnonzero(np.isfinite(v0) & np.isfinite(v1))
        # harvest away from the accumulation end: those roots are the
        # well-conditioned ones
        if refine_to is None or refine_to == a:
            cells = cells[::-1]
        k_lo = np.ceil((np.minimum(v0, v1)[cells] - target) / TWO_PI)
        k_hi = np.floor((np.maximum(v0, v1)[cells] - target) / TWO_PI)
        counts = np.maximum(k_hi - k_lo + 1.0, 0.0).astype(int)
        cell = np.repeat(cells, counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        winding = np.repeat(k_lo, counts) + (np.arange(len(cell)) - first)
        roots = _bisect(partial(angle, depth=depth), target + TWO_PI * winding, us[cell], us[cell + 1])
        return roots[~np.isnan(roots)][: max_points * 4].tolist()

    def accumulation_windows(roots: np.ndarray, depth_prev: int) -> list[tuple[float, float, float]]:
        """Sub-windows next to crossings where the following return stays on-section.

        The next-return height is positive where the previous-level angle
        sits just below its crossing value, so march geometrically away
        from each root on that side until the angle has moved by almost eps.
        """
        d0 = 1e-11 * np.maximum(1.0, np.abs(roots))
        base, g_minus, g_plus = angle([roots, roots - d0, roots + d0], depth_prev)
        sign = np.where(
            np.isfinite(g_minus) & (g_minus < base),
            -1.0,
            np.where(np.isfinite(g_plus) & (g_plus < base), 1.0, np.nan),
        )
        threshold = base - 0.999 * p.eps
        steps = d0[:, None] * 2.0 ** np.arange(201)
        g = angle(roots[:, None] + sign[:, None] * steps[:, 1:], depth_prev)
        stop = ~np.isfinite(g) | (g <= threshold[:, None])
        first = np.argmax(stop, axis=1)
        rows = np.arange(len(roots))
        d_prev, d = steps[rows, first], steps[rows, first + 1]
        inside = roots + sign * d_prev
        edge = _bisect(
            partial(angle, depth=depth_prev),
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
        if not roots:
            # a level without crossings leaves no window for the next one
            return []
        next_roots: list[float] = []
        for w_lo, w_hi, acc_end in accumulation_windows(np.array(roots), depth - 1):
            next_roots.extend(solve_level(depth, w_lo, w_hi, refine_to=acc_end))
            if len(next_roots) >= max_points * 2:
                break
        roots = next_roots
    chain = _return_chain(roots, n - 2, p)
    residual = np.abs(_wrap_pi(chain[-1][0] - x0))
    # an orbit that left the section has a nan residual; roots hugging the
    # accumulation edge cannot be resolved to the contract tolerance in
    # this parametrisation; both are dropped
    return [
        PulsePoint(
            s=math.exp(roots[i]),
            n=n,
            residual=float(residual[i]),
            trace=tuple((float(x_w[i]), float(y_w[i])) for x_w, y_w in chain),
        )
        for i in np.flatnonzero(residual <= 5e-9)[:max_points]
    ]
