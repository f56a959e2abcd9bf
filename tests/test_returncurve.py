import hashlib
import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bykov import returncurve
from bykov.horseshoe import build_strips
from bykov.oracles import eta_composed, rotation_identity_residual, turning_range_grid
from bykov.params import (
    ParameterError,
    SaddleParams,
    classify_region,
    derive_constants,
    turning_harmonic,
    turning_level,
)
from bykov.returncurve import (
    LN_FLOOR,
    S_UNDERFLOW,
    NoReversalsError,
    _exit_bend,
    _exit_slope,
    _exit_values,
    _reversal_walk,
    _reversals,
    _stretch,
    _unwound,
    circle_dist,
    curve_arrays,
    curve_sample,
    exit_curve,
    find_tangency,
    reversal_sequence,
    turning_crossings,
    turning_function,
    wrap_pi,
)
from conftest import admissible_params, math_pin, random_admissible, reversal_angle_set

TWO_PI = 2.0 * math.pi


def stretch_sq(phi, a):
    """Squared radial stretch of a unit vector at angle phi under diag(a, 1/a)."""
    return _stretch(np.cos(phi), np.sin(phi), a)


def sheared_angle(phi, a):
    """Angle of (a cos phi, sin phi / a), unwound to the quarter turn containing phi."""
    phi = np.asarray(phi, dtype=float)
    return _unwound(phi, np.cos(phi), np.sin(phi), a)


def quadrant_midpoint_unwound(phi, cos, sin, a):
    """The earlier rule for _unwound: the representative nearest the midpoint of the quarter turn floor(2 phi / pi)."""
    k = np.floor(2.0 * phi / np.pi)
    base = np.arctan2(sin / a, a * cos)
    return base + TWO_PI * np.rint(((k + 0.5) * (np.pi / 2.0) - base) / TWO_PI)


def unwound_angle_oracle(phi: float, a: float, steps: int = 4096) -> float:
    """Continuity-tracked argument of (a cos t, sin t / a) along a path from 0 to phi."""
    prev = 0.0
    total = 0.0
    for t in np.linspace(0.0, phi, steps):
        raw = math.atan2(math.sin(t) / a, a * math.cos(t))
        delta = raw - prev
        while delta > math.pi:
            delta -= TWO_PI
        while delta < -math.pi:
            delta += TWO_PI
        total += delta
        prev = raw
    return total


def test_stretch_and_angle_shear_free():
    for phi in (-3.0, 0.0, 1.2, 9.7):
        assert float(stretch_sq(phi, 1.0)) == pytest.approx(1.0, rel=1e-15)
        assert float(sheared_angle(phi, 1.0)) == pytest.approx(phi, abs=1e-12)


def test_stretch_and_angle_axis_points():
    assert float(stretch_sq(0.0, 2.0)) == pytest.approx(4.0)
    assert float(sheared_angle(0.0, 2.0)) == 0.0
    assert float(stretch_sq(math.pi / 2.0, 2.0)) == pytest.approx(0.25)
    assert float(sheared_angle(math.pi / 2.0, 2.0)) == pytest.approx(math.pi / 2.0)


def test_sheared_angle_against_continuity_oracle():
    for phi, a in ((13.1, 2.0), (-7.3, 1.6), (40.0, 3.0)):
        assert float(sheared_angle(phi, a)) == pytest.approx(
            unwound_angle_oracle(phi, a), abs=1e-6
        )


def test_sheared_angle_quadrant_boundaries():
    # both neighbouring quarter turns give the same value at a shared endpoint
    for k in range(-6, 7):
        phi = k * math.pi / 2.0
        val = float(sheared_angle(phi, 2.0))
        assert val == pytest.approx(phi, abs=1e-9)


def test_periodicity_properties():
    rng = np.random.default_rng(31)
    p = random_admissible(rng, a_min=1.2)
    for _ in range(1000):
        phi = float(rng.uniform(-40, 40))
        assert float(stretch_sq(phi + math.pi, p.a)) == pytest.approx(
            float(stretch_sq(phi, p.a)), abs=1e-12, rel=1e-12
        )
        assert float(sheared_angle(phi + math.pi, p.a)) == pytest.approx(
            float(sheared_angle(phi, p.a)) + math.pi, abs=1e-12
        )
        assert float(turning_function(phi + math.pi, p)) == pytest.approx(
            float(turning_function(phi, p)), abs=1e-12, rel=1e-12
        )


def test_turning_function_shear_free_and_axis():
    p1 = SaddleParams(alpha_v=1.0, C_v=0.7, E_v=1.0, alpha_w=1.0, C_w=1.0, E_w=1.0, a=1.0, eps=0.5)
    for phi in np.linspace(0, math.pi, 17):
        assert float(turning_function(phi, p1)) == pytest.approx(0.7, rel=1e-12)
    p2 = SaddleParams(alpha_v=1.3, C_v=0.7, E_v=1.0, alpha_w=1.0, C_w=1.0, E_w=1.0, a=2.0, eps=0.5)
    assert float(turning_function(0.0, p2)) == pytest.approx(0.7 * 4.0, rel=1e-14)


def test_turning_function_quarter_pi_value():
    """Hand value at pi/4, cross-checked by finite differences of the exit angle.

    sign(dx_w/ds) = sign(A - K) with the exact proportionality
    A = K + s * dx_w/ds * C * E_v * E_w / alpha_w, so centered differences
    of x_w give an independent route to the cross coefficient.
    """
    p = SaddleParams(alpha_v=1.0, C_v=1.0, E_v=1.0, alpha_w=1.0, C_w=1.0, E_w=1.0, a=2.0, eps=0.5)
    k = derive_constants(p)
    # direct hand evaluation: 1*4*1/2 + (1/4)*1/2 + 1*(4 - 1/4)*1/2
    assert float(turning_function(math.pi / 4.0, p)) == pytest.approx(4.0, rel=1e-14)
    # independent oracle at several angles
    t = 0.0
    for phi_target in (math.pi / 4.0, 0.9, 2.4):
        s = math.exp((k.c2 + t - phi_target) / k.g_v)
        h = 1e-7 * s
        xp = curve_sample(t, s + h, p).x_w
        xm = curve_sample(t, s - h, p).x_w
        dxw_fd = (xp - xm) / (2.0 * h)
        c = float(stretch_sq(phi_target, p.a))
        a_fd = turning_level(p) + s * dxw_fd * c * p.E_v * p.E_w / p.alpha_w
        assert float(turning_function(phi_target, p)) == pytest.approx(a_fd, rel=1e-6)


def assert_extrema_match_grid(p: SaddleParams):
    """Closed-form extrema against the plain grid oracle and their own angles."""
    region = classify_region(p)
    scale = max(1.0, abs(region.a_min), abs(region.a_max))
    lo, hi = turning_range_grid(p)
    assert region.a_min - 1e-12 * scale <= lo and hi <= region.a_max + 1e-12 * scale
    theta = turning_harmonic(p)[2]
    phi_min, phi_max = (0.5 * (theta + math.pi)) % math.pi, (0.5 * theta) % math.pi
    assert float(turning_function(phi_min, p)) == pytest.approx(region.a_min, rel=1e-12, abs=1e-12 * scale)
    assert float(turning_function(phi_max, p)) == pytest.approx(region.a_max, rel=1e-12, abs=1e-12 * scale)
    return region


def test_extrema_shear_free():
    p = SaddleParams(alpha_v=1.0, C_v=0.8, E_v=1.0, alpha_w=1.0, C_w=1.0, E_w=1.0, a=1.0, eps=0.5)
    region = assert_extrema_match_grid(p)
    assert region.a_min == region.a_max == pytest.approx(0.8)


def test_extrema_grid_vs_closed_form():
    rng = np.random.default_rng(41)
    for _ in range(50):
        p = random_admissible(rng, a_min=1.05)
        region = assert_extrema_match_grid(p)
        # the maximum dominates the axis sample A(0) = C_v a^2
        assert region.a_max >= float(turning_function(0.0, p)) - 1e-12


def test_exit_curve_resonant_cancellation(unit_params):
    for s in (1.0, 0.5, 1e-3, 1e-9):
        c = curve_sample(0.0, s, unit_params)
        assert c.x_w == pytest.approx(0.0, abs=1e-12)
        assert c.y_w == pytest.approx(s, rel=1e-12)


def test_exit_curve_at_section_edge():
    # s = 1 with unit section: the log terms vanish and the stretch terms remain
    p = SaddleParams(alpha_v=1.0, C_v=1.3, E_v=0.9, alpha_w=1.1, C_w=0.8, E_w=1.2, a=2.0, eps=1.0)
    k = derive_constants(p)
    c = curve_sample(0.0, 1.0, p)
    assert c.phi == 0.0
    assert c.x_w == pytest.approx(-k.g_w * math.log(4.0) / 2.0, rel=1e-14)
    assert c.y_w == pytest.approx(k.c4 * 4.0 ** (k.delta_w / 2.0) * k.c1**k.delta_w, rel=1e-14)


def test_exit_curve_matches_composition_random():
    rng = np.random.default_rng(19)
    for _ in range(2000):
        p = random_admissible(rng)
        t = float(rng.uniform(0.0, 0.5))
        s = float(p.eps * 10 ** rng.uniform(-8, 0))
        c = curve_sample(t, s, p)
        x_o, y_o = eta_composed(t, s, p)
        assert c.x_w == pytest.approx(x_o, abs=1e-9)
        assert c.y_w == pytest.approx(y_o, rel=1e-9)


def test_exit_curve_rejects_bad_parameter(dense_params):
    with pytest.raises(ValueError):
        curve_sample(0.0, 0.0, dense_params)
    with pytest.raises(ValueError):
        curve_sample(0.0, dense_params.eps * 1.5, dense_params)
    for s in ([0.1, 0.0], [-1e-300], [0.2, -0.0]):
        with pytest.raises(ValueError, match="^curve parameter s must be strictly positive$"):
            curve_arrays(0.0, s, dense_params)


def test_derivative_matches_finite_differences(dense_params):
    rng = np.random.default_rng(3)
    for _ in range(300):
        s = float(dense_params.eps * 10 ** rng.uniform(-4, -0.05))
        t = float(rng.uniform(0.0, 0.4))
        c = curve_sample(t, s, dense_params)
        h = 1e-6 * s
        fd = (curve_sample(t, s + h, dense_params).x_w - curve_sample(t, s - h, dense_params).x_w) / (
            2.0 * h
        )
        assert c.dxw_ds == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_height_limit_and_angle_divergence():
    """Heights decay to zero; the exit angle diverges with the sign set by gamma."""
    gamma_up = SaddleParams(alpha_v=0.2, C_v=1.0, E_v=0.8, alpha_w=2.5, C_w=4.0, E_w=2.0, a=2.0, eps=0.5)
    gamma_down = SaddleParams(alpha_v=2.5, C_v=0.8, E_v=0.5, alpha_w=0.5, C_w=3.0, E_w=2.0, a=2.0, eps=0.5)
    for p, sign in ((gamma_up, -1.0), (gamma_down, 1.0)):
        k = derive_constants(p)
        assert (k.gamma > 1.0) == (sign < 0)
        s = 10.0 ** -np.arange(1, 13, dtype=float)
        _, x_w, y_w, _ = curve_arrays(0.0, s, p)
        assert np.all(np.diff(y_w) < 0.0)
        assert y_w[-1] < 1e-10
        # windowed trend: average over one reversal period to kill oscillation
        assert math.copysign(1.0, x_w[-1] - x_w[0]) == sign
        assert abs(x_w[-1]) > abs(x_w[0])


def test_shear_free_derivative_constant_sign():
    p = SaddleParams(alpha_v=0.7, C_v=1.5, E_v=1.0, alpha_w=2.0, C_w=1.0, E_w=0.9, a=1.0, eps=0.5)
    k = derive_constants(p)
    assert k.gamma != 1.0
    s = np.geomspace(p.eps, 1e-12, 10_000)
    dx = curve_arrays(0.0, s, p)[3]
    assert np.all(dx < 0.0) or np.all(dx > 0.0)


def test_height_scaling_law(dense_params):
    k = derive_constants(dense_params)
    factor = math.exp(-math.pi / k.g_v)
    expected = math.exp(-k.delta * math.pi / k.g_v)
    rng = np.random.default_rng(29)
    for _ in range(200):
        s = float(dense_params.eps * 10 ** rng.uniform(-3, -0.01))
        y1 = curve_sample(0.0, s, dense_params).y_w
        y2 = curve_sample(0.0, s * factor, dense_params).y_w
        assert y2 / y1 == pytest.approx(expected, rel=1e-10)


def _entry_kinds(seq) -> tuple[str, ...]:
    """The kind of every entry, expanded from the alternating pair as ``bykov reversals`` writes its column."""
    n = len(seq)
    return (seq.kinds * (n // 2 + 1))[:n]


def test_reversal_sequence_empty_outside(case1_params):
    seq = reversal_sequence(0.0, 10, case1_params)
    assert len(seq) == 0
    assert seq.reason == "OutsideB"


def test_reversal_sequence_dense(dense_params):
    seq = reversal_sequence(0.0, 40, dense_params)
    assert len(seq) == 40
    s_values, kinds = np.exp(seq.log_s_values), _entry_kinds(seq)
    assert np.all(np.diff(s_values) < 0.0)
    k = derive_constants(dense_params)
    ratio = math.exp(-math.pi / k.g_v)
    for i in range(len(seq) - 2):
        assert s_values[i + 2] / s_values[i] == pytest.approx(ratio, rel=1e-10)
    assert set(kinds) == {"maxima", "minima"}
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    for i in range(10):
        s = float(s_values[i])
        assert abs(curve_sample(0.0, s, dense_params).dxw_ds) < 1e-8 / s


def test_reversal_kinds_match_second_difference(dense_params):
    seq = reversal_sequence(0.0, 8, dense_params)
    s_values, kinds = np.exp(seq.log_s_values), _entry_kinds(seq)
    for i in range(len(seq)):
        s = float(s_values[i])
        h = 1e-5 * s
        x0 = curve_sample(0.0, s - h, dense_params).x_w
        x1 = curve_sample(0.0, s, dense_params).x_w
        x2 = curve_sample(0.0, s + h, dense_params).x_w
        second = (x2 - 2.0 * x1 + x0) / (h * h)
        assert (kinds[i] == "maxima") == (second < 0.0)


def test_reversal_angles_match_direct_evaluation(dense_params):
    seq = reversal_sequence(0.3, 30, dense_params)
    s_values = np.exp(seq.log_s_values)
    for i in range(len(seq)):
        s = float(s_values[i])
        if s < 1e-200:
            break
        assert curve_sample(0.3, s, dense_params).x_w == pytest.approx(
            float(seq.x_values[i]), abs=1e-9
        )


def test_rotation_identity_trivial_and_resonant(unit_params, dense_params):
    assert rotation_identity_residual(0.3, 0, 0.0, dense_params) == 0.0
    # the resonant point kills the shift term: all reversal angles coincide
    for n in (1, 3, 7):
        assert rotation_identity_residual(0.9, n, 0.0, unit_params) < 1e-10


def test_rotation_identity_random(dense_params):
    rng = np.random.default_rng(37)
    k = derive_constants(dense_params)
    for _ in range(100):
        n = int(rng.integers(0, 21))
        s0 = float(dense_params.eps * 10 ** rng.uniform(-2, 0))
        t = float(rng.uniform(0.0, 0.4))
        assert rotation_identity_residual(s0, n, t, dense_params) < 1e-9


def test_rotation_identity_rejects_out_of_range(dense_params):
    with pytest.raises(ValueError):
        rotation_identity_residual(dense_params.eps * 2.0, 1, 0.0, dense_params)
    # n = -1 shifts s0 = eps above eps, and n = 10^4 underflows s_n to 0
    for n in (-1, 10**4):
        with pytest.raises(ValueError, match=r"shifted parameter .* left \(0, eps\]"):
            rotation_identity_residual(dense_params.eps, n, 0.0, dense_params)


def test_reversal_angles_equidistribute(dense_params):
    angles = reversal_angle_set(0.0, 10_000, dense_params)
    gaps = {}
    for n in (2500, 5000, 10_000):
        sub = np.sort(np.mod(angles.x_values[:n], TWO_PI))
        gaps[n] = float(np.max(np.diff(np.concatenate([sub, [sub[0] + TWO_PI]]))))
    assert gaps[10_000] < 0.05 * TWO_PI
    assert gaps[10_000] < gaps[5000] < gaps[2500]


def test_reversal_angles_finite_orbit_for_rational_gamma(rational_params):
    k = derive_constants(rational_params)
    assert k.gamma == pytest.approx(1.5, rel=1e-15)
    angles = reversal_angle_set(0.0, 400, rational_params)
    for kind in ("maxima", "minima"):
        vals = {
            round(float(v) % TWO_PI, 8)
            for v, kd in zip(angles.x_values, _entry_kinds(angles))
            if kd == kind
        }
        # two interleaved rotations by pi(1 - gamma) = -pi/2: at most 2q = 4
        assert len(vals) <= 4


def test_find_tangency_exact_hit(dense_params):
    angles = reversal_angle_set(0.0, 50, dense_params)
    x0 = float(angles.x_values[7] % TWO_PI)
    report = find_tangency(x0, 0.0, 50, dense_params)
    assert report.amplitude < 1e-12
    assert report.bump.amplitude == pytest.approx(0.0, abs=1e-12)


def test_find_tangency_amplitude_shrinks(dense_params):
    amps = [find_tangency(0.0, 0.0, n, dense_params).amplitude for n in (100, 1000, 10_000)]
    assert amps[0] >= amps[1] >= amps[2]
    assert amps[2] < 0.01
    report = find_tangency(0.0, 0.0, 1000, dense_params)
    assert all(b[1] <= a[1] for a, b in zip(report.history, report.history[1:]))
    # the bump really moves the trace onto the reversal point
    assert circle_dist(report.x_best + report.bump.amplitude, report.x0) < 1e-12


def test_find_tangency_creates_second_order_contact(dense_params):
    """The bump bends the stable-manifold trace into a genuine tangency.

    Along the exit curve, the signed horizontal defect to the perturbed
    trace {x + b(x, y) = x0} must vanish at the chosen reversal point with
    zero slope and same-sign quadratic tails (touch without crossing).
    """
    rep = find_tangency(0.0, 0.0, 60, dense_params)
    s_star = math.exp(rep.log_s_best)

    def defect(s: float) -> float:
        c = curve_sample(0.0, s, dense_params)
        x_near = wrap_pi(c.x_w - rep.x0) + rep.x0
        return x_near + rep.bump.displacement(x_near, c.y_w) - rep.x0

    assert abs(defect(s_star)) < 1e-12
    offsets = np.linspace(-1e-4, 1e-4, 21)
    vals = np.array([defect(s_star * (1.0 + d)) for d in offsets])
    assert (vals[0] > 0) == (vals[-1] > 0)
    quad, lin, _ = np.polyfit(offsets, vals, 2)
    assert abs(lin) * 1e-4 < 1e-2 * abs(quad) * 1e-8


@pytest.mark.parametrize("x0", [1e12, 1e300])
def test_find_tangency_reads_x0_mod_2pi(dense_params, x0):
    # x0 - angle would round away the residue of so large an x0, and the
    # scan would pick another reversal
    report = find_tangency(x0, 0.0, 10_000, dense_params)
    residue = find_tangency(wrap_pi(x0), 0.0, 10_000, dense_params)
    assert report.x0 == x0
    assert replace(report, x0=residue.x0) == residue


def test_find_tangency_stagnates_for_rational_gamma(rational_params):
    amps = [find_tangency(1.0, 0.0, n, rational_params).amplitude for n in (100, 1000, 10_000)]
    assert amps[0] == pytest.approx(amps[2], abs=1e-9)
    assert amps[2] > 1e-3  # generic target is never approached
    assert find_tangency(1.0, 0.0, 100, rational_params).warning is not None


@pytest.mark.parametrize(
    "fn, name", [(reversal_sequence, "t"), (reversal_angle_set, "t"), (find_tangency, "t"), (find_tangency, "x0")]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_start_is_refused_by_name(fn, name, value, dense_params):
    start = {"x0": 0.0, "t": 0.0, name: value}
    args = (start["x0"], start["t"], 100) if fn is find_tangency else (start["t"], 100)
    with pytest.raises(ParameterError, match=rf"{name} must be finite, got {value}"):
        fn(*args, dense_params)


@pytest.mark.parametrize("fixture", ["case1_params", "dense_params"])
@pytest.mark.parametrize("fn", [reversal_sequence, reversal_angle_set, find_tangency])
@pytest.mark.parametrize("n_max", [0, -3])
def test_n_max_is_refused_before_the_region(fixture, fn, n_max, request):
    args = (0.0, 0.0, n_max) if fn is find_tangency else (0.0, n_max)
    with pytest.raises(ParameterError, match=rf"n_max must be >= 1, got {n_max}"):
        fn(*args, request.getfixturevalue(fixture))


@pytest.mark.parametrize(
    "fn, args, scale",
    [(find_tangency, (0.0, 0.0), 1.0), (reversal_angle_set, (0.0,), 1.0), (reversal_sequence, (0.0,), 1e13)],
)
def test_walk_past_the_limit_is_refused(fn, args, scale, dense_params):
    """No floor, or 8.8e15 reversals above it at g_v 2e13: n_max 1e12 is refused before any block is built."""
    p = replace(dense_params, alpha_v=scale * dense_params.alpha_v, alpha_w=scale * dense_params.alpha_w)
    with pytest.raises(ParameterError, match=r"--n-max=1000000000000 walks 1e\+12 reversals, more than the 15,000,000"):
        fn(*args, 10**12, p)


@pytest.mark.parametrize("fn, args, bound", [(reversal_angle_set, (0.0,), 60), (find_tangency, (0.0, 0.0), 80)])
def test_walk_memory_per_entry(fn, args, bound, dense_params):
    """A walk holds ln s, phi and x per entry, not s or a label: at most ``bound`` traced bytes an entry at its peak.

    At 200,000 entries a walk peaks at 55 bytes an entry and find_tangency at
    73; holding s and every entry's label as well took them to 79 and 89.
    """
    n = 200_000
    fn(*args, 1000, dense_params)
    tracemalloc.start()
    try:
        fn(*args, n, dense_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * n


def test_find_tangency_requires_reversals(case1_params):
    base = SaddleParams(alpha_v=2.0, C_v=1.2, E_v=1.0, alpha_w=2.0, C_w=2.6, E_w=1.0, a=2.0, eps=0.5)
    m, r, _ = turning_harmonic(base)
    boundary = replace(base, E_w=m + r)
    points = {"OutsideB": case1_params, "NoReversal_aEq1": replace(case1_params, a=1.0), "BoundaryB": boundary}
    for tag, p in points.items():
        assert classify_region(p).tag == tag
        with pytest.raises(NoReversalsError, match=rf"\(region {tag}\)"):
            find_tangency(0.0, 0.0, 100, p)


@given(
    p=admissible_params,
    x0=st.floats(-math.pi, math.pi),
    t=st.floats(-TWO_PI, TWO_PI),
    n_max=st.integers(1, 3000),
)
def test_find_tangency_matches_per_reversal_loops(p, x0, t, n_max):
    """The running-minimum history and the bump radius equal per-reversal loops over scalar math.fmod."""
    if classify_region(p).tag not in ("InteriorB_GammaRational", "DenseReversals_D"):
        return
    report = find_tangency(x0, t, n_max, p)
    angles = reversal_angle_set(t, n_max, p)
    reduced = [_fmod_wrap(float(x)) for x in angles.x_values]
    history, running = [], math.inf
    for i, x in enumerate(reduced):
        d = abs(_fmod_wrap(x - x0))
        if d < running:
            running = d
            history.append((i + 1, running))
    with np.errstate(under="ignore"):
        heights = np.exp(_exit_values(t, angles.log_s_values, p).log_y)
    best = report.n_best
    sep = math.inf
    for i, x in enumerate(reduced):
        if i != best:
            sep = min(sep, math.hypot(abs(_fmod_wrap(x - reduced[best])), float(heights[i] - heights[best])))
    assert report.history == tuple(history)
    assert report.amplitude == report.history[-1][1]
    assert report.bump.radius == max(min(0.05, 0.45 * sep), 1e-12)


@pytest.mark.parametrize(
    "fixture, n_max, near",
    [("dense_params", 2000, 75), ("dense_params", 100_000, 3821), ("rational_params", 2000, 499)],
)
def test_find_tangency_heights_only_near_the_chosen_reversal(fixture, n_max, near, request, monkeypatch):
    """The kernel runs on the walk's two head entries, the reversals within 0.12 of the chosen one in x, and that one.

    A reversal 0.12 or more away cannot bring 0.45 * sep below the 0.05
    cap of the radius, so its height is not needed.
    """
    p = request.getfixturevalue(fixture)
    points, values = [], returncurve._exit_values

    def counting(t, u, p):
        points.append(np.broadcast(t, u).size)
        return values(t, u, p)

    monkeypatch.setattr(returncurve, "_exit_values", counting)
    report = find_tangency(0.0, 0.0, n_max, p)
    assert points == [2, near + 1]
    reduced = wrap_pi(reversal_angle_set(0.0, n_max, p).x_values)
    assert np.count_nonzero(circle_dist(reduced, reduced[report.n_best]) < 0.12) == near + 1


def _fmod_wrap(x: float) -> float:
    """x mod 2*pi into (-pi, pi] with scalar math.fmod, one element at a time."""
    r = math.fmod(x, TWO_PI)
    if r > math.pi:
        r -= TWO_PI
    elif r <= -math.pi:
        r += TWO_PI
    return r


def _exact_wrap(x: float) -> Fraction:
    """The exact representative of x mod the float TWO_PI in (-pi, pi]."""
    r = Fraction(x) % Fraction(TWO_PI)
    return r - Fraction(TWO_PI) if r > Fraction(math.pi) else r


@given(xs=st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=20))
def test_wrap_pi_is_the_exact_reduction(xs):
    """wrap_pi is the exact reduction mod TWO_PI, a float for a float and elementwise on an array."""
    got = [wrap_pi(x) for x in xs]
    assert all(type(r) is float for r in got)
    assert [Fraction(r) for r in got] == [_exact_wrap(x) for x in xs]
    assert np.array_equal(wrap_pi(np.array(xs)), got)
    assert np.array_equal(circle_dist(np.array(xs), 0.5), [circle_dist(x, 0.5) for x in xs])


@pytest.mark.parametrize("fixture, x0", [("dense_params", 0.0), ("dense_params", 1.0), ("rational_params", 0.0)])
def test_history_distances_are_exact_within_an_ulp(fixture, x0, request):
    """Every running-minimum distance lies within 2**-51 of the exact distance mod the float TWO_PI."""
    p = request.getfixturevalue(fixture)
    report = find_tangency(x0, 0.0, 4096, p)
    angles = reversal_angle_set(0.0, 4096, p)
    for n, d in report.history:
        exact = abs(_exact_wrap(float(angles.x_values[n - 1])) - Fraction(x0))
        exact = min(exact, Fraction(TWO_PI) - exact)
        assert abs(Fraction(d) - exact) <= Fraction(2) ** -51


def _tangency_digest(report) -> str:
    """sha256 over float.hex of the chosen reversal, the bump and the history."""
    fields = [report.x_best, report.log_s_best, report.amplitude, *report.bump.center, report.bump.radius]
    rows = [" ".join(v.hex() for v in fields)] + [f"{n} {d.hex()}" for n, d in report.history]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def _interior_draws(count: int = 5) -> list[SaddleParams]:
    """The first ``count`` seeded draws of random_admissible whose level lies inside the turning range."""
    rng = np.random.default_rng(11)
    draws = []
    while len(draws) < count:
        p = random_admissible(rng)
        if classify_region(p).tag in ("InteriorB_GammaRational", "DenseReversals_D"):
            draws.append(p)
    return draws


# (x0, t, n_max) -> digest of find_tangency on the dense fixture (first two)
# and on the five interior draws
PINNED_TANGENCIES = [
    ((0.0, 0.0, 1000), "d19675fa968b3ceeba9fb73bdba4cea450f490a374f79b61c86714c77da1bfdb"),
    ((1.0, 0.2, 200), "f5c2d32dec578370b2d53a65e69bbd8ed01b85a2feb75c4efd03dad1a51f9ce8"),
    ((0.7, 0.3, 300), "e14a2391be39b7a480df350e8002ebdbcfb1fb29244258ff2daf3413d7358442"),
    ((0.7, 0.3, 300), "9e45d97dfb36957ef9f177183571daf403d403473ea9d9fa8af0d7a64b61e629"),
    ((0.7, 0.3, 300), "a6f23481f37a865d99a48858e464f8929dd18956152189a64d3160f4b46ccdd3"),
    ((0.7, 0.3, 300), "151c516e6c8169cf3d97ba89b44feb9f05349a28c2149133434a3b8dcb36e58c"),
    ((0.7, 0.3, 300), "1c54587b51ad736abe47484b68462cf0b90bb1b2d0001fe7445f02b39f3a59af"),
]


def test_find_tangency_bit_for_bit(dense_params):
    points = [dense_params, dense_params, *_interior_draws()]
    got = [_tangency_digest(find_tangency(*args, p)) for p, (args, _) in zip(points, PINNED_TANGENCIES)]
    assert got == [digest for _, digest in PINNED_TANGENCIES]


def _sequence_digest(*seqs) -> str:
    """sha256 over float.hex of phi, ln s, s and x_w and over the kinds of each sequence."""
    rows = []
    for seq in seqs:
        for values in (seq.phi_values, seq.log_s_values, np.exp(seq.log_s_values), seq.x_values):
            rows.append(" ".join(float(v).hex() for v in values))
        rows.append(" ".join(_entry_kinds(seq)))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# (point, t, n_max, digest of reversal_sequence and reversal_angle_set): the
# dense fixture over a t x n_max grid, the rational and near-maximum
# fixtures and the five interior draws;
# a digest that numpy's float64 math moves is a table keyed as conftest.NUMPY_MATH's values
PINNED_SEQUENCES = [
    ("dense", 0.0, 1, "ccea1a923cca47411832d31f20335aec6a4ff5f62bd80a3a7f5976502b45872f"),
    ("dense", 0.0, 2, "4558311d73f3c6d1594c7f33c30a4cb3898007b35eb35698c264dda43ca68a7f"),
    ("dense", 0.0, 3, "317324c205a71f524b37b9baf703f068d11ffa1bb8a5750f78194e7a37e247c7"),
    ("dense", 0.0, 1000, {
        "avx512": "61c70a1798c596b189c0f179f5586150f372a6fd21439ac7919379d78e7b92f1",
        "avx2": "6a91f0f9d0c29bc5d2a6226f6ded2be3cafda20b652cfb76cbcbc6fe9e8c2026",
    }),
    ("dense", 0.0, 10000, {
        "avx512": "67b9f054847086475829a5376a43e1c008fe52752855c98ff543acdd949c9298",
        "avx2": "ddf7daec2eec85a580f04d999882ae54f244339e56cd972e69e35288a010c450",
    }),
    ("dense", 0.3, 1, "cf364b3134f6b7ad27e311e313fce1709f76373340a71c480e6f9ee26b2d97f5"),
    ("dense", 0.3, 2, "5a845e2e5be76fe77443534a374c9baf79d255edb03e3beb5411c5ac5f7f8389"),
    ("dense", 0.3, 3, "b5fa892a47f27218fc93b26efc6976651cab137da2f9b7a878b50b8334a2ae4e"),
    ("dense", 0.3, 1000, {
        "avx512": "a1bfe7e019f4fd9a4a9688617444649d961f9609f37c0b40f866f48716c2f800",
        "avx2": "be9279c2ab2388d940ba7633013e797a2c68e5aa5c9a6358a58a41fff818d449",
    }),
    ("dense", 0.3, 10000, {
        "avx512": "f47d01ebe62abbbfda15911c5f51108192b1fe5c11f48e56d77e03f2d1c6807b",
        "avx2": "c9c91dbf834e555cea45bce8e9df6330b450b6ab6c4ee846373f6486bf00f59f",
    }),
    ("dense", -1.0, 1, "6a855bb182bf9da3044c05a3c3c3b84da0d4baa362d9d6cc670697e073b06dcb"),
    ("dense", -1.0, 2, "3c6f9ad0d7f9a554c118fcd8ab5bb26ccb948181ea247c299deee0f2cb9fef74"),
    ("dense", -1.0, 3, "40d199666395a23e628813fdfee116a968c5e8d56e847fbd429d92f22208aa29"),
    ("dense", -1.0, 1000, {
        "avx512": "02cd44869bfed82f2c39b5a1e82f54e3f7b64d7827308091b0c2732fea40e535",
        "avx2": "880bf06a5b1d88210c7f772af41f1e68b6db2508535845eed2382758281b3291",
    }),
    ("dense", -1.0, 10000, {
        "avx512": "55828bbd5e8fffa4f87f9bea0ad66bb58cd6efa4cb82ccbabbe3fa120ef70045",
        "avx2": "ed8fe605c1f326283a86260314cddd179a704705a65d9d04982894efc7b6721d",
    }),
    ("rational", 0.0, 1000, {
        "avx512": "46b89af1ade37e5dbf498972e629a85022cdb1c6de29f86d747fdc175185f711",
        "avx2": "a4229fe3df79ac2a0afccb6a9671f619f42b3feac1b9c85be924e1cd9407b261",
    }),
    ("near-max", 0.0, 1000, {
        "avx512": "3d939e345bb365406931debdc0348c7eb2bc5d36e52c4cb37413eb9ced00b403",
        "avx2": "1699925bdfce4a6999af94776dcf6e07a1c98e90131050f2048bfd7bba2fdd31",
    }),
    ("draw0", 0.3, 3000, {
        "avx512": "25a41da2c0be1ab268414c83f31615520fd32f25413da461f46555827bb3b91b",
        "avx2": "2a6e1b2ae4df340e516381cbbe700857c4638d77039a1f36750470aef94e658a",
    }),
    ("draw1", 0.3, 3000, {
        "avx512": "48ff03eae7c5c9b9efd928f5b0dba491eda1e3eae5b0b8dd190c123dd14c25cd",
        "avx2": "8ec03b7ef14bedc48dffc1010473d985575eef29f5f780ce28b875f7a8518e8c",
    }),
    ("draw2", 0.3, 3000, {
        "avx512": "649321a387b3f743350cb934ff72636af01f9bde15b03b970e161d820462876d",
        "avx2": "7934a6dc2d0797a6ef7f8697149115ecadc535b2a27b81cbc8d17b68df7684cb",
    }),
    ("draw3", 0.3, 3000, {
        "avx512": "d5271465b79729ca415349b9b29797f24842dc4497a448de4e2915c59322f82a",
        "avx2": "9cf39a6044b0efce8206bcfb3a06e342ccd7ac3080adf6f9476ccaf4ec392749",
    }),
    ("draw4", 0.3, 3000, {
        "avx512": "9e844f5bd9a742fa09d54ea2a13f921177a3dd72f3af8c2720f0e8bf11911f83",
        "avx2": "210820cdd15811c190b9b1de0b5f9573e6808d13679fd8bf0a15eb5846cfaeeb",
    }),
]


def test_reversal_sequence_bit_for_bit(dense_params, rational_params, near_max_params):
    points = {"dense": dense_params, "rational": rational_params, "near-max": near_max_params}
    points.update({f"draw{i}": p for i, p in enumerate(_interior_draws())})
    got = []
    for name, t, n_max, _ in PINNED_SEQUENCES:
        p = points[name]
        got.append((name, t, n_max, _sequence_digest(reversal_sequence(t, n_max, p), reversal_angle_set(t, n_max, p))))
    assert got == [(name, t, n_max, math_pin(pin)) for name, t, n_max, pin in PINNED_SEQUENCES]


def test_reversal_sequence_work_ends_at_underflow(dense_params):
    """A huge n_max costs no more than the turning points above s = 1e-300."""
    seq = reversal_sequence(0.0, 10**12, dense_params)
    assert _sequence_digest(seq) == _sequence_digest(reversal_sequence(0.0, 10**4, dense_params))


# (fixture, digest of reversal_sequence(0.3, 10**9) and reversal_angle_set(0.3,
# 300_000), strip windings of build_strips(0.3, 3)) at alpha_v and alpha_w x150;
# a digest that numpy's float64 math moves is a table keyed as conftest.NUMPY_MATH's values
PINNED_DEEP_WALKS = [
    ("dense", {
        "avx512": "c6864785931a3e91d971dbd191cdee1799860271e6f65322e04dfbe95c4905a3",
        "avx2": "873bc6bee4a3115c30aa3fa09f20ed41a85d9e9e3f238e3e3d893deff55f551d",
    }, [-22, -23, -24]),
    ("rational", {
        "avx512": "f2102ddee966a4b66686347bb1dca9e3194700c225e8587957ac0e006d255bfd",
        "avx2": "70f3d4fbc5fc55c56df7461b315a90d3e683e3b3f3688ff0f42029039189c6d9",
    }, [-23, -24, -25]),
]


def test_lattice_walk_across_blocks_bit_for_bit(dense_params, rational_params):
    """g_v 300 at the same gamma: 131,796 reversals above the floor, past the blocks' 65,536-period cap.

    The sequence ends inside the first block at the cap and the angle set
    in the one after it; the case-II guard and the strip pieces walk the
    same blocks.
    """
    got = []
    for name, p in (("dense", dense_params), ("rational", rational_params)):
        deep = replace(p, alpha_v=150 * p.alpha_v, alpha_w=150 * p.alpha_w)
        assert deep.constants.g_v == 300.0 and deep.constants.gamma == p.constants.gamma
        seq = reversal_sequence(0.3, 10**9, deep)
        assert len(seq) == 131_796
        digest = _sequence_digest(seq, reversal_angle_set(0.3, 300_000, deep))
        got.append((name, digest, [strip.winding for strip in build_strips(0.3, 3, deep).strips]))
    assert got == [(name, math_pin(pin), windings) for name, pin, windings in PINNED_DEEP_WALKS]


@given(p=admissible_params, t=st.floats(-TWO_PI, TWO_PI))
def test_reversal_blocks_match_the_sequence(p, t):
    """The case-II guard's blocks: reversal_sequence's angles bit for bit, down to the floor."""
    if classify_region(p).tag not in ("InteriorB_GammaRational", "DenseReversals_D"):
        return
    angles = np.concatenate([x for _, _, _, x in _reversals(t, p, LN_FLOOR)])
    assert angles.tobytes() == reversal_sequence(t, 10**9, p).x_values.tobytes()


def _reversal_loop(t, n_max, p, k, stop_at_underflow):
    """The period-by-period walk the lattice form replaced: (phi_n, ln s_n, kind) per turning point."""
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


@given(p=admissible_params, t=st.floats(-TWO_PI, TWO_PI), n_max=st.integers(1, 3000))
def test_reversal_walk_matches_period_loop(p, t, n_max):
    """The lattice walk gives the period loop's turning points, bit for bit.

    Both with and without the underflow cut; n_max = 3000 runs as well,
    which passes s-underflow at nearly every point.
    """
    k = derive_constants(p)
    if len(turning_crossings(p)) < 2:
        with pytest.raises(NoReversalsError):
            _reversal_walk(t, n_max, p, LN_FLOOR)
        return
    for n, stop_at_underflow in itertools.product((n_max, 3000), (True, False)):
        seq = _reversal_walk(t, n, p, LN_FLOOR if stop_at_underflow else -math.inf)
        phis, log_s, kinds = seq.phi_values, seq.log_s_values, _entry_kinds(seq)
        got = [(phi.hex(), ln_s.hex(), kind) for phi, ln_s, kind in zip(phis.tolist(), log_s.tolist(), kinds)]
        want = [(phi.hex(), ln_s.hex(), kind) for phi, ln_s, kind in _reversal_loop(t, n, p, k, stop_at_underflow)]
        assert len(phis) == len(log_s) == len(kinds)
        assert got == want


def test_turning_crossings_bracket_all_roots(dense_params):
    roots = turning_crossings(dense_params)
    assert len(roots) == 2
    level = turning_level(dense_params)
    for r in roots:
        assert float(turning_function(r, dense_params)) == pytest.approx(level, abs=1e-9)


@pytest.fixture(scope="module")
def near_max_params(dense_params):
    """Dense fixture with K 8.75e-9 below the turning maximum: a narrow transversal pair."""
    return replace(dense_params, alpha_w=0.5777663453158498)


def test_near_maximum_keeps_the_root_pair(near_max_params):
    p = near_max_params
    region = classify_region(p)
    assert region.a_max - region.k == pytest.approx(8.75e-9, rel=1e-3)
    assert region.tag in ("InteriorB_GammaRational", "DenseReversals_D")
    roots = turning_crossings(p)
    assert len(roots) == 2
    seq = reversal_sequence(0.0, 100, p)
    assert len(seq) == 100
    report = find_tangency(0.0, 0.0, 1000, p)
    assert 0.0 <= report.amplitude <= math.pi


def test_interior_tag_implies_root_pair_at_float_resolution():
    """Huge rates put boundary_tol below the float spacing of the extrema."""
    interior = 0
    for c_v in (1e7, 1e8):
        base = SaddleParams(alpha_v=1.0, C_v=c_v, E_v=c_v, alpha_w=1.0, C_w=1.0, E_w=1.0, a=2.0, eps=0.5)
        m, r, _ = turning_harmonic(base)
        for level in (m - r, m + r):
            for _ in range(8):
                level = math.nextafter(level, m)
                p = replace(base, alpha_w=1.0 / level)
                if classify_region(p).tag in ("InteriorB_GammaRational", "DenseReversals_D"):
                    interior += 1
                    assert len(turning_crossings(p)) == 2
    assert interior > 0


@given(
    rates=st.lists(st.floats(-1.1, 1.1), min_size=5, max_size=5),
    log_shear=st.floats(-9.0, math.log10(2.0)),
    log_inside=st.floats(-12.0, -1.0),
    near_min=st.booleans(),
)
def test_interior_level_has_two_accurate_roots(rates, log_shear, log_inside, near_min):
    """K a fraction 1e-12..1e-1 of the spread inside an extremum, a - 1 in 1e-9..2."""
    alpha_v, C_v, E_v, C_w, E_w = (math.exp(x) for x in rates)
    p = SaddleParams(alpha_v=alpha_v, C_v=C_v, E_v=E_v, alpha_w=1.0, C_w=C_w, E_w=E_w,
                     a=1.0 + 10.0**log_shear, eps=0.5)
    m, r, _ = turning_harmonic(p)
    inside = 10.0**log_inside * 2.0 * r
    level = (m - r) + inside if near_min else (m + r) - inside
    if level <= 0.0:
        return
    p = replace(p, alpha_w=alpha_v * E_w / level)
    if classify_region(p).tag not in ("InteriorB_GammaRational", "DenseReversals_D"):
        return
    roots = turning_crossings(p)
    assert len(roots) == 2
    k = turning_level(p)
    for root in roots:
        assert abs(float(turning_function(root, p)) - k) <= 1e-12 * max(1.0, m + r)


@given(p=admissible_params, t=st.floats(0.0, TWO_PI), depth=st.floats(0.0, 1.0))
def test_exit_curve_partials_match_centred_differences(p, t, depth):
    """The kernel's four partials against centred differences in (t, u), u from ln eps to ln 1e-300.

    Richardson-extrapolated steps 1e-4 and 5e-5; agreement to 1e-6 relative
    to max(1, |partial|).
    """
    u = math.log(p.eps) + depth * (math.log(S_UNDERFLOW) - math.log(p.eps))

    def values(tt, uu):
        curve = exit_curve(tt, uu, p)
        return np.array([curve.x_w, curve.log_y])

    def centred(h):
        d_t = (values(t + h, u) - values(t - h, u)) / (2.0 * h)
        d_u = (values(t, u + h) - values(t, u - h)) / (2.0 * h)
        return np.array([d_t[0], d_u[0], d_t[1], d_u[1]])

    fd = (4.0 * centred(5e-5) - centred(1e-4)) / 3.0
    curve = exit_curve(t, u, p)
    exact = np.array([curve.x_t, curve.x_u, curve.log_y_t, curve.log_y_u])
    assert np.all(np.abs(fd - exact) <= 1e-6 * np.maximum(1.0, np.abs(exact))), (fd, exact)


def _kernel_reference(t, u, p, k):
    """x_w and ln y_w in the kernel's operation order, from stretch_sq and the quadrant-midpoint unwinding."""
    u = np.asarray(u, dtype=float)
    phi = -k.g_v * u + t + k.c2
    ln_c = np.log(stretch_sq(phi, p.a))
    unwound = quadrant_midpoint_unwound(phi, np.cos(phi), np.sin(phi), p.a)
    x_w = -k.g_w * k.delta_v * u - 0.5 * k.g_w * ln_c + unwound + k.c3 - k.g_w * math.log(k.c1)
    log_y = math.log(k.c4) + k.delta_w * math.log(k.c1) + k.delta * u + 0.5 * k.delta_w * ln_c
    return x_w, log_y


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


@given(p=admissible_params, t=st.floats(-TWO_PI, TWO_PI), depth=st.floats(0.0, 1.0))
def test_values_path_matches_exit_curve(p, t, depth):
    """The values step gives exit_curve's x_w and ln y_w bit for bit, scalar and broadcast, down to s = 1e-300."""
    k = derive_constants(p)
    u_eps, u_floor = math.log(p.eps), math.log(S_UNDERFLOW)
    u = u_eps + depth * (u_floor - u_eps)
    # a (3, 1) column of t against a row of u reaching ln 1e-300
    ts = t + np.array([[0.0], [0.25], [3.0]])
    us = np.array([u_eps, u, 0.5 * (u + u_floor), u_floor])
    for args in ((t, u), (ts, us), (t, us)):
        values = _exit_values(*args, p)
        curve = exit_curve(*args, p)
        ref_x, ref_log_y = _kernel_reference(*args, p, k)
        assert np.shape(values.x_w) == np.shape(curve.x_w) == np.broadcast(*args).shape
        assert _hex(values.x_w) == _hex(curve.x_w) == _hex(ref_x)
        assert _hex(values.log_y) == _hex(curve.log_y) == _hex(ref_log_y)
        assert _hex(values.phi) == _hex(curve.phi)


SHEARS = [1.0, 1.0 + 1e-4, 0.3, 2.0, 50.0]


def _unwound_bits(phi, a):
    """_unwound and the quadrant-midpoint rule at the angles phi, as int64 views of their bits."""
    phi = np.asarray(phi, dtype=float)
    cos, sin = np.cos(phi), np.sin(phi)
    new = np.asarray(_unwound(phi, cos, sin, a), dtype=float)
    old = np.asarray(quadrant_midpoint_unwound(phi, cos, sin, a), dtype=float)
    return new.view(np.int64), old.view(np.int64)


@given(
    a=st.sampled_from(SHEARS),
    draws=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-40.0, 50.0, exclude_max=True)), min_size=1),
)
def test_unwound_nearest_turn_matches_quadrant_midpoint_rule(a, draws):
    """The nearest-turn rule gives the quadrant-midpoint rule's bits on log-uniform |phi| < 2**50."""
    phi = np.array([sign * 2.0**e for sign, e in draws])
    new, old = _unwound_bits(phi, a)
    assert np.array_equal(new, old), phi[new != old]


@given(
    a=st.sampled_from(SHEARS),
    k=st.one_of(st.integers(-64, 64), st.integers(-(2**49), 2**49)),
    ulps=st.integers(-3, 3),
)
def test_unwound_matches_quadrant_midpoint_rule_at_quarter_turn_edges(a, k, ulps):
    """At the float nearest k pi/2 and its float neighbours, where floor(2 phi / pi) may disagree with sin and cos."""
    phi = k * (math.pi / 2.0)
    for _ in range(abs(ulps)):
        phi = math.nextafter(phi, math.copysign(math.inf, ulps))
    if abs(phi) >= 2.0**50:
        return
    new, old = _unwound_bits(phi, a)
    assert new == old, phi.hex()


@pytest.mark.parametrize("fixture", ["case1_params", "dense_params", "rational_params"])
def test_slope_step_x_u_matches_test_side_formula(fixture, request):
    """The slope step's x_u against x_u written out test-side, scalar and broadcast, to s = 1e-300."""
    p = request.getfixturevalue(fixture)
    k = p.constants
    sigma = p.a * p.a - 1.0 / (p.a * p.a)
    ts = np.linspace(-TWO_PI, TWO_PI, 7)[:, None]
    us = np.linspace(math.log(p.eps), LN_FLOOR, 301)
    for args in ((0.3, math.log(p.eps)), (0.3, us), (ts, us)):
        x_u = _exit_slope(*args, p).x_u
        phi = -k.g_v * np.asarray(args[1]) + args[0] + k.c2
        sc = np.sin(phi) * np.cos(phi)
        ref = -(k.g_w * k.delta_v + (k.g_v * k.g_w * sigma * sc + k.g_v) / stretch_sq(phi, p.a))
        assert np.shape(x_u) == np.broadcast(*args).shape
        assert _hex(x_u) == _hex(ref)


@pytest.mark.parametrize("fixture", ["case1_params", "dense_params", "rational_params"])
def test_bend_step_x_uu_matches_centred_differences(fixture, request):
    """x_uu against Richardson-extrapolated centred differences of the slope step's x_u, at 3 t and 301 heights.

    Steps 1e-4 and 5e-5 in u; agreement to 1e-6 relative to max(1, |x_uu|).
    The bend step carries the slope step's values bit for bit.
    """
    p = request.getfixturevalue(fixture)
    ts = np.array([-2.5, 0.0, 0.3])[:, None]
    us = np.linspace(math.log(p.eps), LN_FLOOR, 301)

    def centred(h):
        return (_exit_slope(ts, us + h, p).x_u - _exit_slope(ts, us - h, p).x_u) / (2.0 * h)

    fd = (4.0 * centred(5e-5) - centred(1e-4)) / 3.0
    slope, x_uu = _exit_bend(ts, us, p)
    assert np.all(np.abs(fd - x_uu) <= 1e-6 * np.maximum(1.0, np.abs(x_uu)))
    assert _hex(slope.x_u) == _hex(_exit_slope(ts, us, p).x_u)


def _exit_steps(t, u, p):
    """Every output of the values step, the slope step and exit_curve at (t, u)."""
    values, slope, curve = _exit_values(t, u, p), _exit_slope(t, u, p), exit_curve(t, u, p)
    return values, slope, (*values, slope.x_u, slope.sc, *curve)


@pytest.mark.parametrize("fixture", ["case1_params", "dense_params", "rational_params"])
def test_exit_steps_keep_their_bits_for_every_form_of_u(fixture, request):
    """The values step, the slope step and exit_curve give one set of bits for every form of u.

    A float u stays a float through the kernel, where numpy's ufuncs run on
    scalars, and an array keeps its shape, a 0-d one included; 1,001
    heights from the top to s = 1e-300 at three t.  A float, np.float64,
    0-d and 1-element array take the expression body; the same heights
    repeated into one array of BLOCK_MIN or more, alone and against a
    (3, 1) column of the three t, take the block body, which must give
    the float body's bits at every element.
    """
    p = request.getfixturevalue(fixture)
    ts = (0.0, 0.3, -2.5)
    heights = np.linspace(math.log(p.eps), LN_FLOOR, 1001)
    want = {}
    for t in ts:
        for u in heights.tolist():
            got = set()
            for form in (u, np.float64(u), np.array(u), np.array([u])):
                _, _, outputs = _exit_steps(t, form, p)
                assert {np.shape(f) for f in outputs} == {np.shape(form)}
                got.add(tuple(float(np.ravel(f)[0]).hex() for f in outputs))
            assert len(got) == 1, (t, u)
            want.setdefault(t, []).append(got.pop())
    long = np.resize(heights, returncurve.BLOCK_MIN + 7)
    for t, rows in [(t, [t]) for t in ts] + [(np.array(ts)[:, None], ts)]:
        values, slope, outputs = _exit_steps(t, long, p)
        # the block body: a step's outputs are rows of one block
        for rows_of_one_block in (values, (*slope.values, slope.x_u, slope.sc)):
            assert len({id(f.base) for f in rows_of_one_block}) == 1 and rows_of_one_block[0].base is not None
        assert {f.shape for f in outputs} == {np.broadcast(t, long).shape}
        for i, t_i in enumerate(rows):
            got = zip(*(_hex(np.reshape(f, (len(rows), -1))[i]) for f in outputs))
            assert list(got) == [want[t_i][j % len(heights)] for j in range(len(long))], t_i


@pytest.mark.parametrize("fixture", ["case1_params", "dense_params", "rational_params"])
def test_curve_arrays_matches_curve_sample_to_the_smallest_subnormal(fixture, request):
    """curve_arrays' four rows (the block body) equal curve_sample (the float body) bit for bit, from eps to s = 5e-324.

    No warning is raised on the way (tier-1 turns warnings into errors):
    the slope overflows at subnormal s on both routes, and curve_arrays
    exponentiates and divides in the rows of its block.
    """
    p = request.getfixturevalue(fixture)
    s = np.exp(np.linspace(math.log(p.eps), math.log(5e-324), returncurve.BLOCK_MIN + 7))
    s[0], s[-1] = p.eps, 5e-324
    arrays = curve_arrays(0.3, s, p)
    assert all(row.base is arrays[0].base is not None for row in arrays)
    samples = [curve_sample(0.3, s_i, p) for s_i in s.tolist()]
    for name, row in zip(("phi", "x_w", "y_w", "dxw_ds"), arrays):
        assert _hex(row) == [getattr(sample, name).hex() for sample in samples], name
    assert math.isinf(samples[-1].dxw_ds) and samples[-1].y_w == 0.0
