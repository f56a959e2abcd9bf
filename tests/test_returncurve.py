import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bykov.localmaps import circle_dist
from bykov.oracles import eta_composed, turning_range_grid
from bykov.params import SaddleParams, classify_region, derive_constants, turning_harmonic
from bykov.returncurve import (
    S_UNDERFLOW,
    NoReversalsError,
    curve_arrays,
    curve_sample,
    exit_curve,
    find_tangency,
    reversal_angle_set,
    reversal_sequence,
    rotation_identity_residual,
    sheared_angle,
    stretch_sq,
    turning_crossings,
    turning_function,
    turning_level,
)
from conftest import admissible_params, random_admissible

TWO_PI = 2.0 * math.pi


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
        _, x_w, y_w, _ = curve_arrays(0.0, s, p, k)
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
    dx = curve_arrays(0.0, s, p, k)[3]
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


def test_reversal_sequence_empty_outside(case1_params):
    seq = reversal_sequence(0.0, 10, case1_params)
    assert len(seq) == 0
    assert seq.reason == "OutsideB"


def test_reversal_sequence_dense(dense_params):
    seq = reversal_sequence(0.0, 40, dense_params, q_max=10**4)
    assert len(seq) == 40
    assert np.all(np.diff(seq.s_values) < 0.0)
    k = derive_constants(dense_params)
    ratio = math.exp(-math.pi / k.g_v)
    for i in range(len(seq) - 2):
        assert seq.s_values[i + 2] / seq.s_values[i] == pytest.approx(ratio, rel=1e-10)
    assert set(seq.kinds) == {"maxima", "minima"}
    assert all(a != b for a, b in zip(seq.kinds, seq.kinds[1:]))
    for i in range(10):
        s = float(seq.s_values[i])
        assert abs(curve_sample(0.0, s, dense_params).dxw_ds) < 1e-8 / s


def test_reversal_kinds_match_second_difference(dense_params):
    seq = reversal_sequence(0.0, 8, dense_params, q_max=10**4)
    for i in range(len(seq)):
        s = float(seq.s_values[i])
        h = 1e-5 * s
        x0 = curve_sample(0.0, s - h, dense_params).x_w
        x1 = curve_sample(0.0, s, dense_params).x_w
        x2 = curve_sample(0.0, s + h, dense_params).x_w
        second = (x2 - 2.0 * x1 + x0) / (h * h)
        assert (seq.kinds[i] == "maxima") == (second < 0.0)


def test_reversal_angles_match_direct_evaluation(dense_params):
    seq = reversal_sequence(0.3, 30, dense_params, q_max=10**4)
    for i in range(len(seq)):
        s = float(seq.s_values[i])
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
            for v, kd in zip(angles.x_values, angles.kinds)
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
    from bykov.localmaps import wrap_pi

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


def test_find_tangency_stagnates_for_rational_gamma(rational_params):
    amps = [find_tangency(1.0, 0.0, n, rational_params).amplitude for n in (100, 1000, 10_000)]
    assert amps[0] == pytest.approx(amps[2], abs=1e-9)
    assert amps[2] > 1e-3  # generic target is never approached
    assert find_tangency(1.0, 0.0, 100, rational_params).warning is not None


def test_find_tangency_requires_reversals(case1_params):
    with pytest.raises(NoReversalsError):
        find_tangency(0.0, 0.0, 100, case1_params)


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
    k = derive_constants(p)
    u = math.log(p.eps) + depth * (math.log(S_UNDERFLOW) - math.log(p.eps))

    def values(tt, uu):
        curve = exit_curve(tt, uu, p, k)
        return np.array([curve.x_w, curve.log_y])

    def centred(h):
        d_t = (values(t + h, u) - values(t - h, u)) / (2.0 * h)
        d_u = (values(t, u + h) - values(t, u - h)) / (2.0 * h)
        return np.array([d_t[0], d_u[0], d_t[1], d_u[1]])

    fd = (4.0 * centred(5e-5) - centred(1e-4)) / 3.0
    curve = exit_curve(t, u, p, k)
    exact = np.array([curve.x_t, curve.x_u, curve.log_y_t, curve.log_y_u])
    assert np.all(np.abs(fd - exact) <= 1e-6 * np.maximum(1.0, np.abs(exact))), (fd, exact)
