import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bykov.horseshoe import jacobian_report
from bykov.oracles import (
    IN_V,
    IN_W,
    OUT_V,
    OUT_W,
    TURNING_GRID_POINTS,
    TURNING_GRID_SLICE,
    DiskPoint,
    OnManifoldError,
    RectPoint,
    WallPoint,
    eta_composed,
    eta_log,
    flight_map_v,
    flight_map_w,
    phi_v,
    phi_w,
    polar_rect,
    psi_vw,
    psi_wv,
    rect_polar,
    replay_pulse,
    return_jacobian_fd,
    turning_range_grid,
)
from bykov.params import SaddleParams, derive_constants
from bykov.returncurve import BumpSpec, circle_dist, turning_function, wrap_pi
from conftest import admissible_params, random_admissible


def test_phi_v_unit_section(unit_params):
    k = derive_constants(unit_params)
    out = phi_v(WallPoint(section=IN_V, x=0.0, y=1.0), k)
    assert (out.r, out.phi) == (1.0, 0.0)
    out = phi_v(WallPoint(section=IN_V, x=0.0, y=math.exp(-1.0)), k)
    assert out.r == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert out.phi == pytest.approx(1.0, rel=1e-15)


def test_phi_v_against_flight_oracle_frozen():
    # eps=0.5, delta_v=1.2, g_v=0.8 realised by C_v=1.2, E_v=1, alpha_v=0.8
    p = SaddleParams(alpha_v=0.8, C_v=1.2, E_v=1.0, alpha_w=1.0, C_w=1.0, E_w=1.0, a=2.0, eps=0.5)
    out = phi_v(WallPoint(section=IN_V, x=0.3, y=0.1), derive_constants(p))
    assert out.r == pytest.approx(0.07247796636776957, rel=1e-13)
    assert out.phi == pytest.approx(1.5875503299472804, rel=1e-13)
    oracle = flight_map_v(0.3, 0.1, p)
    assert out.r == pytest.approx(oracle.r, rel=1e-12)
    assert out.phi == pytest.approx(oracle.phi, abs=1e-12)


def test_phi_w_unit_section(unit_params):
    k = derive_constants(unit_params)
    out = phi_w(DiskPoint(section=IN_W, r=1.0, phi=0.0), k)
    assert (out.x, out.y) == (0.0, 1.0)
    out = phi_w(DiskPoint(section=IN_W, r=math.exp(-1.0), phi=0.0), k)
    assert out.x == pytest.approx(-1.0, rel=1e-15)
    assert out.y == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_phi_w_against_flight_oracle_frozen():
    p = SaddleParams(alpha_v=1.0, C_v=1.0, E_v=1.0, alpha_w=0.7, C_w=1.3, E_w=1.0, a=2.0, eps=0.5)
    out = phi_w(DiskPoint(section=IN_W, r=0.05, phi=2.1), derive_constants(p))
    assert out.x == pytest.approx(0.48819043490416814, rel=1e-13)
    assert out.y == pytest.approx(0.025059361681363603, rel=1e-13)
    oracle = flight_map_w(0.05, 2.1, p)
    assert out.x == pytest.approx(oracle.x, abs=1e-12)
    assert out.y == pytest.approx(oracle.y, rel=1e-12)


def test_local_maps_match_flight_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        p = random_admissible(rng)
        k = derive_constants(p)
        y = float(p.eps * 10 ** rng.uniform(-8, 0))
        x = float(rng.uniform(-10, 10))
        got = phi_v(WallPoint(section=IN_V, x=x, y=y), k)
        want = flight_map_v(x, y, p)
        assert got.r == pytest.approx(want.r, rel=1e-12)
        assert got.phi == pytest.approx(want.phi, abs=1e-12)
        r = float(p.eps * 10 ** rng.uniform(-8, 0))
        phi = float(rng.uniform(-50, 50))
        got_w = phi_w(DiskPoint(section=IN_W, r=r, phi=phi), k)
        want_w = flight_map_w(r, phi, p)
        assert got_w.x == pytest.approx(want_w.x, abs=1e-12)
        assert got_w.y == pytest.approx(want_w.y, rel=1e-12)


def test_stable_manifold_errors(unit_params):
    k = derive_constants(unit_params)
    with pytest.raises(OnManifoldError):
        phi_v(WallPoint(section=IN_V, x=0.0, y=0.0), k)
    with pytest.raises(OnManifoldError):
        phi_w(DiskPoint(section=IN_W, r=0.0, phi=1.0), k)
    with pytest.raises(OnManifoldError):
        rect_polar(RectPoint(X=0.0, Y=0.0), branch_hint=0.0)
    with pytest.raises(OnManifoldError, match=r"\(y <= 0\)$"):
        flight_map_v(0.3, -1e-3, unit_params)
    with pytest.raises(OnManifoldError, match=r"\(r <= 0\)$"):
        flight_map_w(0.0, 0.3, unit_params)


def test_local_maps_refuse_the_wrong_section(unit_params):
    k = derive_constants(unit_params)
    with pytest.raises(ValueError, match=f"^phi_v expects a point on {IN_V}, got {OUT_W}$"):
        phi_v(WallPoint(section=OUT_W, x=0.0, y=0.5), k)
    with pytest.raises(ValueError, match=f"^phi_w expects a point on {IN_W}, got {OUT_V}$"):
        phi_w(DiskPoint(section=OUT_V, r=0.5, phi=1.0), k)
    with pytest.raises(ValueError, match=f"^psi_wv expects a point on {OUT_W}, got {IN_V}$"):
        psi_wv(WallPoint(section=IN_V, x=0.0, y=0.5))


@pytest.mark.parametrize("n", [1, 0, -2])
def test_replay_pulse_refuses_fewer_than_two_pulses(n, dense_params):
    with pytest.raises(ValueError, match=f"^pulse count must be at least 2, got {n}$"):
        replay_pulse(0.1, n, dense_params)


def test_replay_pulse_refuses_an_orbit_that_leaves_the_section(dense_params):
    # from s0 = 0.1 the first return lands below the section, at height -0.236
    assert replay_pulse(0.1, 2, dense_params).heights
    with pytest.raises(ValueError, match=r"^pulse replay left the section after crossing 1: height -0\.23"):
        replay_pulse(0.1, 3, dense_params)


def test_shear_trivial_and_simple():
    assert psi_vw(RectPoint(X=0.3, Y=-0.2), a=1.0) == RectPoint(X=0.3, Y=-0.2)
    out = psi_vw(RectPoint(X=1.0, Y=1.0), a=2.0)
    assert (out.X, out.Y) == (2.0, 0.5)


def test_shear_maps_circle_to_ellipse():
    a, r = 2.0, 0.37
    radii = []
    for theta in np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False):
        out = psi_vw(RectPoint(X=r * math.cos(theta), Y=r * math.sin(theta)), a=a)
        radii.append(math.hypot(out.X, out.Y))
    assert max(radii) == pytest.approx(a * r, abs=1e-12)
    assert min(radii) == pytest.approx(r / a, abs=1e-12)


def test_shear_jacobian_determinant_is_one():
    a, h = 1.7, 1e-6
    for X, Y in ((0.2, 0.1), (-0.5, 0.3)):
        d_xx = (psi_vw(RectPoint(X + h, Y), a).X - psi_vw(RectPoint(X - h, Y), a).X) / (2 * h)
        d_xy = (psi_vw(RectPoint(X, Y + h), a).X - psi_vw(RectPoint(X, Y - h), a).X) / (2 * h)
        d_yx = (psi_vw(RectPoint(X + h, Y), a).Y - psi_vw(RectPoint(X - h, Y), a).Y) / (2 * h)
        d_yy = (psi_vw(RectPoint(X, Y + h), a).Y - psi_vw(RectPoint(X, Y - h), a).Y) / (2 * h)
        assert d_xx * d_yy - d_xy * d_yx == pytest.approx(1.0, abs=1e-8)


def test_wall_transition_quarter_turn():
    out = psi_wv(WallPoint(section=OUT_W, x=0.0, y=0.1))
    assert (out.x, out.y) == (0.1, 0.0)
    out = psi_wv(WallPoint(section=OUT_W, x=-0.2, y=0.05))
    assert out.x == pytest.approx(0.05)
    assert out.y == pytest.approx(0.2)
    # the unstable-manifold trace {y=0} lands on the vertical segment {x=0}
    for xw in (-0.4, -0.1, -0.01):
        img = psi_wv(WallPoint(section=OUT_W, x=xw, y=0.0))
        assert img.x == 0.0
        assert img.y == pytest.approx(-xw)


def test_wall_transition_is_chart_isometry():
    rng = np.random.default_rng(8)
    for _ in range(200):
        x1, y1 = rng.uniform(-0.5, 0.5), rng.uniform(0, 0.5)
        x2, y2 = x1 + rng.uniform(-0.3, 0.3), y1 + rng.uniform(-0.3, 0.3)
        p1 = psi_wv(WallPoint(section=OUT_W, x=x1, y=y1))
        p2 = psi_wv(WallPoint(section=OUT_W, x=x2, y=y2))
        before = math.hypot(wrap_pi(x2 - x1), y2 - y1)
        after = math.hypot(wrap_pi(p2.x - p1.x), p2.y - p1.y)
        assert after == pytest.approx(before, abs=1e-12)


def test_bump_zero_amplitude_is_identity():
    bump = BumpSpec(amplitude=0.0, center=(1.0, 0.2), radius=0.05)
    for x, y in ((1.0, 0.2), (0.99, 0.21), (2.0, 0.1)):
        assert psi_wv(WallPoint(section=OUT_W, x=x, y=y), bump) == psi_wv(
            WallPoint(section=OUT_W, x=x, y=y)
        )


def test_bump_local_support_and_center_value():
    bump = BumpSpec(amplitude=0.01, center=(1.0, 0.2), radius=0.05)
    far = WallPoint(section=OUT_W, x=1.2, y=0.2)
    assert psi_wv(far, bump) == psi_wv(far)
    at_center = psi_wv(WallPoint(section=OUT_W, x=1.0, y=0.2), bump)
    plain = psi_wv(WallPoint(section=OUT_W, x=1.0, y=0.2))
    assert at_center.x == plain.x
    assert plain.y - at_center.y == pytest.approx(0.01, rel=1e-12)


def test_bump_rejects_bad_radius():
    with pytest.raises(ValueError):
        BumpSpec(amplitude=0.1, center=(0.0, 0.0), radius=0.0)


def test_polar_rect_trivial():
    assert polar_rect(DiskPoint(section=OUT_V, r=1.0, phi=0.0)) == RectPoint(X=1.0, Y=0.0)


def test_rect_polar_unwinding_roundtrip():
    p = DiskPoint(section=OUT_V, r=2.0, phi=5.0 * math.pi / 2.0)
    rect = polar_rect(p)
    assert rect.X == pytest.approx(0.0, abs=1e-12)
    assert rect.Y == pytest.approx(2.0, rel=1e-12)
    back = rect_polar(rect, branch_hint=5.0 * math.pi / 2.0)
    assert back.phi == pytest.approx(5.0 * math.pi / 2.0, abs=1e-12)


def test_polar_roundtrip_random():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        r = float(10 ** rng.uniform(-6, 0))
        phi = float(rng.uniform(-50, 50))
        back = rect_polar(polar_rect(DiskPoint(section=IN_W, r=r, phi=phi)), branch_hint=phi)
        assert back.r == pytest.approx(r, rel=1e-12)
        assert back.phi == pytest.approx(phi, abs=1e-12)


def test_segment_maps_to_spiral(case1_params):
    """The image of a vertical segment spirals: radius down to 0, angle unbounded."""
    k = derive_constants(case1_params)
    s = np.geomspace(case1_params.eps, 1e-12, 10_000)
    rs, phis = [], []
    for y in s:
        out = phi_v(WallPoint(section=IN_V, x=0.0, y=float(y)), k)
        rs.append(out.r)
        phis.append(out.phi)
    rs, phis = np.array(rs), np.array(phis)
    assert np.all(np.diff(rs) < 0)
    assert np.all(np.diff(np.abs(phis[10:])) > 0)
    assert rs[-1] < 1e-10
    assert abs(phis[-1]) > 5.0


def test_wrap_helpers():
    assert wrap_pi(math.pi) == pytest.approx(math.pi)
    assert wrap_pi(-math.pi) == pytest.approx(math.pi)
    assert wrap_pi(3.0 * math.pi) == pytest.approx(math.pi)
    assert circle_dist(0.1, 2.0 * math.pi - 0.1) == pytest.approx(0.2, abs=1e-12)


def _whole_grid_range(p):
    """Reference for ``turning_range_grid``: the whole grid in one call."""
    vals = turning_function(np.linspace(0.0, math.pi, TURNING_GRID_POINTS), p)
    return float(np.min(vals)), float(np.max(vals))


@example(p=SaddleParams(alpha_v=1, C_v=1, E_v=1, alpha_w=1, C_w=1, E_w=1, a=1.0, eps=1.0))
@example(p=SaddleParams(alpha_v=0.2, C_v=1.0, E_v=0.8, alpha_w=2.5, C_w=4.0, E_w=2.0, a=2.0, eps=0.5))
@settings(max_examples=30)
@given(p=admissible_params)
def test_turning_range_grid_slices_keep_the_whole_grid_bits(p):
    # the last slice is a short one
    assert TURNING_GRID_POINTS % TURNING_GRID_SLICE != 0
    assert [v.hex() for v in turning_range_grid(p)] == [v.hex() for v in _whole_grid_range(p)]


def test_turning_range_grid_memory(dense_params):
    # the grid itself is 0.8 MB; evaluated whole, its temporaries took the
    # peak to 4.0 MB
    turning_range_grid(dense_params)
    tracemalloc.start()
    try:
        got = turning_range_grid(dense_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _whole_grid_range(dense_params)
    assert peak < 1.5e6


@example(p=SaddleParams(alpha_v=0.2, C_v=1.0, E_v=0.8, alpha_w=2.5, C_w=4.0, E_w=2.0, a=2.0, eps=0.5), t=0.0, depth=1.0)
@settings(max_examples=500)
@given(p=admissible_params, t=st.floats(0.0, 0.5), depth=st.floats(0.0, 1.0))
def test_eta_log_matches_eta_composed_where_representable(p, t, depth):
    # down to the u where delta u or delta_v u reaches -500, or u itself
    # -650, which keeps s, the disk radius and the height of the s-space
    # route normal floats
    k = p.constants
    u = math.log(p.eps) - depth * min(650.0, 500.0 / max(k.delta, k.delta_v))
    x_c, y_c = eta_composed(t, math.exp(u), p)
    assume(y_c > 1e-300)
    x_w, log_y = eta_log(t, u, p)
    # each route rounds in proportion to the largest term it sums
    size_x = 1.0 + abs(k.c2) + abs(k.c3) + abs(k.g_w * math.log(k.c1)) + (abs(k.g_v) + abs(k.g_w) * k.delta_v) * abs(u)
    size_y = 1.0 + abs(math.log(k.c4)) + abs(k.delta_w * math.log(k.c1)) + k.delta * abs(u)
    assert abs(x_w - x_c) <= 1e-14 * size_x
    assert abs(log_y - math.log(y_c)) <= 1e-14 * size_y


def _mp_exit(x, y, p):
    """(x_w, ln y_w) of the s-space composition in mpmath, whose floats have no exponent floor."""
    k = p.constants
    c1, c2, c3, c4, g_v, g_w, delta_v, delta_w, a = map(
        mpmath.mpf, (k.c1, k.c2, k.c3, k.c4, k.g_v, k.g_w, k.delta_v, k.delta_w, p.a)
    )
    r = c1 * y**delta_v
    phi = -g_v * mpmath.log(y) + x + c2
    big_x, big_y = a * r * mpmath.cos(phi), r * mpmath.sin(phi) / a
    base = mpmath.atan2(big_y, big_x)
    unwound = base + 2 * mpmath.pi * mpmath.nint((phi - base) / (2 * mpmath.pi))
    ln_r = mpmath.log(mpmath.hypot(big_x, big_y))
    return c3 - g_w * ln_r + unwound, mpmath.log(c4) + delta_w * ln_r


def _mp_return_jacobian(x, y, p) -> np.ndarray:
    """Jacobian of (y_w, -x_w) at 60 digits: centred differences with steps 1e-20 in x and 1e-20 y in y."""
    with mpmath.workdps(60):
        x, y, h = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf("1e-20")

        def ret(x, y):
            x_w, log_y = _mp_exit(x, y, p)
            return mpmath.matrix([mpmath.exp(log_y), -x_w])

        d_x = (ret(x + h, y) - ret(x - h, y)) / (2 * h)
        d_y = (ret(x, y + h * y) - ret(x, y - h * y)) / (2 * h * y)
        return np.array([[float(d_x[0]), float(d_y[0])], [float(d_x[1]), float(d_y[1])]])


# (params fixture, x of the sweep, its heights k for y = 2^-k): a dozen per
# config, down to the last height whose Jacobian is finite
MP_HEIGHTS = {
    "case1_params": (0.1, (4, 10, 20, 50, 100, 259, 400, 600, 870, 950, 1000, 1023)),
    "dense_params": (0.0, (4, 10, 20, 50, 100, 259, 400, 600, 870, 950, 1000, 1021)),
}


@pytest.mark.parametrize("fixture", sorted(MP_HEIGHTS))
def test_exact_jacobian_and_log_route_against_mpmath(fixture, request):
    p = request.getfixturevalue(fixture)
    x, ks = MP_HEIGHTS[fixture]
    for kk in ks:
        y = 2.0**-kk
        want = _mp_return_jacobian(x, y, p)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(np.array(jacobian_report(x, y, p).jacobian) - want)) <= 1e-10 * scale, kk
        fd, _ = return_jacobian_fd(x, y, p)
        assert np.max(np.abs(fd - want)) <= 1e-5 * scale, kk
        with mpmath.workdps(60):
            x_w, log_y = (float(v) for v in _mp_exit(mpmath.mpf(x), mpmath.mpf(y), p))
        got = eta_log(x, math.log(y), p)
        assert abs(got[0] - x_w) <= 1e-14 * max(1.0, abs(x_w)), kk
        assert abs(got[1] - log_y) <= 1e-14 * max(1.0, abs(log_y)), kk
