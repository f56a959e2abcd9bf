import hashlib
import itertools
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bykov import horseshoe
from bykov.horseshoe import (
    LN_FLOOR,
    SLACK,
    PeriodicTangencyError,
    ResonanceError,
    Strip,
    _bisect,
    _case_pieces,
    _eigen_class,
    _period_pieces,
    _return_chain,
    build_strips,
    find_multipulse,
    jacobian_report,
    return_jacobian,
    strip_family_violations,
    strip_image_report,
)
from bykov.oracles import IN_V, OUT_W, WallPoint, composed_return, psi_wv, replay_pulse
from bykov.params import ParameterError, SaddleParams, classify_region, derive_constants, turning_harmonic, turning_level
from bykov.returncurve import (
    S_UNDERFLOW,
    _exit_values,
    _stretch,
    circle_dist,
    curve_sample,
    exit_curve,
    find_tangency,
    reversal_angle_set,
    reversal_sequence,
    turning_function,
)
from conftest import admissible_params

TWO_PI = 2.0 * math.pi


def return_map(point, p):
    """First return on the incoming wall: the exit curve, then the quarter turn."""
    sample = curve_sample(point.x, point.y, p)
    return psi_wv(WallPoint(section=OUT_W, x=sample.x_w, y=sample.y_w))


def strip_samples(family, fracs=(0.25, 0.5, 0.75), t_idx=(0, 16, 32)):
    for strip in family.strips:
        for i in t_idx:
            i = min(i, len(strip.t_grid) - 1)
            t = float(strip.t_grid[i])
            for frac in fracs:
                yield t, float(strip.a_of_t[i] + frac * (strip.b_of_t[i] - strip.a_of_t[i]))


def test_return_map_resonant_case(unit_params):
    # gamma = delta = 1: the exit curve is the segment itself, so the
    # quarter turn parks the whole image on the stable-manifold trace
    for s in (0.9, 0.4, 1e-3):
        out = return_map(WallPoint(section=IN_V, x=0.0, y=s), unit_params)
        assert out.x == pytest.approx(s, rel=1e-12)
        assert out.y == pytest.approx(0.0, abs=1e-12)


def test_return_map_is_definitional_composition(dense_params):
    rng = np.random.default_rng(13)
    for _ in range(100):
        point = WallPoint(
            section=IN_V,
            x=float(rng.uniform(0.0, 0.4)),
            y=float(dense_params.eps * 10 ** rng.uniform(-5, 0)),
        )
        got = return_map(point, dense_params)
        # against the elementary-map composition
        comp = composed_return(point, dense_params)
        assert got.x == pytest.approx(comp.x, rel=1e-9, abs=1e-9)
        assert got.y == pytest.approx(comp.y, abs=1e-9)


def test_return_contraction_with_delta_above_one(case1_params):
    """delta > 1 squeezes areas: the exit height of a strip falls geometrically with depth."""
    family = build_strips(0.4, 5, case1_params)
    tops = []
    for strip in family.strips:
        heights = [
            curve_sample(0.0, float(strip.b_of_t[0]), case1_params).y_w,
        ]
        tops.append(max(heights))
    for h1, h2 in zip(tops, tops[1:]):
        assert h2 < h1
    assert tops[-1] < tops[0] * 1e-3


def test_build_strips_case1(case1_params):
    family = build_strips(0.4, 6, case1_params)
    assert family.case == "I"
    assert len(family) == 6
    assert strip_family_violations(family, case1_params) == []
    report = strip_image_report(family, case1_params)
    assert all(r["spans_vertically"] and r["within_width"] for r in report)
    # strips accumulate on the stable manifold
    firsts = [float(s.a_of_t[0]) for s in family.strips]
    assert all(b < a for a, b in zip(firsts, firsts[1:]))


def test_build_strips_case3(dense_params):
    family = build_strips(0.4, 5, dense_params)
    assert family.case == "III"
    assert len(family) == 5
    assert strip_family_violations(family, dense_params) == []
    report = strip_image_report(family, dense_params)
    assert all(r["spans_vertically"] and r["within_width"] for r in report)


def test_build_strips_shrinks_tau():
    from bykov.returncurve import turning_crossings

    # crossing level close to the maximum: narrow root separation forces the shrink
    p = SaddleParams(
        alpha_v=2.0,
        C_v=1.2,
        E_v=1.0,
        alpha_w=0.615 + 0.001 * math.sqrt(2.0),
        C_w=2.6,
        E_w=2.0,
        a=2.0,
        eps=0.5,
    )
    roots = turning_crossings(p)
    d = roots[1] - roots[0]
    assert 0.4 >= d / 2.0
    family = build_strips(0.4, 2, p)
    assert family.case == "III"
    assert family.tau < d / 2.0
    assert any("shrunk" in note for note in family.notes)
    assert strip_family_violations(family, p) == []


def test_build_strips_rejects_resonance(unit_params):
    with pytest.raises(ResonanceError):
        build_strips(0.3, 2, unit_params)


def test_build_strips_refuses_periodic_tangency(rational_params):
    # at this a, gamma stays 3/2 and reversal 1, the first of the 110 among
    # the 878 above the s-underflow floor that lie within 1e-9 of the trace
    # x = 0, lands 5.7e-14 from it
    p = replace(rational_params, a=1.6762332269283227)
    assert p.constants.gamma == 1.5
    assert classify_region(p).tag == "InteriorB_GammaRational"
    with pytest.raises(PeriodicTangencyError, match="periodic tangency at reversal 1 "):
        build_strips(0.3, 3, p)


def test_build_strips_refuses_tangency_deep_above_the_floor():
    # gamma 4327/3001 and g_v = 12: 5271 reversals lie above the floor, and
    # reversal 4100 is 4.5e-13 from the trace; the first 4096 come no closer
    # than 0.002
    p = SaddleParams(
        alpha_v=6.0, C_v=1.2, E_v=0.5, alpha_w=14.41852715761413, C_w=2.6, E_w=2.0,
        a=2.3580499398552766, eps=0.5,
    )
    assert classify_region(p).tag == "InteriorB_GammaRational"
    assert len(reversal_sequence(0.0, 10**6, p)) == 5271
    with pytest.raises(PeriodicTangencyError, match="periodic tangency at reversal 4100 "):
        build_strips(0.2, 3, p)


def _assert_clean_family(family, p, count):
    assert len(family) == count
    assert strip_family_violations(family, p) == []
    assert all(r["spans_vertically"] and r["within_width"] for r in strip_image_report(family, p))


def test_build_strips_ignores_tangency_below_the_floor():
    # gamma 217/151 and g_v = 1/3: the 146 reversals above the floor come no
    # closer to the trace than 0.035; reversal 147, which lies below it, is
    # on the trace and used to refuse the family
    p = SaddleParams(
        alpha_v=0.5, C_v=1.2, E_v=1.5, alpha_w=1.1975717439293598, C_w=2.6, E_w=2.0,
        a=1.8731262511524691, eps=0.5,
    )
    assert classify_region(p).tag == "InteriorB_GammaRational"
    assert len(reversal_sequence(0.0, 10**6, p)) == 146
    family = build_strips(0.3, 3, p)
    assert family.case == "II"
    _assert_clean_family(family, p, 3)


def test_build_strips_case2_without_reversals_above_the_floor():
    # g_v = 0.001: the first reversal already lies below s = 1e-300, so the
    # guard has nothing to scan and no piece holds a strip
    p = SaddleParams(alpha_v=0.001, C_v=1.2, E_v=1.0, alpha_w=0.0025, C_w=2.6, E_w=2.0, a=2.0, eps=0.5)
    assert classify_region(p).tag == "InteriorB_GammaRational"
    assert len(reversal_sequence(0.0, 100, p)) == 0
    family = build_strips(0.3, 3, p)
    assert (family.case, len(family)) == ("II", 0)


def test_build_strips_walks_pieces_to_the_floor(monkeypatch):
    # a case III family whose strips lie past the first 64 monotone pieces
    p = SaddleParams(
        alpha_v=1.8139779257955924, C_v=1.9096983735205033, E_v=1.346495898948081,
        alpha_w=1.7371847992515446, C_w=0.43835400381114, E_w=1.862429781610317,
        a=1.207220456096058, eps=0.7040576236221516,
    )
    got = _family_bits(0.05, 3, p)
    family = build_strips(0.05, 3, p)
    assert family.case == "III"
    _assert_clean_family(family, p, 3)
    monkeypatch.setattr(horseshoe, "_collect_strips", _collect_strips_per_strip)
    assert got == _family_bits(0.05, 3, p)


def test_build_strips_memory_does_not_grow_with_n_limit(dense_params):
    # the pieces above the floor hold 233 strips at tau 0.4; asking for more
    # allocates nothing in proportion to n_limit
    want = _family_bits(0.4, 10_000, dense_params)
    assert len(want[-1]) == 233
    tracemalloc.start()
    try:
        got = _family_bits(0.4, 10**5, dense_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 20e6


def test_build_strips_memory_does_not_grow_with_g_v(monkeypatch):
    # g_v = 1e4: 4.4 million reversals and 2.2 million pieces lie above the
    # floor.  At tau 1e-200 no piece's return height bound fits, so the guard
    # scans every reversal and the walk every piece, both in bounded blocks
    p = SaddleParams(alpha_v=10.0, C_v=6e-4, E_v=1e-3, alpha_w=8e4 / 3, C_w=1.2, E_w=2.0, a=2.0, eps=0.5)
    k = p.constants
    assert classify_region(p).tag == "InteriorB_GammaRational"
    assert k.g_v == 1e4
    walked = []

    def recording(*args):
        for block in _case_pieces(*args):
            walked[:] = [block]
            yield block

    monkeypatch.setattr(horseshoe, "_case_pieces", recording)
    tracemalloc.start()
    try:
        family = build_strips(1e-200, 3, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    i, _, his = walked[-1]
    assert (family.case, len(family)) == ("II", 0)
    assert i[-1] > 2_000_000 and (k.c2 - his[-1]) / k.g_v < LN_FLOOR
    assert peak < 20e6


def test_build_strips_skips_pieces_too_high_for_tau(monkeypatch):
    # g_v = 100: the pieces whose return heights all exceed tau come first
    # and hold most of the windings; the family is the reference's, found
    # with a fraction of its bisection targets
    p = SaddleParams(alpha_v=0.1, C_v=1.2e-3, E_v=1e-3, alpha_w=500 * math.sqrt(2) / 3, C_w=2.6, E_w=2.0, a=2.0, eps=0.5)
    assert p.constants.g_v == 100.0
    calls, bisect = [], _bisect

    def counting(fn, targets, lo, hi):
        calls.append(len(targets))
        return bisect(fn, targets, lo, hi)

    monkeypatch.setattr(horseshoe, "_bisect", counting)
    got = _family_bits(0.05, 5, p)
    ours = sum(calls)
    monkeypatch.setattr(horseshoe, "_collect_strips", _collect_strips_per_strip)
    monkeypatch.setattr(sys.modules[__name__], "_bisect", counting)
    want = _family_bits(0.05, 5, p)
    assert got == want and len(got[-1]) == 5
    assert ours * 3 < sum(calls) - ours


def test_detect_periodic_tangency_bit_for_bit(rational_params):
    """find_tangency's scan: the nearest of the first 4096 reversals at t = 0."""
    x_hit = float(reversal_angle_set(0.0, 64, rational_params).x_values[3] % TWO_PI)
    got = []
    for x0 in (0.0, x_hit):
        report = find_tangency(x0, 0.0, 4096, rational_params)
        got.append((report.n_best, report.x_best.hex(), report.x_best % TWO_PI, report.history[-1]))
    assert got == [
        (3329, "-0x1.46aa99454b13cp+11", 0.47387798728937014, (3330, 0.4738779872892458)),
        (3, "-0x1.18cfa3ea8efc4p+0", 5.186266967674135, (4, 0.0)),
    ]


def test_strips_case2_rational_gamma(rational_params):
    family = build_strips(0.3, 3, rational_params)
    assert family.case == "II"
    assert strip_family_violations(family, rational_params) == []


def test_strips_case4_boundary():
    """Level pinned at the turning maximum: inflection case with exclusion margin."""
    base = SaddleParams(alpha_v=2.0, C_v=1.2, E_v=1.0, alpha_w=2.0, C_w=2.6, E_w=1.0, a=2.0, eps=0.5)
    m, r, _ = turning_harmonic(base)
    hi = m + r
    p = SaddleParams(alpha_v=2.0, C_v=1.2, E_v=1.0, alpha_w=2.0, C_w=2.6, E_w=hi, a=2.0, eps=0.5)
    assert classify_region(p).tag == "BoundaryB"
    family = build_strips(0.02, 2, p)
    assert family.case == "IV"
    assert len(family) == 2
    got = hashlib.sha256(b"".join(s.a_of_t.tobytes() + s.b_of_t.tobytes() for s in family.strips))
    assert got.hexdigest() == "f0bcbc40443751d11054c5523dddceebdfef0cb5f4769f4ffbefe36d36be8c00"
    assert strip_family_violations(family, p) == []
    report = strip_image_report(family, p)
    assert all(r["spans_vertically"] and r["within_width"] for r in report)
    # targets stay at least ten rectangle-widths from the inflection values
    k = derive_constants(p)
    for strip in family.strips:
        for i, t in enumerate(strip.t_grid):
            for s in (float(strip.a_of_t[i]), float(strip.b_of_t[i])):
                phi = -k.g_v * math.log(s) + float(t) + k.c2
                # distance in phi from the grazing angle never vanishes
                assert abs(curve_sample(float(t), s, p).dxw_ds) > 0.0


def test_trace_sign_constant_inside_strips(dense_params):
    family = build_strips(0.4, 4, dense_params)
    level = turning_level(dense_params)
    k = derive_constants(dense_params)
    for strip in family.strips:
        signs = set()
        for i, t in enumerate(strip.t_grid):
            for frac in (0.2, 0.5, 0.8):
                s = float(strip.a_of_t[i] + frac * (strip.b_of_t[i] - strip.a_of_t[i]))
                phi = -k.g_v * math.log(s) + float(t) + k.c2
                signs.add(float(turning_function(phi, dense_params)) > level)
        assert len(signs) == 1


def printed_det(x: float, y: float, p: SaddleParams, factor=None) -> float:
    """The return-map determinant as printed in the paper, at (x, y).

    Its last factor is 1 + (c4 - 1) g_w sigma sc; ``factor`` replaces it.
    """
    k = derive_constants(p)
    phi = -k.g_v * math.log(y) + x + k.c2
    sigma = p.a * p.a - 1.0 / (p.a * p.a)
    c = float(_stretch(np.cos(phi), np.sin(phi), p.a))
    if factor is None:
        factor = 1.0 + (k.c4 - 1.0) * k.g_w * sigma * math.sin(phi) * math.cos(phi)
    return k.c1**k.delta_w * k.delta * y ** (k.delta - 1.0) * c ** (k.delta_w / 2.0 - 1.0) * factor


def test_jacobian_closed_form_agreement_unit_eps():
    """At eps = 1 the printed determinant is exact.

    The exact determinant is delta y_w / (s C) = delta c4 c1^delta_w
    s^(delta - 1) C^(delta_w/2 - 1).  At eps = 1, c4 = 1 and the printed
    factor 1 + (c4 - 1) g_w sigma sc is 1 as well.
    """
    p = SaddleParams(alpha_v=0.2, C_v=1.0, E_v=0.8, alpha_w=2.5, C_w=4.0, E_w=2.0, a=2.0, eps=1.0)
    rng = np.random.default_rng(43)
    for _ in range(200):
        x, y = float(rng.uniform(0, 0.4)), float(rng.uniform(1e-4, 1.0))
        assert printed_det(x, y, p) == pytest.approx(jacobian_report(x, y, p).det, rel=1e-12)


def test_jacobian_flags_discrepancy_off_unit_eps(case1_params):
    """Erratum: off eps = 1 the printed determinant is wrong; its last factor should be c4."""
    c4 = derive_constants(case1_params).c4
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(300):
        x, y = float(rng.uniform(0, 0.4)), float(rng.uniform(1e-4, case1_params.eps))
        det = jacobian_report(x, y, case1_params).det
        assert printed_det(x, y, case1_params, factor=c4) == pytest.approx(det, rel=1e-12)
        worst = max(worst, abs(printed_det(x, y, case1_params) / det - 1.0))
    # as printed, the formula is off by far more than any rounding
    assert worst > 0.1


@given(p=admissible_params, t=st.floats(0.0, TWO_PI), depth=st.floats(0.0, 1.0))
def test_jacobian_determinant_closed_form(p, t, depth):
    """det J = delta y_w / (s C(phi)) wherever y_w is a normal float, s from eps down to 1e-300."""
    k = derive_constants(p)
    s = math.exp(math.log(p.eps) + depth * (math.log(S_UNDERFLOW) - math.log(p.eps)))
    curve = exit_curve(t, math.log(s), p)
    y_w = math.exp(curve.log_y)
    if y_w < sys.float_info.min:
        return
    want = k.delta * y_w / (s * float(_stretch(np.cos(curve.phi), np.sin(curve.phi), p.a)))
    assert jacobian_report(t, s, p).det == pytest.approx(want, rel=1e-12)


def test_case4_pieces_have_full_length():
    """At the boundary of B each monotone piece runs from one grazing angle to the next."""
    base = SaddleParams(alpha_v=2.0, C_v=1.2, E_v=1.0, alpha_w=2.0, C_w=2.6, E_w=1.0, a=2.0, eps=0.5)
    m, r, _ = turning_harmonic(base)
    p = SaddleParams(alpha_v=2.0, C_v=1.2, E_v=1.0, alpha_w=2.0, C_w=2.6, E_w=m + r, a=2.0, eps=0.5)
    region = classify_region(p)
    assert region.tag == "BoundaryB"
    counts = []
    for sign in (1, -1):
        pieces = _first_pieces(0.0, _period_pieces(p, region), sign, 64)
        assert all(hi - lo >= math.pi / 4 for lo, hi in pieces)
        # A - K < 0 between grazes of the maximum
        mids = [float(turning_function(0.5 * (lo + hi), p)) - turning_level(p) for lo, hi in pieces]
        assert all((v > 0) == (sign > 0) for v in mids)
        counts.append(len(pieces))
    assert counts == [0, 64]


def _first_pieces(t, period, want_sign, count):
    """The first ``count`` pieces that :func:`_case_pieces` yields, as (phi_lo, phi_hi) pairs."""
    pairs = (pair for _, los, his in _case_pieces(t, period, want_sign) for pair in zip(los.tolist(), his.tolist()))
    return list(itertools.islice(pairs, count))


def _case_pieces_loop(t, k, period, want_sign, max_pieces):
    """The period-by-period walk the lattice form replaced, with its own underflow cut."""
    out = []
    m = min(math.ceil((t - lo) / math.pi) for lo, _, _ in period)
    while len(out) < max_pieces:
        for lo, hi, sign in period:
            if sign == want_sign and lo + m * math.pi >= t:
                out.append((lo + m * math.pi, hi + m * math.pi))
                if len(out) >= max_pieces:
                    break
        m += 1
        if (k.c2 + t - m * math.pi) / k.g_v < LN_FLOOR:
            break
    return out


@given(
    p=admissible_params,
    shape=st.sampled_from(["interior", "graze-min", "graze-max"]),
    t=st.floats(-TWO_PI, TWO_PI),
    max_pieces=st.integers(1, 3000),
)
def test_case_pieces_match_period_loop(p, shape, t, max_pieces):
    """Both signs, cases II/III and IV: the loop's pieces bit for bit, up to where the strips stop.

    The loop also cut at s-underflow; the lattice leaves that to the strip
    collection, which stops at the first piece past the floor.  3000 pieces
    run as well, which reach the floor at nearly every point.
    """
    if shape != "interior":
        m, r, _ = turning_harmonic(p)
        level = m - r if shape == "graze-min" else m + r
        if level <= 0.0:
            return
        p = replace(p, alpha_w=p.alpha_v * p.E_w / level)
    region = classify_region(p)
    interior = ("InteriorB_GammaRational", "DenseReversals_D")
    if region.tag not in (interior if shape == "interior" else ("BoundaryB",)):
        return
    k = derive_constants(p)
    period = _period_pieces(p, region)
    for sign, count in itertools.product((1, -1), (max_pieces, 3000)):
        want = _case_pieces_loop(t, k, period, sign, count)
        got = _first_pieces(t, period, sign, count)
        assert [(lo.hex(), hi.hex()) for lo, hi in got[: len(want)]] == [(lo.hex(), hi.hex()) for lo, hi in want]
        assert all((k.c2 + t - hi) / k.g_v < LN_FLOOR for _, hi in got[len(want):])


def test_jacobian_determinant_decays_monotonically(case1_params):
    dets = [jacobian_report(0.1, 2.0**-k, case1_params).det for k in range(4, 21)]
    assert all(d > 0 for d in dets)
    assert all(b < a for a, b in zip(dets, dets[1:]))
    assert dets[-1] < 1e-8


@pytest.mark.parametrize("k", [1024, 1030])
def test_jacobian_refused_where_it_overflows(case1_params, k):
    # -x_u / y overflows at subnormal heights; the result must not be classified
    with pytest.raises(ValueError, match="not finite at y="):
        jacobian_report(0.1, 2.0**-k, case1_params)


@pytest.mark.parametrize("fixture", ["case1_params", "dense_params"])
@pytest.mark.parametrize("x", [0.1, 0.0, -1.3])
def test_eigen_class_matches_eigvals_at_every_height(fixture, x, request):
    # past |trace| ~ 1.3e154 the unscaled discriminant overflowed and a
    # saddle was classed double-expansion; only the two lowest heights, where
    # -x_u / y overflows, are refused
    p = request.getfixturevalue(fixture)
    refused = []
    for k in range(4, 1024):
        try:
            rep = jacobian_report(x, 2.0**-k, p)
        except ValueError:
            refused.append(k)
            continue
        moduli = sorted(np.abs(np.linalg.eigvals(return_jacobian(x, 2.0**-k, p))))
        assert rep.eigen_class == _eigen_class(*moduli), k
    assert set(refused) <= {1022, 1023}


def test_jacobian_trace_grows_outside(case1_params):
    traces = [abs(jacobian_report(0.1, 2.0**-k, case1_params).trace) for k in range(4, 21)]
    assert traces[-1] > traces[0]
    assert all(b > a for a, b in zip(traces[6:], traces[7:]))
    assert traces[-1] > 1e4


def test_saddle_classification_inside_strips(case1_params, dense_params):
    for p in (case1_params, dense_params):
        family = build_strips(0.4, 5, p)
        classes = [jacobian_report(t, s, p).eigen_class for t, s in strip_samples(family)]
        assert classes.count("saddle") / len(classes) >= 0.99


def test_double_contraction_near_reversal(dense_params):
    """At a turning point the expanding direction dies: both eigenvalues inside the circle."""
    seq = reversal_sequence(0.0, 6, dense_params)
    found = False
    for i in range(len(seq)):
        s = float(seq.s_values[i])
        if s < 1e-12:
            break
        rep = jacobian_report(0.0, s, dense_params)
        if rep.eigen_class == "double-contraction":
            found = True
            break
    assert found


def test_strip_images_match_composition_oracle(case1_params):
    """Boundary images recomputed through the elementary maps, not the closed form."""
    family = build_strips(0.4, 3, case1_params)
    for strip in family.strips[:2]:
        for i in (0, len(strip.t_grid) - 1):
            t = float(strip.t_grid[i])
            for s in (float(strip.a_of_t[i]), float(strip.b_of_t[i])):
                point = WallPoint(section=IN_V, x=t, y=s)
                assert composed_return(point, case1_params).y == pytest.approx(
                    return_map(point, case1_params).y, abs=1e-9
                )


def test_build_strips_fuzz_random_fixtures():
    """Random admissible points: strips either build cleanly or refuse for a named reason."""
    rng = np.random.default_rng(59)
    built = 0
    for _ in range(40):
        from conftest import random_admissible

        p = random_admissible(rng, a_min=1.05)
        k = derive_constants(p)
        if abs(k.gamma - 1.0) < 0.05:
            continue
        tau = min(0.25, 0.5 * p.eps)
        try:
            family = build_strips(tau, 3, p)
        except PeriodicTangencyError:
            continue
        if len(family) == 0:
            continue
        assert strip_family_violations(family, p) == []
        built += 1
    assert built >= 20


def test_multipulse_two_and_three(case1_params):
    for n in (2, 3):
        points = find_multipulse(n, case1_params, max_points=3)
        assert points, f"no {n}-pulse point found"
        replay = replay_pulse(points[0].s, n, case1_params)
        assert replay.out_w_crossings == n
        assert replay.residual < 1e-8


def test_multipulse_counts_crossings_per_winding(case1_params):
    """One 2-pulse root per full winding of the monotone exit angle."""
    k = derive_constants(case1_params)
    u_lo, u_hi = math.log(1e-6), math.log(case1_params.eps)
    x_lo = curve_sample(0.0, math.exp(u_lo), case1_params).x_w
    x_hi = curve_sample(0.0, math.exp(u_hi), case1_params).x_w
    expected = math.floor(x_hi / TWO_PI) - math.ceil(x_lo / TWO_PI) + 1
    points = find_multipulse(2, case1_params, s_window=(1e-6, case1_params.eps), max_points=50)
    assert len(points) == expected >= 1


def test_multipulse_empty_window_is_not_error(case1_params):
    tiny = find_multipulse(2, case1_params, s_window=(0.49, 0.5), max_points=4)
    assert isinstance(tiny, list)


def test_multipulse_three_pulse_replay_structure(case1_params):
    points = find_multipulse(3, case1_params, max_points=2)
    assert points
    for pt in points:
        # first return lands strictly inside the wall section, second exits on the trace
        mid = return_map(WallPoint(section=IN_V, x=0.0, y=pt.s), case1_params)
        assert 0.0 < mid.y <= case1_params.eps
        final = curve_sample(mid.x, mid.y, case1_params)
        assert circle_dist(final.x_w, 0.0) < 1e-8


def _pulse_digest(points) -> str:
    """sha256 over float.hex of every s, trace coordinate and residual."""
    rows = [
        " ".join([pt.s.hex(), pt.residual.hex()] + [f"{x.hex()},{y.hex()}" for x, y in pt.trace])
        for pt in points
    ]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# (fixture, n, keyword arguments) -> (point count, digest), from the scalar
# return-chain search the array path replaced; rational-n4-x0 re-pinned
# when the intermediate levels began to target 2 pi k in place of x0 + 2 pi k
PINNED_PULSES = {
    "case1-n2": (
        "case1_params", 2, {},
        (4, "94ded5a94dac65e0766aa356feec5c033a4fbd267ead067592f1e8041fb53961"),
    ),
    "case1-n3": (
        "case1_params", 3, {},
        (4, "5175c095cfab7b776a9154b2d9c797a86aa08f07c08f3ea048dd1faa885ebbbe"),
    ),
    "case1-n4": (
        "case1_params", 4, {},
        (3, "e299f74bb801d85a18022c198ac8af62dbc14bfe910761507340277012f5a3f1"),
    ),
    "case1-n2-window": (
        "case1_params", 2, {"s_window": (1e-6, 0.5), "max_points": 50},
        (3, "bdf93c2cb9253bd74f349fafd1f6d5e4dd0737983d67af3abb05aca6a9608954"),
    ),
    "case1-n2-x0": (
        "case1_params", 2, {"x0": 1.0},
        (4, "0b8880951896b2251ca92b7e7a99b4c14fc7cd5798b78e09489517687bc55687"),
    ),
    "dense-n3": (
        "dense_params", 3, {},
        (4, "a133a9ad21b249aa92e7f63bc35f324751ff84a24d69cd63244505deb84fd6ab"),
    ),
    "rational-n4-x0": (
        "rational_params", 4, {"x0": 0.3},
        (4, "efefe5866a87c4fbeed49973995799872c1afc1d0611c94a0dc239a2d6144333"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PULSES))
def test_multipulse_bit_for_bit(name, request):
    fixture, n, kwargs, (count, digest) = PINNED_PULSES[name]
    points = find_multipulse(n, request.getfixturevalue(fixture), **kwargs)
    assert (len(points), _pulse_digest(points)) == (count, digest)


# sha256 of a_of_t + b_of_t over all strips of build_strips(tau, 5, p)
PINNED_STRIPS = {
    ("case1_params", 0.05): "0d089bec2e88254c468303e3ba64bb827a71f4fa423512a8ee3252ddcc863afc",
    ("case1_params", 0.25): "7b923392f54dea9476752b0fc77943f14725618b1abb83cc7c5ef1a9528ba50e",
    ("case1_params", 0.4): "68ca8666cdb4745f8e5b3cfcf767f7e7bcc45f6a7bb7b01d5367225f045b0a05",
    ("dense_params", 0.05): "47bbe8d69a0af593f0dc1424c41a93d919700e83674241c1a0c5bcfa8c230211",
    ("dense_params", 0.25): "aa1965fc879602bb8614f01a4cc20d7adc326f553e81ce7535555c3fb40d6bb9",
    ("dense_params", 0.4): "1c338f3cc5481ca8975a58fe428d9e5f77c9040e313d3284c9267587389564b7",
    ("rational_params", 0.05): "163c339575200c5c7512b4af435c80cb2a6a5660bccb7caecdaca613ad4f20dd",
    ("rational_params", 0.25): "1f5788a26dd432a9bd1df81429d0fd6a30827091a7ccc025299a4b18168112b9",
    ("rational_params", 0.4): "3561f727dfdc0d4f32842aaeb98d11860685e7553ee452a336dcc77c34a78cf7",
}


@pytest.mark.parametrize("fixture,tau", sorted(PINNED_STRIPS))
def test_build_strips_bit_for_bit(fixture, tau, request):
    family = build_strips(tau, 5, request.getfixturevalue(fixture))
    assert len(family) == 5
    got = hashlib.sha256(b"".join(s.a_of_t.tobytes() + s.b_of_t.tobytes() for s in family.strips))
    assert got.hexdigest() == PINNED_STRIPS[fixture, tau]


def _collect_strips_per_strip(tau, n_limit, p, case, period, t_grid, endpoint_margin):
    """Reference collector: one bisection, and one height check, per strip in turn.

    The monotone pieces come from the period-by-period walk, down to the
    s-underflow floor: no cap on their number and no early end.
    """
    k = p.constants
    increasing = k.gamma > 1.0
    strips = []

    t_pair = np.concatenate([t_grid, t_grid])

    def x_at(u):
        return _exit_values(t_grid, u, p).x_w

    def x_pair(u):
        return _exit_values(t_pair, u, p).x_w

    def targets_for(winding):
        if increasing:
            return TWO_PI * winding - tau, TWO_PI * winding
        return TWO_PI * winding, TWO_PI * winding - tau

    def solve_strip(winding, u_los, u_his):
        tgt_a, tgt_b = targets_for(winding)
        n = len(t_grid)
        targets = np.concatenate([np.full(n, tgt_a), np.full(n, tgt_b)])
        u_ab = _bisect(x_pair, targets, np.concatenate([u_los, u_los]), np.concatenate([u_his, u_his]))
        if np.isnan(u_ab).any():
            raise RuntimeError("target not bracketed by the monotone interval")
        u_a, u_b = u_ab[:n], u_ab[n:]
        a_vals = np.array([math.exp(u) for u in np.minimum(u_a, u_b)])
        b_vals = np.array([math.exp(u) for u in np.maximum(u_a, u_b)])
        s_chk = np.linspace(a_vals, b_vals, 5)
        with np.errstate(under="ignore"):
            heights = np.exp(_exit_values(t_grid, np.log(s_chk), p).log_y)
        if np.any(heights > tau):
            return None
        return Strip(index=len(strips), winding=winding, t_grid=t_grid.copy(), a_of_t=a_vals, b_of_t=b_vals)

    if case == "I":
        u_tops = np.full(len(t_grid), math.log(p.eps))
        x_tops = x_at(u_tops)
        if increasing:
            w = math.floor((float(np.min(x_tops)) - SLACK - tau) / TWO_PI)
        else:
            w = math.ceil((float(np.max(x_tops)) + SLACK + tau) / TWO_PI)
        u_cur, x_cur = u_tops, x_tops
        while len(strips) < n_limit:
            tgt_a, tgt_b = targets_for(w)
            beyond = min(tgt_a, tgt_b) - 1.0 if increasing else max(tgt_a, tgt_b) + 1.0
            behind = (x_cur >= beyond) if increasing else (x_cur <= beyond)
            while np.any(behind):
                u_cur = np.where(behind, u_cur - 1.0, u_cur)
                if np.any(u_cur < LN_FLOOR):
                    return strips
                x_cur = x_at(u_cur)
                behind = (x_cur >= beyond) if increasing else (x_cur <= beyond)
            strip = solve_strip(w, u_cur, u_tops)
            if strip is not None:
                strips.append(strip)
            w = w - 1 if increasing else w + 1
        return strips

    want_sign = 1 if increasing else -1
    for lo, hi in _case_pieces_loop(0.0, k, period, want_sign, math.inf):
        if len(strips) >= n_limit:
            break
        if (k.c2 - hi) / k.g_v < LN_FLOOR:
            break
        u_los = (k.c2 + t_grid - hi) / k.g_v
        u_his = (k.c2 + t_grid - lo) / k.g_v
        x_a, x_b = x_at(u_los), x_at(u_his)
        lo_w = int(np.max(np.ceil((np.minimum(x_a, x_b) + endpoint_margin + tau) / TWO_PI)))
        hi_w = int(np.min(np.floor((np.maximum(x_a, x_b) - endpoint_margin) / TWO_PI)))
        windings = range(hi_w, lo_w - 1, -1) if increasing else range(lo_w, hi_w + 1)
        for w in windings:
            strip = solve_strip(w, u_los, u_his)
            if strip is not None:
                strips.append(strip)
                if len(strips) >= n_limit:
                    break
    return strips


def test_build_strips_keeps_an_early_narrow_strip(monkeypatch):
    # an early winding-0 strip whose image is narrower than tau: the 5-point
    # height check keeps it, though the exit height at one interpolated
    # point of its brackets is above 4 tau
    p = SaddleParams(
        alpha_v=2.4042177184771676, C_v=0.7700528505883673, E_v=0.7239990585035242,
        alpha_w=2.016924201196958, C_w=1.3622249408374412, E_w=0.49623232677352286,
        a=2.8336944554862287, eps=0.3665664175817964,
    )
    got = _family_bits(0.05, 1, p)
    family = build_strips(0.05, 1, p)
    assert family.case == "III" and strip_family_violations(family, p) == []
    (report,) = strip_image_report(family, p)
    assert report["winding"] == 0 and report["spans_vertically"] and report["within_width"]
    assert 0.03 < report["image_x_max"] <= family.tau
    monkeypatch.setattr(horseshoe, "_collect_strips", _collect_strips_per_strip)
    assert got == _family_bits(0.05, 1, p)


@pytest.fixture(scope="module")
def boundary_params() -> SaddleParams:
    """Case IV: the crossing level pinned at the turning maximum."""
    base = SaddleParams(alpha_v=2.0, C_v=1.2, E_v=1.0, alpha_w=2.0, C_w=2.6, E_w=1.0, a=2.0, eps=0.5)
    m, r, _ = turning_harmonic(base)
    return replace(base, E_w=m + r)


# gamma < 1, where the exit angle decreases down the section and the
# windings count upward: one point outside B and one inside
@pytest.fixture(scope="module")
def mirror_outside_params() -> SaddleParams:
    return SaddleParams(alpha_v=1.3, C_v=0.8, E_v=1.4, alpha_w=1.0, C_w=0.6, E_w=2.1, a=1.1, eps=0.7)


@pytest.fixture(scope="module")
def mirror_interior_params() -> SaddleParams:
    return SaddleParams(alpha_v=0.9, C_v=0.4, E_v=0.7, alpha_w=0.5, C_w=1.1, E_w=0.75, a=1.9, eps=0.55)


def _family_bits(tau, n_limit, p):
    """Everything build_strips returns, floats as hex; a refusal as its repr."""
    try:
        family = build_strips(tau, n_limit, p)
    except (RuntimeError, ValueError) as exc:
        return repr(exc)

    def hexes(values):
        return [v.hex() for v in values.tolist()]

    strips = [(s.index, s.winding, hexes(s.t_grid), hexes(s.a_of_t), hexes(s.b_of_t)) for s in family.strips]
    return family.tau.hex(), family.case, family.gamma.hex(), family.notes, strips


def _strip_draws(fixture):
    # the case IV exclusion zone is ten rectangle-widths wide, so its tau is small
    lo, hi = (0.005, 0.03) if fixture == "boundary_params" else (0.05, 0.45)
    return np.random.default_rng(12).uniform(lo, hi, 3).tolist()


STRIP_FIXTURES = [
    "case1_params",
    "dense_params",
    "rational_params",
    "boundary_params",
    "mirror_outside_params",
    "mirror_interior_params",
]


@pytest.mark.parametrize("n_limit", [1, 3, 5, 9])
@pytest.mark.parametrize("fixture", STRIP_FIXTURES)
def test_build_strips_matches_per_strip_reference(fixture, n_limit, request, monkeypatch):
    p = request.getfixturevalue(fixture)
    got = [_family_bits(tau, n_limit, p) for tau in _strip_draws(fixture)]
    monkeypatch.setattr(horseshoe, "_collect_strips", _collect_strips_per_strip)
    want = [_family_bits(tau, n_limit, p) for tau in _strip_draws(fixture)]
    assert got == want
    assert sum(isinstance(bits, tuple) and len(bits[-1]) == n_limit for bits in got) >= 2


def test_strip_family_violations_messages(dense_params):
    """Corrupted strips: every kind of violation, in (strip, t) order, then the overlaps in t order."""
    family = build_strips(0.25, 3, dense_params)
    assert strip_family_violations(family, dense_params) == []
    (a0, b0), (a1, b1), (a2, b2) = ((s.a_of_t.copy(), s.b_of_t.copy()) for s in family.strips)
    a0[3], b0[3] = b0[3], a0[3]  # swapped
    b0[30] = 0.6  # above eps
    a1[5] *= 1.0 + 1e-6
    b1[9] *= 1.0 - 1e-6
    a1[20] = b2[20]  # touches the strip below
    b2[12] *= 30.0  # reaches past the reversal that ends its piece
    corrupted = replace(
        family,
        strips=tuple(replace(s, a_of_t=a, b_of_t=b) for s, a, b in zip(family.strips, (a0, a1, a2), (b0, b1, b2))),
    )
    t = family.strips[0].t_grid
    assert strip_family_violations(corrupted, dense_params) == [
        f"strip 0: boundaries out of order at t={t[3]}",
        f"strip 0: boundaries out of order at t={t[30]}",
        f"strip 1: lower boundary misses target at t={t[5]}",
        f"strip 1: upper boundary misses target at t={t[9]}",
        f"strip 1: lower boundary misses target at t={t[20]}",
        f"strip 1: wrong monotonicity inside at t={t[20]}",
        f"strip 2: upper boundary misses target at t={t[12]}",
        f"strip 2: wrong monotonicity inside at t={t[12]}",
        f"strips 2 and 1 overlap in s at t={t[12]}",
        f"strips 2 and 1 overlap in s at t={t[20]}",
    ]
    assert [str(v) for v in t[[3, 30, 5, 9, 20, 12]]] == [
        "0.0234375", "0.234375", "0.0390625", "0.0703125", "0.15625", "0.09375"
    ]


@pytest.mark.parametrize("fixture", ["case1_params", "dense_params", "rational_params"])
def test_chain_angle_matches_scalar_return(fixture, request):
    """Each step of the array chain is curve_sample, then return_map, bit for bit."""
    p = request.getfixturevalue(fixture)
    us = np.random.default_rng(5).uniform(math.log(1e-8), math.log(p.eps), size=200)
    expected = []
    for u in us:
        first = curve_sample(0.0, math.exp(u), p)
        mid = return_map(WallPoint(section=IN_V, x=0.0, y=math.exp(u)), p)
        second = curve_sample(mid.x, mid.y, p) if 0.0 < mid.y <= p.eps else None
        expected.append((first.x_w, first.y_w) + ((second.x_w, second.y_w) if second else (math.nan, math.nan)))
    (x1, y1), (x2, y2) = _return_chain(us, 1, p)
    got = zip(x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist())
    assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row] for row in expected]
    assert 0 < sum(math.isnan(row[2]) for row in expected) < len(us)
    # seeds above the section, or overflowing, are off-section, not errors
    assert np.all(np.isnan(_return_chain([math.log(p.eps) + 1.0, 800.0], 1, p)[-1][0]))


@pytest.mark.parametrize("x0", [1.0, -1.0])
def test_multipulse_off_trace_search_stays_on_section(dense_params, x0):
    # the doubling march walks past the top of the section; those samples
    # end the march instead of raising
    for pt in find_multipulse(3, dense_params, x0=x0):
        assert replay_pulse(pt.s, 3, dense_params, x0=x0).residual < 1e-8


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("x0", [1.0, -1.0, 0.3])
def test_multipulse_off_trace_intermediate_returns(case1_params, x0, n):
    # an intermediate return lands on the section near height 0 whatever
    # the final target, so n >= 3 finds points for x0 != 0 as for x0 = 0
    points = find_multipulse(n, case1_params, x0=x0)
    assert len(points) >= 3
    for pt in points:
        replay = replay_pulse(pt.s, n, case1_params, x0=x0)
        assert replay.out_w_crossings == n and replay.residual < 1e-8


def test_multipulse_stops_at_first_empty_level(case1_params, monkeypatch):
    # on case I the levels run dry after about a dozen returns; a search that
    # walked on through every empty level would chain 10**5 returns per call
    depths = []
    chain = horseshoe._return_chain

    def counted(u, depth, p):
        assert depth < 20, "the search went on past an empty level"
        depths.append(depth)
        return chain(u, depth, p)

    monkeypatch.setattr(horseshoe, "_return_chain", counted)
    assert find_multipulse(100_000, case1_params) == []
    assert depths


def test_multipulse_batches_its_halvings(case1_params, monkeypatch):
    # one kernel call per tree of halvings: at most a third of the 284 return
    # chains of one halving per call
    calls = []
    chain = horseshoe._return_chain

    def counted(u, depth, p):
        calls.append(depth)
        return chain(u, depth, p)

    monkeypatch.setattr(horseshoe, "_return_chain", counted)
    assert len(find_multipulse(4, case1_params)) == 3
    assert len(calls) <= 284 // 3


def test_multipulse_deep_window_terminates(case1_params):
    # near s = 1e-300, |u| > 512 and a 1e-13 bracket holds no double inside
    # it; the bisection must stop there rather than spin
    points = find_multipulse(2, case1_params, s_window=(1e-300, 1e-290))
    assert points and all(0.0 < pt.s < 1e-289 and pt.residual <= 5e-9 for pt in points)


@pytest.mark.parametrize("max_points", [0, -1, -4])
def test_multipulse_refuses_max_points_below_one(case1_params, max_points):
    # a negative count would slice roots off the end and 0 would read as
    # "no crossing"; both are a refusal that names the field
    with pytest.raises(ParameterError, match=f"max_points must be >= 1, got {max_points}"):
        find_multipulse(2, case1_params, max_points=max_points)
    with pytest.raises(ValueError, match="max_points"):
        find_multipulse(3, case1_params, max_points=max_points)


def _scalar_bisect(fn, target, lo, hi, tol=1e-13):
    """One bracket at a time: the reference the array bisection must match."""
    f_lo, f_hi = fn(lo) - target, fn(hi) - target
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)) or (f_lo < 0) == (f_hi < 0):
        return math.nan
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid) - target
        if not math.isfinite(f_mid):
            return math.nan
        if (f_lo < 0) != (f_mid < 0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def test_bisect_matches_scalar_reference():
    def cubic(u):
        # nan on the hole (1.0, 1.1), as an orbit that leaves the section
        u = np.asarray(u, dtype=float)
        return np.where((u > 1.0) & (u < 1.1), np.nan, u * u * u - 2.0 * u)

    rng = np.random.default_rng(3)
    lo = rng.uniform(-3.0, 3.0, 400)
    hi = lo + rng.uniform(0.0, 2.0, 400)
    target = rng.uniform(-2.0, 2.0, 400)
    got = _bisect(cubic, target, lo, hi)
    want = [_scalar_bisect(lambda v: float(cubic(v)), *args) for args in zip(target, lo, hi)]
    assert [float(g).hex() for g in got] == [w.hex() for w in want]
    # some brackets straddle a root of the cubic but meet the hole on the way
    clean = [_scalar_bisect(lambda v: v**3 - 2.0 * v, *args) for args in zip(target, lo, hi)]
    assert any(math.isnan(w) and not math.isnan(c) for w, c in zip(want, clean))
    assert 50 < sum(not math.isnan(w) for w in want) < 400


def _serial_bisect(fn, target, lo, hi, tol=1e-13):
    """The array bisection at one halving per call of fn: the reference of the tree walk."""
    tol = np.maximum(tol, np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    f_lo = fn(lo) - target
    f_hi = fn(hi) - target
    below_lo = f_lo < 0.0
    ok = np.isfinite(f_lo) & np.isfinite(f_hi) & (below_lo != (f_hi < 0.0))
    active = ok & (hi - lo > tol)
    while active.any():
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid) - target
        finite = np.isfinite(f_mid)
        if not finite.all():
            ok &= finite | ~active
            active &= ok
        below_mid = f_mid < 0.0
        to_lo = active & (below_lo != below_mid)
        to_hi = active ^ to_lo
        hi = np.where(to_lo, mid, hi)
        lo = np.where(to_hi, mid, lo)
        below_lo = np.where(to_hi, below_mid, below_lo)
        active = ok & (hi - lo > tol)
    return np.where(ok, 0.5 * (lo + hi), np.nan)


@given(
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    center=st.sampled_from([0.0, -700.0, 600.0]),
    hole=st.booleans(),
)
@example(n=1, seed=0, center=0.0, hole=True)
@example(n=400, seed=1, center=-700.0, hole=True)
def test_bisect_tree_matches_serial(n, seed, center, hole):
    """Several halvings per call of fn give the roots of one halving per call, bit for bit.

    n = 1 takes the deepest tree, n = 400 one level; centers at |u| >= 512
    run into the one-ulp stop, and the hole turns fn nan on part of the
    brackets, as an orbit that leaves the section.
    """
    sizes = []

    def cubic(u):
        # a serial bisection of these brackets ends within 60 calls
        assert len(sizes) < 100, "the bisection does not converge"
        sizes.append(np.size(u))
        v = u - center
        values = v * v * v - 2.0 * v
        return np.where((v > 1.0) & (v < 1.1), np.nan, values) if hole else values

    rng = np.random.default_rng(seed)
    lo = center + rng.uniform(-3.0, 3.0, n)
    # some brackets do not straddle the target, some are empty
    hi = lo + rng.choice([0.0, 1e-14, 0.5, 2.0], n) * rng.uniform(0.0, 1.0, n)
    target = rng.uniform(-2.0, 2.0, n)
    want = _serial_bisect(cubic, target, lo, hi)
    sizes.clear()
    got = _bisect(cubic, target, lo, hi)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    # both ends in one call, then whole trees of at most TREE_POINTS points
    assert sizes[0] == 2 * n and all(size <= max(horseshoe.TREE_POINTS, n) for size in sizes[1:])
