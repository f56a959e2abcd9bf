import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from bykov import horseshoe
from bykov.horseshoe import (
    BISECT_TOL,
    LN_FLOOR,
    PeriodicTangencyError,
    ResonanceError,
    Strip,
    _eigen_class,
    _eigen_moduli,
    _lattice,
    _return_chain,
    _solve,
    build_strips,
    find_multipulse,
    jacobian_report,
    strip_boundary_residual,
    strip_family_violations,
    strip_image_report,
)
from bykov.oracles import IN_V, OUT_W, WallPoint, composed_return, psi_wv, replay_pulse
from bykov.params import (
    ParameterError,
    SaddleParams,
    classify_region,
    derive_constants,
    load_saddle_params,
    turning_harmonic,
    turning_level,
)
from bykov.returncurve import (
    S_UNDERFLOW,
    _exit_values,
    _stretch,
    _wanted_piece,
    circle_dist,
    curve_sample,
    exit_curve,
    find_tangency,
    reversal_sequence,
    turning_crossings,
    turning_function,
    wrap_pi,
)
from conftest import admissible_params, math_pin, reversal_angle_set

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


def test_build_strips_rejects_gamma_within_the_resonance_band():
    # gamma - 1 = 5.0004e-13: inside the 1e-12 band, though not exactly 1
    p = SaddleParams(alpha_v=1.0, C_v=1.0, E_v=1.0, alpha_w=1.0 + 5e-13, C_w=1.0, E_w=1.0, a=2.0, eps=0.5)
    assert 1e-13 < p.constants.gamma - 1.0 < 1e-12
    with pytest.raises(ResonanceError):
        build_strips(0.3, 2, p)


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
        for block in _lattice(*args):
            walked[:] = [block]
            yield block

    monkeypatch.setattr(horseshoe, "_lattice", recording)
    tracemalloc.start()
    try:
        family = build_strips(1e-200, 3, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, i, shifts = walked[-1]
    hi = _wanted_piece(p, classify_region(p), 1 if k.gamma > 1.0 else -1)[1]
    assert (family.case, len(family)) == ("II", 0)
    assert i[-1] > 2_000_000 and (k.c2 - (hi + shifts[0, -1])) / k.g_v < LN_FLOOR
    assert peak < 20e6


def test_build_strips_batches_do_not_grow_with_n_limit(dense_params, monkeypatch):
    # g_v = 2e13: every candidate fails the height check at tau 0.4, so the
    # batches grow until the refusal; at 64 per missing strip, n_limit 200
    # would solve 3,200 candidates in its fifth batch
    p = replace(dense_params, alpha_v=1e13 * dense_params.alpha_v, alpha_w=1e13 * dense_params.alpha_w)
    sizes, solve = [], _solve

    def recording(fn, targets, *args):
        sizes.append(len(targets))
        return solve(fn, targets, *args)

    monkeypatch.setattr(horseshoe, "_solve", recording)
    monkeypatch.setattr(horseshoe, "STRIP_MISSES", 5_000)
    with pytest.raises(ParameterError, match=r"5,320 candidate strips were wider than tau, .*; 0 of 200 strips fit"):
        build_strips(0.4, 200, p)
    # both boundaries of every candidate at the 33 points of the t-grid
    assert max(sizes) == 2 * 33 * horseshoe.STRIP_BATCH == 2 * 33 * 320


@pytest.mark.parametrize(
    "fixture, tau",
    [
        ("case1_params", 0.25),
        ("mirror_outside_params", 0.25),
        ("dense_params", 0.25),
        ("rational_params", 0.25),
        ("mirror_interior_params", 0.25),
        ("boundary_params", 0.02),
    ],
)
def test_build_strips_calls_the_kernel_once_before_bisecting(fixture, tau, request, monkeypatch):
    # every case: the kernel runs once, on both ends of the first piece
    # (case I's one piece runs from the s-underflow floor to the top); every
    # later piece's window is that one turned by the rotation identity
    events, values, solve = [], horseshoe._exit_values, horseshoe._solve

    def kernel(t, u, p):
        events.append("kernel")
        return values(t, u, p)

    def solving(*args):
        events.append("solve")
        return solve(*args)

    monkeypatch.setattr(horseshoe, "_exit_values", kernel)
    monkeypatch.setattr(horseshoe, "_solve", solving)
    family = build_strips(tau, 5, request.getfixturevalue(fixture))
    assert len(family) == 5
    assert events.index("solve") == 1


def test_build_strips_skips_pieces_too_high_for_tau(monkeypatch):
    # g_v = 100: the pieces whose return heights all exceed tau come first
    # and hold most of the windings; the family is the reference's, found
    # with a fraction of its solver targets
    p = SaddleParams(alpha_v=0.1, C_v=1.2e-3, E_v=1e-3, alpha_w=500 * math.sqrt(2) / 3, C_w=2.6, E_w=2.0, a=2.0, eps=0.5)
    assert p.constants.g_v == 100.0
    calls, solve = [], _solve

    def counting(fn, targets, *ends):
        calls.append(len(targets))
        return solve(fn, targets, *ends)

    monkeypatch.setattr(horseshoe, "_solve", counting)
    got = _family_bits(0.05, 5, p)
    ours = sum(calls)
    monkeypatch.setattr(horseshoe, "_collect_strips", _collect_strips_per_strip)
    monkeypatch.setattr(sys.modules[__name__], "_solve", counting)
    want = _family_bits(0.05, 5, p)
    assert got == want and len(got[-1]) == 5
    assert ours * 3 < sum(calls) - ours


def test_build_strips_grows_batches_at_large_g_v(monkeypatch):
    # gamma sqrt(2) at g_v 1e4: thousands of windings fail the height check
    # before the first strip; one solve per missing strip made 4,635 calls
    p = SaddleParams(
        alpha_v=10.0, C_v=1.2e-3, E_v=1e-3, alpha_w=20.0 * math.sqrt(2.0) / 1.2e-3, C_w=2.6, E_w=2.0, a=2.0, eps=0.5
    )
    assert p.constants.g_v == 1e4
    calls, solve = [], _solve

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(horseshoe, "_solve", counting)
    family = build_strips(0.05, 5, p)
    assert len(calls) < 100
    assert [s.winding for s in family.strips] == [-1892, -1892, -1891, -1892, -1891]
    # one ulp of u moves x_w by about 2.4e-9 here, so the boundaries miss
    # their targets by more than strip_family_violations' 1e-9 (ROADMAP
    # item 10); 45 halvings missed them by 7.9e-7
    assert strip_boundary_residual(family, p) < 1e-8
    # over 10,000 candidates fail on the way: within STRIP_MISSES, and refused under a bound of 10,000
    assert horseshoe.STRIP_MISSES > 10_000
    monkeypatch.setattr(horseshoe, "STRIP_MISSES", 10_000)
    with pytest.raises(ParameterError) as err:
        build_strips(0.05, 5, p)
    assert str(err.value) == (
        "tau=0.05: at g_v=10000.0 the return images of 10,039 candidate strips were wider than tau,"
        " more than the 10,000 one family may try; 4 of 5 strips fit"
    )


# Case I windings at both ends of the tail.  "top": gamma 5.38 at tau = eps,
# where the top exit angle is at least 0.029, so both targets of winding 0
# lie below it, though by less than SLACK + tau.  "floor": gamma 1.30 at
# tau 0.05, where the exit angle at the s-underflow floor is at most
# -38.605, less than 1 rad below winding -6's targets but clear of them.
@pytest.mark.parametrize(
    "p, tau, n_limit, windings",
    [
        (
            SaddleParams(
                alpha_v=0.37406162765673345, C_v=1.2143937036237578, E_v=0.4880218832808581,
                alpha_w=1.8025937082587902, C_w=2.6189887668021323, E_w=1.0878834546992253,
                a=1.0179329465008715, eps=0.2449752251536295,
            ),
            0.2449752251536295, 5, [0, -1, -2, -3, -4],
        ),
        (
            SaddleParams(
                alpha_v=0.3808169904505951, C_v=1.5347022691417118, E_v=2.070209748811891,
                alpha_w=0.9204233039774372, C_w=0.5046042565590542, E_w=2.844438000986796,
                a=1.0869982192477599, eps=0.38983490107072943,
            ),
            0.05, 20, [-1, -2, -3, -4, -5, -6],
        ),
    ],
    ids=["top", "floor"],
)
def test_build_strips_case1_windings_at_both_ends(p, tau, n_limit, windings):
    family = build_strips(tau, n_limit, p)
    assert family.case == "I"
    assert [s.winding for s in family.strips] == windings
    _assert_clean_family(family, p, len(windings))


@given(
    rates=st.lists(st.floats(-1.1, 1.1), min_size=5, max_size=5),
    a=st.one_of(st.just(1.0), st.floats(1.0, 3.0)),
    eps=st.one_of(st.just(1.0), st.floats(0.2, 0.9)),
    above=st.booleans(),
    factor=st.floats(1.001, 4.0),
    tau_frac=st.floats(0.05, 1.0),
    n_limit=st.integers(1, 20),
)
def test_build_strips_case1_is_one_piece(rates, a, eps, above, factor, tau_frac, n_limit):
    """Case I, outside B and at a = 1 with gamma on both sides of 1: the family replays clean.

    The level K = alpha_v E_w / alpha_w is put ``factor`` above the turning
    maximum (gamma < 1) or below the minimum (gamma > 1).  Candidates come
    from one kernel call on the one piece's brackets; every later kernel
    call is the height check of a batch, which follows its solve.
    """
    alpha_v, C_v, E_v, C_w, E_w = (math.exp(x) for x in rates)
    base = SaddleParams(alpha_v=alpha_v, C_v=C_v, E_v=E_v, alpha_w=1.0, C_w=C_w, E_w=E_w, a=a, eps=eps)
    m, r, _ = turning_harmonic(base)
    level = (m + r) * factor if above else (m - r) / factor
    assume(level > 0.0)
    p = replace(base, alpha_w=alpha_v * E_w / level)
    assume(classify_region(p).tag in ("OutsideB", "NoReversal_aEq1"))
    events, values, solve = [], horseshoe._exit_values, horseshoe._solve

    def kernel(t, u, p):
        events.append("kernel")
        return values(t, u, p)

    def solving(*args):
        events.append("solve")
        return solve(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(horseshoe, "_exit_values", kernel)
        patch.setattr(horseshoe, "_solve", solving)
        family = build_strips(tau_frac * eps, n_limit, p)
    assert family.case == "I" and (p.constants.gamma > 1.0) != above
    assert events == ["kernel"] + ["solve", "kernel"] * events.count("solve")
    _assert_clean_family(family, p, len(family))


def test_detect_periodic_tangency_bit_for_bit(rational_params):
    """find_tangency's scan: the nearest of the first 4096 reversals at t = 0.

    At x0 = 0 reversals 1665 and 3329 repeat one angle up to rounding; a
    60-digit mpmath evaluation puts 1665 nearer both mod the true 2*pi
    (0.4738779872893074 against 0.47387798728947203) and mod the float
    TWO_PI (0.47387798728925645 against 0.47387798728937014).
    """
    x_hit = float(reversal_angle_set(0.0, 64, rational_params).x_values[3] % TWO_PI)
    got = []
    for x0 in (0.0, x_hit):
        report = find_tangency(x0, 0.0, 4096, rational_params)
        got.append((report.n_best, report.x_best.hex(), report.x_best % TWO_PI, report.history[-1]))
    assert got == [
        (1665, "-0x1.469b6f431fdd5p+10", 0.47387798728925645, (1666, 0.47387798728925645)),
        (3, "-0x1.18cfa3ea8efc4p+0", 5.186266967674135, (4, 0.0)),
    ]


def test_strips_case2_rational_gamma(rational_params):
    family = build_strips(0.3, 3, rational_params)
    assert family.case == "II"
    assert strip_family_violations(family, rational_params) == []


def _case4_margins(family, p):
    """Each strip's least distance, in rectangle-widths, of its boundary targets inside its piece's window.

    At the turning maximum the monotone pieces run between the grazing
    angles theta/2 + i pi; a strip's piece is the one holding the angle of
    its mid-height, and the piece's window is the range of exit angles that
    both of its ends reach at every t of the grid.
    """
    k = derive_constants(p)
    graze = turning_harmonic(p)[2] / 2.0
    margins = []
    for strip in family.strips:
        t = strip.t_grid
        phi = -k.g_v * np.log(np.sqrt(strip.a_of_t * strip.b_of_t)) + t + k.c2
        (i,) = set(np.floor((phi - graze) / math.pi).tolist())
        ends = [_exit_values(t, (k.c2 + t - graze - j * math.pi) / k.g_v, p).x_w for j in (i, i + 1)]
        lo, hi = np.max(np.minimum(*ends)), np.min(np.maximum(*ends))
        targets = (TWO_PI * strip.winding - family.tau, TWO_PI * strip.winding)
        margins.append(min(targets[0] - lo, hi - targets[1]) / family.tau)
    return margins


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
    assert got.hexdigest() == math_pin(
        {
            "avx512": "198acd68212ada8f24b4d618f52afc3f84cbfc52b06cd4d8a910a4584a5aab79",
            "avx2": "c3579ab57010c596024a477321f0d36b7ba7c344cc9ab11343cced4cf578e7b5",
        }
    )
    assert strip_family_violations(family, p) == []
    report = strip_image_report(family, p)
    assert all(r["spans_vertically"] and r["within_width"] for r in report)
    # targets stay at least ten rectangle-widths from the inflection values;
    # at tau = 0.045 that margin is what passes over winding 3
    for tau, windings in ((0.02, [2, 3]), (0.045, [2, 4])):
        family = build_strips(tau, 2, p)
        assert [strip.winding for strip in family.strips] == windings
        assert min(_case4_margins(family, p)) >= 10.0
        for strip in family.strips:
            for t, a, b in zip(*(getattr(strip, name).tolist() for name in ("t_grid", "a_of_t", "b_of_t"))):
                # the boundaries keep off the grazing angles, where dxw_ds vanishes
                assert abs(curve_sample(t, a, p).dxw_ds) > 0.0 and abs(curve_sample(t, b, p).dxw_ds) > 0.0


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


@pytest.mark.xfail(
    reason="det is formed as j00 j11 - j01 j10, whose g_v terms cancel only up to rounding: on the dense config "
    "at x = 0.1 it misses the closed form by up to 2.7e-3 relative at g_v 2e6 (y = 2^-7), and at g_v 2e13 it is "
    "-8.6e9 against 0.316 at y = 2^-4 (2-CPU x86-64 AVX-512 host)",
)
@pytest.mark.parametrize("factor", [1e6, 1e13])
def test_jacobian_determinant_closed_form_at_large_g_v(factor, dense_params):
    """det J = delta y_w / (y C(phi)), in which the g_v terms cancel identically, at g_v = 2 factor."""
    p = replace(dense_params, alpha_v=factor * dense_params.alpha_v, alpha_w=factor * dense_params.alpha_w)
    for k in range(4, 21):
        y = 2.0**-k
        curve = exit_curve(0.1, math.log(y), p)
        stretch = float(_stretch(np.cos(curve.phi), np.sin(curve.phi), p.a))
        want = p.constants.delta * math.exp(curve.log_y) / (y * stretch)
        assert jacobian_report(0.1, y, p).det == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("fixture", ["case1_params", "dense_params"])
def test_jacobian_report_reads_x_mod_2pi(fixture, request):
    """The report at x is the report at x mod 2 pi, reduced exactly, bit for bit up to |x| = 1e300."""
    p = request.getfixturevalue(fixture)
    for x in (7.0, -40.0, 1e6, 1e10, 2.0**50, 1e17, -1e17, 1e300, -1e300):
        for k in (4, 20, 200):
            y = 2.0**-k
            assert repr(jacobian_report(x, y, p)) == repr(jacobian_report(math.remainder(x, TWO_PI), y, p))


def test_case4_pieces_have_full_length():
    """At the boundary of B each monotone piece runs from one grazing angle to the next."""
    base = SaddleParams(alpha_v=2.0, C_v=1.2, E_v=1.0, alpha_w=2.0, C_w=2.6, E_w=1.0, a=2.0, eps=0.5)
    m, r, _ = turning_harmonic(base)
    p = SaddleParams(alpha_v=2.0, C_v=1.2, E_v=1.0, alpha_w=2.0, C_w=2.6, E_w=m + r, a=2.0, eps=0.5)
    region = classify_region(p)
    assert region.tag == "BoundaryB"
    counts = []
    for sign in (1, -1):
        pieces = _first_pieces(0.0, _wanted_piece(p, region, sign), 64)
        assert all(hi - lo >= math.pi / 4 for lo, hi in pieces)
        # A - K < 0 between grazes of the maximum
        mids = [float(turning_function(0.5 * (lo + hi), p)) - turning_level(p) for lo, hi in pieces]
        assert all((v > 0) == (sign > 0) for v in mids)
        counts.append(len(pieces))
    assert counts == [0, 64]


def _first_pieces(t, piece, count):
    """The first ``count`` copies of ``piece`` from the lattice walk of its start, as (phi_lo, phi_hi) pairs."""
    if piece is None:
        return []
    lo, hi = piece
    blocks = ((lo + shifts[0], hi + shifts[0]) for _, _, shifts in _lattice(np.array([lo]), t))
    pairs = (pair for los, his in blocks for pair in zip(los.tolist(), his.tolist()))
    return list(itertools.islice(pairs, count))


def _case_pieces_loop(t, k, piece, max_pieces):
    """The period-by-period walk the lattice form replaced, with its own underflow cut."""
    out = []
    if piece is None:
        return out
    lo, hi = piece
    m = math.ceil((t - lo) / math.pi)
    while len(out) < max_pieces:
        if lo + m * math.pi >= t:
            out.append((lo + m * math.pi, hi + m * math.pi))
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
    for sign, count in itertools.product((1, -1), (max_pieces, 3000)):
        piece = _wanted_piece(p, region, sign)
        want = _case_pieces_loop(t, k, piece, count)
        got = _first_pieces(t, piece, count)
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


CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

# (config, x, deepest accepted k) -> sha256 of the float.hex entries of
# the report's Jacobian at y = 2^-k, k = 4..k_max, one row per height; a change
# in the order of the chain rule's operations shows here; a digest that
# numpy's float64 math moves is a table keyed as conftest.NUMPY_MATH's values
JACOBIAN_BITS = {
    ("dense_params.json", 0.0, 1021): {
        "avx512": "fd4102368d7a2387f783564c983574f00a44f0979ff240fc87a166df72692f10",
        "avx2": "a4c6b11c0b2350fea8a0ea6ca5ea05b91effa62d6d6145436a5502aee4df430a",
    },
    ("readme_params.json", 0.1, 1023): {
        "avx512": "56e704ba59d7b2b7c49e2205f4bf15c91d935f9bb590aef8fefab69f17778fe8",
        "avx2": "17cd90f71dd4d18976cee95e2868e6d979bda1bffd05234ba93855a6021bc3b8",
    },
}


@pytest.mark.parametrize("config, x, k_max", sorted(JACOBIAN_BITS))
def test_jacobian_bits(config, x, k_max):
    p = load_saddle_params(json.loads((CONFIGS / config).read_text()))
    jacs = [np.array(jacobian_report(x, 2.0**-k, p).jacobian) for k in range(4, k_max + 1)]
    rows = "\n".join(" ".join(v.hex() for v in jac.ravel().tolist()) for jac in jacs)
    assert hashlib.sha256(rows.encode()).hexdigest() == math_pin(JACOBIAN_BITS[(config, x, k_max)])


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
        moduli = sorted(np.abs(np.linalg.eigvals(np.array(rep.jacobian))))
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
    s_values = np.exp(reversal_sequence(0.0, 6, dense_params).log_s_values)
    found = False
    for s in s_values.tolist():
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


# one parameter point in two units of time: the second's six rates are the
# first's times 1e10, so gamma (0.8875), a and every rate ratio agree
SLOW_RATES = {
    "alpha_v": 1.732201882904939e-10, "C_v": 8.386040365815899e-11, "E_v": 5.245946837763761e-11,
    "alpha_w": 6.119991289121093e-10, "C_w": 9.237402221188311e-11, "E_w": 3.3382552227938616e-10,
}
SLOW = SaddleParams(**SLOW_RATES, a=1.2989510885788786, eps=0.5)
FAST = SaddleParams(**{name: 1e10 * rate for name, rate in SLOW_RATES.items()}, a=SLOW.a, eps=SLOW.eps)


@pytest.mark.xfail(
    reason="classify_region's boundary band is an absolute 1e-9, so the tag depends on the unit of time",
)
def test_region_tag_does_not_depend_on_the_unit_of_time():
    assert SLOW.constants.gamma == FAST.constants.gamma
    assert classify_region(SLOW).tag == classify_region(FAST).tag


def test_boundary_point_gives_an_empty_family():
    # BoundaryB has no monotone piece to build on: the family is empty, not
    # an error, and its boundary residual is 0.0; the same point in the
    # faster unit is DenseReversals_D and has its five strips
    assert classify_region(SLOW).tag == "BoundaryB"
    family = build_strips(0.1, 5, SLOW)
    assert (len(family), family.solver_passes) == (0, 0)
    assert strip_boundary_residual(family, SLOW) == 0.0
    assert strip_family_violations(family, SLOW) == []
    assert classify_region(FAST).tag == "DenseReversals_D"
    assert len(build_strips(0.1, 5, FAST)) == 5


def test_multipulse_two_and_three(case1_params):
    for n in (2, 3):
        points = find_multipulse(n, case1_params)
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
    points = find_multipulse(2, case1_params, s_window=(1e-6, case1_params.eps))
    assert len(points) == expected >= 1


def test_multipulse_empty_window_is_not_error(case1_params):
    tiny = find_multipulse(2, case1_params, s_window=(0.49, 0.5))
    assert isinstance(tiny, list)


def test_multipulse_three_pulse_replay_structure(case1_params):
    points = find_multipulse(3, case1_params)
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


# (fixture, n, keyword arguments) -> (point count, digest), re-pinned when
# Newton on the chain's slope replaced the bisection: its roots next to the
# accumulation edge meet the 5e-9 residual bound, so the last points of
# case1-n3 and rational-n4-x0 changed and case1-n4 went from 3 points to 4;
# case1-n4 was re-pinned again when a point came to need its miss plus
# |x_w'| ulp(u) within the bound: its last point moved from u = -1.44827
# (s = 0.23498, miss 3.4e-9, one ulp of u worth 1.4e-8) to u = -1.2661;
# re-pinned once more when one outward seed grid per root replaced the
# accumulation windows: three points of case1-n3 and one of rational-n4-x0
# moved by one ulp of u, and the last point of case1-n4 went from
# u = -1.2660977126 to u = -1.2643348469 (replay residual 1.7e-13);
# a digest that numpy's float64 math moves is a table keyed as conftest.NUMPY_MATH's values
PINNED_PULSES = {
    "case1-n2": (
        "case1_params", 2, {},
        (4, "26efa43d35ac04912e02f8769b5e44f231a2a3da1940a8d7b2810597d24292b1"),
    ),
    "case1-n3": (
        "case1_params", 3, {},
        (4, "59a8c2cd48be9457a0d72fa962251ff3dc9a4ef21af3e3eef7ff5a6c716a12d2"),
    ),
    "case1-n4": (
        "case1_params", 4, {},
        (4, "d90032da23cabeb6a6b36033327471657908b238544428adb00a8368920c3eb4"),
    ),
    "case1-n2-window": (
        "case1_params", 2, {"s_window": (1e-6, 0.5)},
        (3, "481713fede042c720fa127edee6afe2297a1aa3a6da51125174354e95ff61ceb"),
    ),
    "case1-n2-x0": (
        "case1_params", 2, {"x0": 1.0},
        (4, "ad6aacc031a570c0ea86ba73677217475dfc05c61bc8c386714264edbbf15c8f"),
    ),
    "dense-n3": (
        "dense_params", 3, {},
        {
            "avx512": (4, "a01200433fa183975da574720c05a489cdb562505a1ba0a41e35b87283984b9b"),
            "avx2": (4, "5bbfabf264ee32614dff579fdd96c09b6a8358eb8202a4f60b00d14260708df6"),
        },
    ),
    "rational-n4-x0": (
        "rational_params", 4, {"x0": 0.3},
        {
            "avx512": (4, "da97f8a1eae8a8d27c66c70a1e8c2265ecad368d9fb062b2ef1776179e5d7730"),
            "avx2": (4, "af4303132b003417aecf3d3f6e4b5b35d8f85808d74a8f1dd52d2f241769bda8"),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PULSES))
def test_multipulse_bit_for_bit(name, request):
    fixture, n, kwargs, pin = PINNED_PULSES[name]
    points = find_multipulse(n, request.getfixturevalue(fixture), **kwargs)
    assert (len(points), _pulse_digest(points)) == math_pin(pin)


@pytest.mark.parametrize("name", ["case1-n4", "dense-n3", "rational-n4-x0"])
def test_multipulse_points_are_resolved_in_u(name, request):
    # a kept point's miss plus the move of its final angle over one ulp of
    # its u stays within 5e-9, so whether it replays within 1e-8 does not
    # depend on rounding
    fixture, n, kwargs, _ = PINNED_PULSES[name]
    p = request.getfixturevalue(fixture)
    points = find_multipulse(n, p, **kwargs)
    u = np.log([pt.s for pt in points])
    slope = horseshoe._return_chain(u, n - 2, p)[-1][2]
    assert np.all(np.array([pt.residual for pt in points]) + np.abs(slope) * np.spacing(np.abs(u)) <= 5e-9)


# sha256 of a_of_t + b_of_t over all strips of build_strips(tau, 5, p); the
# case1 digests moved (by at most 1.1e-14 in u) when Case I became one piece
# bracketed by the s-underflow floor and the top;
# a digest that numpy's float64 math moves is a table keyed as conftest.NUMPY_MATH's values
PINNED_STRIPS = {
    ("case1_params", 0.05): {
        "avx512": "c845af5a3c9583c81983319cde22b5053d211b67fe3d8e4eca572a6d8ebd03a6",
        "avx2": "a7b8030a1d145b6b01027a817b2d660b6eb9ed7256e953587ec891ee9bd101d1",
    },
    ("case1_params", 0.25): {
        "avx512": "0a3009ffe95627184c278585f4132576232b550714a838cae28f2e449ea9f1d0",
        "avx2": "e75f447e75f2ded3abf02c23534338f7e32de26b8c4b09b326579aa8e949198f",
    },
    ("case1_params", 0.4): {
        "avx512": "839d6b9ca4b44c7eec64c9a4d54759336e421c5e45ffbd056c8076d9bd199f88",
        "avx2": "c587bf25e746b686d5d1a290ad2a8acce41678b084fe65286e93d45cae68a1a3",
    },
    ("dense_params", 0.05): "f3069d41115f154ed103d457e8c81540a65dd4b7355d8ae38c93e3f5e6c5df15",
    ("dense_params", 0.25): "d1c7d239b21932669b1623073a84ba07e5b155d29d2927263285941016152a39",
    ("dense_params", 0.4): {
        "avx512": "1cc9fed1ecc34581424ea89400a1100afb74a9a01e01b313f3c1e396b4f845da",
        "avx2": "b328211fad8e87f6aa614fc5519728f0fb05721ac237e3d3b70fe3be6d609af6",
    },
    ("rational_params", 0.05): "79d4cc24716c0bf0bf52e9e080a1f3bc85ef20fd97fffdd6b3a2b64acfec2415",
    ("rational_params", 0.25): {
        "avx512": "8a68e0a8a7c0ef61502e40ef32c9f6bdcc5b0ef605df99337103308cee63ba6c",
        "avx2": "d1b0c1e78d49b741bdeb4819e3c6c4d8690ef00d1381facd5bcd34b59d00bea1",
    },
    ("rational_params", 0.4): {
        "avx512": "c859cd792846a26193fea17ef44eea46497fce17af8ba47e59427f391e7bb363",
        "avx2": "b05b6f0b002322061b24e480e32ba4703a57c1efa01cbbe8e23831795100d9a0",
    },
}


@pytest.mark.parametrize("fixture,tau", sorted(PINNED_STRIPS))
def test_build_strips_bit_for_bit(fixture, tau, request):
    family = build_strips(tau, 5, request.getfixturevalue(fixture))
    assert len(family) == 5
    got = hashlib.sha256(b"".join(s.a_of_t.tobytes() + s.b_of_t.tobytes() for s in family.strips))
    assert got.hexdigest() == math_pin(PINNED_STRIPS[fixture, tau])


# a case-II point at which, at tau = 0.2, the exit heights along a side
# curve of strip 4 reach their least value inside the side, not at a corner:
# on the configs below every extent sits on a boundary curve
SIDE_MIN_PARAMS = SaddleParams(alpha_v=8.0, C_v=0.44, E_v=1.04, alpha_w=2.25, C_w=0.49, E_w=1.07, a=2.77, eps=0.26)

# (config, tau) -> sha256 of the float.hex of each strip's image extents
# (y min, y max, x min, x max) from strip_image_report on the 5-strip
# family, one row per strip; a side grid that stops short of its top moves
# the side-min point's digest
PINNED_IMAGES = {
    ("dense_params.json", 0.4): "f69bd9c8994647c5da8c5783597cd2af53a091a5e54f42a649c055e5075b6210",
    ("readme_params.json", 0.4): {
        "avx512": "10d0b838ba0087e49fa0517930839bdc8a4b10722c55a4d6fbf7feaeeb0768b5",
        "avx2": "ebb1f3c395ec5e323912084b11013660c9a4b146c05c9b9312cdd95a4936899a",
    },
    ("side-min", 0.2): {
        "avx512": "43a824469ea187252a3b9de70daadc0aca0e6dbe841dfc7ad3f2376d9877c377",
        "avx2": "198ff3efaf14ba6426d2b82a235757b7b5060e3e3be0808b4b54e19b65e46ac1",
    },
}


@pytest.mark.parametrize("config, tau", sorted(PINNED_IMAGES))
def test_strip_image_extents_bit_for_bit(config, tau):
    p = SIDE_MIN_PARAMS if config == "side-min" else load_saddle_params(json.loads((CONFIGS / config).read_text()))
    family = build_strips(tau, 5, p)
    assert len(family) == 5
    keys = ("image_y_min", "image_y_max", "image_x_min", "image_x_max")
    rows = "\n".join(" ".join(r[key].hex() for key in keys) for r in strip_image_report(family, p))
    assert hashlib.sha256(rows.encode()).hexdigest() == math_pin(PINNED_IMAGES[config, tau])


# Newton passes of build_strips(tau, 5, p): a count, since a wrong slope
# still converges through the bracket's midpoints, only in more passes; the
# case1 counts at 0.25 and 0.4 rose by one with the floor-to-top brackets
PINNED_PASSES = {
    ("case1_params", 0.05): 11,
    ("case1_params", 0.25): 13,
    ("case1_params", 0.4): 14,
    ("dense_params", 0.05): 13,
    ("dense_params", 0.25): 7,
    ("dense_params", 0.4): 7,
    ("rational_params", 0.05): 14,
    ("rational_params", 0.25): 7,
    ("rational_params", 0.4): 7,
}


@pytest.mark.parametrize("fixture,tau", sorted(PINNED_PASSES))
def test_build_strips_newton_passes(fixture, tau, request):
    family = build_strips(tau, 5, request.getfixturevalue(fixture))
    assert (len(family), family.solver_passes) == (5, PINNED_PASSES[fixture, tau])


def _solve_ends(fn, targets, lo, hi):
    """_solve on the brackets [lo, hi], with the values at their ends taken from fn, as the search's callers hand them in."""
    v_lo, v_hi = fn(np.stack([lo, hi]), slice(None))[0]
    return _solve(fn, targets, lo, hi, v_lo, v_hi)


def _boundary_slope(t, p):
    """The strip boundaries' fn for _solve: x_w and its slope x_u at (t[live], u)."""

    def fn(u, live):
        curve = exit_curve(t[live], u, p)
        return curve.x_w, curve.x_u

    return fn


def _collect_strips_per_strip(tau, n_limit, p, case, piece, t_grid, endpoint_margin):
    """Reference collector: one window, one boundary solve and one height check per piece and strip in turn.

    Case I is one piece, bracketed by the s-underflow floor and the top at
    every t.  The monotone pieces of the other cases come from the
    period-by-period walk, down to the s-underflow floor: no cap on their
    number, no rotation identity and no early end.
    """
    k = p.constants
    increasing = k.gamma > 1.0
    n = len(t_grid)
    strips = []
    passes = 0

    t_pair = np.concatenate([t_grid, t_grid])

    def targets_for(winding):
        if increasing:
            return TWO_PI * winding - tau, TWO_PI * winding
        return TWO_PI * winding, TWO_PI * winding - tau

    def solve_strip(winding, u_los, u_his):
        nonlocal passes
        tgt_a, tgt_b = targets_for(winding)
        targets = np.concatenate([np.full(n, tgt_a), np.full(n, tgt_b)])
        lows, highs = np.concatenate([u_los, u_los]), np.concatenate([u_his, u_his])
        u_ab, more = _solve_ends(_boundary_slope(t_pair, p), targets, lows, highs)
        passes += more
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
        return Strip(winding=winding, t_grid=t_grid, a_of_t=a_vals, b_of_t=b_vals)

    if case == "I":
        brackets = [(np.full(n, LN_FLOOR), np.full(n, math.log(p.eps)))]
    else:
        above = itertools.takewhile(
            lambda pair: (k.c2 - pair[1]) / k.g_v >= LN_FLOOR, _case_pieces_loop(0.0, k, piece, math.inf)
        )
        brackets = (((k.c2 + t_grid - hi) / k.g_v, (k.c2 + t_grid - lo) / k.g_v) for lo, hi in above)
    for u_los, u_his in brackets:
        if len(strips) >= n_limit:
            break
        x_a, x_b = _exit_values(t_grid, u_los, p).x_w, _exit_values(t_grid, u_his, p).x_w
        lo_w = int(np.max(np.ceil((np.minimum(x_a, x_b) + endpoint_margin + tau) / TWO_PI)))
        hi_w = int(np.min(np.floor((np.maximum(x_a, x_b) - endpoint_margin) / TWO_PI)))
        windings = range(hi_w, lo_w - 1, -1) if increasing else range(lo_w, hi_w + 1)
        for w in windings:
            strip = solve_strip(w, u_los, u_his)
            if strip is not None:
                strips.append(strip)
                if len(strips) >= n_limit:
                    break
    return strips, passes


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

    strips = [(s.winding, hexes(s.t_grid), hexes(s.a_of_t), hexes(s.b_of_t)) for s in family.strips]
    return family.tau.hex(), family.case, family.notes, strips


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
    # swapped at the same t: the overlap pass reads the stored boundaries, so
    # the two out-of-order spans do not overlap there
    a1[3], b1[3] = b1[3], a1[3]
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
        f"strip 1: boundaries out of order at t={t[3]}",
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
    (x1, y1, _), (x2, y2, _) = _return_chain(us, 1, p)
    got = zip(x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist())
    assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row] for row in expected]
    assert 0 < sum(math.isnan(row[2]) for row in expected) < len(us)
    # seeds above the section, or overflowing, are off-section, not errors
    assert np.all(np.isnan(_return_chain([math.log(p.eps) + 1.0, 800.0], 1, p)[-1][0]))


@pytest.mark.parametrize("fixture", ["case1_params", "dense_params", "rational_params"])
def test_chain_slope_matches_central_difference(fixture, request):
    """The chain's slope in the seed's u: x_u at the first return, a central difference of the angle after it.

    The difference is Richardson's extrapolation of the steps h and h/2,
    h = 2**-25 max(1, |u|), so it is exact up to the fifth derivative; it is
    taken wherever the orbit stays on the section over the whole stencil
    and the two steps resolve the curve there (agree within 1e-3), which
    leaves out a few seeds where the angle turns within h.
    """
    p = request.getfixturevalue(fixture)
    us = np.linspace(math.log(1e-8), math.log(p.eps), 20001)[:-1]
    chain = _return_chain(us, 2, p)
    # the first return is the kernel's at the seed's height ln e^u, with libm's exp
    u_seed = np.log([math.exp(u) for u in us])
    assert [v.hex() for v in chain[0][2].tolist()] == [v.hex() for v in exit_curve(0.0, u_seed, p).x_u.tolist()]
    h = 2.0**-25 * np.maximum(1.0, np.abs(us))
    for depth in (1, 2):
        # the angle at u -/+ h and at u -/+ h/2
        f = _return_chain(us + np.array([[-1.0], [1.0], [-0.5], [0.5]]) * h, depth, p)[-1][0]
        d_h, d_half = (f[1] - f[0]) / (2.0 * h), (f[3] - f[2]) / h
        fd = (4.0 * d_half - d_h) / 3.0
        slope = chain[depth][2]
        on = np.isfinite(slope) & np.isfinite(f).all(axis=0)
        resolved = on & (np.abs(d_h - d_half) <= 1e-3 * np.abs(fd))
        assert resolved.sum() >= max(100, 0.95 * on.sum())
        assert np.all(np.abs(slope - fd)[resolved] <= 1e-6 * np.abs(fd[resolved]))


_LEVEL_BRACKETS: dict = {}


def _level_brackets(fixture, p):
    """(depth, targets, lo, hi) of every _solve call of find_multipulse(n, p), n = 2, 3, 4.

    The brackets are cells of the search's seed grids, and the depth is that
    of the last return chain the solve ran.  Recorded once per fixture.
    """
    if fixture not in _LEVEL_BRACKETS:
        calls, depths = [], []
        solve, chain = horseshoe._solve, horseshoe._return_chain

        def recording(fn, targets, lo, hi, v_lo, v_hi):
            out = solve(fn, targets, lo, hi, v_lo, v_hi)
            calls.append((depths[-1], targets, lo, hi))
            return out

        def chaining(u, depth, p):
            depths.append(depth)
            return chain(u, depth, p)

        horseshoe._solve, horseshoe._return_chain = recording, chaining
        try:
            for n in (2, 3, 4):
                find_multipulse(n, p)
        finally:
            horseshoe._solve, horseshoe._return_chain = solve, chain
        _LEVEL_BRACKETS[fixture] = calls
    return _LEVEL_BRACKETS[fixture]


def _chain_width(u, depth, p):
    """Width in x_w over which the chain's rounding hides its last angle at the seeds u.

    8 ulps of each return's exit-angle terms, carried to the last angle by
    the ratio of its slope to that return's.
    """
    k = p.constants
    steps = _return_chain(u, depth, p)
    slope = steps[-1][2]
    width = np.zeros_like(u)
    # the height each return starts from
    ln_ys = [u] + [np.log(wrap_pi(-x_w)) for x_w, _, _ in steps[:-1]]
    for ln_y, (x_w, _, x_w_u) in zip(ln_ys, steps):
        terms = (abs(k.g_w) * k.delta_v + k.g_v) * np.abs(ln_y) + np.abs(x_w) + abs(k.c2) + abs(k.c3)
        width += 8.0 * np.finfo(float).eps * terms * np.abs(slope / x_w_u)
    return width


@given(
    fixture=st.sampled_from(["case1_params", "dense_params", "rational_params"]),
    seed=st.integers(0, 2**32 - 1),
    cut=st.booleans(),
)
def test_solve_chain_roots_match_bisect(fixture, seed, cut, request):
    """Newton on the chain's slope meets each target, and where a bracket holds one root it is the bisection's.

    The brackets are cells of solve_level's grids at depths 0 to 2, up to
    16 from one call; with ``cut`` each is cut at a random point, so that
    some no longer straddle their targets and come back nan.  A root meets
    its target within the stop width (BISECT_TOL, or one ulp from
    |u| >= 512 on) times the slope, plus the chain's rounding width, since
    next to a previous level's root the slope reaches 1e12.  A bracket
    holds one root where the
    chain's slope keeps one sign on 129 points of it.
    """
    p = request.getfixturevalue(fixture)
    calls = _level_brackets(fixture, p)
    rng = np.random.default_rng(seed)
    depth, targets, lo, hi = calls[rng.integers(len(calls))]
    pick = rng.permutation(len(lo))[:16]
    targets, lo, hi = targets[pick], lo[pick], hi[pick]
    if cut:
        hi = lo + rng.uniform(0.0, 1.0, len(lo)) * (hi - lo)

    def fn(u, live):
        x_w, _, slope = _return_chain(u, depth, p)[-1]
        return x_w, slope

    roots, _ = _solve_ends(fn, targets, lo, hi)
    f_lo, f_hi = fn(np.stack([lo, hi]), None)[0] - targets
    straddles = np.isfinite(f_lo) & np.isfinite(f_hi) & ((f_lo < 0.0) != (f_hi < 0.0))
    assert np.all(np.isnan(roots[~straddles]))
    found = ~np.isnan(roots)
    r = roots[found]
    assert np.all((lo[found] <= r) & (r <= hi[found]))
    value, slope = fn(r, None)
    width = _chain_width(r, depth, p)
    stop = np.maximum(1e-13, np.spacing(np.abs(r)))
    assert np.all(np.abs(value - targets[found]) <= stop * np.abs(slope) + width)
    slopes = fn(lo + np.linspace(0.0, 1.0, 129)[:, None] * (hi - lo), None)[1]
    one = straddles & ((slopes > 0.0).all(axis=0) | (slopes < 0.0).all(axis=0))
    assert np.all(found[one])
    want = _serial_bisect(lambda u: fn(u, None)[0], targets, lo, hi)
    hidden = width[one[found]] / np.abs(slope[one[found]])
    assert np.all(np.abs(roots[one] - want[one]) <= 1e-13 + 2.0 * np.spacing(np.abs(want[one])) + hidden)


@pytest.mark.parametrize("fixture", ["case1_params", "dense_params", "rational_params"])
def test_multipulse_brackets_are_wider_than_the_stop_width(fixture, request):
    # a bracket no wider than BISECT_TOL comes back from _solve as its
    # unsolved midpoint, which next to a root, where one ulp of u moves the
    # angle by 2e-4, misses its target by far more than 5e-9
    calls = _level_brackets(fixture, request.getfixturevalue(fixture))
    assert calls
    for _, _, lo, hi in calls:
        assert np.all(hi - lo > BISECT_TOL)


@given(
    fixture=st.sampled_from(["case1_params", "dense_params", "rational_params"]),
    n=st.sampled_from([3, 4]),
    x0=st.floats(-math.pi, math.pi),
)
def test_multipulse_points_replay_off_trace(fixture, n, x0, request):
    """Every point of an n-pulse search for any target x0 closes onto x0 after n crossings."""
    p = request.getfixturevalue(fixture)
    for pt in find_multipulse(n, p, x0=x0):
        assert pt.residual <= 5e-9
        replay = replay_pulse(pt.s, n, p, x0=x0)
        assert replay.out_w_crossings == n and replay.residual < 1e-8


@pytest.mark.parametrize("x0", [1.0, -1.0])
def test_multipulse_off_trace_search_stays_on_section(dense_params, x0):
    # a seed grid runs past the top of the section; the first such seed
    # ends the grid instead of raising
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


@pytest.mark.parametrize("x0", [1e12, 1e300])
def test_multipulse_reads_x0_mod_2pi(dense_params, x0):
    # x0 + 2 pi k would round away the residue of so large an x0, and no
    # crossing would be found
    points = find_multipulse(2, dense_params, x0=x0)
    assert len(points) == 4 and points == find_multipulse(2, dense_params, x0=wrap_pi(x0))
    for pt in points:
        assert replay_pulse(pt.s, 2, dense_params, x0=x0) == replay_pulse(pt.s, 2, dense_params, x0=wrap_pi(x0))


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
    # every crossing of a seed grid in one Newton solve on the chain's slope:
    # a pin, since a wrong slope still converges through the bracket's
    # midpoints, only in more passes; one halving per call made 284 chains,
    # the accumulation windows' march, edge solves and separate grids made
    # 44, and one chain on all grids of a level made 29; each grid the
    # harvest reaches is its own chain (two per level here), and a solve
    # whose bracket ends were chained again, not read from the grid's own
    # pass, made 31
    calls = []
    chain = horseshoe._return_chain

    def counted(u, depth, p):
        calls.append(depth)
        return chain(u, depth, p)

    monkeypatch.setattr(horseshoe, "_return_chain", counted)
    assert len(find_multipulse(4, case1_params)) == 4
    assert len(calls) == 26


@pytest.mark.parametrize("fixture", ["case1_params", "dense_params", "rational_params"])
def test_multipulse_chains_only_the_grids_it_harvests(fixture, request, monkeypatch):
    # the harvest of a level stops at 2 PULSE_POINTS roots, usually within its
    # first grid or two, so the later grids are never built; one chain on
    # the grids of every root of a level made 19,769, 31,242 and 32,331
    # element-returns here
    work = []
    chain = horseshoe._return_chain

    def counted(u, depth, p):
        work.append(np.size(u) * (depth + 1))
        return chain(u, depth, p)

    monkeypatch.setattr(horseshoe, "_return_chain", counted)
    assert find_multipulse(4, request.getfixturevalue(fixture))
    assert sum(work) <= 5000


def test_multipulse_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma, about 1 MB of peak RSS, and the search has
    # no use for it; where importing numpy loads numpy.ma anyway, this
    # asserts nothing
    code = """
import sys
from bykov.horseshoe import find_multipulse
from bykov.params import SaddleParams

before = "numpy.ma" in sys.modules
p = SaddleParams(alpha_v=0.2, C_v=1.0, E_v=0.8, alpha_w=2.5, C_w=4.0, E_w=2.0, a=2.0, eps=0.5)
assert len(find_multipulse(3, p)) == 4
print(before, "numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(horseshoe.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    before, after = out.stdout.split()
    assert after == before


def test_multipulse_deep_window_terminates(case1_params):
    # near s = 1e-300, |u| > 512 and a 1e-13 bracket holds no double inside
    # it; the bisection must stop there rather than spin
    points = find_multipulse(2, case1_params, s_window=(1e-300, 1e-290))
    assert points and all(0.0 < pt.s < 1e-289 and pt.residual <= 5e-9 for pt in points)


def _serial_bisect(fn, target, lo, hi, tol=1e-13):
    """One halving per call of fn over arrays of brackets: the reference the Newton roots are checked against.

    Each element stops on its own once its bracket is at most ``tol`` wide,
    or one ulp of its larger end where that is wider (|u| >= 512); an
    element is nan when its bracket does not straddle the target or when fn
    turns non-finite at one of its midpoints.
    """
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
    p=admissible_params,
    g_v=st.one_of(st.none(), st.floats(2.0, 4.0).map(lambda e: 10.0**e)),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_boundaries_matches_bisect(p, g_v, seed):
    """Newton's roots are the bisection's, with the same nan pattern.

    Each bracket is a copy of a monotone piece between reversals (or any
    interval where there are none) down to the s-underflow floor, at the
    drawn rates or with alpha_v and alpha_w scaled to g_v in 1e2..1e4.
    The roots agree within the bisection's stop width of 1e-13, plus two
    ulps of u (the bisection stops at one-ulp brackets from |u| >= 512 on)
    and the width in u over which x_w's own rounding, 8 ulps of its terms,
    hides the root where x_u is small.  An eighth of the targets lie past
    both ends and a sixteenth of the brackets start at nan.
    """
    if g_v is not None:
        scale = g_v / p.constants.g_v
        p = replace(p, alpha_v=p.alpha_v * scale, alpha_w=p.alpha_w * scale)
    k = p.constants
    # near the resonance x_w is flat and no solver resolves u to 1e-13
    assume(abs(k.gamma - 1.0) > 0.1)
    rng = np.random.default_rng(seed)
    n = 64
    t = rng.uniform(0.0, 0.45, n)
    u_top = math.log(p.eps)
    crossings = turning_crossings(p)
    if crossings:
        r0, r1 = crossings
        phi_lo, phi_hi = (r0, r1) if rng.random() < 0.5 else (r1, r0 + math.pi)
        m_lo = np.ceil((k.c2 + t - phi_lo - k.g_v * u_top) / math.pi)
        m_hi = np.floor((k.c2 + t - phi_hi - k.g_v * LN_FLOOR) / math.pi)
        m = np.floor(m_lo + rng.uniform(0.0, 1.0, n) * (m_hi - m_lo + 1.0))
        lo = (k.c2 + t - phi_hi - m * math.pi) / k.g_v
        hi = (k.c2 + t - phi_lo - m * math.pi) / k.g_v
    else:
        width = 10.0 ** rng.uniform(-3.0, 0.5, n)
        lo = rng.uniform(LN_FLOOR, u_top - width)
        hi = lo + width
    target = _exit_values(t, lo + rng.uniform(0.05, 0.95, n) * (hi - lo), p).x_w
    x_lo, x_hi = _exit_values(t, np.stack([lo, hi]), p).x_w
    target = np.where(rng.random(n) < 0.125, np.maximum(x_lo, x_hi) + 1.0, target)
    lo = np.where(rng.random(n) < 0.0625, np.nan, lo)
    got, _ = _solve_ends(_boundary_slope(t, p), target, lo, hi)
    want = _serial_bisect(lambda u: _exit_values(t, u, p).x_w, target, lo, hi)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    found = ~np.isnan(got)
    u = got[found]
    terms = (abs(k.g_w) * k.delta_v + k.g_v) * np.abs(u) + np.abs(target[found]) + abs(k.c2) + abs(k.c3)
    hidden = 8.0 * np.finfo(float).eps * terms / np.abs(exit_curve(t[found], u, p).x_u)
    assert np.all(np.abs(u - want[found]) <= 1e-13 + 2.0 * np.spacing(np.abs(u)) + hidden)


def _cubic(center, hole):
    """fn for _solve: v**3 - 2v at v = u - center and its slope; nan on 1 < v < 1.1 when ``hole``."""

    def fn(u, live):
        v = u - center
        values = v * v * v - 2.0 * v
        # the hole stands for an orbit that leaves the section
        return (np.where((v > 1.0) & (v < 1.1), np.nan, values) if hole else values), 3.0 * v * v - 2.0

    return fn


def _cubic_brackets(n, seed, center):
    """n brackets near center, some not straddling their targets and some empty, and the targets."""
    rng = np.random.default_rng(seed)
    lo = center + rng.uniform(-3.0, 3.0, n)
    hi = lo + rng.choice([0.0, 1e-14, 0.5, 2.0], n) * rng.uniform(0.0, 1.0, n)
    return rng.uniform(-2.0, 2.0, n), lo, hi


@given(
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    center=st.sampled_from([0.0, -700.0, 600.0]),
    hole=st.booleans(),
)
@example(n=1, seed=0, center=0.0, hole=True)
@example(n=400, seed=1, center=-700.0, hole=True)
def test_solve_finds_cubic_roots_in_their_brackets(n, seed, center, hole):
    """Every finite root is a root of the cubic inside its bracket; a bracket that does not straddle is nan.

    Centers at |u| >= 512 run into the one-ulp stop, where BISECT_TOL is
    below one ulp; the hole turns fn nan on part of the brackets.  Where
    fn is finite and monotone on a bracket, the root is the serial
    bisection's within its stop width.
    """
    fn = _cubic(center, hole)
    target, lo, hi = _cubic_brackets(n, seed, center)
    roots, passes = _solve_ends(fn, target, lo, hi)
    assert passes <= 60
    f_lo, f_hi = fn(np.stack([lo, hi]), None)[0] - target
    straddles = np.isfinite(f_lo) & np.isfinite(f_hi) & ((f_lo < 0.0) != (f_hi < 0.0))
    assert np.all(np.isnan(roots[~straddles]))
    found = ~np.isnan(roots)
    r, t = roots[found], target[found]
    assert np.all((lo[found] <= r) & (r <= hi[found]))
    # the cubic meets its target within the stop width times its slope,
    # plus 8 ulps of its terms
    v = r - center
    stop = np.maximum(1e-13, np.spacing(np.abs(r)))
    width = stop * (np.abs(3.0 * v * v - 2.0) + 1e-6) + 8.0 * np.finfo(float).eps * (np.abs(v) ** 3 + 2.0 * np.abs(v) + 2.0)
    assert np.all(np.abs(v * v * v - 2.0 * v - t) <= width)
    # a bracket clear of the hole and of the turning points v = -/+ sqrt(2/3) holds one root
    v_lo, v_hi = lo - center, hi - center
    clear = (v_hi < 1.0) | (v_lo > 1.1)
    one = straddles & ((v_lo > 0.82) | (v_hi < -0.82) | ((v_lo > -0.81) & (v_hi < 0.81))) & (clear | (not hole))
    assert np.all(found[one])
    want = _serial_bisect(lambda u: fn(u, None)[0], target, lo, hi)
    assert np.all(np.abs(roots[one] - want[one]) <= 2.0 * np.maximum(1e-13, np.spacing(np.abs(want[one]))))


@pytest.mark.parametrize("center", [-700.0, 600.0])
def test_solve_stops_at_one_ulp(center):
    # |u| >= 512: a 1e-13 bracket holds no double inside it, and Newton
    # must stop there rather than spin; the pass count is pinned
    target, lo, hi = _cubic_brackets(400, 1, center)
    roots, passes = _solve_ends(_cubic(center, True), target, lo, hi)
    assert (passes, np.count_nonzero(~np.isnan(roots))) == (9, 29)


@pytest.mark.parametrize("fixture", ["case1_params", "dense_params", "rational_params"])
def test_jacobian_report_reads_the_jacobian_entries(fixture, request):
    """The report at AC7's strip samples carries float rows and classifies them by their det and trace.

    AC7 samples each of five strips at tau = 0.4 at its first, middle and
    last t and a quarter, half and three quarters up; det and trace are
    formed test-side on the report's rows as np.float64 entries, and the
    class from them.
    """
    p = request.getfixturevalue(fixture)
    for strip in build_strips(0.4, 5, p).strips:
        for i in (0, len(strip.t_grid) // 2, len(strip.t_grid) - 1):
            t = float(strip.t_grid[i])
            for frac in (0.25, 0.5, 0.75):
                y = float(strip.a_of_t[i] + frac * (strip.b_of_t[i] - strip.a_of_t[i]))
                rep = jacobian_report(t, y, p)
                jac = np.array(rep.jacobian)
                assert jac.shape == (2, 2) and {type(v) for row in rep.jacobian for v in row} == {float}
                assert rep.eigen_class == _eigen_class(*_eigen_moduli(rep.trace, rep.det))
                assert rep.det.hex() == float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]).hex()
                assert rep.trace.hex() == float(jac[0, 0] + jac[1, 1]).hex()
    # at the least subnormal height -x_u / y overflows, and the report is refused
    with pytest.raises(ValueError, match="not finite at y=5e-324"):
        jacobian_report(0.1, 5e-324, p)


def _pulse_draws():
    """The 90 seeded multi-pulse draws: fixtures case1/dense/rational in turn, n in {2, 3, 4}, x0 in [-pi, pi]."""
    rng = random.Random(2030)
    for i in range(90):
        yield ("case1_params", "dense_params", "rational_params")[i % 3], rng.choice((2, 3, 4)), rng.uniform(-math.pi, math.pi)


def test_multipulse_hands_solve_its_grid_values(request, monkeypatch):
    """The bracket-end values that solve_level reads from its grid pass are a fresh chain's at those ends, bit for bit.

    A grid that descends in u hands its cells' ends over swapped; on every
    one of the 90 draws each _solve call is checked against _return_chain
    run again, on lo and on hi, at the depth of the grid's pass.
    """
    calls, grids = [], []
    solve, chain = horseshoe._solve, horseshoe._return_chain

    def recording(fn, targets, lo, hi, v_lo, v_hi):
        # the grid pass is the last chain before the solve
        calls.append((*grids[-1], lo, hi, v_lo, v_hi))
        return solve(fn, targets, lo, hi, v_lo, v_hi)

    def chaining(u, depth, p):
        grids.append((depth, u[-1] < u[0]))
        return chain(u, depth, p)

    monkeypatch.setattr(horseshoe, "_solve", recording)
    monkeypatch.setattr(horseshoe, "_return_chain", chaining)
    kinds = set()
    for fixture, n, x0 in _pulse_draws():
        p = request.getfixturevalue(fixture)
        calls.clear()
        find_multipulse(n, p, x0=x0)
        for depth, descends, lo, hi, v_lo, v_hi in calls:
            assert np.all(lo <= hi)
            for u, v in ((lo, v_lo), (hi, v_hi)):
                assert np.array_equal(chain(u, depth, p)[-1][0].view(np.int64), v.view(np.int64))
            if len(lo):
                kinds.add(bool(descends))
    # grids that ascend and grids that descend both hand over brackets
    assert kinds == {False, True}
