"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances and runtime budgets are pinned here, not configurable.
"""

import math
import time

import numpy as np

from bykov.flow import (
    ModelConfig,
    chirality_check,
    equilibria_spectrum,
    integrate,
    invariant_subspace_residuals,
    make_rhs,
    sojourn_analysis,
    sphere_residual,
)
from bykov.horseshoe import (
    build_strips,
    find_multipulse,
    jacobian_report,
    strip_family_violations,
    strip_image_report,
)
from bykov.oracles import eta_composed, replay_pulse, return_jacobian_chain, rotation_identity_residual
from bykov.params import classify_region, derive_constants
from bykov.returncurve import (
    curve_arrays,
    curve_sample,
    find_tangency,
)
from conftest import random_admissible, reversal_angle_set

TWO_PI = 2.0 * math.pi


def test_ac1_closed_form_matches_composition(capsys):
    """Closed form vs elementary-map composition, 1e4 random draws, 1e-9."""
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst_x = worst_y = 0.0
    for _ in range(10_000):
        p = random_admissible(rng)
        t = float(rng.uniform(0.0, 0.5))
        s = float(p.eps * 10 ** rng.uniform(-8, 0))
        sample = curve_sample(t, s, p)
        x_o, y_o = eta_composed(t, s, p)
        worst_x = max(worst_x, abs(sample.x_w - x_o))
        if y_o < 1e-250:
            # both routes underflow together at such depths
            assert sample.y_w < 1e-250
        else:
            worst_y = max(worst_y, abs(sample.y_w / y_o - 1.0))
    elapsed = time.monotonic() - started
    assert worst_x < 1e-9
    assert worst_y < 1e-9
    assert elapsed < 10.0
    print(
        f"\n[AC1] exit curve vs composition over 10^4 draws: PASS "
        f"(|dx|={worst_x:.2e}, |dy/y|={worst_y:.2e}, {elapsed:.1f}s)"
    )


def test_ac2_rotation_identity(dense_params):
    started = time.monotonic()
    assert rotation_identity_residual(0.31, 0, 0.0, dense_params) == 0.0
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(0, 21))
        s0 = float(dense_params.eps * 10 ** rng.uniform(-2, 0))
        t = float(rng.uniform(0.0, 0.4))
        worst = max(worst, rotation_identity_residual(s0, n, t, dense_params))
    elapsed = time.monotonic() - started
    assert worst < 1e-9
    assert elapsed < 1.0
    print(f"\n[AC2] rotation identity, 100 draws: PASS (worst {worst:.2e}, {elapsed:.2f}s)")


def test_ac3_classification_matches_observed_reversals():
    """Region verdict vs the sign structure of the exit-angle derivative."""
    started = time.monotonic()
    rng = np.random.default_rng(107)
    contradictions = []
    for i in range(1000):
        p = random_admissible(rng, a_min=1.0)
        if i % 10 == 0:
            # exercise the shear-free branch too
            p = type(p)(
                alpha_v=p.alpha_v, C_v=p.C_v, E_v=p.E_v,
                alpha_w=p.alpha_w, C_w=p.C_w, E_w=p.E_w, a=1.0, eps=p.eps,
            )
        k = derive_constants(p)
        region = classify_region(p)
        if region.tag == "BoundaryB":
            continue
        periods = 8.0
        samples = int(1500 * periods)
        u = np.linspace(0.0, periods * math.pi / k.g_v, samples)
        s = p.eps * np.exp(-u)
        dx = curve_arrays(0.0, s, p)[3]
        observed = bool(np.any(np.signbit(dx[:-1]) != np.signbit(dx[1:])))
        expected = region.tag in ("InteriorB_GammaRational", "DenseReversals_D")
        if observed != expected:
            contradictions.append((p, region.tag, observed))
    elapsed = time.monotonic() - started
    assert contradictions == []
    assert elapsed < 60.0
    print(f"\n[AC3] classification vs observed turning, 1000 sets: PASS (0 contradictions, {elapsed:.1f}s)")


def test_ac4_dense_reversal_angles(dense_params):
    started = time.monotonic()
    angles = reversal_angle_set(0.0, 10_000, dense_params)
    gaps = {}
    for n in (2500, 5000, 10_000):
        sub = np.sort(np.mod(angles.x_values[:n], TWO_PI))
        gaps[n] = float(np.max(np.diff(np.concatenate([sub, [sub[0] + TWO_PI]]))))
    elapsed = time.monotonic() - started
    assert gaps[10_000] < 0.05 * TWO_PI
    assert gaps[10_000] < gaps[5000] < gaps[2500]
    assert elapsed < 5.0
    print(
        f"\n[AC4] dense reversal angles: PASS (max gap {gaps[10_000] / TWO_PI:.2%} of the circle, "
        f"halving chain {gaps[2500]:.4f} > {gaps[5000]:.4f} > {gaps[10_000]:.4f}, {elapsed:.1f}s)"
    )


def test_ac5_tangency_amplitude(dense_params):
    amps = {n: find_tangency(0.0, 0.0, n, dense_params).amplitude for n in (100, 1000, 10_000)}
    assert amps[10_000] < 0.01
    assert amps[100] >= amps[1000] >= amps[10_000]
    print(
        f"\n[AC5] tangency bump amplitude: PASS "
        f"(1e2: {amps[100]:.2e} >= 1e3: {amps[1000]:.2e} >= 1e4: {amps[10_000]:.2e} < 0.01)"
    )


def test_ac6_strip_families(case1_params, dense_params):
    results = []
    for name, p in (("Case I", case1_params), ("Case III", dense_params)):
        family = build_strips(0.4, 5, p)
        assert len(family) >= 5, f"{name}: only {len(family)} strips"
        violations = strip_family_violations(family, p)
        assert violations == [], f"{name}: {violations[:3]}"
        report = strip_image_report(family, p)
        assert all(r["spans_vertically"] and r["within_width"] for r in report), name
        results.append(f"{name}: {len(family)} strips, images across the square")
    print(f"\n[AC6] strip construction: PASS ({'; '.join(results)})")


def test_ac7_hyperbolicity(case1_params, dense_params):
    classes = []
    for p in (case1_params, dense_params):
        family = build_strips(0.4, 5, p)
        for strip in family.strips:
            for i in (0, len(strip.t_grid) // 2, len(strip.t_grid) - 1):
                t = float(strip.t_grid[i])
                for frac in (0.25, 0.5, 0.75):
                    y = float(strip.a_of_t[i] + frac * (strip.b_of_t[i] - strip.a_of_t[i]))
                    classes.append(jacobian_report(t, y, p).eigen_class)
    saddle_share = classes.count("saddle") / len(classes)
    assert saddle_share >= 0.99

    dets = [jacobian_report(0.1, 2.0**-k, case1_params).det for k in range(4, 21)]
    assert all(b < a for a, b in zip(dets, dets[1:]))
    assert dets[-1] < 1e-8

    # the exact determinant against the chain rule through the elementary maps, at every draw
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(1000):
        x, y = float(rng.uniform(0.0, 0.4)), float(rng.uniform(1e-4, case1_params.eps))
        det = jacobian_report(x, y, case1_params).det
        chain = return_jacobian_chain(x, y, case1_params)
        det_chain = float(chain[0, 0] * chain[1, 1] - chain[0, 1] * chain[1, 0])
        rel = abs(det - det_chain) / abs(det_chain)
        assert rel <= 1e-6, (x, y, det, det_chain)
        worst = max(worst, rel)
    print(
        f"\n[AC7] hyperbolicity: PASS (saddle at {saddle_share:.1%} of {len(classes)} strip samples, "
        f"det decays monotonically, exact det within {worst:.1e} of the chain rule through the elementary maps at 1000 points)"
    )


def test_ac8_multipulse(case1_params):
    lines = []
    for n in (2, 3):
        points = find_multipulse(n, case1_params)
        assert points, f"no {n}-pulse point found"
        replay = replay_pulse(points[0].s, n, case1_params)
        assert replay.out_w_crossings == n
        assert replay.residual < 1e-8
        lines.append(f"n={n}: s={points[0].s:.3e}, replay residual {replay.residual:.1e}")
    print(f"\n[AC8] multi-pulse connections: PASS ({'; '.join(lines)})")


def test_ac9_explicit_flow():
    started = time.monotonic()
    config = ModelConfig(alpha1=1.0, alpha2=-0.1, lam=0.0)
    series = integrate(
        (-0.5, -0.139, -0.8807, 0.3013), T=500.0, rtol=1e-10, atol=1e-12, config=config
    )
    residual = sphere_residual(series)
    chirality = chirality_check(config, series)
    sojourn = sojourn_analysis(series)
    delta = equilibria_spectrum(config).delta
    elapsed = time.monotonic() - started
    assert residual < 1e-7
    assert chirality.verdict == "different"
    assert abs(sojourn.median_ratio / delta - 1.0) < 0.10
    assert elapsed < 30.0
    print(
        f"\n[AC9] explicit flow: PASS (sphere residual {residual:.1e}, chirality different, "
        f"dwell ratio {sojourn.median_ratio:.4f} vs delta {delta:.4f} "
        f"({abs(sojourn.median_ratio / delta - 1.0):.1%} off), {elapsed:.1f}s)"
    )


def test_ac10_symmetry_suite():
    rng = np.random.default_rng(113)
    field = make_rhs(ModelConfig(alpha1=1.0, alpha2=-0.1, lam=0.03))
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-1.2, 1.2, 4)
        fx = field(*x)
        fkx = np.array(field(-x[0], -x[1], x[2], x[3]))
        worst = max(worst, float(np.max(np.abs(fkx - np.array([-fx[0], -fx[1], fx[2], fx[3]])))))
    assert worst < 1e-13

    clean = ModelConfig(alpha1=1.0, alpha2=-0.1, lam=0.0)
    series = integrate((0.6, -0.3, 0.0, 0.74), T=100.0, rtol=1e-10, atol=1e-12, config=clean)
    drift = invariant_subspace_residuals(series, clean)["x3=0"]
    assert drift < 1e-12
    print(
        f"\n[AC10] symmetry suite: PASS (equivariance residual {worst:.1e}, "
        f"x3-plane drift {drift:.1e} over T=100)"
    )
