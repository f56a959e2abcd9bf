import dataclasses
import dis
import hashlib
import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bykov import flow
from bykov.cli import main
from bykov.flow import (
    _DP_A,
    _DP_B,
    _DP_E,
    H_MAX,
    MODEL_NAMES,
    SAMPLE_SPACING,
    V_POLE,
    W_POLE,
    ChiralityReport,
    Dwell,
    InsufficientDataError,
    TrajectorySeries,
    ModelConfig,
    _dwell_segments,
    _first_collapse,
    boundary_residual,
    chirality_check,
    equilibria_spectrum,
    integrate,
    invariant_subspace_residuals,
    load_model_config,
    make_rhs,
    sojourn_analysis,
    sphere_residual,
)
from bykov.oracles import numeric_jacobian
from bykov.params import ParameterError

CFG = ModelConfig(alpha1=1.0, alpha2=-0.1)
FIG_START = (-0.5, -0.139, -0.8807, 0.3013)


def synthetic_dwell_series(durations: list[tuple[str, float]]) -> TrajectorySeries:
    """Hand-built series with prescribed dwell durations.

    Boundary samples sit exactly at the detection radius 0.3, so the
    interpolated crossing times coincide with the prescribed boundaries and
    the analyzer must recover the injected durations exactly; the transit
    between dwells takes unit time.
    """
    poles = {"v": np.array(V_POLE), "w": np.array(W_POLE)}
    far = np.array((0.0, 0.0, 1.0, 0.0))
    times: list[float] = []
    states: list[np.ndarray] = []
    t = 0.0
    for node, duration in durations:
        pole = poles[node]
        rim = pole + 0.3 * (far - pole) / np.linalg.norm(far - pole)
        times.extend([t, t + 1e-9, t + duration - 1e-9, t + duration])
        states.extend([rim, pole, pole, rim])
        t += duration
        times.append(t + 0.5)
        states.append(far)
        t += 1.0
    times.append(t)
    states.append(far)
    return TrajectorySeries(
        times=np.array(times),
        states=np.array(states),
        accepted=len(times),
        rejected=0,
        max_error_estimate=0.0,
        error_budget=0.0,
    )


def test_config_validation():
    with pytest.raises(ValueError, match="alpha2 < 0 < alpha1"):
        ModelConfig(alpha1=1.0, alpha2=0.1)
    with pytest.raises(ValueError, match="alpha1 \\+ alpha2"):
        ModelConfig(alpha1=0.5, alpha2=-0.6)
    with pytest.raises(ValueError, match="lam"):
        ModelConfig(alpha1=1.0, alpha2=-0.1, lam=0.2, model="dim3")
    for name in ("alpha1", "alpha2", "lam"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ModelConfig(**{"alpha1": 1.0, "alpha2": -0.1, name: value})


def test_loader_exact_keys(tmp_path):
    import json

    good = {"alpha1": 1.0, "alpha2": -0.1, "lambda": 0.0, "model": "example4d"}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(good))
    assert load_model_config(json.loads(path.read_text())) == CFG
    with pytest.raises(ParameterError, match="extra"):
        load_model_config({**good, "extra": 1})
    with pytest.raises(ParameterError, match="model"):
        load_model_config({k: v for k, v in good.items() if k != "model"})


def test_equilibria_are_zeros():
    for pole in ((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, -1.0)):
        assert float(np.max(np.abs(make_rhs(CFG)(*pole)))) < 1e-14
    cfg3 = ModelConfig(alpha1=1.0, alpha2=-0.1, model="dim3")
    for pole in ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)):
        assert float(np.max(np.abs(make_rhs(cfg3)(*pole)))) < 1e-14


def test_kappa1_equivariance_random():
    rng = np.random.default_rng(7)
    field = make_rhs(ModelConfig(alpha1=1.0, alpha2=-0.1, lam=0.07))
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-1.2, 1.2, 4)
        fx = field(*x)
        kfx = np.array([-fx[0], -fx[1], fx[2], fx[3]])
        fkx = np.array(field(-x[0], -x[1], x[2], x[3]))
        worst = max(worst, float(np.max(np.abs(fkx - kfx))))
    assert worst < 1e-13


def test_so2_equivariance_at_lambda_zero():
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0, 4)
        theta = float(rng.uniform(0, 2 * math.pi))
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([x[0] * c - x[1] * s, x[0] * s + x[1] * c, x[2], x[3]])
        fx = make_rhs(CFG)(*x)
        frot = np.array(make_rhs(CFG)(*rot))
        rot_fx = np.array([fx[0] * c - fx[1] * s, fx[0] * s + fx[1] * c, fx[2], fx[3]])
        assert float(np.max(np.abs(frot - rot_fx))) < 1e-13


def test_spectrum_closed_form_and_mapping():
    spec = equilibria_spectrum(CFG)
    assert spec.delta == pytest.approx((1.1 / 0.9) ** 2, rel=1e-14)
    assert complex(-1.1, 1.0) in spec.eigenvalues_v
    assert complex(0.9) in spec.eigenvalues_v
    assert complex(0.9, 1.0) in spec.eigenvalues_w
    assert complex(-1.1) in spec.eigenvalues_w
    rates = spec.rates
    assert (rates["C_v"], rates["E_v"]) == (1.1, 0.9)
    assert (rates["C_w"], rates["E_w"]) == (1.1, 0.9)
    assert all(rates[k] > 0 for k in ("C_v", "E_v", "C_w", "E_w"))


def test_spectrum_divergence_near_resonance():
    spec = equilibria_spectrum(ModelConfig(alpha1=1.0, alpha2=-0.999))
    assert spec.delta > 1e5


def test_delta_exceeds_one_for_admissible():
    rng = np.random.default_rng(21)
    for _ in range(200):
        a1 = float(rng.uniform(0.2, 3.0))
        a2 = float(-rng.uniform(0.01, 0.99) * a1)
        assert equilibria_spectrum(ModelConfig(alpha1=a1, alpha2=a2)).delta > 1.0


def test_spectrum_matches_numeric_jacobian():
    for cfg in (CFG, ModelConfig(alpha1=1.4, alpha2=-0.35)):
        spec = equilibria_spectrum(cfg)
        for pole, expected in (
            ((0, 0, 0, 1), spec.eigenvalues_v),
            ((0, 0, 0, -1), spec.eigenvalues_w),
        ):
            got = np.sort_complex(np.linalg.eigvals(numeric_jacobian(cfg, pole)))
            want = np.sort_complex(np.array(expected))
            assert float(np.max(np.abs(got - want))) < 1e-6


def test_integrate_constant_at_equilibrium():
    series = integrate((0.0, 0.0, 0.0, 1.0), T=5.0, rtol=1e-10, atol=1e-12, config=CFG)
    assert float(np.max(np.abs(series.states - np.array([0, 0, 0, 1.0])))) == 0.0


def test_integrate_rejects_bad_input():
    with pytest.raises(ParameterError, match="^x0 must be 4 finite"):
        integrate((0.1, 0.2), T=1.0, config=CFG)
    with pytest.raises(ParameterError, match="^x0 must be 4 finite"):
        integrate((0.1, 0.2, 0.3, math.nan), T=1.0, config=CFG)
    with pytest.raises(ValueError):
        integrate(FIG_START, T=-1.0, config=CFG)
    for horizon in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="^T must be finite"):
            integrate(FIG_START, T=horizon, config=CFG)


def test_integrate_dense_output_and_determinism():
    s1 = integrate(FIG_START, T=40.0, rtol=1e-9, atol=1e-11, config=CFG)
    s2 = integrate(FIG_START, T=40.0, rtol=1e-9, atol=1e-11, config=CFG)
    assert np.array_equal(s1.states, s2.states) and np.array_equal(s1.times, s2.times)
    assert np.all(np.diff(s1.times) > 0.0)
    assert np.all(np.isfinite(s1.states))
    spacing = np.linalg.norm(np.diff(s1.states, axis=0), axis=1)
    assert float(np.max(spacing)) < 0.05


def test_integrate_convergence_self_consistency():
    base = integrate(FIG_START, T=10.0, rtol=1e-9, atol=1e-11, config=CFG)
    finer = integrate(FIG_START, T=10.0, rtol=5e-10, atol=5e-12, config=CFG)
    shift = float(np.linalg.norm(base.states[-1] - finer.states[-1]))
    assert shift < 10.0 * max(base.error_budget, 1e-15)


def test_sphere_residual_on_sphere():
    x0 = np.array(FIG_START)
    x0 /= np.linalg.norm(x0)
    series = integrate(tuple(x0), T=100.0, rtol=1e-10, atol=1e-12, config=CFG)
    assert sphere_residual(series) < 1e-7


def test_sphere_residual_attracts_from_radius_two():
    series = integrate((2.0, 0.0, 0.3, 0.5), T=60.0, rtol=1e-10, atol=1e-12, config=CFG)
    assert sphere_residual(series) < 1e-6


def test_sphere_residual_rejects_origin():
    series = integrate((0.0, 0.0, 0.0, 0.0), T=1.0, rtol=1e-8, atol=1e-10, config=CFG)
    with pytest.raises(ValueError, match="zero initial state"):
        sphere_residual(series)


def test_chirality_different_and_identity():
    series = integrate(FIG_START, T=120.0, rtol=1e-9, atol=1e-11, config=CFG)
    rep = chirality_check(CFG, series)
    assert rep.verdict == "different"
    assert rep.max_identity_residual < 1e-12
    assert rep.theta_dot_near_v[0] > 0.0 > rep.theta_dot_near_w[1]


def test_chirality_identity_random_states():
    rng = np.random.default_rng(33)
    f = make_rhs(CFG)
    worst = 0.0
    for _ in range(1000):
        x = tuple(rng.uniform(-1.0, 1.0, 4))
        d = f(*x)
        worst = max(worst, abs(x[0] * d[1] - x[1] * d[0] - x[3] * (x[0] ** 2 + x[1] ** 2)))
    assert worst < 1e-12


def test_chirality_same_for_control_lift():
    cfg = ModelConfig(alpha1=1.0, alpha2=-0.1, model="example4d_same_lift")
    series = integrate(FIG_START, T=200.0, rtol=1e-9, atol=1e-11, config=cfg)
    rep = chirality_check(cfg, series)
    assert rep.verdict == "same"
    assert rep.max_identity_residual < 1e-12


def _chirality_loop(config, series, radius=0.2, plane_floor=1e-20):
    """Per-sample reference for ``chirality_check``: one Python float pass over the series."""
    f = make_rhs(config)
    max_resid = 0.0
    signs = {"v": [], "w": []}
    ranges = {"v": [math.inf, -math.inf], "w": [math.inf, -math.inf]}
    for state in series.states:
        x1, x2, x3, x4 = (float(v) for v in state)
        d = f(x1, x2, x3, x4)
        cross = x1 * d[1] - x2 * d[0]
        plane = x1 * x1 + x2 * x2
        rot = 1.0 if config.model == "example4d_same_lift" else x4
        max_resid = max(max_resid, abs(cross - rot * plane))
        if plane <= plane_floor:
            continue
        theta_dot = cross / plane
        for node, pole in (("v", V_POLE), ("w", W_POLE)):
            if math.sqrt(sum((x - c) ** 2 for x, c in zip((x1, x2, x3, x4), pole))) < radius:
                signs[node].append(math.copysign(1.0, theta_dot))
                ranges[node][0] = min(ranges[node][0], theta_dot)
                ranges[node][1] = max(ranges[node][1], theta_dot)
    pos = {n: all(s > 0 for s in signs[n]) for n in signs}
    neg = {n: all(s < 0 for s in signs[n]) for n in signs}
    if not (signs["v"] and signs["w"]):
        verdict, msg = "inconclusive", "no trajectory samples near one of the equilibria; integrate longer"
    elif (pos["v"] and neg["w"]) or (neg["v"] and pos["w"]):
        verdict, msg = "different", "angular velocity changes sign between the nodes"
    elif (pos["v"] and pos["w"]) or (neg["v"] and neg["w"]):
        verdict, msg = "same", "angular velocity keeps its sign at both nodes"
    else:
        verdict, msg = "inconclusive", "mixed angular-velocity signs near a node"
    return ChiralityReport(
        verdict=verdict,
        message=msg,
        theta_dot_near_v=tuple(ranges["v"]),
        theta_dot_near_w=tuple(ranges["w"]),
        samples_near_v=len(signs["v"]),
        samples_near_w=len(signs["w"]),
        max_identity_residual=max_resid,
    )


@pytest.mark.parametrize(
    "model, T, rtol, atol",
    [("example4d", 500.0, 1e-10, 1e-12), ("example4d_same_lift", 200.0, 1e-9, 1e-11)],
)
def test_chirality_matches_per_sample_loop(model, T, rtol, atol):
    cfg = ModelConfig(alpha1=1.0, alpha2=-0.1, model=model)
    series = integrate(FIG_START, T=T, rtol=rtol, atol=atol, config=cfg)
    # repr tells -0.0 from 0.0, which == does not
    assert repr(chirality_check(cfg, series)) == repr(_chirality_loop(cfg, series))


def test_chirality_signed_zero_and_plane_floor(monkeypatch):
    # x1^2 rounds up to the smallest subnormal, x1 * (x4 x1) rounds to a
    # zero carrying the sign of x4: theta_dot is +0.0 near v and -0.0 near w
    tiny = 1.58e-162
    states = np.array([
        (0.1, 0.0, 0.0, 0.99),
        (tiny, 0.0, 0.0, 0.98),
        (1e-11, 0.0, 0.0, 1.0),
        (0.0, 0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0, 0.0),
        (tiny, 0.0, 0.0, -0.98),
        (0.1, 0.0, 0.0, -0.99),
        (0.0, 0.0, 0.0, -1.0),
        # a sum of squares puts these a last bit on the other side of
        # radius 0.2 than math.dist does: in, then out
        (0.12240425968235416, 0.1453714152183817, -0.0611456011136618, 1.012065003666333),
        (0.0051413094050552065, -0.17731770497542912, 0.0923315022149281, 0.9973747117143262),
    ])
    series = TrajectorySeries(
        times=np.arange(float(len(states))), states=states, accepted=len(states) - 1,
        rejected=0, max_error_estimate=0.0, error_budget=0.0,
    )
    monkeypatch.setattr(flow, "PLANE_FLOOR", 0.0)
    rep = chirality_check(CFG, series)
    assert repr(rep) == repr(_chirality_loop(CFG, series, plane_floor=0.0))
    assert rep.verdict == "different"
    assert (rep.samples_near_v, rep.samples_near_w) == (4, 2)
    assert rep.theta_dot_near_v[0] == 0.0 and math.copysign(1.0, rep.theta_dot_near_v[0]) == 1.0
    assert rep.theta_dot_near_w[1] == 0.0 and math.copysign(1.0, rep.theta_dot_near_w[1]) == -1.0
    # at the default floor the subnormal planes and the 1e-22 plane are not measured
    monkeypatch.undo()
    rep = chirality_check(CFG, series)
    assert repr(rep) == repr(_chirality_loop(CFG, series))
    assert (rep.samples_near_v, rep.samples_near_w) == (2, 1)
    assert rep.theta_dot_near_v[0] > 0.0 > rep.theta_dot_near_w[1]


def test_chirality_inconclusive_without_samples():
    series = integrate(FIG_START, T=0.5, rtol=1e-8, atol=1e-10, config=CFG)
    rep = chirality_check(CFG, series)
    assert rep.verdict == "inconclusive"
    assert "integrate longer" in rep.message


def test_sojourn_synthetic_recovery():
    durations = [("v" if i % 2 == 0 else "w", 2.0 * 1.4938**i) for i in range(9)]
    rep = sojourn_analysis(synthetic_dwell_series(durations))
    assert rep.median_ratio == pytest.approx(1.4938**2, abs=1e-6)


def test_boundary_residual_replays_interior_boundaries():
    series = synthetic_dwell_series([("v" if i % 2 == 0 else "w", 1.5**i) for i in range(10)])
    rep = sojourn_analysis(series)
    assert boundary_residual(series, rep) < 1e-12
    # a run that starts inside the neighbourhood of v: its entry at t = 0 is
    # no boundary and is not replayed
    near_v = integrate((0.05, 0.05, 0.05, 0.99), T=300.0, rtol=1e-10, atol=1e-12, config=CFG)
    rep = sojourn_analysis(near_v)
    assert rep.dwells[0].t_enter == 0.0
    assert 0.0 < boundary_residual(near_v, rep) < SAMPLE_SPACING**2 / 0.3


def test_chirality_inconclusive_on_mixed_signs(monkeypatch):
    # on the models' fields theta' = rot, one sign per node; a field with
    # theta' = x3 gives both signs near v
    monkeypatch.setattr(flow, "make_rhs", lambda config: lambda x1, x2, x3, x4: (-x3 * x2, x3 * x1, 0 * x3, 0 * x4))
    states = np.array([(0.05, 0.0, 0.05, 0.99), (0.05, 0.0, -0.05, 0.99), (0.05, 0.0, 0.05, -0.99)])
    series = TrajectorySeries(
        times=np.arange(3.0), states=states, accepted=2, rejected=0, max_error_estimate=0.0, error_budget=0.0
    )
    rep = chirality_check(CFG, series)
    assert (rep.verdict, rep.message) == ("inconclusive", "mixed angular-velocity signs near a node")
    assert (rep.samples_near_v, rep.samples_near_w) == (2, 1)


def test_sojourn_insufficient_data():
    series = integrate((0.0, 0.0, 0.0, 1.0), T=5.0, rtol=1e-8, atol=1e-10, config=CFG)
    with pytest.raises(InsufficientDataError):
        sojourn_analysis(series)
    # four dwells, v w v w: after the two transient ones, one of each node
    series = synthetic_dwell_series([("v", 1.0), ("w", 1.5), ("v", 2.0), ("w", 2.5)])
    with pytest.raises(InsufficientDataError, match="^not enough same-node dwell pairs after transient discard$"):
        sojourn_analysis(series)


@pytest.mark.parametrize("radius", [0.0, -0.3, 1.2, 1.5, math.nan, math.inf])
def test_sojourn_radius_outside_unit_interval_is_refused(radius):
    # the poles are 2 apart, so only radii in (0, 1] keep their neighbourhoods disjoint
    series = synthetic_dwell_series([("v" if i % 2 == 0 else "w", 1.5**i) for i in range(10)])
    with pytest.raises(ParameterError, match=r"^neighborhood_radius must lie in \(0, 1\]"):
        sojourn_analysis(series, radius)
    assert sojourn_analysis(series, 1.0).dwells


def test_invariant_subspace_exact_and_broken():
    start = (0.6, -0.3, 0.0, 0.74)
    series = integrate(start, T=100.0, rtol=1e-10, atol=1e-12, config=CFG)
    assert invariant_subspace_residuals(series, CFG)["x3=0"] < 1e-12
    broken_cfg = ModelConfig(alpha1=1.0, alpha2=-0.1, lam=0.05)
    broken = integrate(start, T=100.0, rtol=1e-8, atol=1e-10, config=broken_cfg)
    assert invariant_subspace_residuals(broken, broken_cfg)["x3=0"] > 1e-3


def test_switching_visits_both_cycles():
    """Symmetry breaking lets the trajectory change the sign of x3 (cycle switching)."""
    cfg = ModelConfig(alpha1=1.0, alpha2=-0.1, lam=0.05)
    series = integrate(FIG_START, T=250.0, rtol=1e-9, atol=1e-11, config=cfg)
    x3 = series.states[:, 2]
    assert float(x3.min()) < -0.5
    assert float(x3.max()) > 0.5


def test_invariant_planes_3d():
    cfg3 = ModelConfig(alpha1=1.0, alpha2=-0.1, model="dim3")
    z0 = math.sqrt(1.0 - 0.4**2)
    series = integrate((0.0, 0.4, z0), T=60.0, rtol=1e-10, atol=1e-12, config=cfg3)
    assert invariant_subspace_residuals(series, cfg3)["x=0"] < 1e-12
    series = integrate((0.4, 0.0, z0), T=60.0, rtol=1e-10, atol=1e-12, config=cfg3)
    assert invariant_subspace_residuals(series, cfg3)["y=0"] < 1e-12
    # a start in none of the planes has nothing to replay
    series = integrate((0.3, 0.4, z0), T=1.0, rtol=1e-10, atol=1e-12, config=cfg3)
    assert invariant_subspace_residuals(series, cfg3) == {}
    series = integrate(FIG_START, T=1.0, rtol=1e-10, atol=1e-12, config=CFG)
    assert invariant_subspace_residuals(series, CFG) == {}


def test_4d_diagnostics_refuse_a_3d_series():
    cfg3 = ModelConfig(alpha1=1.0, alpha2=-0.1, model="dim3")
    series = integrate((0.1, 0.4, 0.9), T=1.0, rtol=1e-10, atol=1e-12, config=cfg3)
    with pytest.raises(ValueError, match="^sphere residual is defined for the 4D model$"):
        sphere_residual(series)
    with pytest.raises(ValueError, match="^chirality is diagnosed on the 4D models$"):
        chirality_check(cfg3, series)


def test_step_underflow_marks_partial_series():
    # a well-scaled start at a tolerance no step can meet: every squared
    # error term overflows to inf, a rejection, until h reaches the floor
    series = integrate(FIG_START, T=1.0, rtol=0.0, atol=1e-300, config=CFG)
    assert series.failure is not None
    assert series.failure.startswith("step-size underflow")
    assert series.times[-1] < 1.0


def test_collapse_flagged_without_failure():
    # a subnormal x1 at the north pole: the rotation hands it to x2 while the
    # contraction rounds it away, so x1 reaches exactly 0.0 within T=10
    series = integrate((1e-322, 0.0, 0.0, 1.0), T=10.0, rtol=1e-8, atol=1e-10, config=CFG)
    assert series.failure is None
    j, t = series.collapse
    assert j == 0 and 0.0 < t < 10.0
    i = int(np.flatnonzero(series.times == t)[0])
    assert series.states[i, 0] == 0.0 and np.all(series.states[:i, 0] != 0.0)


def test_overflowing_start_ends_on_underflow():
    # r^2 overflows, the stages turn nan, and every nan error estimate must
    # shrink h until the step-size floor ends the run
    series = integrate((1e155, 1.0, 0.0, 0.0), T=1.0, config=CFG)
    assert series.failure is not None and series.failure.startswith("step-size underflow")
    assert series.accepted == 0 and len(series.times) == 1


def test_collapse_none_on_a_regular_run():
    series = integrate(FIG_START, T=40.0, rtol=1e-9, atol=1e-11, config=CFG)
    assert series.collapse is None
    # coordinates that start at 0.0 are not collapses
    series = integrate((0.6, -0.3, 0.0, 0.74), T=20.0, rtol=1e-8, atol=1e-10, config=CFG)
    assert series.collapse is None and np.all(series.states[:, 2] == 0.0)


def test_spectrum_3d_matches_numeric_jacobian():
    cfg3 = ModelConfig(alpha1=1.0, alpha2=-0.1, model="dim3")
    spec = equilibria_spectrum(cfg3)
    for pole, expected in (((0, 0, 1), spec.eigenvalues_v), ((0, 0, -1), spec.eigenvalues_w)):
        got = np.sort_complex(np.linalg.eigvals(numeric_jacobian(cfg3, pole)))
        want = np.sort_complex(np.array(expected))
        assert float(np.max(np.abs(got - want))) < 1e-6


def test_sojourn_3d_dwells_at_both_poles():
    # the 3D model's nodes sit at (0, 0, +-1)
    cfg3 = ModelConfig(alpha1=1.0, alpha2=-0.1, model="dim3")
    series = integrate((0.1, 0.4, 0.9), T=300.0, rtol=1e-9, atol=1e-11, config=cfg3)
    rep = sojourn_analysis(series)
    assert {d.node for d in rep.dwells} == {"v", "w"}
    assert rep.median_ratio > 1.0


def test_sphere_invariance_3d_rhs():
    cfg3 = ModelConfig(alpha1=1.0, alpha2=-0.1, model="dim3")
    rng = np.random.default_rng(51)
    for _ in range(200):
        x = rng.uniform(-1, 1, 3)
        x /= np.linalg.norm(x)
        assert abs(float(np.dot(x, make_rhs(cfg3)(*x)))) < 1e-14


# sha256 of times.tobytes() + states.tobytes(), accepted, rejected, and the
# step-control totals as float.hex(): any change in operation order in the
# integrator shows here, even one that moves a trajectory by a single ulp.
DIM3_START = (0.3, 0.4, math.sqrt(1.0 - 0.25))
LAM_CFG = ModelConfig(alpha1=1.0, alpha2=-0.1, lam=0.05)
PINNED_RUNS = {
    "example4d": (
        dict(x0=FIG_START, T=40.0, rtol=1e-9, atol=1e-11, config=CFG),
        ("7636dc3bc325ab31e876e935f01056f35eccf09f24227819960686a7d256bebc", 897, 10),
        ("0x1.1230d6e4f7072p-30", "0x1.18ce7814ef090p-21"),
    ),
    "example4d_same_lift": (
        dict(
            x0=FIG_START, T=40.0, rtol=1e-9, atol=1e-11,
            config=ModelConfig(alpha1=1.0, alpha2=-0.1, model="example4d_same_lift"),
        ),
        ("becdd02df2d2c93d79f38dd0378a08057a7fe6ed66439ee64973f3e1f5cfb726", 1017, 14),
        ("0x1.125a4de8f0898p-30", "0x1.3b7decf730a0cp-21"),
    ),
    "dim3": (
        dict(
            x0=DIM3_START, T=40.0, rtol=1e-9, atol=1e-11,
            config=ModelConfig(alpha1=1.0, alpha2=-0.1, model="dim3"),
        ),
        ("548072a5ad9484a277f0bba2288eb3b3f22208f5e8f8d12921ce2a0e27b8a384", 754, 4),
        ("0x1.0944a903c2dc9p-30", "0x1.be21dc7b3cf8cp-22"),
    ),
    # the symmetry-breaking terms
    "lam": (
        dict(x0=FIG_START, T=40.0, rtol=1e-9, atol=1e-11, config=LAM_CFG),
        ("05aa0473b8a52be762354504f895bac6ef94d7342cd5f693477e5c893c66897c", 897, 8),
        ("0x1.12d692d6c10f5p-30", "0x1.191e1eed71792p-21"),
    ),
    # a start on the x3 = 0 plane whose zero is -0.0, with lam != 0: the
    # step must keep every signed zero the symmetry-breaking terms make
    "lam_signed_zero": (
        dict(x0=(0.6, -0.3, -0.0, 0.74), T=40.0, rtol=1e-9, atol=1e-11, config=LAM_CFG),
        ("71b4a5c9c3b06856bceb91c0fcd0bf46d0b405d1d40184e9e467bd2b7bc47d95", 772, 4),
        ("0x1.03f0b5dab6852p-30", "0x1.d9d0759aa941ap-22"),
    ),
    # lam = 0 from a -0.0 start: each lam term is a signed zero, which the
    # step adds only to a stage output that is itself a zero
    "lam0_signed_zero": (
        dict(x0=(0.6, -0.3, -0.0, 0.74), T=40.0, rtol=1e-9, atol=1e-11, config=CFG),
        ("f0141841fa3292433ba6f10bd010645d6c2e26365bce7e5eebfbac14422cb3f5", 221, 0),
        ("0x1.cbf1ffe322987p-31", "0x1.d0157f7c67656p-24"),
    ),
    # p3 - p1 - p2 is exactly 0 here, so d4 starts as a zero and its lam term
    # sets its sign
    "lam0_same_lift_zero_d4": (
        dict(
            x0=(0.6, -0.0, 0.6, -0.0), T=40.0, rtol=1e-9, atol=1e-11,
            config=ModelConfig(alpha1=1.0, alpha2=-0.1, model="example4d_same_lift"),
        ),
        ("2425aa2463dc42345a4c182f90a5c056ead473d06e3ca805d11180464ba88530", 1921, 0),
        ("0x1.4d6f88ccba107p-31", "0x1.2fca04e45244ep-20"),
    ),
    # the subnormal x1 falls to exactly 0.0 at t = 1.3906
    "collapse": (
        dict(x0=(1e-322, 0.0, -0.0, 1.0), T=10.0, rtol=1e-8, atol=1e-10, config=LAM_CFG),
        ("8c347718d59de53ba6fb5e030bad7f7d803fa43190284738c8172f03d70b0c93", 16, 0),
        ("0x0.0p+0", "0x0.0p+0"),
    ),
    "underflow": (
        dict(x0=(1e155, 1.0, 0.0, 0.0), T=1.0, rtol=1e-10, atol=1e-12, config=CFG),
        ("15c3b77e8047619ca54565708254709128f8252414937a88a92cd733bc88e145", 0, 13),
        ("0x0.0p+0", "0x0.0p+0"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_integrate_bit_for_bit(name):
    kwargs, (digest, accepted, rejected), (max_err, budget) = PINNED_RUNS[name]
    series = integrate(**kwargs)
    got = hashlib.sha256(series.times.tobytes() + series.states.tobytes()).hexdigest()
    assert (got, series.accepted, series.rejected) == (digest, accepted, rejected)
    assert (series.max_error_estimate.hex(), series.error_budget.hex()) == (max_err, budget)
    assert (series.failure is not None) == (name == "underflow")
    assert (series.collapse is not None) == (name == "collapse")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="no specialising interpreter before CPython 3.11")
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_run_specialises_during_its_first_call(model):
    # CPython 3.11 specialises a function after 8 calls or 8 JUMP_BACKWARDs;
    # the DP5 loop must end on one, so that one run uses the float-specialised ops
    flow._compiled.cache_clear()
    config = ModelConfig(alpha1=1.0, alpha2=-0.1, model=model)
    integrate((0.1, 0.4, 0.9) if model == "dim3" else FIG_START, T=1.0, config=config)
    _, run = flow._compiled(model)
    assert "BINARY_OP_MULTIPLY_FLOAT" in {op.opname for op in dis.get_instructions(run, adaptive=True)}


@pytest.mark.parametrize("model", ["example4d", "example4d_same_lift"])
def test_step_tests_lam_alone(model):
    # each stage's lam terms sit under one ``if lam:``, and no line tests a
    # stage output (``not k`` would raise on a numpy column)
    guarded = False
    terms = []
    for line in flow._step_lines(flow._FIELDS[model], 4):
        if line == "if lam:":
            guarded = True
        elif line.startswith("    "):
            assert guarded and "lam * " in line
            terms.append(line)
        else:
            guarded = False
            assert "lam" not in line
    assert len(terms) == 2 * 6


def _reference_field(config):
    """The vector field as written out formula by formula, independent of ``flow._FIELDS``."""
    a1, a2, lam = config.alpha1, config.alpha2, config.lam
    if config.model == "dim3":

        def f3(x, y, z):
            r2 = x * x + y * y + z * z
            q = 1.0 - r2
            return (
                x * q - a1 * x * z + a2 * x * z * z,
                y * q + a1 * y * z + a2 * y * z * z,
                z * q + a1 * (x * x - y * y) - a2 * z * (x * x + y * y),
            )

        return f3
    same = config.model == "example4d_same_lift"

    def f4(x1, x2, x3, x4):
        r2 = x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4
        q = 1.0 - r2
        rot = 1.0 if same else x4
        return (
            x1 * q - rot * x2 - a1 * x1 * x4 + a2 * x1 * x4 * x4,
            x2 * q + rot * x1 - a1 * x2 * x4 + a2 * x2 * x4 * x4,
            x3 * q + a1 * x3 * x4 + a2 * x3 * x4 * x4 + lam * x1 * x2 * x4,
            x4 * q
            - a1 * (x3 * x3 - x1 * x1 - x2 * x2)
            - a2 * x4 * (x1 * x1 + x2 * x2 + x3 * x3)
            - lam * x1 * x2 * x3,
        )

    return f4


@pytest.mark.parametrize(
    "model, lam",
    [("dim3", 0.0), ("example4d", 0.0), ("example4d", 0.05), ("example4d_same_lift", 0.0), ("example4d_same_lift", 0.05)],
)
def test_make_rhs_columns_match_reference_field(model, lam):
    cfg = ModelConfig(alpha1=1.0, alpha2=-0.1, lam=lam, model=model)
    # every sign of zero, subnormals, values whose squares overflow, and random states
    special = (0.0, -0.0, 5e-324, -1e-300, 0.7, -1.0, 1e155)
    grid = np.array(list(itertools.product(special, repeat=cfg.dim)))
    states = np.vstack([grid, np.random.default_rng(61).uniform(-1.5, 1.5, (500, cfg.dim))])
    with np.errstate(over="ignore", invalid="ignore"):
        columns = make_rhs(cfg)(*states.T)
    f = _reference_field(cfg)
    for row, got in zip(states.tolist(), zip(*(c.tolist() for c in columns))):
        assert [v.hex() for v in got] == [v.hex() for v in f(*row)]


# The tableau as the list-comprehension reference below unpacks it.
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
    (_A71, _A72, _A73, _A74, _A75, _A76),
) = _DP_A[1:]
_B1, _B2, _B3, _B4, _B5, _B6, _B7 = _DP_B
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _DP_E


def _integrate_lists(x0, T, rtol, atol, *, config):
    """Reference DP5 step: per-stage lists over ``zip`` of the state, ``dim`` entries each.

    It is the one place that keeps the zero weights b2, b7 and e2, sums b
    and e from 0.0, forms the new state from its own b sum and adds the lam
    terms whatever ``lam`` is; the generated step drops all of these
    (``flow._step_lines``), and agreeing with it bit for bit shows that none
    of them changes a run.

    The speed cap adds the squares left to right from 0.0, as the builtin
    ``sum`` did before Python 3.12 compensated float sums.
    """
    f = _reference_field(config)
    dim = config.dim
    t = 0.0
    y = tuple(float(v) for v in x0)
    k1 = f(*y)
    h = 1e-4
    times = [0.0]
    states = [y]
    accepted = rejected = 0
    max_err = 0.0
    err_budget = 0.0
    failure = None
    max_sample_spacing = SAMPLE_SPACING
    margin = 0.9 * max_sample_spacing
    while T - t > 1e-12 * max(1.0, T):
        h = min(h, H_MAX)
        square_sum = 0.0
        for v in k1:
            square_sum += v * v
        speed = math.sqrt(square_sum)
        if speed > 0:
            h = min(h, margin / speed)
        if h < 1e-13 * max(1.0, t, T * 1e-3):
            failure = f"step-size underflow at t={t}"
            break
        h = min(h, T - t)
        k2 = f(*[v + h * (0.0 + _A21 * c1) for v, c1 in zip(y, k1)])
        k3 = f(*[v + h * (0.0 + _A31 * c1 + _A32 * c2) for v, c1, c2 in zip(y, k1, k2)])
        k4 = f(*[
            v + h * (0.0 + _A41 * c1 + _A42 * c2 + _A43 * c3)
            for v, c1, c2, c3 in zip(y, k1, k2, k3)
        ])
        k5 = f(*[
            v + h * (0.0 + _A51 * c1 + _A52 * c2 + _A53 * c3 + _A54 * c4)
            for v, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)
        ])
        k6 = f(*[
            v + h * (0.0 + _A61 * c1 + _A62 * c2 + _A63 * c3 + _A64 * c4 + _A65 * c5)
            for v, c1, c2, c3, c4, c5 in zip(y, k1, k2, k3, k4, k5)
        ])
        k7 = f(*[
            v + h * (0.0 + _A71 * c1 + _A73 * c3 + _A74 * c4 + _A75 * c5 + _A76 * c6)
            for v, c1, c3, c4, c5, c6 in zip(y, k1, k3, k4, k5, k6)
        ])
        ks = list(zip(k1, k2, k3, k4, k5, k6, k7))
        y_new = [
            v + h * (
                0.0 + _B1 * c1 + _B2 * c2 + _B3 * c3 + _B4 * c4 + _B5 * c5 + _B6 * c6 + _B7 * c7
            )
            for v, (c1, c2, c3, c4, c5, c6, c7) in zip(y, ks)
        ]
        err = 0.0
        for v, w, (c1, c2, c3, c4, c5, c6, c7) in zip(y, y_new, ks):
            e = h * (
                0.0 + _E1 * c1 + _E2 * c2 + _E3 * c3 + _E4 * c4 + _E5 * c5 + _E6 * c6 + _E7 * c7
            )
            # squared by a product: libm's pow, which ** calls, is not
            # correctly rounded, and x ** 2 misses x * x by an ulp for about
            # one x in a thousand
            scaled = e / (atol + rtol * max(abs(v), abs(w)))
            err += scaled * scaled
        err = math.sqrt(err / dim)
        dy = math.dist(y, y_new)
        if err <= 1.0 and dy <= max_sample_spacing:
            t += h
            y = y_new
            k1 = k7
            times.append(t)
            states.append(y)
            accepted += 1
            max_err = max(max_err, err * rtol)
            err_budget += err * rtol
        else:
            rejected += 1
        if err > 0.0:
            factor = 0.9 * err ** -0.2
        else:
            factor = 5.0 if err == 0.0 else 0.2
        if dy > max_sample_spacing:
            factor = min(factor, 0.7 * max_sample_spacing / dy)
        h *= min(5.0, max(0.2, factor))
    times = np.array(times)
    states = np.array(states)
    return TrajectorySeries(
        times=times,
        states=states,
        accepted=accepted,
        rejected=rejected,
        max_error_estimate=max_err,
        error_budget=err_budget,
        failure=failure,
        collapse=_first_collapse(times, states),
    )


def _series_bits(series):
    collapse = series.collapse and (series.collapse[0], series.collapse[1].hex())
    return (
        series.times.tobytes(),
        series.states.shape,
        series.states.tobytes(),
        series.accepted,
        series.rejected,
        series.max_error_estimate.hex(),
        series.error_budget.hex(),
        series.failure,
        collapse,
    )


@st.composite
def flow_runs(draw):
    """Keyword arguments of one ``integrate`` call: model, start, tolerances, horizon."""
    model = draw(st.sampled_from(MODEL_NAMES))
    dim = 3 if model == "dim3" else 4
    lam = 0.0 if model == "dim3" else draw(st.sampled_from((0.0, -0.0, 0.05)))
    direction = draw(
        st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).filter(lambda v: math.hypot(*v) > 0.1)
    )
    radius = draw(st.one_of(st.just(1.0), st.floats(0.5, 1.5)))
    norm = math.hypot(*direction)
    x0 = [radius * v / norm for v in direction]
    # up to two coordinates exactly +-0.0 or just above the underflow floor
    tiny = st.one_of(st.just(0.0), st.floats(5e-301, 2e-300))
    for i in draw(st.sets(st.integers(0, dim - 1), max_size=2)):
        x0[i] = draw(st.sampled_from((1.0, -1.0))) * draw(tiny)
    return dict(
        x0=tuple(x0),
        T=draw(st.floats(0.5, 30.0)),
        rtol=draw(st.floats(1e-11, 1e-6)),
        atol=1e-12,
        config=ModelConfig(alpha1=1.0, alpha2=-0.1, lam=lam, model=model),
    )


# the overflowing start ends on a step-size underflow, the subnormal one on
# a collapse; at atol = 1e-30 the rejections shrink h by the factor's floor
# of 0.2; the last four start on a -0.0 coordinate, the first two of them at
# lam = 0 (the two pinned runs)
@example(run=dict(x0=(1e155, 1.0, 0.0, 0.0), T=1.0, rtol=1e-10, atol=1e-12, config=CFG))
@example(run=dict(x0=FIG_START, T=0.01, rtol=0.0, atol=1e-30, config=CFG))
@example(run=dict(x0=(1e-322, 0.0, 0.0, 1.0), T=10.0, rtol=1e-8, atol=1e-10, config=CFG))
@example(run=PINNED_RUNS["lam0_signed_zero"][0])
@example(run=PINNED_RUNS["lam0_same_lift_zero_d4"][0])
@example(run=dict(x0=(0.6, -0.3, -0.0, 0.74), T=20.0, rtol=1e-8, atol=1e-12, config=LAM_CFG))
@example(run=dict(
    x0=(-0.0, 0.4, math.sqrt(1.0 - 0.16)), T=20.0, rtol=1e-8, atol=1e-12,
    config=ModelConfig(alpha1=1.0, alpha2=-0.1, model="dim3"),
))
@settings(max_examples=40)
@given(run=flow_runs())
def test_integrate_matches_list_reference(run):
    assert _series_bits(integrate(**run)) == _series_bits(_integrate_lists(**run))


def test_integrate_memory_per_sample():
    # a sample is five raw float64 in the flat buffers, 40 bytes; as a tuple
    # of boxed floats in a list it took about 223
    integrate(FIG_START, T=1.0, config=CFG)
    tracemalloc.start()
    try:
        series = integrate(FIG_START, T=200.0, config=CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series.times) > 5000
    assert peak < 80 * len(series.times)


@pytest.mark.parametrize(
    "run",
    [
        dict(x0=FIG_START, T=20.0, rtol=1e-8, atol=1e-10, config=CFG),
        dict(x0=(1e-322, 0.0, -0.0, 1.0), T=10.0, rtol=1e-8, atol=1e-10, config=LAM_CFG),
        dict(x0=(1e155, 1.0, 0.0, 0.0), T=1.0, rtol=1e-10, atol=1e-12, config=CFG),
        dict(x0=(0.1, 0.4, 0.9), T=20.0, rtol=1e-9, atol=1e-11, config=ModelConfig(1.0, -0.1, model="dim3")),
        dict(x0=(0.0, 0.0, 0.0), T=5.0, rtol=1e-9, atol=1e-11, config=ModelConfig(1.0, -0.1, model="dim3")),
    ],
    ids=["regular", "collapse", "underflow", "dim3", "origin"],
)
def test_manifest_counts_match_the_list_reference(run, tmp_path, monkeypatch):
    calls = []
    field = _reference_field

    def counted(config):
        f = field(config)

        def g(*x):
            calls.append(x)
            return f(*x)

        return g

    monkeypatch.setattr(sys.modules[__name__], "_reference_field", counted)
    reference = _integrate_lists(**run)
    config = run["config"]
    path = tmp_path / "flow.json"
    fields = {"alpha1": config.alpha1, "alpha2": config.alpha2, "lambda": config.lam, "model": config.model}
    path.write_text(json.dumps(fields))
    argv = ["simulate", "--config", str(path), f"--x0={','.join(map(repr, run['x0']))}", "--T", repr(run["T"])]
    argv += ["--rtol", repr(run["rtol"]), "--atol", repr(run["atol"]), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    diagnostics = json.loads((tmp_path / "out" / "simulate_manifest.json").read_text())["diagnostics"]
    assert diagnostics["rhs_calls"] == len(calls) == 1 + 6 * (reference.accepted + reference.rejected)
    assert diagnostics["samples"] == len(reference.times)
    magnitude = np.abs(reference.states)
    nonzero = magnitude[magnitude > 0.0]
    assert diagnostics["floor_abs"] == (float(nonzero.min()) if nonzero.size else None)


def _dwell_loop(series, radius):
    """Reference for ``_dwell_segments``: one pass over every sample, complete dwells only."""
    dim = series.states.shape[1]
    poles = {"v": np.array(V_POLE[-dim:]), "w": np.array(W_POLE[-dim:])}
    dist = {n: np.linalg.norm(series.states - pole, axis=1) for n, pole in poles.items()}
    dwells = []
    current = None
    t_enter = 0.0
    times = series.times

    def crossing(i, d, radius):
        d0, d1 = d[i - 1], d[i]
        if d1 == d0:
            return float(times[i])
        w = (radius - d0) / (d1 - d0)
        return float(times[i - 1] + w * (times[i] - times[i - 1]))

    for i in range(len(times)):
        node = None
        for n in ("v", "w"):
            if dist[n][i] < radius:
                node = n
                break
        if node != current:
            if current is not None:
                t_exit = crossing(i, dist[current], radius)
                dwells.append(Dwell(node=current, t_enter=t_enter, t_exit=t_exit, duration=t_exit - t_enter))
            if node is not None:
                t_enter = crossing(i, dist[node], radius) if i > 0 else float(times[0])
            current = node
    return dwells


def test_dwell_segments_match_sample_loop():
    ac9 = integrate(FIG_START, T=500.0, rtol=1e-10, atol=1e-12, config=CFG)
    dim3 = integrate(
        (0.1, 0.4, 0.9), T=300.0, rtol=1e-9, atol=1e-11,
        config=ModelConfig(alpha1=1.0, alpha2=-0.1, model="dim3"),
    )
    synthetic = synthetic_dwell_series([("v" if i % 2 == 0 else "w", 1.5**i) for i in range(10)])
    for series in (ac9, dim3, synthetic):
        for radius in (0.2, 0.3):
            got = _dwell_segments(series, radius)
            # repr tells every float bit apart, -0.0 from 0.0 too
            assert repr(got) == repr(_dwell_loop(series, radius))
            assert len(got) > 2


def test_run_ending_inside_a_node_has_no_open_dwell():
    durations = [("v" if i % 2 == 0 else "w", 1.5**i) for i in range(10)]
    full = synthetic_dwell_series(durations)
    # cut inside the last dwell, at its first sample on the pole
    series = dataclasses.replace(full, times=full.times[:-4], states=full.states[:-4])
    assert np.array_equal(series.states[-1], W_POLE)
    dwells = _dwell_segments(series, 0.3)
    assert repr(dwells) == repr(_dwell_segments(full, 0.3)[:-1])
    assert dwells[-1].t_exit < series.times[-1]
    # the report is that of the run without the last dwell
    want = sojourn_analysis(synthetic_dwell_series(durations[:-1]))
    assert repr(sojourn_analysis(series)) == repr(want)
