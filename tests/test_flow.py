import hashlib
import math

import numpy as np
import pytest

from bykov.flow import (
    V_POLE,
    W_POLE,
    ChiralityReport,
    InsufficientDataError,
    TrajectorySeries,
    ModelConfig,
    chirality_check,
    equilibria_spectrum,
    integrate,
    invariant_subspace_residuals,
    load_model_config,
    make_rhs,
    rhs,
    sojourn_analysis,
    sphere_residual,
    synthetic_dwell_series,
)
from bykov.oracles import numeric_jacobian
from bykov.params import ParameterError

CFG = ModelConfig(alpha1=1.0, alpha2=-0.1)
FIG_START = (-0.5, -0.139, -0.8807, 0.3013)


def test_config_validation():
    with pytest.raises(ValueError, match="alpha2 < 0 < alpha1"):
        ModelConfig(alpha1=1.0, alpha2=0.1)
    with pytest.raises(ValueError, match="alpha1 \\+ alpha2"):
        ModelConfig(alpha1=0.5, alpha2=-0.6)
    with pytest.raises(ValueError, match="lam"):
        ModelConfig(alpha1=1.0, alpha2=-0.1, lam=0.2, model="dim3")


def test_loader_exact_keys(tmp_path):
    import json

    good = {"alpha1": 1.0, "alpha2": -0.1, "lambda": 0.0, "model": "example4d"}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(good))
    assert load_model_config(path) == CFG
    with pytest.raises(ParameterError, match="extra"):
        load_model_config({**good, "extra": 1})
    with pytest.raises(ParameterError, match="model"):
        load_model_config({k: v for k, v in good.items() if k != "model"})


def test_equilibria_are_zeros():
    for pole in ((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, -1.0)):
        assert float(np.max(np.abs(rhs(pole, CFG)))) < 1e-14
    cfg3 = ModelConfig(alpha1=1.0, alpha2=-0.1, model="dim3")
    for pole in ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)):
        assert float(np.max(np.abs(rhs(pole, cfg3)))) < 1e-14


def test_kappa1_equivariance_random():
    rng = np.random.default_rng(7)
    cfg = ModelConfig(alpha1=1.0, alpha2=-0.1, lam=0.07)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-1.2, 1.2, 4)
        fx = rhs(x, cfg)
        kfx = np.array([-fx[0], -fx[1], fx[2], fx[3]])
        fkx = rhs([-x[0], -x[1], x[2], x[3]], cfg)
        worst = max(worst, float(np.max(np.abs(fkx - kfx))))
    assert worst < 1e-13


def test_so2_equivariance_at_lambda_zero():
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0, 4)
        theta = float(rng.uniform(0, 2 * math.pi))
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([x[0] * c - x[1] * s, x[0] * s + x[1] * c, x[2], x[3]])
        fx = rhs(x, CFG)
        frot = rhs(rot, CFG)
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
    with pytest.raises(ValueError):
        integrate((0.1, 0.2), T=1.0, config=CFG)
    with pytest.raises(ValueError):
        integrate((0.1, 0.2, 0.3, math.nan), T=1.0, config=CFG)
    with pytest.raises(ValueError):
        integrate(FIG_START, T=-1.0, config=CFG)


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


def test_renormalized_mode_reported():
    series = integrate(FIG_START, T=5.0, rtol=1e-8, atol=1e-10, config=CFG, renormalize=True)
    assert series.renormalized
    assert float(np.max(np.abs(series.r2()[1:] - 1.0))) < 1e-12


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
        d = f(x)
        worst = max(worst, abs(x[0] * d[1] - x[1] * d[0] - x[3] * (x[0] ** 2 + x[1] ** 2)))
    assert worst < 1e-12


def test_chirality_same_for_control_lift():
    cfg = ModelConfig(alpha1=1.0, alpha2=-0.1, model="example4d_same_lift")
    rep = chirality_check(cfg)
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
        d = f((x1, x2, x3, x4))
        cross = x1 * d[1] - x2 * d[0]
        plane = x1 * x1 + x2 * x2
        rot = 1.0 if config.model == "example4d_same_lift" else x4
        max_resid = max(max_resid, abs(cross - rot * plane))
        if plane <= plane_floor:
            continue
        theta_dot = cross / plane
        for node, pole in (("v", V_POLE), ("w", W_POLE)):
            if math.dist((x1, x2, x3, x4), pole) < radius:
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


def test_chirality_signed_zero_and_plane_floor():
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
        # a sum of squares in numpy puts these a last bit on the other side
        # of radius 0.2 than math.dist does: out, then in
        (0.12240425968235416, 0.1453714152183817, -0.0611456011136618, 1.012065003666333),
        (0.0051413094050552065, -0.17731770497542912, 0.0923315022149281, 0.9973747117143262),
    ])
    series = TrajectorySeries(
        times=np.arange(float(len(states))), states=states, accepted=len(states) - 1,
        rejected=0, max_error_estimate=0.0, error_budget=0.0, rtol=0.0, atol=0.0,
    )
    rep = chirality_check(CFG, series, plane_floor=0.0)
    assert repr(rep) == repr(_chirality_loop(CFG, series, plane_floor=0.0))
    assert rep.verdict == "different"
    assert (rep.samples_near_v, rep.samples_near_w) == (4, 2)
    assert rep.theta_dot_near_v[0] == 0.0 and math.copysign(1.0, rep.theta_dot_near_v[0]) == 1.0
    assert rep.theta_dot_near_w[1] == 0.0 and math.copysign(1.0, rep.theta_dot_near_w[1]) == -1.0
    # at the default floor the subnormal planes and the 1e-22 plane are not measured
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


def test_sojourn_insufficient_data():
    series = integrate((0.0, 0.0, 0.0, 1.0), T=5.0, rtol=1e-8, atol=1e-10, config=CFG)
    with pytest.raises(InsufficientDataError):
        sojourn_analysis(series)


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


def test_step_underflow_marks_partial_series():
    series = integrate(
        FIG_START, T=10.0, rtol=1e-8, atol=1e-10, config=CFG, max_sample_spacing=1e-14
    )
    assert series.failure is not None
    assert "underflow" in series.failure
    assert series.times[-1] < 10.0


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
        assert abs(float(np.dot(x, rhs(x, cfg3)))) < 1e-14


# sha256 of times.tobytes() + states.tobytes(), accepted, rejected, and the
# step-control totals as float.hex(): any change in operation order in the
# integrator shows here, even one that moves a trajectory by a single ulp.
DIM3_START = (0.3, 0.4, math.sqrt(1.0 - 0.25))
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
    "renormalized": (
        dict(
            x0=FIG_START, T=20.0, rtol=1e-8, atol=1e-10,
            config=ModelConfig(alpha1=1.0, alpha2=-0.1, lam=0.05), renormalize=True,
        ),
        ("b51b4a165e50e4046eecae5b16ca69cabddbb70f1bf7cf9178e7014f89b82f7c", 324, 9),
        ("0x1.555ffe6861b9cp-27", "0x1.13f3c327d8704p-20"),
    ),
    "underflow": (
        dict(x0=FIG_START, T=10.0, rtol=1e-8, atol=1e-10, config=CFG, max_sample_spacing=1e-14),
        ("bf03afccbb5b5c571ca23bcca4e651f2aa7bfdb2dc42a045a8a72262a00ffbea", 0, 0),
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
