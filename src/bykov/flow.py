"""Direct integration of the explicit 3D seed system and its 4D lift.

The 4D family on R^4 (attracting invariant unit sphere) is

    x1' = x1 (1 - r^2) - x4 x2 - a1 x1 x4 + a2 x1 x4^2
    x2' = x2 (1 - r^2) + x4 x1 - a1 x2 x4 + a2 x2 x4^2
    x3' = x3 (1 - r^2) + a1 x3 x4 + a2 x3 x4^2 + lam x1 x2 x4
    x4' = x4 (1 - r^2) - a1 (x3^2 - x1^2 - x2^2) - a2 x4 (x1^2+x2^2+x3^2)
          - lam x1 x2 x3

with a2 < 0 < a1, a1 + a2 > 0.  The poles (0,0,0,+-1) are saddle-foci of
different Morse index; the angular rate in the (x1, x2) plane equals x4, so
trajectories wind one way near the north pole and the other way near the
south pole (different chirality).  A control variant with unit angular rate
("same_lift") winds the same way at both poles.  The 3D seed system is the
quotient by the rotation; its third equation carries a1 (x^2 - y^2), which
is the form that keeps the unit sphere invariant and the poles at
equilibrium.

The right-hand side from ``make_rhs`` is elementwise: the integrator
calls it on a sequence of floats, and the diagnostics call it once on the
numpy columns of a whole series, with the same operations in the same
order, so both see the same bits.

Integration uses a Dormand-Prince 5(4) embedded pair with FSAL, PI-free
elementary step control, and a velocity cap that keeps consecutive output
samples closer than 0.05 in state norm without interpolation.  The seven
stages are written out over the state components; a run that leaves a
coordinate exactly 0.0 after it started nonzero is flagged in
``TrajectorySeries.collapse``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParameterError, load_exact_keys

__all__ = [
    "ModelConfig",
    "TrajectorySeries",
    "InsufficientDataError",
    "MODEL_NAMES",
    "load_model_config",
    "rhs",
    "make_rhs",
    "equilibria_spectrum",
    "integrate",
    "sphere_residual",
    "chirality_check",
    "sojourn_analysis",
    "invariant_subspace_residuals",
]

MODEL_NAMES = ("dim3", "example4d", "example4d_same_lift")

V_POLE = (0.0, 0.0, 0.0, 1.0)
W_POLE = (0.0, 0.0, 0.0, -1.0)


class InsufficientDataError(ValueError):
    """The series does not contain enough dwell episodes for the requested statistic."""


@dataclass(frozen=True)
class ModelConfig:
    """Coefficients of the explicit vector fields.

    ``lam`` breaks the rotational symmetry of the 4D family (it must be 0
    for the 3D seed system, which has no such term).  The admissibility
    condition a2 < 0 < a1, a1 + a2 > 0 makes the poles saddle-foci.
    """

    alpha1: float
    alpha2: float
    lam: float = 0.0
    model: str = "example4d"

    def __post_init__(self) -> None:
        if self.model not in MODEL_NAMES:
            raise ValueError(f"model must be one of {MODEL_NAMES}, got {self.model!r}")
        if not (self.alpha2 < 0.0 < self.alpha1):
            raise ValueError(
                f"need alpha2 < 0 < alpha1, got alpha1={self.alpha1}, alpha2={self.alpha2}"
            )
        if self.alpha1 + self.alpha2 <= 0.0:
            raise ValueError(f"need alpha1 + alpha2 > 0, got {self.alpha1 + self.alpha2}")
        if self.model == "dim3" and self.lam != 0.0:
            raise ValueError("the 3D seed system has no symmetry-breaking term; set lam = 0")

    @property
    def dim(self) -> int:
        return 3 if self.model == "dim3" else 4


MODEL_FIELDS = {"alpha1": float, "alpha2": float, "lambda": float, "model": str}


def load_model_config(source) -> ModelConfig:
    """Load a flow config from JSON; exactly the keys alpha1, alpha2, lambda, model."""
    data = load_exact_keys(source, MODEL_FIELDS)
    try:
        return ModelConfig(
            alpha1=data["alpha1"], alpha2=data["alpha2"], lam=data["lambda"], model=data["model"]
        )
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc


def make_rhs(config: ModelConfig):
    """Right-hand side closure ``f(y) -> tuple`` for a state ``y`` of ``dim`` entries.

    The entries may be floats (one state, as the integrator calls it) or
    equal-length numpy arrays (one column per coordinate, a whole series at
    once); every operation is elementwise, so both give the same bits.
    """
    a1, a2, lam = config.alpha1, config.alpha2, config.lam
    if config.model == "dim3":

        def f3(y):
            x, yy, z = y
            r2 = x * x + yy * yy + z * z
            q = 1.0 - r2
            return (
                x * q - a1 * x * z + a2 * x * z * z,
                yy * q + a1 * yy * z + a2 * yy * z * z,
                z * q + a1 * (x * x - yy * yy) - a2 * z * (x * x + yy * yy),
            )

        return f3

    same = config.model == "example4d_same_lift"

    def f4(y):
        x1, x2, x3, x4 = y
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


def rhs(state, config: ModelConfig) -> np.ndarray:
    """Vector field value at a state (3- or 4-vector, matching the model)."""
    state = np.asarray(state, dtype=float)
    if state.shape != (config.dim,):
        raise ValueError(f"state must have shape ({config.dim},), got {state.shape}")
    return np.array(make_rhs(config)(tuple(state)))


@dataclass(frozen=True)
class SpectrumReport:
    """Closed-form eigenvalues at the two poles and the induced saddle rates."""

    eigenvalues_v: tuple[complex, ...]
    eigenvalues_w: tuple[complex, ...]
    rates: dict
    delta: float


def equilibria_spectrum(config: ModelConfig) -> SpectrumReport:
    """Eigenvalues at the poles and the mapping onto the abstract saddle rates.

    At (0,0,0,eps) with eps = +-1 the non-radial eigenvalues are
    alpha2 - eps*alpha1 +- i and alpha2 + eps*alpha1; the radial one is -2.
    Contraction and expansion rates are read off so that both are positive:
    C_v = alpha1 - alpha2, E_v = alpha1 + alpha2 at the north pole and
    E_w = alpha1 + alpha2, C_w = alpha1 - alpha2 at the south pole, with
    unit angular frequencies.
    """
    a1, a2 = config.alpha1, config.alpha2
    delta = ((a2 - a1) / (a2 + a1)) ** 2
    rates = {
        "alpha_v": 1.0,
        "C_v": a1 - a2,
        "E_v": a1 + a2,
        "alpha_w": 1.0,
        "C_w": a1 - a2,
        "E_w": a1 + a2,
    }
    if config.model == "dim3":
        eig_v = (complex(a2 - a1), complex(a2 + a1), complex(-2.0))
        eig_w = (complex(a2 + a1), complex(a2 - a1), complex(-2.0))
    else:
        eig_v = (complex(a2 - a1, 1.0), complex(a2 - a1, -1.0), complex(a2 + a1), complex(-2.0))
        eig_w = (complex(a2 + a1, 1.0), complex(a2 + a1, -1.0), complex(a2 - a1), complex(-2.0))
    return SpectrumReport(eigenvalues_v=eig_v, eigenvalues_w=eig_w, rates=rates, delta=delta)


@dataclass(frozen=True)
class TrajectorySeries:
    """Integration output: samples plus step-control metadata.

    ``collapse`` is ``(j, t)`` when coordinate ``j`` started nonzero and is
    exactly 0.0 at sample time ``t`` (the earliest such sample, lowest ``j``
    first), else None.  Such an orbit sits on an invariant subspace it can
    never leave; the run is still returned with ``failure`` None.
    """

    times: np.ndarray
    states: np.ndarray
    accepted: int
    rejected: int
    max_error_estimate: float
    error_budget: float
    rtol: float
    atol: float
    failure: str | None = None
    renormalized: bool = False
    config: ModelConfig | None = None
    collapse: tuple[int, float] | None = None

    def r2(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.sum(self.states**2, axis=1)


_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_DP_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
# The tableau unpacked once for the written-out stages of ``integrate``.
# a72 = 0 is skipped there; the zero weights b2, b7, e2 are kept, because
# 0.0 * k is -0.0, nan or 0.0 depending on k and the step must not change.
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


def integrate(
    x0,
    T: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    config: ModelConfig | None = None,
    max_sample_spacing: float = 0.05,
    h_max: float = 1.0,
    renormalize: bool = False,
) -> TrajectorySeries:
    """Adaptive Dormand-Prince 5(4) integration over [0, T].

    Every accepted step is an output sample; the step size is capped so
    consecutive samples differ by less than ``max_sample_spacing`` in state
    norm, which keeps the series dense without interpolation error.
    ``renormalize`` optionally projects 4D states back to the unit sphere
    after each step (reported in the metadata, off by default: sphere
    invariance is one of the things being measured).  Step-size underflow
    returns the partial series with a failure marker.
    """
    if config is None:
        raise ValueError("config is required")
    x0 = tuple(float(v) for v in x0)
    if len(x0) != config.dim:
        raise ValueError(f"initial state must have dimension {config.dim}, got {len(x0)}")
    if not all(math.isfinite(v) for v in x0):
        raise ValueError("initial state must be finite")
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    if renormalize and config.dim != 4:
        raise ValueError("renormalization is defined for the 4D model only")
    f = make_rhs(config)
    dim = config.dim
    t = 0.0
    y = x0
    k1 = f(y)
    h = 1e-4
    times = [0.0]
    states = [y]
    accepted = rejected = 0
    max_err = 0.0
    err_budget = 0.0
    failure = None
    margin = 0.9 * max_sample_spacing
    # stop within an ulp-scale sliver of the horizon: adding a remainder
    # below ulp(t) would stall the loop
    while T - t > 1e-12 * max(1.0, T):
        h = min(h, h_max)
        speed = math.sqrt(sum(v * v for v in k1))
        if speed > 0:
            h = min(h, margin / speed)
        if h < 1e-13 * max(1.0, t, T * 1e-3):
            failure = f"step-size underflow at t={t}"
            break
        h = min(h, T - t)
        # every increment sum starts from 0.0, so a sum of -0.0 terms is
        # +0.0; test_integrate_bit_for_bit pins the resulting bits
        k2 = f([v + h * (0.0 + _A21 * c1) for v, c1 in zip(y, k1)])
        k3 = f([v + h * (0.0 + _A31 * c1 + _A32 * c2) for v, c1, c2 in zip(y, k1, k2)])
        k4 = f([
            v + h * (0.0 + _A41 * c1 + _A42 * c2 + _A43 * c3)
            for v, c1, c2, c3 in zip(y, k1, k2, k3)
        ])
        k5 = f([
            v + h * (0.0 + _A51 * c1 + _A52 * c2 + _A53 * c3 + _A54 * c4)
            for v, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)
        ])
        k6 = f([
            v + h * (0.0 + _A61 * c1 + _A62 * c2 + _A63 * c3 + _A64 * c4 + _A65 * c5)
            for v, c1, c2, c3, c4, c5 in zip(y, k1, k2, k3, k4, k5)
        ])
        k7 = f([
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
            err += (e / (atol + rtol * max(abs(v), abs(w)))) ** 2
        err = math.sqrt(err / dim)
        dy = math.dist(y, y_new)
        if err <= 1.0 and dy <= max_sample_spacing:
            t += h
            y = y_new
            if renormalize:
                norm = math.sqrt(sum(v * v for v in y))
                y = tuple(v / norm for v in y)
                k1 = f(y)
            else:
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
            # a nan estimate (a non-finite stage) is a rejection that shrinks h
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
        rtol=rtol,
        atol=atol,
        failure=failure,
        renormalized=renormalize,
        config=config,
        collapse=_first_collapse(times, states),
    )


def _first_collapse(times: np.ndarray, states: np.ndarray) -> tuple[int, float] | None:
    zero = states == 0.0
    zero[:, zero[0]] = False
    rows, cols = np.nonzero(zero)  # row-major: earliest sample, then lowest coordinate
    return (int(cols[0]), float(times[rows[0]])) if len(rows) else None


def sphere_residual(series: TrajectorySeries, band: float = 1e-3, settle: float = 8.0) -> float:
    """Worst |r^2 - 1| once the trajectory has genuinely reached the sphere.

    On-sphere starts are measured over the whole run.  Off-sphere starts
    are measured after the radial transient: from the first band entry plus
    a settle period (the radial contraction rate at the sphere is 2, so the
    deterministic remainder after the settle period is below the
    measurement floor).  The zero state is the one excluded equilibrium of
    the radial dynamics and is rejected.
    """
    if series.states.shape[1] != 4:
        raise ValueError("sphere residual is defined for the 4D model")
    r2 = series.r2()
    if r2[0] == 0.0:
        raise ValueError("zero initial state: the radial dynamics excludes the origin")
    dev = np.abs(r2 - 1.0)
    if dev[0] <= band:
        return float(dev.max())
    inside = np.nonzero(dev <= band)[0]
    if len(inside) == 0:
        return math.inf
    t_start = series.times[inside[0]] + settle
    tail = dev[series.times >= t_start]
    return float(tail.max()) if len(tail) else math.inf


def _within(states: np.ndarray, pole, radius: float) -> np.ndarray:
    """Mask of the samples closer than ``radius`` to ``pole``, as ``math.dist`` decides.

    The numpy norm and ``math.dist`` may differ in the last bits, so samples
    within a relative 1e-12 of the radius are settled by ``math.dist``.
    """
    with np.errstate(over="ignore"):
        dist = np.sqrt(sum((column - c) ** 2 for column, c in zip(states.T, pole)))
    near = dist < radius
    for i in np.flatnonzero(np.abs(dist - radius) <= 1e-12 * radius):
        near[i] = math.dist(states[i].tolist(), pole) < radius
    return near


@dataclass(frozen=True)
class ChiralityReport:
    verdict: str
    message: str
    theta_dot_near_v: tuple[float, float]
    theta_dot_near_w: tuple[float, float]
    samples_near_v: int
    samples_near_w: int
    max_identity_residual: float


def chirality_check(
    config: ModelConfig,
    series: TrajectorySeries | None = None,
    radius: float = 0.2,
    plane_floor: float = 1e-20,
) -> ChiralityReport:
    """Compare the angular-velocity sign near the two poles.

    theta' = (x1 x2' - x2 x1') / (x1^2 + x2^2) is evaluated on trajectory
    samples within ``radius`` of each pole; the verdict is "different" when
    the signs are opposite throughout, "same" when they agree throughout.
    The algebraic identity x1 x2' - x2 x1' = rot * (x1^2 + x2^2) (rot = x4
    for the lift with chirality, rot = 1 for the control lift) is asserted
    pointwise along the whole series.
    """
    if config.dim != 4:
        raise ValueError("chirality is diagnosed on the 4D models")
    if series is None:
        series = integrate(
            (-0.5, -0.139, -0.8807, 0.3013), T=200.0, rtol=1e-9, atol=1e-11, config=config
        )
    states = series.states
    x1, x2, _, x4 = states.T
    # Python floats overflow to inf and nan silently; so does this
    with np.errstate(over="ignore", invalid="ignore"):
        d1, d2, _, _ = make_rhs(config)(tuple(states.T))
        cross = x1 * d2 - x2 * d1
        del d1, d2
        plane = x1 * x1 + x2 * x2
        rot = 1.0 if config.model == "example4d_same_lift" else x4
        # fmax skips nan residuals, as the builtin max did
        max_resid = float(np.fmax.reduce(np.abs(cross - rot * plane), initial=0.0))
    measurable = plane > plane_floor
    signs = {}
    ranges = {}
    counts = {}
    for node, pole in (("v", V_POLE), ("w", W_POLE)):
        near = _within(states, pole, radius) & measurable
        theta_dot = cross[near] / plane[near]
        counts[node] = len(theta_dot)
        signs[node] = np.copysign(1.0, theta_dot)
        # argmin/argmax pick the first of equal extremes, so a range that
        # ends at zero keeps the sign of the first zero seen
        ranges[node] = (
            (float(theta_dot[np.argmin(theta_dot)]), float(theta_dot[np.argmax(theta_dot)]))
            if len(theta_dot)
            else (math.inf, -math.inf)
        )
    if counts["v"] == 0 or counts["w"] == 0:
        return ChiralityReport(
            verdict="inconclusive",
            message="no trajectory samples near one of the equilibria; integrate longer",
            theta_dot_near_v=ranges["v"],
            theta_dot_near_w=ranges["w"],
            samples_near_v=counts["v"],
            samples_near_w=counts["w"],
            max_identity_residual=max_resid,
        )
    v_pos = bool(np.all(signs["v"] > 0))
    v_neg = bool(np.all(signs["v"] < 0))
    w_pos = bool(np.all(signs["w"] > 0))
    w_neg = bool(np.all(signs["w"] < 0))
    if (v_pos and w_neg) or (v_neg and w_pos):
        verdict, msg = "different", "angular velocity changes sign between the nodes"
    elif (v_pos and w_pos) or (v_neg and w_neg):
        verdict, msg = "same", "angular velocity keeps its sign at both nodes"
    else:
        verdict, msg = "inconclusive", "mixed angular-velocity signs near a node"
    return ChiralityReport(
        verdict=verdict,
        message=msg,
        theta_dot_near_v=ranges["v"],
        theta_dot_near_w=ranges["w"],
        samples_near_v=counts["v"],
        samples_near_w=counts["w"],
        max_identity_residual=max_resid,
    )


@dataclass(frozen=True)
class Dwell:
    node: str
    t_enter: float
    t_exit: float

    @property
    def duration(self) -> float:
        return self.t_exit - self.t_enter


@dataclass(frozen=True)
class SojournReport:
    dwells: tuple[Dwell, ...]
    ratios_v: tuple[float, ...]
    ratios_w: tuple[float, ...]
    median_ratio: float
    discarded: int

    def to_dict(self) -> dict:
        return {
            "dwells": [
                {"node": d.node, "t_enter": d.t_enter, "t_exit": d.t_exit, "duration": d.duration}
                for d in self.dwells
            ],
            "ratios_v": list(self.ratios_v),
            "ratios_w": list(self.ratios_w),
            "median_ratio": self.median_ratio,
            "discarded": self.discarded,
        }


def _dwell_segments(series: TrajectorySeries, radius: float) -> list[Dwell]:
    # the 3D model's poles (0, 0, +-1) are the last coordinates of the 4D ones
    dim = series.states.shape[1]
    poles = {"v": np.array(V_POLE[-dim:]), "w": np.array(W_POLE[-dim:])}
    dist = {n: np.linalg.norm(series.states - pole, axis=1) for n, pole in poles.items()}
    dwells: list[Dwell] = []
    current: str | None = None
    t_enter = 0.0
    times = series.times

    def crossing(i: int, d: np.ndarray, radius: float) -> float:
        # linear interpolation of the boundary crossing between samples i-1, i
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
                dwells.append(Dwell(node=current, t_enter=t_enter, t_exit=crossing(i, dist[current], radius)))
            if node is not None:
                t_enter = crossing(i, dist[node], radius) if i > 0 else float(times[0])
            current = node
    if current is not None:
        # open-ended final dwell: keep it marked by exit at the horizon
        dwells.append(Dwell(node=current, t_enter=t_enter, t_exit=float(times[-1])))
    return dwells


def sojourn_analysis(
    series: TrajectorySeries,
    neighborhood_radius: float = 0.3,
    discard: int = 2,
) -> SojournReport:
    """Dwell episodes near the two nodes and the geometric growth of their lengths.

    The headline statistic is the median of ratios of consecutive same-node
    dwell durations, computed after dropping the first ``discard`` dwells
    (transient) and a final dwell cut off by the horizon.
    """
    dwells = _dwell_segments(series, neighborhood_radius)
    if dwells and dwells[-1].t_exit >= float(series.times[-1]):
        dwells = dwells[:-1]
    if len(dwells) < 2:
        raise InsufficientDataError(
            f"need at least 2 complete dwell episodes, found {len(dwells)}"
        )
    usable = dwells[discard:]
    durations: dict[str, list[float]] = {"v": [], "w": []}
    for d in usable:
        durations[d.node].append(d.duration)
    ratios = {
        n: tuple(b / a for a, b in zip(durations[n], durations[n][1:])) for n in ("v", "w")
    }
    pooled = sorted(ratios["v"] + ratios["w"])
    if not pooled:
        raise InsufficientDataError("not enough same-node dwell pairs after transient discard")
    mid = len(pooled) // 2
    median = pooled[mid] if len(pooled) % 2 else 0.5 * (pooled[mid - 1] + pooled[mid])
    return SojournReport(
        dwells=tuple(dwells),
        ratios_v=ratios["v"],
        ratios_w=ratios["w"],
        median_ratio=median,
        discarded=discard,
    )


def invariant_subspace_residuals(series: TrajectorySeries, config: ModelConfig) -> dict[str, float]:
    """Max drift out of the coordinate subspaces the start belongs to.

    4D: the hyperplane x3 = 0 (exactly invariant when lam = 0); 3D: the
    planes x = 0 and y = 0.  Raises when the start lies in none of them.
    """
    out: dict[str, float] = {}
    first = series.states[0]
    if config.dim == 4:
        if first[2] == 0.0:
            out["x3=0"] = float(np.max(np.abs(series.states[:, 2])))
    else:
        if first[0] == 0.0:
            out["x=0"] = float(np.max(np.abs(series.states[:, 0])))
        if first[1] == 0.0:
            out["y=0"] = float(np.max(np.abs(series.states[:, 1])))
    if not out:
        raise ValueError("initial state lies in none of the tracked invariant subspaces")
    return out


def synthetic_dwell_series(
    durations: list[tuple[str, float]],
    transit: float = 1.0,
    radius: float = 0.3,
) -> TrajectorySeries:
    """Hand-built series with prescribed dwell durations (analyzer self-test).

    Boundary samples sit exactly at the detection radius, so the
    interpolated crossing times coincide with the prescribed boundaries and
    the analyzer must recover the injected durations exactly.
    """
    poles = {"v": np.array(V_POLE), "w": np.array(W_POLE)}
    far = np.array((0.0, 0.0, 1.0, 0.0))
    times: list[float] = []
    states: list[np.ndarray] = []
    t = 0.0
    for node, duration in durations:
        pole = poles[node]
        rim = pole + radius * (far - pole) / np.linalg.norm(far - pole)
        times.extend([t, t + 1e-9, t + duration - 1e-9, t + duration])
        states.extend([rim, pole, pole, rim])
        t += duration
        times.append(t + transit / 2.0)
        states.append(far)
        t += transit
    times.append(t)
    states.append(far)
    return TrajectorySeries(
        times=np.array(times),
        states=np.array(states),
        accepted=len(times),
        rejected=0,
        max_error_estimate=0.0,
        error_budget=0.0,
        rtol=0.0,
        atol=0.0,
    )
