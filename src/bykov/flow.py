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

Each model's vector field is one source text (``_FIELDS``).  Two functions
are compiled from it on first use: the right-hand side from ``make_rhs``,
which takes the coordinates as separate arguments and is elementwise, and
the integrator's step, which has the field inlined at each stage.  The
diagnostics call the right-hand side once on the numpy columns of a whole
series, so they see the bits of the operations the step ran.

Integration uses a Dormand-Prince 5(4) embedded pair with FSAL, PI-free
elementary step control, and a velocity cap that keeps consecutive output
samples closer than ``SAMPLE_SPACING`` in state norm without
interpolation.  The step is written out over the model's coordinate slots
(three for the 3D model, four for the lifts), with the tableau's nonzero
weights as float literals.  Stage 7's b-weighted sum also gives the new
state, and the 4D fields' lam terms are added only where lam is nonzero;
``_step_lines`` says why every run keeps its bits.  The loop is
``while True:`` with the horizon test first, so that its back edge is an
unconditional ``JUMP_BACKWARD``: CPython 3.11 specialises a function after
8 calls or 8 such jumps and counts no conditional one, so ``while T - t >
stop:`` would leave a single run on generic float operations.  3.10 has no
specialisation, and 3.12 and later specialise from creation.  A run that
leaves a coordinate exactly 0.0 after it started nonzero is flagged in
``TrajectorySeries.collapse``.
"""

from __future__ import annotations

import functools
import math
import re
import statistics
import textwrap
from array import array
from dataclasses import dataclass

import numpy as np

from .params import ParameterError, load_exact_keys

MODEL_NAMES = ("dim3", "example4d", "example4d_same_lift")

V_POLE = (0.0, 0.0, 0.0, 1.0)
W_POLE = (0.0, 0.0, 0.0, -1.0)

# largest integration step
H_MAX = 1.0
# the run stops within STOP_MARGIN * max(1, T) of the horizon T, so it
# takes no step unless T > STOP_MARGIN
STOP_MARGIN = 1e-12
# largest state-norm distance between consecutive output samples
SAMPLE_SPACING = 0.05
# |r^2 - 1| that counts as on the sphere, and the time allowed after first
# reaching it for the radial transient to die out
SPHERE_BAND = 1e-3
SPHERE_SETTLE = 8.0
# distance from a pole within which the angular velocity is sampled, and
# the least x1^2 + x2^2 at which it is measured
CHIRALITY_RADIUS = 0.2
PLANE_FLOOR = 1e-20
# leading dwells dropped as transient
DWELL_DISCARD = 2


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
            raise ParameterError(f"model must be one of {MODEL_NAMES}, got {self.model!r}")
        for name in ("alpha1", "alpha2", "lam"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not (self.alpha2 < 0.0 < self.alpha1):
            raise ParameterError(
                f"need alpha2 < 0 < alpha1, got alpha1={self.alpha1}, alpha2={self.alpha2}"
            )
        if self.alpha1 + self.alpha2 <= 0.0:
            raise ParameterError(f"need alpha1 + alpha2 > 0, got {self.alpha1 + self.alpha2}")
        if self.model == "dim3" and self.lam != 0.0:
            raise ParameterError("the 3D seed system has no symmetry-breaking term; set lam = 0")

    @property
    def dim(self) -> int:
        return 3 if self.model == "dim3" else 4


MODEL_FIELDS = {"alpha1": float, "alpha2": float, "lambda": float, "model": str}


def load_model_config(source) -> ModelConfig:
    """A flow config from a decoded JSON object; exactly the keys alpha1, alpha2, lambda, model."""
    data = load_exact_keys(source, MODEL_FIELDS)
    return ModelConfig(alpha1=data["alpha1"], alpha2=data["alpha2"], lam=data["lambda"], model=data["model"])


# The vector fields, one source text per model: ``make_rhs`` and the step
# of ``integrate`` are both compiled from it.  The inputs are x1..x4 (x1..x3
# for the 3D model, its x, y, z), the outputs d1..d4, and a1, a2, lam the
# coefficients.  Each square is formed once; s + x4 * x4 is the sum
# x1^2 + x2^2 + x3^2 + x4^2 in the same order, so the bits are those of the
# formulas in the module docstring.  The lam terms, added last as there,
# stand on lines of their own, which the step runs after the rest of the
# field under one ``if lam:`` (``_stage``); no other line reads d3 or d4.
_FIELD_4D = """\
p1 = x1 * x1
p2 = x2 * x2
p3 = x3 * x3
s = p1 + p2 + p3
q = 1.0 - (s + x4 * x4)
d1 = x1 * q - {rot} * x2 - a1 * x1 * x4 + a2 * x1 * x4 * x4
d2 = x2 * q + {rot} * x1 - a1 * x2 * x4 + a2 * x2 * x4 * x4
d3 = x3 * q + a1 * x3 * x4 + a2 * x3 * x4 * x4
d3 += lam * x1 * x2 * x4
d4 = x4 * q - a1 * (p3 - p1 - p2) - a2 * x4 * s
d4 -= lam * x1 * x2 * x3
"""
_FIELDS = {
    "dim3": """\
p1 = x1 * x1
p2 = x2 * x2
s = p1 + p2
q = 1.0 - (s + x3 * x3)
d1 = x1 * q - a1 * x1 * x3 + a2 * x1 * x3 * x3
d2 = x2 * q + a1 * x2 * x3 + a2 * x2 * x3 * x3
d3 = x3 * q + a1 * (p1 - p2) - a2 * x3 * s
""",
    # the angular rate in the (x1, x2) plane: x4, or 1 for the control lift
    "example4d": _FIELD_4D.format(rot="x4"),
    "example4d_same_lift": _FIELD_4D.format(rot="1.0"),
}


def make_rhs(config: ModelConfig):
    """Right-hand side ``f(x1, x2, x3, x4)`` (or ``f(x1, x2, x3)``) returning a tuple.

    The coordinates are separate arguments.  They may be floats (one state)
    or equal-length numpy arrays (one column per coordinate, a whole series
    at once); every operation is elementwise, so both give the same bits,
    and they are the operations of the step ``integrate`` runs.
    """
    factory, _ = _compiled(config.model)
    return factory(config.alpha1, config.alpha2, config.lam)


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
    failure: str | None = None
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

# The DP5 loop of ``integrate``, generated per model over its coordinate
# slots j: the stage lines, the field at each stage and the b and e sums
# come from ``_step_lines``.  Step control is written as comparisons:
# ``min(a, b)`` is ``b if b < a else a`` and ``max(a, b)`` is
# ``b if b > a else a``, the builtins' results, nan included.  The loop is
# ``while True:`` and tests the horizon first: its back edge is then a
# ``JUMP_BACKWARD``, which CPython 3.11 counts toward specialising ``run``
# eight steps into its first call; the conditional back edge of ``while
# T - t > stop:`` does not count.  3.10 has no specialisation, and 3.12 and
# later specialise from creation.
_RUN = """\
def run({ys}, T, rtol, atol, a1, a2, lam):
    sqrt = math.sqrt
    dist = math.dist
    {xs} = {ys}
{k1}
    t = 0.0
    h = 1e-4
    y = ({ys},)
    times = array("d", (0.0,))
    states = array("d", y)
    add_time = times.append
    add_states = states.fromlist
    accepted = rejected = 0
    max_err = 0.0
    err_budget = 0.0
    failure = None
    # stop within an ulp-scale sliver of the horizon: adding a remainder
    # below ulp(t) would stall the loop
    stop = {stop_margin!r} * max(1.0, T)
    floor = max(1.0, T * 1e-3)
    while True:
        if not T - t > stop:
            break
        if h > {h_max!r}:
            h = {h_max!r}
        speed = sqrt({speed2})
        if speed > 0:
            cap = {margin!r} / speed
            if cap < h:
                h = cap
        if h < 1e-13 * (t if t > floor else floor):
            failure = f"step-size underflow at t={{t}}"
            break
        rest = T - t
        if rest < h:
            h = rest
{steps}
        err = sqrt(({err2}) / {n})
        w = ({ws},)
        dy = dist(y, w)
        if err <= 1.0 and dy <= {spacing!r}:
            t += h
            y = w
            {ys} = w
            {k1s} = {k7s}
            add_time(t)
            add_states([{ys}])
            accepted += 1
            scaled = err * rtol
            if scaled > max_err:
                max_err = scaled
            err_budget += scaled
        else:
            rejected += 1
        if err > 0.0:
            factor = 0.9 * err ** -0.2
        else:
            # a nan estimate (a non-finite stage) is a rejection that shrinks h
            factor = 5.0 if err == 0.0 else 0.2
        if dy > {spacing!r}:
            cap = {shrink!r} / dy
            if cap < factor:
                factor = cap
        h *= (factor if factor < 5.0 else 5.0) if factor > 0.2 else 0.2
    return times, states, accepted, rejected, max_err, err_budget, failure
"""

_MAKE_RHS = """\
def make_rhs(a1, a2, lam):
    def rhs({xs}):
{field}
        return {ds}
    return rhs
"""


def _step_lines(field: str, n: int) -> list[str]:
    """Stages 2 to 7, the new state w and the scaled error terms e of one step.

    The tableau enters as float literals (``repr`` round-trips exactly),
    and every zero weight is left out.  Each run keeps the bits of the full
    tableau summed term by term from 0.0, as in a textbook DP5 step:

    - The sign of a zero stage output changes no state, error estimate or
      step size.  It can only flip the sign of a stage increment that is a
      zero, and so of a zero stage input, which the polynomial field turns
      into signed zeros only; the new state's 0.0 + P, the squares e * e
      and the speed's squares absorb them.  So the 4D fields' lam terms
      are added under ``if lam:`` (``_stage``): with lam = +-0.0 a term is
      a signed zero where q is finite, and where q is not, the stage output
      is non-finite without it and the step is rejected as below.
    - Stage 7 gives the new state.  Its row of a is b (FSAL), so its
      b-weighted sum P is formed once: stage 7 runs at y + h * P, and the
      new state is w = y + h * (0.0 + P).  With finite stages, the terms
      0.0 * k2 and 0.0 * k7 are signed zeros, which change a partial sum
      only where it is a zero; a sum from 0.0 that ends on a zero ends on
      +0.0, so the full sum is 0.0 + P.  P alone would differ from it only
      when every term is a zero.
    - The zero weights a72, b2, b7, e2 and the e sums' leading 0.0 go.
      They could matter only where a stage is non-finite (0.0 * k is nan
      for an infinite k), and then err is non-finite without them: each
      k_i but k2 has a nonzero e weight, and a non-finite k2 reaches stage
      3's input through a32 = 9/40, which the field maps to a non-finite
      k3.  A non-finite err rejects the step with h *= 0.2, whatever dy
      is.  e enters err only as e * e, so its sign never matters.
    """
    slots = range(1, n + 1)

    def combination(weights, j: int) -> str:
        return " + ".join(f"{c!r} * k{i}_{j}" for i, c in enumerate(weights, 1) if c != 0.0)

    lines = []
    for i in range(2, 7):
        lines += [f"x{j} = y{j} + h * ({combination(_DP_A[i - 1], j)})" for j in slots]
        lines += _stage(field, i)
    lines += [f"P{j} = {combination(_DP_B, j)}" for j in slots]
    lines += [f"x{j} = y{j} + h * P{j}" for j in slots]
    lines += _stage(field, 7)
    lines += [f"w{j} = y{j} + h * (0.0 + P{j})" for j in slots]
    for j in slots:
        # squared later as e * e, which overflows to inf (a rejection) where
        # ** 2 would raise
        lines += [
            f"n = abs(y{j})",
            f"m = abs(w{j})",
            f"e{j} = h * ({combination(_DP_E, j)}) / (atol + rtol * (m if m > n else n))",
        ]
    return lines


def _stage(field: str, i: int) -> list[str]:
    """The field with outputs d1..d4 renamed to stage i's k{i}_1..k{i}_4, lam terms last under ``if lam:``."""
    lines = re.sub(r"\bd(\d)\b", rf"k{i}_\1", field).splitlines()
    terms = ["    " + line for line in lines if "lam" in line]
    return [line for line in lines if "lam" not in line] + (["if lam:", *terms] if terms else [])


@functools.cache
def _compiled(model: str) -> tuple:
    """``make_rhs(a1, a2, lam)`` and the DP5 ``run`` of one model, from its field text."""
    field = _FIELDS[model]
    n = 3 if model == "dim3" else 4

    def listed(name: str) -> str:
        return ", ".join(f"{name}{j}" for j in range(1, n + 1))

    source = _MAKE_RHS.format(
        xs=listed("x"), ds=listed("d"), field=textwrap.indent(field, " " * 8)
    ) + _RUN.format(
        n=n,
        xs=listed("x"),
        ys=listed("y"),
        ws=listed("w"),
        k1s=listed("k1_"),
        k7s=listed("k7_"),
        k1=textwrap.indent("\n".join(_stage(field, 1)), " " * 4),
        steps=textwrap.indent("\n".join(_step_lines(field, n)), " " * 8),
        speed2=" + ".join(f"k1_{j} * k1_{j}" for j in range(1, n + 1)),
        # a square is never -0.0, so the sum needs no leading 0.0
        err2=" + ".join(f"e{j} * e{j}" for j in range(1, n + 1)),
        h_max=H_MAX,
        stop_margin=STOP_MARGIN,
        spacing=SAMPLE_SPACING,
        margin=0.9 * SAMPLE_SPACING,
        shrink=0.7 * SAMPLE_SPACING,
    )
    namespace = {"array": array, "math": math}
    exec(compile(source, f"<bykov.flow {model}>", "exec"), namespace)
    return namespace["make_rhs"], namespace["run"]


def integrate(
    x0,
    T: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    *,
    config: ModelConfig,
) -> TrajectorySeries:
    """Adaptive Dormand-Prince 5(4) integration over [0, T].

    Every accepted step is an output sample; the step size is capped at
    ``H_MAX`` and so that consecutive samples differ by less than
    ``SAMPLE_SPACING`` in state norm, which keeps the series dense
    without interpolation error.  States are never projected back onto the
    sphere: sphere invariance is one of the things being measured.
    Step-size underflow returns the partial series with a failure marker.

    The loop runs the model's generated step (``_compiled``): the seven
    stages written out over the model's ``config.dim`` coordinate slots,
    with its vector field inlined and the tableau as constants.  It stores
    each sample as raw float64 in two flat ``array('d')`` buffers, the
    times and the states row after row; ``times`` and ``states`` of the
    result are numpy views of those buffers, not copies.
    """
    if not (math.isfinite(rtol) and rtol >= 0.0):
        raise ParameterError(f"rtol must be finite and >= 0, got {rtol}")
    if not (math.isfinite(atol) and atol > 0.0):
        raise ParameterError(f"atol must be finite and > 0, got {atol}")
    x0 = tuple(float(v) for v in x0)
    if len(x0) != config.dim or not all(map(math.isfinite, x0)):
        raise ParameterError(f"x0 must be {config.dim} finite numbers, got {x0}")
    if not (math.isfinite(T) and T > STOP_MARGIN):
        raise ParameterError(f"T must be finite and > {STOP_MARGIN}, got {T}")
    _, run = _compiled(config.model)
    times, states, accepted, rejected, max_err, err_budget, failure = run(
        *x0, T, rtol, atol, config.alpha1, config.alpha2, config.lam
    )
    times = np.frombuffer(times)
    states = np.frombuffer(states).reshape(-1, config.dim)
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


def _first_collapse(times: np.ndarray, states: np.ndarray) -> tuple[int, float] | None:
    zero = states == 0.0
    zero[:, zero[0]] = False
    rows, cols = np.nonzero(zero)  # row-major: earliest sample, then lowest coordinate
    return (int(cols[0]), float(times[rows[0]])) if len(rows) else None


def sphere_residual(series: TrajectorySeries) -> float:
    """Worst |r^2 - 1| once the trajectory has genuinely reached the sphere.

    On-sphere starts (within ``SPHERE_BAND``) are measured over the whole
    run.  Off-sphere starts are measured after the radial transient: from
    the first band entry plus ``SPHERE_SETTLE`` (the radial contraction
    rate at the sphere is 2, so the deterministic remainder after the
    settle period is below the measurement floor).  The zero state is the
    one excluded equilibrium of the radial dynamics and is rejected.
    """
    if series.states.shape[1] != 4:
        raise ValueError("sphere residual is defined for the 4D model")
    r2 = series.r2()
    if r2[0] == 0.0:
        raise ValueError("zero initial state: the radial dynamics excludes the origin")
    dev = np.abs(r2 - 1.0)
    if dev[0] <= SPHERE_BAND:
        return float(dev.max())
    inside = np.nonzero(dev <= SPHERE_BAND)[0]
    if len(inside) == 0:
        return math.inf
    t_start = series.times[inside[0]] + SPHERE_SETTLE
    tail = dev[series.times >= t_start]
    return float(tail.max()) if len(tail) else math.inf


def _pole_distance(states: np.ndarray, pole) -> np.ndarray:
    """Distance of each row of ``states`` to ``pole`` (inf on overflow): dwells, chirality and replay share it."""
    with np.errstate(over="ignore"):
        return np.sqrt(sum((column - c) ** 2 for column, c in zip(states.T, pole)))


@dataclass(frozen=True)
class ChiralityReport:
    verdict: str
    message: str
    theta_dot_near_v: tuple[float, float]
    theta_dot_near_w: tuple[float, float]
    samples_near_v: int
    samples_near_w: int
    max_identity_residual: float


def chirality_check(config: ModelConfig, series: TrajectorySeries) -> ChiralityReport:
    """Compare the angular-velocity sign near the two poles.

    theta' = (x1 x2' - x2 x1') / (x1^2 + x2^2) is evaluated on trajectory
    samples within ``CHIRALITY_RADIUS`` of each pole where x1^2 + x2^2
    exceeds ``PLANE_FLOOR``; the verdict is "different" when the signs are
    opposite throughout, "same" when they agree throughout.
    The algebraic identity x1 x2' - x2 x1' = rot * (x1^2 + x2^2) (rot = x4
    for the lift with chirality, rot = 1 for the control lift) is asserted
    pointwise along the whole series.
    """
    if config.dim != 4:
        raise ValueError("chirality is diagnosed on the 4D models")
    states = series.states
    x1, x2, _, x4 = states.T
    # Python floats overflow to inf and nan silently; so does this
    with np.errstate(over="ignore", invalid="ignore"):
        d1, d2, _, _ = make_rhs(config)(*states.T)
        cross = x1 * d2 - x2 * d1
        del d1, d2
        plane = x1 * x1 + x2 * x2
        rot = 1.0 if config.model == "example4d_same_lift" else x4
        # fmax skips nan residuals, as the builtin max did
        max_resid = float(np.fmax.reduce(np.abs(cross - rot * plane), initial=0.0))
    measurable = plane > PLANE_FLOOR
    theta_dot, side = [], []
    for pole in (V_POLE, W_POLE):
        near = (_pole_distance(states, pole) < CHIRALITY_RADIUS) & measurable
        theta_dot.append(cross[near] / plane[near])
        # +1 or -1 where every sample has that sign (copysign reads -0.0 as
        # negative), 0 where the signs are mixed
        signs = np.copysign(1.0, theta_dot[-1])
        side.append(1 if np.all(signs > 0) else -1 if np.all(signs < 0) else 0)
    if not (len(theta_dot[0]) and len(theta_dot[1])):
        verdict, msg = "inconclusive", "no trajectory samples near one of the equilibria; integrate longer"
    elif side[0] * side[1] < 0:
        verdict, msg = "different", "angular velocity changes sign between the nodes"
    elif side[0] * side[1] > 0:
        verdict, msg = "same", "angular velocity keeps its sign at both nodes"
    else:
        verdict, msg = "inconclusive", "mixed angular-velocity signs near a node"
    # argmin/argmax pick the first of equal extremes, so a range that ends at
    # zero keeps the sign of the first zero seen
    ranges = [(float(v[np.argmin(v)]), float(v[np.argmax(v)])) if len(v) else (math.inf, -math.inf) for v in theta_dot]
    return ChiralityReport(
        verdict=verdict,
        message=msg,
        theta_dot_near_v=ranges[0],
        theta_dot_near_w=ranges[1],
        samples_near_v=len(theta_dot[0]),
        samples_near_w=len(theta_dot[1]),
        max_identity_residual=max_resid,
    )


@dataclass(frozen=True)
class Dwell:
    node: str
    t_enter: float
    t_exit: float
    duration: float


@dataclass(frozen=True)
class SojournReport:
    dwells: tuple[Dwell, ...]
    ratios_v: tuple[float, ...]
    ratios_w: tuple[float, ...]
    median_ratio: float
    discarded: int


def _dwell_segments(series: TrajectorySeries, radius: float) -> list[Dwell]:
    # the 3D model's poles (0, 0, +-1) are the last coordinates of the 4D ones
    dim = series.states.shape[1]
    dist = {n: _pole_distance(series.states, pole[-dim:]) for n, pole in (("v", V_POLE), ("w", W_POLE))}
    times = series.times
    # the node of each sample: 0 for none, 1 for v, 2 for w (v first when both are near)
    code = np.where(dist["v"] < radius, 1, np.where(dist["w"] < radius, 2, 0))
    dwells: list[Dwell] = []
    current: str | None = None
    t_enter = 0.0

    def crossing(i: int, d: np.ndarray, radius: float) -> float:
        # linear interpolation of the boundary crossing between samples i-1, i
        # a change of node crosses the radius strictly, so d0 != d1
        d0, d1 = d[i - 1], d[i]
        w = (radius - d0) / (d1 - d0)
        return float(times[i - 1] + w * (times[i] - times[i - 1]))

    # only the samples where the node changes; the run starts at no node
    for i in np.flatnonzero(np.diff(code, prepend=0)).tolist():
        node = (None, "v", "w")[code[i]]
        if current is not None:
            t_exit = crossing(i, dist[current], radius)
            dwells.append(Dwell(node=current, t_enter=t_enter, t_exit=t_exit, duration=t_exit - t_enter))
        if node is not None:
            t_enter = crossing(i, dist[node], radius) if i > 0 else float(times[0])
        current = node
    return dwells


def sojourn_analysis(series: TrajectorySeries, neighborhood_radius: float = 0.3) -> SojournReport:
    """Dwell episodes near the two nodes and the geometric growth of their lengths.

    The headline statistic is the median of ratios of consecutive same-node
    dwell durations, computed after dropping the first ``DWELL_DISCARD``
    dwells (transient); a dwell still open at the horizon is not counted.  The poles
    are 2 apart, so the radius must lie in (0, 1] for their open
    neighbourhoods to be disjoint.
    """
    if not 0.0 < neighborhood_radius <= 1.0:
        raise ParameterError(f"neighborhood_radius must lie in (0, 1], got {neighborhood_radius}")
    dwells = _dwell_segments(series, neighborhood_radius)
    if len(dwells) < 2:
        raise InsufficientDataError(
            f"need at least 2 complete dwell episodes, found {len(dwells)}"
        )
    usable = dwells[DWELL_DISCARD:]
    durations: dict[str, list[float]] = {"v": [], "w": []}
    for d in usable:
        durations[d.node].append(d.duration)
    ratios = {
        n: tuple(b / a for a, b in zip(durations[n], durations[n][1:])) for n in ("v", "w")
    }
    pooled = ratios["v"] + ratios["w"]
    if not pooled:
        raise InsufficientDataError("not enough same-node dwell pairs after transient discard")
    return SojournReport(
        dwells=tuple(dwells),
        ratios_v=ratios["v"],
        ratios_w=ratios["w"],
        median_ratio=statistics.median(pooled),
        discarded=DWELL_DISCARD,
    )


def boundary_residual(series: TrajectorySeries, report: SojournReport, neighborhood_radius: float = 0.3) -> float:
    """Worst distance of a dwell boundary from the radius sphere around its node.

    Each entry and exit strictly inside the run is replayed on the series,
    the state interpolated linearly between the samples on either side.  The
    boundary times interpolate the distance instead, so on chords shorter
    than ``SAMPLE_SPACING`` the miss stays below ``SAMPLE_SPACING**2 / radius``.
    """
    times, states = series.times, series.states
    worst = 0.0
    for node, pole in (("v", V_POLE), ("w", W_POLE)):
        t = np.array([b for d in report.dwells if d.node == node for b in (d.t_enter, d.t_exit)])
        t = t[(times[0] < t) & (t < times[-1])]
        i = np.searchsorted(times, t)
        w = (t - times[i - 1]) / (times[i] - times[i - 1])
        at = states[i - 1] + w[:, None] * (states[i] - states[i - 1])
        miss = np.abs(_pole_distance(at, pole[-states.shape[1]:]) - neighborhood_radius)
        worst = max(worst, float(np.max(miss, initial=0.0)))
    return worst


def invariant_subspace_residuals(series: TrajectorySeries, config: ModelConfig) -> dict[str, float]:
    """Max drift out of the coordinate subspaces the start belongs to.

    4D: the hyperplane x3 = 0 (exactly invariant when lam = 0); 3D: the
    planes x = 0 and y = 0.  Empty when the start lies in none of them.
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
    return out
