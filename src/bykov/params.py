"""Model parameters, derived constants and parameter-region classification.

The model near the cycle is fully determined by the six linearisation rates
at the two saddle-foci, the transition shear ``a`` and the cross-section
radius ``eps``.  Reversals of the exit curve exist exactly when the crossing
level K = alpha_v * E_w / alpha_w lies between the extrema of the turning
function A(phi) (see :mod:`bykov.returncurve`).  A is a degree-two
trigonometric polynomial, A(phi) = m + R cos(2 phi - theta), so its extrema
m -/+ R are exact; this module classifies a parameter point accordingly and
decides rationality of the twist ratio gamma with a continued-fraction
surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

SADDLE_FIELDS = ("alpha_v", "C_v", "E_v", "alpha_w", "C_w", "E_w", "a", "eps")

# each region tag and its case: I has no reversals, II and III rational
# and dense reversals inside B, IV the tangential crossing on its boundary
_CASE_OF_TAG = {
    "NoReversal_aEq1": "I",
    "OutsideB": "I",
    "BoundaryB": "IV",
    "InteriorB_GammaRational": "II",
    "DenseReversals_D": "III",
}
REGION_TAGS = tuple(_CASE_OF_TAG)

# The one rationality policy: gamma counts as rational when a convergent
# p/q with q <= Q_MAX lies within RATIONALITY_TOL of it.  By Dirichlet's
# theorem every gamma has a p/q, q <= Q_MAX, within 1/(q Q_MAX), so past
# Q_MAX**2 * RATIONALITY_TOL = 0.01 nearly every gamma would count as rational.
RATIONALITY_TOL = 1e-10
Q_MAX = 10**4


class ParameterError(ValueError):
    """Invalid model parameter; the message names the offending field."""


@dataclass(frozen=True)
class SaddleParams:
    """Linearisation rates at the two nodes plus shear and section size.

    ``alpha_*`` are angular frequencies, ``C_*`` contraction rates and
    ``E_*`` expansion rates (all strictly positive).  ``a >= 1`` is the
    transition shear between the two disk sections and ``eps`` the
    radius/half-height of the cylindrical section neighbourhoods.
    """

    alpha_v: float
    C_v: float
    E_v: float
    alpha_w: float
    C_w: float
    E_w: float
    a: float = 2.0
    eps: float = 0.5

    def __post_init__(self) -> None:
        for name in SADDLE_FIELDS[:6]:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ParameterError(f"{name} must be a finite number, got {value!r}")
            if value <= 0:
                raise ParameterError(f"{name} must be strictly positive, got {value}")
        if not math.isfinite(self.a) or self.a < 1.0:
            raise ParameterError(f"a must satisfy a >= 1, got {self.a}")
        if not math.isfinite(self.eps) or self.eps <= 0:
            raise ParameterError(f"eps must be strictly positive, got {self.eps}")

    def to_dict(self) -> dict[str, float]:
        return {name: float(getattr(self, name)) for name in SADDLE_FIELDS}

    @cached_property
    def constants(self) -> DerivedConstants:
        """The point's :class:`DerivedConstants`, computed on first use and kept."""
        return derive_constants(self)


@dataclass(frozen=True)
class DerivedConstants:
    """All constants the closed-form local and composed maps need."""

    delta_v: float
    delta_w: float
    delta: float
    g_v: float
    g_w: float
    gamma: float
    c1: float
    c2: float
    c3: float
    c4: float


def derive_constants(p: SaddleParams) -> DerivedConstants:
    """Compute saddle indices, twist rates and section constants.

    Pure function of the validated parameters.  ``g_w`` is negative: the
    two nodes have different chirality, so the angular rate at the second
    node enters with the opposite sign, and ``c3`` takes that sign from it.
    """
    delta_v = p.C_v / p.E_v
    delta_w = p.C_w / p.E_w
    g_v = p.alpha_v / p.E_v
    g_w = -p.alpha_w / p.E_w
    log_eps = math.log(p.eps)
    return DerivedConstants(
        delta_v=delta_v,
        delta_w=delta_w,
        delta=delta_v * delta_w,
        g_v=g_v,
        g_w=g_w,
        gamma=(p.alpha_w / p.alpha_v) * (p.C_v / p.E_w),
        c1=_section_power(p, "c1", delta_v, "C_v", "E_v"),
        c2=g_v * log_eps,
        c3=g_w * log_eps,
        c4=_section_power(p, "c4", delta_w, "C_w", "E_w"),
    )


def _section_power(p: SaddleParams, name: str, index: float, rate_c: str, rate_e: str) -> float:
    """eps ** (1 - index) for one node's saddle index C/E; an overflow or underflow names the three fields behind it."""
    try:
        value = p.eps ** (1.0 - index)
    except OverflowError:
        value = math.inf
    if 0.0 < value < math.inf:
        return value
    failure = "underflows to 0" if value == 0.0 else "overflows"
    c, e = getattr(p, rate_c), getattr(p, rate_e)
    raise ParameterError(
        f"{name} = eps**(1 - {rate_c}/{rate_e}) {failure} for {rate_c}={c}, {rate_e}={e}, eps={p.eps}"
    )


@dataclass(frozen=True)
class GammaRationality:
    """Best rational approximation of gamma with bounded denominator."""

    is_rational_within_tol: bool
    p: int
    q: int
    error: float
    tol: float
    q_max: int


def is_gamma_rational(gamma: float) -> GammaRationality:
    """Continued-fraction surrogate for the undecidable irrationality test.

    Walks the convergents p/q of gamma with q <= Q_MAX and reports the best
    one; gamma counts as rational when the best error is below
    ``RATIONALITY_TOL``.
    """
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(gamma)), 1
    best_p, best_q = p_cur, q_cur
    best_err = abs(gamma - p_cur)
    x = gamma - math.floor(gamma)
    for _ in range(64):
        if best_err == 0.0 or x < 1e-18:
            break
        x = 1.0 / x
        digit = int(math.floor(x))
        x -= digit
        p_next = digit * p_cur + p_prev
        q_next = digit * q_cur + q_prev
        if q_next > Q_MAX:
            break
        err = abs(gamma - p_next / q_next)
        if err < best_err:
            best_err, best_p, best_q = err, p_next, q_next
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_next, q_next
    return GammaRationality(
        is_rational_within_tol=bool(best_err < RATIONALITY_TOL),
        p=best_p,
        q=best_q,
        error=best_err,
        tol=RATIONALITY_TOL,
        q_max=Q_MAX,
    )


@dataclass(frozen=True)
class Region:
    """Classification of a parameter point against the reversal sets.

    ``a_min``/``a_max`` are the global extrema of the turning function over
    one period and ``k`` the crossing level alpha_v * E_w / alpha_w.
    """

    tag: str
    a_min: float
    a_max: float
    k: float
    gamma_rationality: GammaRationality

    @property
    def case(self) -> str:
        """The tag's case, I to IV; a property, so that region.json does not carry it."""
        return _CASE_OF_TAG[self.tag]


def turning_harmonic(p: SaddleParams) -> tuple[float, float, float]:
    """The turning function as A(phi) = m + R cos(2 phi - theta); returns (m, R, theta).

    Expanding cos^2, sin^2 and sin*cos in the double angle gives
    m = C_v (a^2 + a^-2)/2, R = (a^2 - a^-2)/2 * hypot(C_v, alpha_v) and
    theta = atan2(alpha_v, C_v).  The extrema are m -/+ R, taken at
    phi = (theta + pi)/2 and theta/2 (mod pi).
    """
    a2 = p.a * p.a
    m = p.C_v * (a2 + 1.0 / a2) / 2.0
    r = 0.5 * (a2 - 1.0 / a2) * math.hypot(p.C_v, p.alpha_v)
    return m, r, math.atan2(p.alpha_v, p.C_v)


def turning_level(p: SaddleParams) -> float:
    """Crossing level K = alpha_v * E_w / alpha_w (equals C_v / gamma)."""
    return p.alpha_v * p.E_w / p.alpha_w


def classify_region(p: SaddleParams) -> Region:
    """Place the parameter point in one of the five reversal regions.

    Membership is decided by the extrema condition a_min < K < a_max, i.e.
    |K - m| < R with the exact harmonic form of :func:`turning_harmonic`;
    shear a = 1 short-circuits to the no-reversal tag because the exit
    coordinates are then monotone regardless of K.  Inside B the one
    rationality policy (``RATIONALITY_TOL``, ``Q_MAX``) picks the tag.
    """
    rationality = is_gamma_rational(p.constants.gamma)
    m, r, _ = turning_harmonic(p)
    a_min, a_max = m - r, m + r
    level = turning_level(p)
    if p.a == 1.0:
        tag = "NoReversal_aEq1"
    elif min(abs(level - a_min), abs(level - a_max)) < 1e-9:
        tag = "BoundaryB"
    elif abs(level - m) >= r:
        # the test turning_crossings applies, so that an interior tag always
        # comes with a transversal root pair, even where the boundary band is
        # finer than the float spacing of the extrema
        tag = "OutsideB"
    elif rationality.is_rational_within_tol:
        tag = "InteriorB_GammaRational"
    else:
        tag = "DenseReversals_D"
    return Region(
        tag=tag,
        a_min=a_min,
        a_max=a_max,
        k=level,
        gamma_rationality=rationality,
    )


def load_exact_keys(source, fields: dict[str, type]) -> dict:
    """Check a decoded JSON document: an object whose keys are exactly ``fields``, each of its declared type.

    ``fields`` maps a key to ``float`` (any JSON number, returned as float)
    or ``str``.  Unknown keys are an error: a typo must not silently change
    the dynamics.  Missing keys and mistyped values are reported by name.
    """
    if not isinstance(source, dict):
        raise ParameterError("parameter document must be a JSON object")
    unknown = sorted(set(source) - set(fields))
    if unknown:
        raise ParameterError(f"unknown parameter key(s): {', '.join(unknown)}")
    missing = sorted(set(fields) - set(source))
    if missing:
        raise ParameterError(f"missing parameter key(s): {', '.join(missing)}")
    values = {}
    for name, kind in fields.items():
        value = source[name]
        if kind is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParameterError(f"{name} must be a number, got {value!r}")
            value = float(value)
        elif not isinstance(value, kind):
            raise ParameterError(f"{name} must be a {kind.__name__}, got {value!r}")
        values[name] = value
    return values


def load_saddle_params(source) -> SaddleParams:
    """Parameters from a decoded JSON object with exactly the eight canonical keys."""
    p = SaddleParams(**load_exact_keys(source, dict.fromkeys(SADDLE_FIELDS, float)))
    p.constants  # a section constant that overflows or underflows is refused here, by field
    return p
