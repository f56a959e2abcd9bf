"""Referees that only tests read: independent routes to what ``src/bykov`` computes.

Each is the one check of what it referees, and no ``bykov`` command,
``--verify`` replay or benchmark workload calls it, so it lives beside the
tests rather than in the package:

* :func:`flight_map_v` and :func:`flight_map_w` integrate the linear node
  dynamics for their time of flight, against the closed-form local maps
  ``phi_v`` and ``phi_w`` of :mod:`bykov.oracles`;
* :func:`numeric_jacobian` differences the vector field, against the pole
  spectrum of :mod:`bykov.flow`;
* :func:`rotation_identity_residual` evaluates the closed form twice, to
  check the identity the reversal enumeration extrapolates with;
* :func:`reversal_angle_set` walks the reversal lattice with no floor,
  past the underflow of s.
"""

from __future__ import annotations

import math

import numpy as np

from bykov.flow import ModelConfig, make_rhs
from bykov.oracles import OUT_V, OUT_W, DiskPoint, OnManifoldError, WallPoint
from bykov.params import SaddleParams
from bykov.returncurve import ReversalSequence, _check_walk, _reversal_walk, curve_arrays


def flight_map_v(x: float, y: float, p: SaddleParams) -> DiskPoint:
    """Time-of-flight oracle for ``phi_v`` using exact exponentials.

    Integrates the linear node dynamics from (rho, theta, z) = (eps, x, y)
    until z = eps; independent of the closed-form map.
    """
    if y <= 0.0:
        raise OnManifoldError("point on the stable manifold of the first node (y <= 0)")
    flight = math.log(p.eps / y) / p.E_v
    return DiskPoint(
        section=OUT_V,
        r=p.eps * math.exp(-p.C_v * flight),
        phi=x + p.alpha_v * flight,
    )


def flight_map_w(r: float, phi: float, p: SaddleParams) -> WallPoint:
    """Time-of-flight oracle for ``phi_w`` (enter disk at z = eps, exit at rho = eps)."""
    if r <= 0.0:
        raise OnManifoldError("point on the stable manifold of the second node (r <= 0)")
    flight = math.log(p.eps / r) / p.E_w
    return WallPoint(
        section=OUT_W,
        x=phi - p.alpha_w * flight,
        y=p.eps * math.exp(-p.C_w * flight),
    )


def numeric_jacobian(config: ModelConfig, state) -> np.ndarray:
    """Centered finite-difference Jacobian of the vector field at a state, step 1e-6."""
    field = make_rhs(config)
    state = np.asarray(state, dtype=float)
    columns = []
    for j in range(len(state)):
        dp, dm = state.copy(), state.copy()
        dp[j] += 1e-6
        dm[j] -= 1e-6
        columns.append(np.subtract(field(*dp), field(*dm)) / 2e-6)
    return np.column_stack(columns)


def rotation_identity_residual(s0: float, n: int, t: float, p: SaddleParams) -> float:
    """|x_w(s0 e^{-n pi/g_v}) - x_w(s0) - n pi (1 - gamma)|, both points evaluated directly in one call."""
    k = p.constants
    if not 0.0 < s0 <= p.eps:
        raise ValueError(f"s0 must lie in (0, eps], got {s0}")
    s_n = s0 * math.exp(-n * math.pi / k.g_v)
    if not 0.0 < s_n <= p.eps:
        raise ValueError(f"shifted parameter {s_n} left (0, eps]")
    x0, xn = curve_arrays(t, np.array([s0, s_n]), p)[1].tolist()
    return abs(xn - x0 - n * math.pi * (1.0 - k.gamma))


def reversal_angle_set(t: float, n_max: int, p: SaddleParams) -> ReversalSequence:
    """The reversal walk with no floor: the first ``n_max`` turning points from t, past s-underflow.

    The exit angles obey the rotation identity exactly, so they stay
    computable long after s itself underflows to zero, and ``log_s_values``
    stays exact; ``find_tangency`` walks the same lattice.  Refuses what
    ``find_tangency`` refuses of n_max and t, and raises when no reversals exist.
    """
    _check_walk(n_max, t=t)
    return _reversal_walk(t, n_max, p, -math.inf)
