import ast
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bykov import cli, flow, horseshoe, oracles, params, returncurve
from bykov.params import (
    Q_MAX,
    RATIONALITY_TOL,
    ParameterError,
    SaddleParams,
    classify_region,
    derive_constants,
    is_gamma_rational,
    load_saddle_params,
    turning_level,
)
from bykov.returncurve import turning_function
from conftest import random_admissible


def test_derive_constants_fig_parameters():
    p = SaddleParams(alpha_v=1, C_v=1.1, E_v=0.9, alpha_w=1, C_w=1.1, E_w=0.9, a=2, eps=0.5)
    k = derive_constants(p)
    assert k.delta == pytest.approx((1.1 / 0.9) ** 2, rel=1e-12)


def test_derive_constants_unit_point(unit_params):
    k = derive_constants(unit_params)
    assert (k.delta_v, k.delta_w, k.delta, k.gamma) == (1.0, 1.0, 1.0, 1.0)
    assert (k.g_v, k.g_w) == (1.0, -1.0)
    assert (k.c1, k.c2, k.c3, k.c4) == (1.0, 0.0, 0.0, 1.0)


def test_derive_constants_direct_evaluation():
    # frozen values from independent evaluation of the defining formulas
    p = SaddleParams(alpha_v=1.0, C_v=2.0, E_v=1.0, alpha_w=3.0, C_w=1.0, E_w=2.0, a=1.5, eps=0.1)
    k = derive_constants(p)
    assert k.gamma == pytest.approx(3.0, rel=1e-15)
    assert k.delta_v == pytest.approx(2.0, rel=1e-15)
    assert k.delta_w == pytest.approx(0.5, rel=1e-15)
    assert k.delta == pytest.approx(1.0, rel=1e-15)
    assert k.g_v == pytest.approx(1.0, rel=1e-15)
    assert k.g_w == pytest.approx(-1.5, rel=1e-15)
    assert k.c1 == pytest.approx(10.0, rel=1e-12)
    assert k.c2 == pytest.approx(-2.3025850929940455, rel=1e-14)
    assert k.c3 == pytest.approx(3.4538776394910684, rel=1e-14)
    assert k.c4 == pytest.approx(0.31622776601683794, rel=1e-14)


def test_derive_constants_pure():
    p = SaddleParams(alpha_v=0.7, C_v=1.3, E_v=0.4, alpha_w=2.2, C_w=0.9, E_w=1.1, a=1.7, eps=0.33)
    assert derive_constants(p) == derive_constants(p)


def test_gamma_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = random_admissible(rng)
        k = derive_constants(p)
        assert k.gamma == pytest.approx(-k.g_w * k.delta_v / k.g_v, rel=1e-12)


@pytest.mark.parametrize(
    "field,value",
    [
        ("alpha_v", 0.0),
        ("C_v", -1.0),
        ("E_w", 0.0),
        ("a", 0.9),
        ("eps", 0.0),
    ],
)
def test_validation_names_offending_field(field, value):
    kwargs = dict(alpha_v=1.0, C_v=1.0, E_v=1.0, alpha_w=1.0, C_w=1.0, E_w=1.0, a=2.0, eps=0.5)
    kwargs[field] = value
    with pytest.raises(ParameterError, match=field):
        SaddleParams(**kwargs)


def test_rationality_integers():
    rec = is_gamma_rational(2.0)
    assert rec.is_rational_within_tol and (rec.p, rec.q) == (2, 1)
    rec = is_gamma_rational(1.0)
    assert rec.is_rational_within_tol and (rec.p, rec.q) == (1, 1)


@pytest.mark.parametrize("gamma", [0.0, -0.5])
def test_rationality_refuses_gamma_at_or_below_zero(gamma):
    with pytest.raises(ParameterError, match=f"^gamma must be positive, got {gamma}$"):
        is_gamma_rational(gamma)


def test_rationality_sqrt2_small_denominators():
    # best convergent with q <= 1e4 is 8119/5741, error ~1.07e-8
    rec = is_gamma_rational(math.sqrt(2.0))
    assert not rec.is_rational_within_tol
    assert (rec.p, rec.q) == (8119, 5741)
    assert rec.error == pytest.approx(1.0727040367086715e-08, rel=1e-6)


def test_rational_share_at_default_policy():
    gammas = np.random.default_rng(0).uniform(0.1, 5.0, size=10**4)
    rational = sum(is_gamma_rational(float(g)).is_rational_within_tol for g in gammas)
    assert rational / len(gammas) < 0.01


def test_default_policy_separates_small_denominators_from_irrationals():
    fractions = {p / q for q in range(1, 200) for p in range(1, 5 * q + 1)}
    assert all(is_gamma_rational(g).is_rational_within_tol for g in fractions)
    irrationals = [math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), (1.0 + math.sqrt(5.0)) / 2.0, math.e, math.pi]
    assert not any(is_gamma_rational(g).is_rational_within_tol for g in irrationals)


def test_classify_interior_tags_at_default_policy(dense_params, rational_params):
    assert classify_region(dense_params).tag == "DenseReversals_D"
    assert classify_region(rational_params).tag == "InteriorB_GammaRational"


def test_policy_within_dirichlet_bound():
    # every gamma has a p/q, q <= Q_MAX, within 1/(q Q_MAX): past this bound
    # nearly every gamma would count as rational
    assert 0.0 < Q_MAX**2 * RATIONALITY_TOL <= 0.01


# parameter names of every public function, one defined in its module under a
# name without a leading underscore: a new knob has to be added here
PUBLIC_SIGNATURES = {
    params: {
        "derive_constants": ("p",),
        "is_gamma_rational": ("gamma",),
        "turning_harmonic": ("p",),
        "turning_level": ("p",),
        "classify_region": ("p",),
        "load_exact_keys": ("source", "fields"),
        "load_saddle_params": ("source",),
    },
    returncurve: {
        "wrap_pi": ("x",),
        "circle_dist": ("x", "y"),
        "turning_function": ("phi", "p"),
        "turning_crossings": ("p",),
        "exit_curve": ("t", "u", "p"),
        "curve_sample": ("t", "s", "p"),
        "curve_arrays": ("t", "s", "p"),
        "reversal_sequence": ("t", "n_max", "p"),
        "find_tangency": ("x0", "t", "n_max", "p"),
    },
    horseshoe: {
        "jacobian_report": ("x", "y", "p"),
        "build_strips": ("tau", "n_limit", "p"),
        "strip_boundary_residual": ("family", "p"),
        "strip_family_violations": ("family", "p"),
        "strip_image_report": ("family", "p"),
        "find_multipulse": ("n", "p", "x0", "s_window"),
    },
    flow: {
        "load_model_config": ("source",),
        "make_rhs": ("config",),
        "equilibria_spectrum": ("config",),
        "integrate": ("x0", "T", "rtol", "atol", "config"),
        "sphere_residual": ("series",),
        "chirality_check": ("config", "series"),
        "sojourn_analysis": ("series", "neighborhood_radius"),
        "boundary_residual": ("series", "report", "neighborhood_radius"),
        "invariant_subspace_residuals": ("series", "config"),
    },
    oracles: {
        "phi_v": ("p", "k"),
        "phi_w": ("p", "k"),
        "psi_vw": ("p", "a"),
        "psi_wv": ("p", "bump"),
        "polar_rect": ("p",),
        "rect_polar": ("p", "branch_hint"),
        "flight_map_v": ("x", "y", "p"),
        "flight_map_w": ("r", "phi", "p"),
        "eta_composed": ("t", "s", "p"),
        "eta_log": ("t", "u", "p"),
        "composed_return": ("point", "p"),
        "replay_pulse": ("s0", "n", "p", "x0"),
        "return_jacobian_chain": ("x", "y", "p"),
        "numeric_jacobian": ("config", "state"),
        "turning_range_grid": ("p",),
        "rotation_identity_residual": ("s0", "n", "t", "p"),
    },
    cli: {
        "cmd_classify": ("args", "p"),
        "cmd_curve": ("args", "p"),
        "cmd_reversals": ("args", "p"),
        "cmd_tangency": ("args", "p"),
        "cmd_strips": ("args", "p"),
        "cmd_jacobian": ("args", "p"),
        "cmd_multipulse": ("args", "p"),
        "cmd_simulate": ("args", "config"),
        "cmd_sojourn": ("args", "config"),
        "build_parser": (),
        "main": ("argv",),
    },
}


@pytest.mark.parametrize("module", list(PUBLIC_SIGNATURES), ids=lambda m: m.__name__)
def test_public_signatures(module):
    got = {
        name: tuple(inspect.signature(fn).parameters)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }
    assert got == PUBLIC_SIGNATURES[module]


# the oracles that ``bykov <command> --verify`` replays and the wall point
# that ``tangency --verify`` carries through ``psi_wv``; nothing else in
# production may import from bykov.oracles, which holds the elementary maps
VERIFY_ORACLES = {
    "eta_log",
    "psi_wv",
    "replay_pulse",
    "return_jacobian_chain",
    "turning_range_grid",
    "OUT_W",
    "WallPoint",
}
BYKOV_MODULES = {"__init__", "params", "returncurve", "horseshoe", "flow", "oracles"}


def _bykov_imports(path: Path) -> set[tuple[str, str]]:
    """(bykov module, imported name) for every import of the package in a source file.

    A whole module m, as in ``import bykov.m`` or ``from . import m``, is (m, "*").
    """
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name.partition(".") for a in node.names]
            found |= {(sub or "__init__", "*") for pkg, _, sub in names if pkg == "bykov"}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "bykov"):
            module = node.module if node.level else node.module.partition(".")[2]
            if module:
                found |= {(module, a.name) for a in node.names}
            else:
                found |= {(a.name, "*") if a.name in BYKOV_MODULES else ("__init__", a.name) for a in node.names}
    return found


PRODUCTION_SOURCES = [p for p in sorted(Path(params.__file__).parent.glob("*.py")) if p.stem != "oracles"]


@pytest.mark.parametrize("path", PRODUCTION_SOURCES, ids=lambda p: p.name)
def test_production_imports_no_elementary_map(path):
    imports = _bykov_imports(path)
    assert {module for module, _ in imports} <= BYKOV_MODULES
    from_oracles = {name for module, name in imports if module == "oracles"}
    assert from_oracles == (VERIFY_ORACLES if path.stem == "cli" else set())


def test_classify_a_equals_one():
    p = SaddleParams(alpha_v=0.9, C_v=1.4, E_v=0.6, alpha_w=2.0, C_w=1.0, E_w=0.8, a=1.0, eps=0.5)
    assert classify_region(p).tag == "NoReversal_aEq1"


def test_classify_level_at_a_squared_times_contraction():
    # K = A(0) = C_v a^2 = 4; the grid oracle decides interior vs boundary
    p = SaddleParams(alpha_v=1.0, C_v=1.0, E_v=1.0, alpha_w=1.0, C_w=1.0, E_w=4.0, a=2.0, eps=0.5)
    region = classify_region(p)
    grid = np.linspace(0.0, math.pi, 200_001)
    vals = turning_function(grid, p)
    level = turning_level(p)
    assert level == pytest.approx(4.0)
    if vals.min() < level < vals.max():
        assert region.tag in ("InteriorB_GammaRational", "DenseReversals_D", "BoundaryB")
    else:
        assert region.tag in ("OutsideB", "BoundaryB")
    assert region.tag == "InteriorB_GammaRational"  # gamma = 1/4 here


def test_classify_outside_when_level_huge():
    p = SaddleParams(alpha_v=1.0, C_v=1.0, E_v=1.0, alpha_w=1.0, C_w=1.0, E_w=100.0, a=2.0, eps=0.5)
    region = classify_region(p)
    grid = np.linspace(0.0, math.pi, 200_001)
    assert float(np.max(turning_function(grid, p))) < 100.0
    assert region.tag == "OutsideB"


def test_loader_roundtrip(tmp_path):
    p = SaddleParams(alpha_v=0.2, C_v=1.0, E_v=0.8, alpha_w=2.5, C_w=4.0, E_w=2.0, a=2.0, eps=0.5)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(p.to_dict()))
    assert load_saddle_params(json.loads(path.read_text())) == p


def test_loader_rejects_unknown_key(tmp_path):
    doc = {
        "alpha_v": 1, "C_v": 1, "E_v": 1, "alpha_w": 1, "C_w": 1, "E_w": 1,
        "a": 2, "eps": 0.5, "alpha_x": 3,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParameterError, match="alpha_x"):
        load_saddle_params(json.loads(path.read_text()))


def test_loader_rejects_missing_key():
    doc = {"alpha_v": 1, "C_v": 1, "E_v": 1, "alpha_w": 1, "C_w": 1, "E_w": 1, "a": 2}
    with pytest.raises(ParameterError, match="eps"):
        load_saddle_params(doc)


def test_loader_rejects_non_numeric():
    doc = {
        "alpha_v": 1, "C_v": "fast", "E_v": 1, "alpha_w": 1, "C_w": 1, "E_w": 1,
        "a": 2, "eps": 0.5,
    }
    with pytest.raises(ParameterError, match="C_v"):
        load_saddle_params(doc)
