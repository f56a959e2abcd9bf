"""The four benchmark workloads: seeded inputs, one op per unit of work, checks.

Every workload turns ``--seed`` into the inputs of ``POOL_PASSES`` passes
at set-up and then serves the timed loop pass by pass: a pass is a short,
fixed mix of ops, so a run of whole passes always has the same composition.
``PASSES_PER_S`` is about a workload's pass rate at the seed commit; it
fixes how many passes a run makes (see run.py), so the ops a seed runs,
and which of them fail, never depend on the speed of the machine.  An op returns a list of
``(code, message)`` failure reasons; an empty list means every check
passed.  Nothing is filtered out: a raised exception, a wrong exit code or
a failed check all fail the op.

Failure codes name their cause.  Two name defects that the seed commit is
known to have (see ROADMAP.md):

* ``edge-defect`` - ROADMAP item 1: the level K lies within 1e-6 (relative
  to the spread a_max - a_min) inside a turning extremum, the closed form
  says the point has a pair of turning points, and the grid root finder
  finds none, so ``reversal_sequence`` is empty and ``find_tangency``
  raises.
* ``flow-collapse`` - ROADMAP item 4: a coordinate that started nonzero
  became exactly 0.0 during the run while the run reports no failure.

Every other code (``check``, ``exception``, ``exit-code``,
``artifact-hash``) is an unexpected failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bykov.cli import main as cli_main
from bykov.flow import (
    ModelConfig,
    chirality_check,
    equilibria_spectrum,
    integrate,
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
from bykov.oracles import eta_composed, replay_pulse
from bykov.params import REGION_TAGS, SaddleParams, classify_region
from bykov.returncurve import NoReversalsError, curve_arrays, curve_sample, find_tangency, reversal_sequence

KNOWN_DEFECTS = {
    "edge-defect": "ROADMAP item 1: grid root finder misses the turning pair near an extremum",
    "flow-collapse": "ROADMAP item 4: coordinate collapses to exactly 0.0 without a failure flag",
}

INTERIOR_TAGS = ("InteriorB_GammaRational", "DenseReversals_D")
# the defect can only hide a root pair this close to an extremum; farther
# in, an empty reversal sequence is an unexpected failure
EDGE_BAND = 1e-6
# classify_region's default
BOUNDARY_TOL = 1e-9
# a run cycles through these when it is longer
POOL_PASSES = 400

# fixtures of tests/conftest.py
CASE1 = SaddleParams(alpha_v=0.2, C_v=1.0, E_v=0.8, alpha_w=2.5, C_w=4.0, E_w=2.0, a=2.0, eps=0.5)
DENSE = SaddleParams(
    alpha_v=2.0, C_v=1.2, E_v=1.0, alpha_w=(10.0 / 3.0) * math.sqrt(2.0), C_w=2.6, E_w=2.0, a=2.0, eps=0.5
)
RATIONAL = SaddleParams(alpha_v=2.0, C_v=1.2, E_v=1.0, alpha_w=5.0, C_w=2.6, E_w=2.0, a=2.0, eps=0.5)

# start of the README's simulate/sojourn examples; the 3D start is the one
# tests/test_cli.py uses for the seed system
README_X0 = (-0.5, -0.139, -0.8807, 0.3013)
DIM3_X0 = (0.1, 0.4, 0.9)
FLOW_T = 4000.0

CLI_COMMANDS = ("classify", "curve", "reversals", "tangency", "strips", "jacobian", "multipulse", "simulate", "sojourn")

Failures = list  # of (code, message)


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable  # (tracer) -> Failures


def _guarded(failures: Failures, what: str, fn, *args, **kwargs):
    """Run one step; an exception becomes a failure reason and None."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a failed step must not stop the run
        failures.append(("exception", f"{what} raised {type(exc).__name__}: {exc}"))
        return None


# --------------------------------------------------------------------- sweep


def random_admissible(rng: np.random.Generator) -> SaddleParams:
    """Parameter draw of tests/conftest.py."""
    rates = np.exp(rng.uniform(-1.1, 1.1, size=6))
    return SaddleParams(
        alpha_v=float(rates[0]),
        C_v=float(rates[1]),
        E_v=float(rates[2]),
        alpha_w=float(rates[3]),
        C_w=float(rates[4]),
        E_w=float(rates[5]),
        a=float(rng.uniform(1.0, 3.0)),
        eps=float(rng.uniform(0.2, 0.9)),
    )


def harmonic(p: SaddleParams) -> tuple[float, float, float]:
    """Turning function as A(phi) = m + R cos(2 phi - theta); returns (m, R, theta)."""
    a2 = p.a * p.a
    m = p.C_v * (a2 + 1.0 / a2) / 2.0
    r = 0.5 * (a2 - 1.0 / a2) * math.hypot(p.C_v, p.alpha_v)
    return m, r, math.atan2(p.alpha_v, p.C_v)


def reference_tag(p: SaddleParams) -> str:
    """Region by the rule classify_region documents, with closed-form extrema m -/+ R.

    Both interior tags map to "interior": rationality of gamma is a policy
    of the program, not a property of the turning geometry.
    """
    m, r, _ = harmonic(p)
    level = p.alpha_v * p.E_w / p.alpha_w
    if p.a == 1.0:
        return "NoReversal_aEq1"
    if min(abs(level - (m - r)), abs(level - (m + r))) < BOUNDARY_TOL:
        return "BoundaryB"
    if level < m - r or level > m + r:
        return "OutsideB"
    return "interior"


@dataclass(frozen=True)
class SweepPoint:
    kind: str  # "a1", "edge", "interior" or "outside"
    params: SaddleParams
    t_curve: float
    samples: tuple[tuple[float, float], ...]
    x0: float


def _edge_point(rng: np.random.Generator) -> SaddleParams:
    """Random point whose level K lies 1e-9..1e-6 of the spread inside an extremum."""
    while True:
        p = random_admissible(rng)
        m, r, _ = harmonic(p)
        frac = 10.0 ** rng.uniform(-9.0, -6.0)
        near_min = rng.uniform() < 0.5
        level = (m - r) + frac * 2.0 * r if near_min else (m + r) - frac * 2.0 * r
        if r > 0.0 and level > 0.0:
            return SaddleParams(
                alpha_v=p.alpha_v,
                C_v=p.C_v,
                E_v=p.E_v,
                alpha_w=p.alpha_v * p.E_w / level,
                C_w=p.C_w,
                E_w=p.E_w,
                a=p.a,
                eps=p.eps,
            )


def _sweep_point(rng: np.random.Generator, j: int) -> SweepPoint:
    """Point ``j`` of a pass of ten.

    The eight points drawn like ``random_admissible`` are split by the
    closed-form region, 6 interior and 2 outside (the draw itself gives
    about 78% interior): an interior point costs about four times as much,
    so a free draw would let the cost of a pass wander with the seed.
    """
    if j == 0:
        kind, p = "a1", random_admissible(rng)
        p = SaddleParams(**{**p.to_dict(), "a": 1.0})
    elif j == 5:
        kind, p = "edge", _edge_point(rng)
    else:
        kind = "outside" if j in (3, 8) else "interior"
        want = "OutsideB" if kind == "outside" else "interior"
        p = random_admissible(rng)
        while reference_tag(p) != want:
            p = random_admissible(rng)
    samples = tuple(
        (float(rng.uniform(0.0, 0.5)), float(p.eps * 10.0 ** rng.uniform(-8.0, 0.0))) for _ in range(8)
    )
    return SweepPoint(kind, p, float(rng.uniform(0.0, 0.5)), samples, float(rng.uniform(-math.pi, math.pi)))


def sweep_op(tr, pt: SweepPoint) -> Failures:
    failures: Failures = []
    p = pt.params
    m, r, theta = harmonic(p)
    level = p.alpha_v * p.E_w / p.alpha_w
    scale = max(1.0, abs(m) + r, level)
    want = reference_tag(p)

    region = _guarded(failures, "classify_region", tr.call, "params.classify_region", classify_region, p)
    if region is not None:
        tr.add(f"params.classify_region.tag.{region.tag}")
        got = "interior" if region.tag in INTERIOR_TAGS else region.tag
        if got != want:
            failures.append(("check", f"classify_region says {region.tag}, closed form says {want}"))
        if max(abs(region.a_min - (m - r)), abs(region.a_max - (m + r))) > 1e-9 * scale:
            failures.append(
                ("check", f"extrema ({region.a_min!r}, {region.a_max!r}) vs closed form ({m - r!r}, {m + r!r})")
            )

    # eight reversal periods of the exit curve, 1500 points per period
    u = np.linspace(0.0, 8.0 * math.pi * p.E_v / p.alpha_v, 12_000)
    s = p.eps * np.exp(-u)
    arrays = _guarded(failures, "curve_arrays", tr.call, "returncurve.curve_arrays", curve_arrays, pt.t_curve, s, p)
    tr.add("returncurve.curve_arrays.points", len(s))
    if arrays is not None:
        phi, x_w, y_w, dx = arrays
        # s dx_w/ds = alpha_w (A(phi) - K) / (E_w E_v C(phi)) holds pointwise
        a2 = p.a * p.a
        stretch = a2 * np.cos(phi) ** 2 + np.sin(phi) ** 2 / a2
        lhs = dx * s * stretch * (p.E_w * p.E_v / p.alpha_w)
        rhs = m + r * np.cos(2.0 * phi - theta) - level
        resid = float(np.max(np.abs(lhs - rhs))) / scale
        if not (resid < 1e-9 and np.all(np.isfinite(x_w)) and np.all(y_w >= 0.0)):
            failures.append(("check", f"curve_arrays turning identity residual {resid:.3e}"))

    for t, s_i in pt.samples:
        sample = _guarded(failures, "curve_sample", tr.call, "returncurve.curve_sample", curve_sample, t, s_i, p)
        oracle = _guarded(failures, "eta_composed", tr.call, "oracles.eta_composed", eta_composed, t, s_i, p)
        if sample is None or oracle is None:
            continue
        x_o, y_o = oracle
        # both routes underflow together at such depths
        y_ok = sample.y_w < 1e-250 if y_o < 1e-250 else abs(sample.y_w / y_o - 1.0) < 1e-9
        if abs(sample.x_w - x_o) > 1e-9 or not y_ok:
            failures.append(("check", f"curve_sample at (t={t!r}, s={s_i!r}) disagrees with eta_composed"))

    if want != "interior":
        return failures
    inside = min(level - (m - r), (m + r) - level) / (2.0 * r)
    defect = "edge-defect" if inside < EDGE_BAND else "check"
    seq = _guarded(
        failures, "reversal_sequence", tr.call, "returncurve.reversal_sequence", reversal_sequence, 0.0, 1000, p
    )
    if seq is not None:
        tr.add("returncurve.reversal_sequence.reversals", len(seq))
        if len(seq) < 2:
            tr.add("returncurve.reversal_sequence.empty_interior")
            failures.append(
                (defect, f"reversal_sequence returned {len(seq)} reversals (reason {seq.reason}) "
                         f"with K {inside:.2e} of the spread inside the closed-form extrema")
            )
        else:
            off = float(np.max(np.abs(m + r * np.cos(2.0 * seq.phi_values - theta) - level))) / scale
            if off > 1e-9:
                failures.append(("check", f"reversal angles miss the level K by {off:.3e}"))
    try:
        report = tr.call("returncurve.find_tangency", find_tangency, pt.x0, 0.0, 2000, p)
    except NoReversalsError as exc:
        failures.append((defect, f"find_tangency raised NoReversalsError: {exc}"))
    except Exception as exc:  # a failed step must not stop the run
        failures.append(("exception", f"find_tangency raised {type(exc).__name__}: {exc}"))
    else:
        if not (0.0 <= report.amplitude <= math.pi and 0 <= report.n_best < 2000):
            failures.append(("check", f"tangency amplitude {report.amplitude!r} at reversal {report.n_best}"))
    return failures


class Sweep:
    """Census of parameter space; no work is shared between ops."""

    PASSES_PER_S = 4.0

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.passes = [[_sweep_point(rng, j) for j in range(10)] for _ in range(POOL_PASSES)]

    def pass_ops(self, k: int) -> list[Op]:
        return [Op(pt.kind, lambda tr, pt=pt: sweep_op(tr, pt)) for pt in self.passes[k % POOL_PASSES]]


# ----------------------------------------------------------------- horseshoe


def family_op(tr, p: SaddleParams, tau: float) -> Failures:
    failures: Failures = []
    family = _guarded(failures, "build_strips", tr.call, "horseshoe.build_strips", build_strips, tau, 5, p)
    if family is None:
        return failures
    tr.add("horseshoe.build_strips.strips", len(family))
    tr.add("horseshoe.build_strips.requested", 5)
    if len(family) < 5:
        failures.append(("check", f"build_strips returned {len(family)} of 5 strips at tau={tau!r}"))
    violations = _guarded(
        failures, "strip_family_violations", tr.call, "horseshoe.strip_family_violations",
        strip_family_violations, family, p,
    )
    if violations:
        tr.add("horseshoe.strip_family_violations.violations", len(violations))
        failures.append(("check", f"strip invariants violated: {violations[0]}"))
    images = _guarded(failures, "strip_image_report", tr.call, "horseshoe.strip_image_report", strip_image_report, family, p)
    if images is not None:
        bad = [img["index"] for img in images if not (img["spans_vertically"] and img["within_width"])]
        if bad:
            failures.append(("check", f"strip images {bad} do not stand across the rectangle"))
    # the 3 x 3 samples per strip of acceptance criterion AC7
    classes = []
    for strip in family.strips:
        for i in (0, len(strip.t_grid) // 2, len(strip.t_grid) - 1):
            t = float(strip.t_grid[i])
            for frac in (0.25, 0.5, 0.75):
                y = float(strip.a_of_t[i] + frac * (strip.b_of_t[i] - strip.a_of_t[i]))
                rep = _guarded(failures, "jacobian_report", tr.call, "horseshoe.jacobian_report", jacobian_report, t, y, p)
                if rep is not None:
                    classes.append(rep.eigen_class)
    saddles = classes.count("saddle")
    tr.add("horseshoe.jacobian_report.saddles", saddles)
    if classes and saddles < 0.99 * len(classes):
        failures.append(("check", f"saddle share {saddles}/{len(classes)} below 0.99"))
    return failures


def multipulse_op(tr, n: int) -> Failures:
    failures: Failures = []
    points = _guarded(failures, "find_multipulse", tr.call, "horseshoe.find_multipulse", find_multipulse, n, CASE1)
    if points is None:
        return failures
    tr.add("horseshoe.find_multipulse.points", len(points))
    if not points:
        failures.append(("check", f"find_multipulse found no {n}-pulse point"))
    for pt in points:
        replay = _guarded(failures, "replay_pulse", tr.call, "oracles.replay_pulse", replay_pulse, pt.s, n, CASE1)
        if replay is None:
            continue
        tr.high("oracles.replay_pulse.residual_max", replay.residual)
        if replay.out_w_crossings != n or not replay.residual < 1e-8:
            failures.append(
                ("check", f"{n}-pulse at s={pt.s!r}: {replay.out_w_crossings} crossings, residual {replay.residual:.2e}")
            )
    return failures


class Horseshoe:
    """Verified strip families on three fixtures, plus multi-pulse searches.

    A pass builds two families on each fixture and runs the 2-, 3- and
    4-pulse searches once, so families are two thirds of the ops and the
    median op is a family.
    """

    FIXTURES = (("case1", CASE1), ("dense", DENSE), ("rational", RATIONAL))
    PASSES_PER_S = 0.9

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.taus = rng.uniform(0.05, 0.45, size=(POOL_PASSES, 6))

    def pass_ops(self, k: int) -> list[Op]:
        ops = []
        for j, tau in enumerate(self.taus[k % POOL_PASSES]):
            name, p = self.FIXTURES[j % 3]
            tau = float(tau)
            ops.append(Op(f"family-{name}", lambda tr, p=p, tau=tau: family_op(tr, p, tau)))
        for n in (2, 3, 4):
            ops.append(Op(f"multipulse-{n}", lambda tr, n=n: multipulse_op(tr, n)))
        return ops


# ---------------------------------------------------------------------- flow


def flow_op(tr, config: ModelConfig, x0: tuple[float, ...], delta: float, verdict: str | None) -> Failures:
    failures: Failures = []
    series = _guarded(
        failures, "integrate", tr.call, "flow.integrate", integrate, x0, T=FLOW_T, rtol=1e-10, config=config
    )
    if series is None:
        return failures
    tr.add("flow.integrate.accepted", series.accepted)
    tr.add("flow.integrate.rejected", series.rejected)
    states = series.states
    magnitude = np.abs(states)
    nonzero = magnitude[magnitude > 0.0]
    if nonzero.size:
        tr.low("flow.integrate.floor_abs", float(nonzero.min()))
    zero = states == 0.0
    collapsed = [j for j in range(states.shape[1]) if states[0, j] != 0.0 and zero[:, j].any()]
    tr.add("flow.integrate.collapsed", len(collapsed))
    if series.failure is not None:
        failures.append(("check", f"integrate reported failure: {series.failure}"))
    if collapsed:
        first = min(float(series.times[np.argmax(zero[:, j])]) for j in collapsed)
        names = ", ".join(f"x{j + 1}" for j in collapsed)
        failures.append(("flow-collapse", f"{names} fell to exactly 0.0 (first at t={first:.1f}); failure is None"))
    if config.dim == 4:
        residual = _guarded(failures, "sphere_residual", tr.call, "flow.sphere_residual", sphere_residual, series)
        if residual is not None and not residual < 1e-7:
            failures.append(("check", f"sphere residual {residual:.3e}"))
        report = _guarded(failures, "chirality_check", tr.call, "flow.chirality_check", chirality_check, config, series)
        if report is not None and report.verdict != verdict:
            failures.append(("check", f"chirality verdict {report.verdict}, expected {verdict}"))
    sojourn = _guarded(failures, "sojourn_analysis", tr.call, "flow.sojourn_analysis", sojourn_analysis, series)
    if sojourn is not None and not abs(sojourn.median_ratio / delta - 1.0) < 0.10:
        failures.append(("check", f"dwell ratio {sojourn.median_ratio:.4f} not within 10% of delta {delta:.4f}"))
    return failures


def _perturbed(rng: np.random.Generator, x: tuple[float, ...]) -> tuple[float, ...]:
    """Start x moved along its sphere |y| = |x| by a random angle of order 0.01."""
    v = np.asarray(x, dtype=float)
    radius = float(np.linalg.norm(v))
    w = v / radius + 0.01 * rng.standard_normal(v.size)
    return tuple(float(c) for c in radius * w / np.linalg.norm(w))


class Flow:
    """Long explicit-flow runs: three example4d ops, one same-lift control and one 3D run per pass."""

    PASSES_PER_S = 0.28

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.configs = {
            model: ModelConfig(alpha1=1.0, alpha2=-0.1, lam=0.0, model=model)
            for model in ("example4d", "example4d_same_lift", "dim3")
        }
        self.delta = equilibria_spectrum(self.configs["example4d"]).delta
        self.starts = [
            [_perturbed(rng, README_X0) for _ in range(4)] + [_perturbed(rng, DIM3_X0)] for _ in range(POOL_PASSES)
        ]

    def pass_ops(self, k: int) -> list[Op]:
        starts = self.starts[k % POOL_PASSES]
        plan = [("example4d", "different")] * 3 + [("example4d_same_lift", "same"), ("dim3", None)]
        ops = []
        for (model, verdict), x0 in zip(plan, starts):
            config = self.configs[model]
            ops.append(Op(model, lambda tr, c=config, x0=x0, v=verdict: flow_op(tr, c, x0, self.delta, v)))
        return ops


# ----------------------------------------------------------------------- cli

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def _cli_plan() -> list[tuple[str, list[str], int]]:
    """(label, argv, expected exit code) for every command of one pass.

    The first nine are the README commands on the README configs; the
    README's own tangency example is refused there (the Case I point has no
    reversals), so its expected code is 2.  The dense point (gamma =
    sqrt(2)) adds the reversal-based commands where they succeed; its
    classify makes the pass 13 commands long, so the median op is one
    command rather than the mean of two.
    """
    params = str(CONFIG_DIR / "readme_params.json")
    flow = str(CONFIG_DIR / "readme_flow.json")
    dense = str(CONFIG_DIR / "dense_params.json")
    plan = [
        ("classify", ["classify", "--config", params], 0),
        ("curve", ["curve", "--config", params, "--s-min", "1e-6", "--s-max", "0.5", "--n-samples", "400"], 0),
        ("reversals", ["reversals", "--config", params, "--n-max", "1000"], 0),
        ("tangency", ["tangency", "--config", params, "--x0", "0.0", "--n-max", "10000"], 2),
        ("strips", ["strips", "--config", params, "--tau", "0.4", "--n-limit", "5"], 0),
        ("jacobian", ["jacobian", "--config", params, "--x", "0.1", "--k-min", "4", "--k-max", "20"], 0),
        ("multipulse", ["multipulse", "--config", params, "--n", "3"], 0),
        ("simulate", ["simulate", "--config", flow, "--T", "500", "--rtol", "1e-10"], 0),
        ("sojourn", ["sojourn", "--config", flow, "--T", "500", "--radius", "0.3"], 0),
        ("dense-classify", ["classify", "--config", dense], 0),
        ("dense-reversals", ["reversals", "--config", dense, "--n-max", "1000"], 0),
        ("dense-tangency", ["tangency", "--config", dense, "--x0", "0.0", "--n-max", "10000"], 0),
        ("dense-strips", ["strips", "--config", dense, "--tau", "0.4", "--n-limit", "5"], 0),
    ]
    return [(label, argv + ["--verify"], code) for label, argv, code in plan]


REFUSAL = "no reversal points"


class Cli:
    """README commands through ``bykov.cli.main`` in this process.

    The inputs are the fixed configs in ``configs/``, so the seed changes
    nothing here.  Every data artifact is hashed; manifests are skipped
    because they carry wall-clock time.  The first hash seen for a command
    is the reference for every later pass of the run.
    """

    PASSES_PER_S = 0.75

    def __init__(self, seed: int, work_dir: Path):
        self.plan = _cli_plan()
        self.work_dir = work_dir
        self.digests: dict[str, dict[str, str]] = {}

    def pass_ops(self, k: int) -> list[Op]:
        return [
            Op(label, lambda tr, label=label, argv=argv, code=code: self.run_command(tr, label, argv, code))
            for label, argv, code in self.plan
        ]

    def run_command(self, tr, label: str, argv: list[str], expected: int) -> Failures:
        failures: Failures = []
        out_dir = tempfile.mkdtemp(dir=self.work_dir)
        try:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = _guarded(failures, "cli.main", tr.call, f"cli.main.{argv[0]}", cli_main, argv + ["--out", out_dir])
            message = stderr.getvalue().strip()
            if code is not None and code != expected:
                failures.append(("exit-code", f"{label}: exit {code}, expected {expected}: {message[:200]}"))
            if expected == 2 and code == 2 and REFUSAL not in message:
                failures.append(("check", f"{label}: refusal without '{REFUSAL}': {message[:200]}"))
            digests = {}
            size = 0
            for name in sorted(os.listdir(out_dir)):
                if name.endswith("_manifest.json"):
                    continue
                data = Path(out_dir, name).read_bytes()
                size += len(data)
                digests[name] = hashlib.sha256(data).hexdigest()
            tr.add(f"cli.main.{argv[0]}.bytes", size)
            if expected == 0 and not digests:
                failures.append(("check", f"{label}: no data artifact written"))
            reference = self.digests.setdefault(label, digests)
            if digests != reference:
                failures.append(("artifact-hash", f"{label}: artifacts {sorted(digests)} differ from the first pass"))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return failures


WORKLOADS = {"sweep": Sweep, "horseshoe": Horseshoe, "flow": Flow, "cli": Cli}

# ------------------------------------------------------------- layer metrics

LAYER_CALLS = (
    "params.classify_region",
    "returncurve.curve_arrays",
    "returncurve.curve_sample",
    "returncurve.reversal_sequence",
    "returncurve.find_tangency",
    "horseshoe.build_strips",
    "horseshoe.strip_family_violations",
    "horseshoe.strip_image_report",
    "horseshoe.jacobian_report",
    "horseshoe.find_multipulse",
    "oracles.eta_composed",
    "oracles.replay_pulse",
    "flow.integrate",
    "flow.sojourn_analysis",
    "flow.chirality_check",
    "flow.sphere_residual",
) + tuple(f"cli.main.{command}" for command in CLI_COMMANDS)

LAYER_COUNTS = (
    "returncurve.curve_arrays.points",
    "returncurve.reversal_sequence.reversals",
    "returncurve.reversal_sequence.empty_interior",
    "horseshoe.build_strips.strips",
    "horseshoe.strip_family_violations.violations",
    "horseshoe.find_multipulse.points",
    "flow.integrate.accepted",
    "flow.integrate.rejected",
    "flow.integrate.collapsed",
) + tuple(f"params.classify_region.tag.{tag}" for tag in REGION_TAGS) + tuple(
    f"cli.main.{command}.bytes" for command in CLI_COMMANDS
)


def layer_metrics(tr) -> dict[str, float]:
    """Per-layer values of a traced run; a layer the workload never calls reads 0."""
    calls, self_s = tr.self_times()
    out: dict[str, float] = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in LAYER_COUNTS:
        out[name] = tr.counts.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    requested = tr.counts.get("horseshoe.build_strips.requested", 0)
    out["horseshoe.build_strips.strips_per_request"] = ratio(out["horseshoe.build_strips.strips"], requested)
    out["horseshoe.jacobian_report.saddle_share"] = ratio(
        tr.counts.get("horseshoe.jacobian_report.saddles", 0), out["horseshoe.jacobian_report.calls"]
    )
    out["oracles.replay_pulse.residual_max"] = tr.highs.get("oracles.replay_pulse.residual_max", 0.0)
    accepted, rejected = out["flow.integrate.accepted"], out["flow.integrate.rejected"]
    out["flow.integrate.accept_ratio"] = ratio(accepted, accepted + rejected)
    out["flow.integrate.steps_per_s"] = ratio(accepted, out["flow.integrate.self_s"])
    out["flow.integrate.floor_abs"] = tr.lows.get("flow.integrate.floor_abs", 0.0)
    return out
