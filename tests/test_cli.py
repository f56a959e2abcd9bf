import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bykov import cli, flow, horseshoe
from bykov.cli import build_parser, main
from bykov.flow import SAMPLE_SPACING, sojourn_analysis
from bykov.params import load_saddle_params

README_FLOW = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "readme_flow.json"
README_PARAMS = README_FLOW.with_name("readme_params.json")
DENSE_PARAMS = README_FLOW.with_name("dense_params.json")


@pytest.fixture()
def case1_config(tmp_path):
    path = tmp_path / "case1.json"
    path.write_text(
        json.dumps(
            {"alpha_v": 0.2, "C_v": 1.0, "E_v": 0.8, "alpha_w": 2.5, "C_w": 4.0, "E_w": 2.0,
             "a": 2.0, "eps": 0.5}
        )
    )
    return str(path)


@pytest.fixture()
def dense_config(tmp_path):
    path = tmp_path / "dense.json"
    path.write_text(
        json.dumps(
            {"alpha_v": 2.0, "C_v": 1.2, "E_v": 1.0, "alpha_w": (10.0 / 3.0) * math.sqrt(2.0),
             "C_w": 2.6, "E_w": 2.0, "a": 2.0, "eps": 0.5}
        )
    )
    return str(path)


def _scaled(factor, tmp_path, config=DENSE_PARAMS):
    """``config`` with alpha_v and alpha_w, and so g_v, times ``factor``: g_v is 2 on dense, 0.25 on README."""
    params = json.loads(config.read_text())
    path = tmp_path / f"{config.stem}_x{factor:g}.json"
    scaled = {**params, "alpha_v": factor * params["alpha_v"], "alpha_w": factor * params["alpha_w"]}
    path.write_text(json.dumps(scaled))
    return str(path)


@pytest.fixture()
def steep_config(tmp_path):
    """The dense config with alpha_v and alpha_w times 1e13: g_v = 2e13."""
    return _scaled(1e13, tmp_path)


@pytest.fixture()
def resonant_config(tmp_path):
    path = tmp_path / "res.json"
    path.write_text(
        json.dumps(
            {"alpha_v": 1.0, "C_v": 1.0, "E_v": 1.0, "alpha_w": 1.0, "C_w": 1.0, "E_w": 1.0,
             "a": 1.0, "eps": 1.0}
        )
    )
    return str(path)


@pytest.fixture()
def flow_config(tmp_path):
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"alpha1": 1.0, "alpha2": -0.1, "lambda": 0.0, "model": "example4d"}))
    return str(path)


def test_classify_a_equals_one(tmp_path, capsys):
    path = tmp_path / "a1.json"
    path.write_text(
        json.dumps(
            {"alpha_v": 1.0, "C_v": 1.2, "E_v": 0.8, "alpha_w": 2.0, "C_w": 1.0, "E_w": 0.7,
             "a": 1.0, "eps": 0.5}
        )
    )
    code = main(["classify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["tag"] == "NoReversal_aEq1"


def test_classify_fixtures(case1_config, dense_config, tmp_path, capsys):
    assert main(["classify", "--config", case1_config, "--out", str(tmp_path / "o1"), "--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["tag"] == "OutsideB"
    assert main(["classify", "--config", dense_config, "--out", str(tmp_path / "o2")]) == 0
    assert json.loads(capsys.readouterr().out)["tag"] == "DenseReversals_D"


def test_tangency_dense_at_default_policy(dense_config, tmp_path, capsys):
    assert main(["tangency", "--config", dense_config, "--n-max", "100", "--out", str(tmp_path / "out")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["region_tag"] == "DenseReversals_D" and doc["warning"] is None


@pytest.mark.parametrize(
    "command", [["tangency", "--n-max", "0"], ["reversals", "--n-max", "-3", "--verify"]]
)
def test_n_max_is_refused(command, dense_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([command[0], "--config", dense_config, "--out", str(out), *command[1:]])
    assert code == 2
    assert "n_max must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, fields",
    [
        (["multipulse", "--s-min", "-1", "--s-max", "0.1"], ["s_window"]),
        (["multipulse", "--s-min", "0.1", "--s-max", "0.001"], ["s_window"]),
        (["strips", "--n-limit", "0", "--verify"], ["n_limit"]),
        (["jacobian", "--k-min", "9", "--k-max", "4"], ["k_min", "k_max"]),
        # every height 2^-k of the range lies above eps = 0.5
        (["jacobian", "--k-min=-5", "--k-max=-1"], ["k_min=-5", "k_max=-1", "eps=0.5"]),
        # a refusal at the first height names k_min, that height and g_v, not depth
        (["jacobian", "--k-min", "1030", "--k-max", "1030"], ["k_min=1030", "k=1030", "y=", "g_v=0.25"]),
        (["jacobian", "--k-min", "1075", "--k-max", "1075"], ["k_min=1075", "k=1075", "y=0.0", "g_v=0.25", "y > 0"]),
        # the first height refused names the error, not the last one asked for
        (["jacobian", "--k-min", "1020", "--k-max", "1030"], ["k_max=1030 is too deep at k=1024:", "y="]),
        # the slope dx_w/ds = x_u / s overflows, which would also warn
        (["curve", "--s-min", "1e-320", "--s-max", "1e-300", "--n-samples", "50", "--t", "100"],
         ["s_min=1e-320", "dxw_ds", "s=1e-320"]),
        (["curve", "--s-min", "1e-3", "--s-max", "0.1", "--n-samples", "0"], ["n_samples must be >= 1"]),
        (["multipulse", "--s-min", "1e-3"], ["--s-min and --s-max"]),
        (["multipulse", "--n", "1"], ["n must be >= 2, got 1"]),
        (["strips", "--tau", "0"], ["tau must lie in", "got 0.0"]),
    ],
    ids=[
        "negative-s-min", "inverted-window", "no-strips", "inverted-k", "no-heights", "subnormal-y", "zero-y", "too-deep-range",
        "subnormal-s", "no-samples", "half-window", "one-pulse", "zero-tau",
    ],
)
def test_search_ranges_are_refused(command, fields, case1_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([command[0], "--config", case1_config, "--out", str(out), *command[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert all(field in err for field in fields)
    assert not out.exists()


@pytest.mark.parametrize("fixture", ["case1_config", "dense_config"])
@pytest.mark.parametrize(
    "command",
    [
        ["curve", "--s-min", "1e-300", "--s-max", "0.5", "--n-samples", "300", "--t", "0.3", "--verify"],
        ["multipulse", "--n", "2", "--s-min", "1e-300", "--s-max", "1e-290", "--verify"],
    ],
    ids=["curve", "multipulse"],
)
def test_verify_replays_points_at_any_depth(command, fixture, request, tmp_path, capsys):
    # the disk radius c1 s^delta_v underflows at these depths; the log-radius
    # oracle never forms it
    out = tmp_path / "out"
    code = main([command[0], "--config", request.getfixturevalue(fixture), "--out", str(out), *command[1:]])
    assert code == 0
    assert capsys.readouterr().err == ""
    diagnostics = json.loads((out / f"{command[0]}_manifest.json").read_text())["diagnostics"]
    if command[0] == "multipulse":
        assert diagnostics["count"] >= 1 and diagnostics["replay_residual"] < 1e-8


@pytest.mark.parametrize(
    "argv, artifact",
    [
        (["curve", DENSE_PARAMS, "--s-min", "1e-300", "--s-max", "0.5", "--n-samples", "2000"], "curve.csv"),
        (["curve", README_PARAMS, "--s-min", "1e-300", "--s-max", "0.5", "--n-samples", "2000"], "curve.csv"),
        (["reversals", DENSE_PARAMS, "--n-max", "10000"], "reversals.csv"),
        (["strips", README_PARAMS, "--tau", "0.4", "--n-limit", "40"], "strips.csv"),
        (["multipulse", DENSE_PARAMS, "--n", "3"], "multipulse.json"),
        (["multipulse", DENSE_PARAMS, "--n", "4"], "multipulse.json"),
        (["multipulse", README_PARAMS, "--n", "4"], "multipulse.json"),
        (["multipulse", README_PARAMS, "--n", "2", "--s-min", "1e-300", "--s-max", "1e-290"], "multipulse.json"),
        (["simulate", README_FLOW], "trajectory.csv"),
        (["sojourn", README_FLOW], "sojourn.json"),
        (["classify", README_PARAMS], "region.json"),
    ],
    ids=[
        "curve-dense-deep", "curve-readme-deep", "reversals-dense", "strips-readme-40", "multipulse-dense-n3",
        "multipulse-dense-n4", "multipulse-readme-n4", "multipulse-readme-deep", "simulate-readme", "sojourn-readme",
        "classify-readme",
    ],
)
def test_verify_on_the_example_configs(argv, artifact, tmp_path, capsys):
    # each command's --verify replay passes on the committed configs, down
    # to s = 1e-300 and out to 40 strips and 4 pulses
    command, config, *options = argv
    out = tmp_path / "out"
    assert main([command, "--config", str(config), *options, "--verify", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(path.name for path in out.iterdir()) == sorted([artifact, f"{command}_manifest.json"])


def test_failed_write_echoes_nothing(case1_config, tmp_path, capsys):
    """A JSON artifact is echoed only after it is written: a write below a regular file prints nothing."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["classify", "--config", case1_config, "--out", str(blocker / "sub")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_classify_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alpha_v": 1.0, "oops": 2}))
    code = main(["classify", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2


def test_classify_refuses_a_nan_rate(tmp_path, capsys):
    # json writes and reads NaN, which passes no range check written as a comparison
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({**json.loads(DENSE_PARAMS.read_text()), "C_w": math.nan}))
    out = tmp_path / "out"
    assert main(["classify", "--config", str(path), "--verify", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: C_w must be a finite number, got nan\n")
    assert not out.exists()


CASE1 = {"alpha_v": 0.2, "C_v": 1.0, "E_v": 0.8, "alpha_w": 2.5, "C_w": 4.0, "E_w": 2.0,
         "a": 2.0, "eps": 0.5}


@pytest.mark.parametrize("text, message", [(json.dumps(CASE1), "no reversal points"), ("{alpha_v: 1", "error:")])
def test_tangency_error_paths(text, message, tmp_path, capsys):
    cfg = tmp_path / "p.json"
    cfg.write_text(text)
    assert main(["tangency", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("knob", [["--seed", "1"], ["--rtol", "1e-8"], ["--atol", "1e-10"]])
def test_saddle_commands_take_no_integrator_knobs(case1_config, knob, tmp_path):
    assert main(["classify", "--config", case1_config, "--out", str(tmp_path / "out")] + knob) == 2


def test_classify_near_unit_shear(tmp_path):
    path = tmp_path / "shear.json"
    path.write_text(json.dumps({**CASE1, "alpha_v": 1.0, "a": 1.000000002}))
    code = main(["classify", "--config", str(path), "--verify", "--out", str(tmp_path / "out")])
    assert code == 0


def test_classify_reports_constant_overflow(tmp_path, capsys):
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({**CASE1, "E_w": 0.002}))
    code = main(["classify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert all(name in err for name in ("C_w", "E_w", "eps"))


@pytest.mark.parametrize(
    "command",
    [["curve", "--s-min", "1e-3", "--s-max", "1.0"], ["jacobian"], ["classify"], ["reversals"], ["tangency"],
     ["strips"], ["multipulse"]],
)
def test_saddle_commands_report_constant_underflow(command, tmp_path, capsys):
    # eps > 1 with a large C_w/E_w: c4 = eps**(1 - C_w/E_w) underflows to 0,
    # which the loader refuses for every command
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({**CASE1, "E_w": 0.002, "eps": 2.0}))
    code = main([command[0], "--config", str(path), "--out", str(tmp_path / "out"), *command[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert "c4" in err and all(name in err for name in ("C_w", "E_w", "eps"))
    # a config error, not a height of the sweep
    assert "too deep" not in err


def test_strips_near_turning_maximum(tmp_path):
    """K 8.75e-9 below the maximum: the narrow root pair still yields strips."""
    path = tmp_path / "near_max.json"
    path.write_text(
        json.dumps(
            {"alpha_v": 2.0, "C_v": 1.2, "E_v": 1.0, "alpha_w": 0.5777663453158498,
             "C_w": 2.6, "E_w": 2.0, "a": 2.0, "eps": 0.5}
        )
    )
    code = main(
        ["strips", "--config", str(path), "--tau", "0.05", "--n-limit", "2", "--verify",
         "--out", str(tmp_path / "out")]
    )
    assert code == 0


def test_curve_single_row(dense_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["curve", "--config", dense_config, "--s-min", "0.01", "--s-max", "0.4",
         "--n-samples", "1", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "s,t,phi,x_w,x_w_mod_2pi,y_w,dxw_ds"
    assert len(lines) == 2


def test_curve_constant_angle_at_resonance(resonant_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["curve", "--config", resonant_config, "--s-min", "1e-6", "--s-max", "0.9",
         "--n-samples", "64", "--out", str(out), "--verify"]
    )
    assert code == 0
    rows = (out / "curve.csv").read_text().strip().splitlines()[1:]
    xs = [float(r.split(",")[3]) for r in rows]
    assert max(xs) - min(xs) < 1e-10


def test_curve_rejects_bad_range(dense_config, tmp_path):
    code = main(
        ["curve", "--config", dense_config, "--s-min", "0.4", "--s-max", "0.01",
         "--out", str(tmp_path / "out")]
    )
    assert code == 2


def test_curve_verify_and_determinism(dense_config, tmp_path):
    args = ["curve", "--config", dense_config, "--s-min", "1e-8", "--s-max", "0.5",
            "--n-samples", "128", "--verify"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "curve.csv").read_bytes()
    b2 = (tmp_path / "r2" / "curve.csv").read_bytes()
    assert b1 == b2
    # the worst misses against the composition oracle, under its 1e-9 bound
    diagnostics = json.loads((tmp_path / "r1" / "curve_manifest.json").read_text())["diagnostics"]
    assert 0.0 <= diagnostics["oracle_x_w_miss"] <= 1e-9
    assert 0.0 <= diagnostics["oracle_log_y_miss"] <= 1e-9


@pytest.mark.parametrize(("target", "n_samples"), [("numpy.geomspace", "100000000000"), ("bykov.cli.curve_arrays", "10")])
def test_curve_out_of_memory_names_n_samples(target, n_samples, dense_config, tmp_path, capsys, monkeypatch):
    """An allocation too large for the host exits 2 with a message naming --n-samples, not a traceback.

    The failing allocation is patched in; --n-samples stays small wherever a
    real allocation runs before it, so no test asks for the 745 GiB.
    """

    def failing(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64")

    monkeypatch.setattr(target, failing)
    out = tmp_path / "out"
    code = main(
        ["curve", "--config", dense_config, "--s-min", "1e-6", "--s-max", "0.5",
         "--n-samples", n_samples, "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --n-samples={n_samples} needs more memory")
    assert not out.exists()


@pytest.mark.parametrize("t", ["1e7", "562949953421311.0"])
def test_curve_verify_at_large_t(t, tmp_path):
    # x_w grows like t, and the oracle agrees with it to an ulp: at t = 1e7
    # that is 1.86e-9, past 1e-9, and so is the bound on x_w, 16 * 2^-52 of
    # the size of its terms (README)
    out = tmp_path / "out"
    argv = ["curve", "--config", str(DENSE_PARAMS), "--s-min", "1e-3", "--s-max", "0.5", "--n-samples", "50"]
    assert main([*argv, "--t", t, "--verify", "--out", str(out)]) == 0
    diagnostics = json.loads((out / "curve_manifest.json").read_text())["diagnostics"]
    x_w = [float(line.split(",")[3]) for line in (out / "curve.csv").read_text().splitlines()[1:]]
    assert 1e-9 < diagnostics["oracle_x_w_miss"] <= 2.0 * math.ulp(max(map(abs, x_w)))
    assert diagnostics["oracle_log_y_miss"] <= 1e-9


@pytest.mark.parametrize("s_min, code", [("1e-280", 2), ("1e-20", 0)])
def test_curve_refuses_rows_past_the_resolved_angle(s_min, code, tmp_path, capsys):
    # at g_v = 2e13 and t = 0 the angle phi = c2 + t - g_v ln s reaches 2^50
    # at s = 1.8e-25, where one ulp of it is a quarter radian and the
    # kernel's x_w is no longer resolved
    dense = json.loads(DENSE_PARAMS.read_text())
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({**dense, "alpha_v": 1e13 * dense["alpha_v"], "alpha_w": 1e13 * dense["alpha_w"]}))
    out = tmp_path / "out"
    argv = ["curve", "--config", str(path), "--s-min", s_min, "--s-max", "0.5", "--n-samples", "50", "--out", str(out)]
    assert main(argv) == code
    if code:
        assert capsys.readouterr().err == f"error: --s-min={s_min} is too deep: |phi| >= 2^50 at s={s_min}\n"
        assert not out.exists()
    else:
        phi = [abs(float(line.split(",")[2])) for line in (out / "curve.csv").read_text().splitlines()[1:]]
        # the deepest row, s = 1e-20, has |phi| = 9.07e14
        assert 9e14 < max(phi) < 2.0**50


@pytest.mark.parametrize("n", ["2", "3"])
@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_multipulse_refuses_a_grid_of_too_many_crossings(n, verify, tmp_path, capsys):
    # at g_v = 2e13 the level-0 grid's 1,024 seeds bracket 2.2e14 crossings of
    # the exit angle, whose arrays would take 1.58 PiB
    dense = json.loads(DENSE_PARAMS.read_text())
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({**dense, "alpha_v": 1e13 * dense["alpha_v"], "alpha_w": 1e13 * dense["alpha_w"]}))
    out = tmp_path / "out"
    assert main(["multipulse", "--config", str(path), "--n", n, *verify, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: n={n}: at g_v=20000000000000.0 a seed grid of level 0 brackets 222,995,330,580,718 crossings,"
        " more than the 200,000 one grid may solve\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "eps, s_min, s_max, n_samples",
    [(0.5, "1e-20", "0.5", "400"), (0.01, "1e-20", "0.01", "400"), (0.5, "1e-20", "0.5", "50")],
    ids=["0.5-1e-20-0.5", "0.01-1e-20-0.01", "0.5-1e-20-0.5-n50"],
)
def test_curve_verify_at_large_g_v(eps, s_min, s_max, n_samples, tmp_path):
    # g_v = 2e13: the kernel and the composition oracle each round at the size
    # of x_w's largest term, g_w delta_v |u|; at eps = 0.5 they part by 4 ulp
    # of max(|x_w|, |phi|) at s = 2.52e-20, and at eps = 0.01, where c2 holds
    # phi far below that term near the top, by up to 110 ulp of it
    dense = json.loads(DENSE_PARAMS.read_text())
    path = tmp_path / "steep.json"
    steep = {**dense, "alpha_v": 1e13 * dense["alpha_v"], "alpha_w": 1e13 * dense["alpha_w"], "eps": eps}
    path.write_text(json.dumps(steep))
    out = tmp_path / "out"
    argv = ["curve", "--config", str(path), "--s-min", s_min, "--s-max", s_max, "--n-samples", n_samples, "--verify"]
    assert main([*argv, "--out", str(out)]) == 0
    k = load_saddle_params(steep).constants
    rows = [list(map(float, line.split(","))) for line in (out / "curve.csv").read_text().splitlines()[1:]]
    # the manifest's worst miss is under 16 * 2^-52 of the largest W over the rows (README)
    terms = max(
        abs(k.g_w) * (k.delta_v * abs(math.log(s)) + abs(math.log(k.c1)) + abs(math.log(steep["a"])) + 1.0) + abs(phi)
        for s, _, phi, *_ in rows
    )
    miss = json.loads((out / "curve_manifest.json").read_text())["diagnostics"]["oracle_x_w_miss"]
    assert 1e-9 < miss <= 16.0 * 2.0**-52 * (terms + abs(k.c3) + math.pi)


def test_reversals_verify(dense_config, tmp_path):
    code = main(
        ["reversals", "--config", dense_config, "--n-max", "300", "--verify",
         "--out", str(tmp_path / "out")]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "reversals_manifest.json").read_text())
    assert manifest["diagnostics"]["count"] == 300
    # the worst replayed misses, under the bounds the replay holds them to
    assert 0.0 <= manifest["diagnostics"]["period_miss"] <= 1e-10
    assert 0.0 <= manifest["diagnostics"]["max_abs_x_u"] <= 1e-8
    for f in manifest["outputs"]:
        assert (tmp_path / "out" / "reversals.csv").exists()


@pytest.mark.parametrize(
    "fixture, command", [("dense_config", ["tangency", "--x0", "0.0"]), ("steep_config", ["reversals"])]
)
def test_walk_past_the_limit_is_refused(fixture, command, request, tmp_path, capsys):
    # tangency walks without a floor, and steep's 8.8e15 reversals above it exceed --n-max 1e12
    out = tmp_path / "out"
    argv = [command[0], "--config", request.getfixturevalue(fixture), *command[1:], "--n-max", "1000000000000"]
    start = time.perf_counter()
    assert main([*argv, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "--n-max=1000000000000 walks 1e+12 reversals, more than the 15,000,000" in capsys.readouterr().err
    assert not out.exists()


def test_reversals_verify_at_large_g_v(steep_config, tmp_path):
    # g_v = 2e13: a reversal placed to the nearest float u leaves |x_u| up to
    # 1.32 |x_uu| ulp(u), here 1.8e25, far above the floor 1e-8
    out = tmp_path / "out"
    assert main(["reversals", "--config", steep_config, "--n-max", "100", "--verify", "--out", str(out)]) == 0
    diagnostics = json.loads((out / "reversals_manifest.json").read_text())["diagnostics"]
    assert diagnostics["count"] == 100 and diagnostics["max_abs_x_u"] > 1e24


@pytest.mark.parametrize("t", ["1e7", "1e12", "1e15"])
def test_reversals_verify_at_large_t(t, tmp_path):
    # u = (c2 + t - phi)/g_v rounds at ulp(t)/g_v, and both misses pass
    # their floors 1e-10 and 1e-8 from t = 1e7 on; the bounds carry t (README)
    out = tmp_path / "out"
    assert main(["reversals", "--config", str(DENSE_PARAMS), "--t", t, "--verify", "--out", str(out)]) == 0
    diagnostics = json.loads((out / "reversals_manifest.json").read_text())["diagnostics"]
    assert diagnostics["period_miss"] > 1e-10 and diagnostics["max_abs_x_u"] > 1e-8


def test_reversals_verify_refuses_past_the_resolved_angle(tmp_path, capsys):
    # g_v = 9.9e14: every reversal has g_v |ln s| >= 2^50, where one ulp of
    # ln s moves phi by a quarter radian or more; --verify exited 1 at
    # reversal 22 on this output, which is right to rounding; the refusal
    # starts at 2^48
    path = tmp_path / "deep.json"
    path.write_text(
        json.dumps(
            {"alpha_v": 462975547444421.06, "C_v": 0.5190416824823951, "E_v": 0.4684342086994675,
             "alpha_w": 3.626419179159816, "C_w": 0.29624911443279245, "E_w": 0.43661591865351945,
             "a": 2.9758836852365382, "eps": 0.24448648117307067}
        )
    )
    argv = ["reversals", "--config", str(path), "--t", "1.2828368696590893", "--n-max", "3000"]
    out = tmp_path / "out"
    assert main([*argv, "--verify", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cannot verify reversal 0 of --n-max=3000: there g_v |ln s| >= 2^48,"
        " and one ulp of ln s moves phi by 2^-5 radian or more\n"
    )
    assert not out.exists()
    # without --verify the sequence is written as before
    assert main([*argv, "--out", str(out)]) == 0
    assert len((out / "reversals.csv").read_text().splitlines()) == 3001


def test_reversals_verify_refuses_from_2_48(tmp_path, capsys):
    # g_v = 7.8e14 and g_v |ln s| = 2^49.78 at every reversal: from 2^48 on,
    # the 8.35-ulp error of ln s moves phi by up to half a radian, past the
    # first-order |x_uu| bound; --verify exited 1 at reversal 145 on this
    # output, which is right to rounding
    path = tmp_path / "steep.json"
    path.write_text(
        json.dumps(
            {"alpha_v": 322522341095780.4, "C_v": 1.7141778453841765, "E_v": 0.4111984217115721,
             "alpha_w": 0.9896535728140026, "C_w": 1.448133424128104, "E_w": 2.0668126255771764,
             "a": 2.1066857972006474, "eps": 0.29087282446890306}
        )
    )
    argv = ["reversals", "--config", str(path), "--t", "2.7568303766591082", "--n-max", "2832"]
    out = tmp_path / "out"
    assert main([*argv, "--verify", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot verify reversal 0 of --n-max=2832: there g_v |ln s| >= 2^48")
    assert not out.exists()
    assert main([*argv, "--out", str(out)]) == 0
    assert len((out / "reversals.csv").read_text().splitlines()) == 2833


def test_reversals_verify_refuses_an_angle_past_2_50(tmp_path, capsys):
    # t = 2^50 - 1 puts phi_0 = c2 + t past 2^50 while |t| < 2^50, where one
    # ulp of phi is a quarter radian; --verify exited 1 at reversal 26 on
    # this output, which is right to rounding
    argv = ["reversals", "--config", str(DENSE_PARAMS), "--t", "1125899906842623"]
    out = tmp_path / "out"
    assert main([*argv, "--verify", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cannot verify reversal 0 of --n-max=10000: there |phi| >= 2^50,"
        " and one ulp of phi is a quarter radian or more\n"
    )
    assert not out.exists()
    assert main([*argv, "--out", str(out)]) == 0


def test_strips_refuses_a_family_of_too_many_misses(steep_config, tmp_path, capsys):
    # g_v = 2e13: no candidate's return image fits under tau, and the walk
    # would not end; the refusal comes after STRIP_MISSES candidates
    out = tmp_path / "out"
    started = time.monotonic()
    assert main(["strips", "--config", steep_config, "--tau", "0.4", "--n-limit", "5", "--out", str(out)]) == 2
    assert time.monotonic() - started < 10.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: tau=0.4: at g_v=20000000000000.0 the return images of 100,155 candidate strips were wider than tau,"
        " more than the 100,000 one family may try; 0 of 5 strips fit\n"
    )
    assert not out.exists()


def test_strips_verify(case1_config, tmp_path):
    code = main(
        ["strips", "--config", case1_config, "--tau", "0.4", "--n-limit", "5",
         "--verify", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    lines = (tmp_path / "out" / "strips.csv").read_text().strip().splitlines()
    assert lines[0] == "n,t,a_n,b_n"
    manifest = json.loads((tmp_path / "out" / "strips_manifest.json").read_text())
    assert manifest["diagnostics"]["count"] == 5
    # the worst boundary miss replayed, against the 1e-9 bound, and the Newton passes
    assert 0.0 <= manifest["diagnostics"]["boundary_residual"] < 1e-9
    assert manifest["diagnostics"]["solver_passes"] == 14


def test_strips_manifest_records_solver_passes_without_verify(case1_config, tmp_path):
    for out, extra in (("plain", []), ("verified", ["--verify"])):
        argv = ["strips", "--config", case1_config, "--tau", "0.4", "--n-limit", "5", *extra]
        assert main(argv + ["--out", str(tmp_path / out)]) == 0
    diagnostics = json.loads((tmp_path / "plain" / "strips_manifest.json").read_text())["diagnostics"]
    assert diagnostics["solver_passes"] == 14 and "boundary_residual" not in diagnostics
    # only the manifest gains the key; the artifact is the same bytes either way
    assert (tmp_path / "plain" / "strips.csv").read_bytes() == (tmp_path / "verified" / "strips.csv").read_bytes()


def test_strips_unbracketed_target_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the first batch solves the first five candidates, each 2 x 33 boundary
    # samples; candidate 1's b-boundary at t index 5 comes back unbracketed
    solve = horseshoe._solve

    def losing_one(*args):
        roots, passes = solve(*args)
        roots[3 * 33 + 5] = math.nan
        return roots, passes

    monkeypatch.setattr(horseshoe, "_solve", losing_one)
    out = tmp_path / "out"
    assert main(["strips", "--config", str(DENSE_PARAMS), "--tau", "0.4", "--n-limit", "5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: strip target not bracketed by its monotone piece at tau=0.4, winding=-1, t=0.0625\n"
    )
    assert not out.exists()


def test_strips_resonance_exit_code(resonant_config, tmp_path):
    code = main(
        ["strips", "--config", resonant_config, "--tau", "0.3", "--out", str(tmp_path / "out")]
    )
    assert code == 2


def test_tangency_and_multipulse(dense_config, case1_config, tmp_path, capsys):
    code = main(
        ["tangency", "--config", dense_config, "--n-max", "1000", "--verify",
         "--out", str(tmp_path / "t")]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["amplitude"] < 0.05
    code = main(
        ["multipulse", "--config", case1_config, "--n", "2", "--verify",
         "--out", str(tmp_path / "m")]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) >= 1


def test_tangency_and_multipulse_read_x0_mod_2pi(tmp_path, capsys):
    # the trace angle is reduced exactly before use, so a large --x0 is its
    # residue: --verify replays the bump and the pulses against the residue
    config = str(README_PARAMS.with_name("dense_params.json"))
    argv = ["tangency", "--config", config, "--x0", "1e300", "--verify", "--out", str(tmp_path / "t")]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["x0"] == 1e300
    argv = ["multipulse", "--config", config, "--n", "2", "--x0", "1e12", "--verify", "--out", str(tmp_path / "m")]
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4


@pytest.mark.parametrize("config, x, k_max", [("dense_params.json", "0.0", 1021), ("readme_params.json", "0.1", 1023)])
def test_jacobian_verify_at_every_accepted_height(config, x, k_max, tmp_path):
    # k_max is the last height whose Jacobian is finite; every height down
    # to it meets the chain-rule oracle's 1e-5 bound
    argv = ["jacobian", "--config", str(README_PARAMS.with_name(config)), "--x", x, "--k-min", "4"]
    out = tmp_path / "out"
    assert main([*argv, "--k-max", str(k_max), "--verify", "--out", str(out)]) == 0
    diagnostics = json.loads((out / "jacobian_manifest.json").read_text())["diagnostics"]
    assert diagnostics["count"] == k_max - 3 and diagnostics["oracle_rel_error"] < 1e-5
    assert main([*argv, "--k-max", str(k_max + 1), "--out", str(tmp_path / "deeper")]) == 2


def test_jacobian_verify_at_large_x(tmp_path):
    # the Jacobian and its oracle both run at x mod 2 pi, reduced exactly,
    # so phi is not lost to ulp(x)
    for x in ("1e6", "1e10", "1e17", "-1e300"):
        out = tmp_path / x
        assert main(["jacobian", "--config", str(DENSE_PARAMS), f"--x={x}", "--verify", "--out", str(out)]) == 0
        assert json.loads((out / "jacobian_manifest.json").read_text())["diagnostics"]["oracle_rel_error"] < 1e-5


@pytest.mark.parametrize(
    "config, factor",
    [
        (DENSE_PARAMS, 500),
        (DENSE_PARAMS, 1000),
        (DENSE_PARAMS, 1e5),
        (DENSE_PARAMS, 5e9),
        (DENSE_PARAMS, 1e150),
        (README_PARAMS, 4e5),
        (README_PARAMS, 4e10),
    ],
    ids=["500", "1000", "1e5", "g_v-1e10", "1e150", "readme-g_v-1e5", "readme-g_v-1e10"],
)
def test_jacobian_verify_at_large_g_v(config, factor, tmp_path):
    # the oracle takes no step, so it follows phi at every g_v
    out = tmp_path / "out"
    assert main(["jacobian", "--config", _scaled(factor, tmp_path, config), "--verify", "--out", str(out)]) == 0
    assert json.loads((out / "jacobian_manifest.json").read_text())["diagnostics"]["oracle_rel_error"] < 1e-12


def _report_rows(change):
    """``jacobian_report`` with its rows passed through ``change(rows, y)``."""
    return lambda r, x, y, p: dataclasses.replace(r, jacobian=change(r.jacobian, y))


def _kernel_field(field, change):
    """``exit_curve`` with ``field`` replaced by ``change(curve, constants)``."""
    return lambda c, t, u, p: c._replace(**{field: change(c, p.constants)})


# name -> (module, patched name, change to what the original returns, given
# its arguments). The four kernel mutants each flip the sign of one term,
# read off the kernel's own fields through x_t = B/C (B = 1 + g_w sigma sc)
# and log_y_t = -delta_w sigma sc / C
JACOBIAN_MUTANTS = {
    "transposed-rows": (cli, "jacobian_report", _report_rows(lambda rows, y: tuple(zip(*rows)))),
    "undivided-column": (cli, "jacobian_report", _report_rows(lambda rows, y: tuple((a, b * y) for a, b in rows))),
    # x_t = (1 - g_w sigma sc) / C
    "x_t-sigma-sc": (
        horseshoe, "exit_curve", _kernel_field("x_t", lambda c, k: c.x_t + 2.0 * k.g_w * c.log_y_t / k.delta_w),
    ),
    # x_u = -(g_w delta_v - g_v B/C)
    "x_u-g_v": (horseshoe, "exit_curve", _kernel_field("x_u", lambda c, k: c.x_u + 2.0 * k.g_v * c.x_t)),
    "log_y_t-sign": (horseshoe, "exit_curve", _kernel_field("log_y_t", lambda c, k: -c.log_y_t)),
    # log_y_u = delta - delta_w g_v sigma sc / C
    "log_y_u-g_v": (
        horseshoe, "exit_curve", _kernel_field("log_y_u", lambda c, k: c.log_y_u + 2.0 * k.g_v * c.log_y_t),
    ),
}


@pytest.mark.parametrize(
    "config, x", [(README_PARAMS, "0.1"), (DENSE_PARAMS, "0.1"), (DENSE_PARAMS, "1e10")],
    ids=["readme", "dense", "dense-x1e10"],
)
@pytest.mark.parametrize("name", list(JACOBIAN_MUTANTS))
def test_jacobian_verify_kills_the_jacobian_mutants(name, config, x, tmp_path, capsys, monkeypatch):
    module, target, change = JACOBIAN_MUTANTS[name]
    original = getattr(module, target)
    monkeypatch.setattr(module, target, lambda *args: change(original(*args), *args))
    out = tmp_path / "out"
    assert main(["jacobian", "--config", str(config), f"--x={x}", "--verify", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("verification failed: Jacobian misses the chain-rule oracle")
    assert not out.exists()


def test_multipulse_manifest_records_the_replay(tmp_path, capsys):
    # the largest replay_pulse residual over the points, against the 1e-8
    # bound of --verify; 0.0 where there are no points
    out = tmp_path / "out"
    assert main(["multipulse", "--config", str(README_PARAMS), "--n", "3", "--verify", "--out", str(out)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4
    diagnostics = json.loads((out / "multipulse_manifest.json").read_text())["diagnostics"]
    assert diagnostics["count"] == 4 and 0.0 < diagnostics["replay_residual"] < 1e-8
    empty = ["--s-min", "0.49", "--s-max", "0.5"]
    assert main(["multipulse", "--config", str(README_PARAMS), "--verify", "--out", str(tmp_path / "e"), *empty]) == 0
    diagnostics = json.loads((tmp_path / "e" / "multipulse_manifest.json").read_text())["diagnostics"]
    assert diagnostics == {"count": 0, "replay_residual": 0.0}
    assert main(["multipulse", "--config", str(README_PARAMS), "--out", str(tmp_path / "plain")]) == 0
    assert "replay_residual" not in json.loads((tmp_path / "plain" / "multipulse_manifest.json").read_text())["diagnostics"]


def test_tangency_manifest_records_the_bump_replay(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["tangency", "--config", str(DENSE_PARAMS), "--x0", "0.0"]
    assert main([*argv, "--n-max", "10000", "--verify", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    diagnostics = json.loads((out / "tangency_manifest.json").read_text())["diagnostics"]
    assert diagnostics["amplitude"] == report["amplitude"] == report["history"][-1][1]
    assert 0.0 <= diagnostics["bump_residual"] <= 2.0 * math.ulp(max(abs(report["x_best"]), math.pi))
    # the centre lies below the float range, so its height is written as 0.0
    assert diagnostics["center_log_y"] < math.log(5e-324) and diagnostics["center_underflow"] is True
    assert report["bump"]["center"][1] == 0.0
    assert main([*argv, "--n-max", "3", "--out", str(tmp_path / "shallow")]) == 0
    diagnostics = json.loads((tmp_path / "shallow" / "tangency_manifest.json").read_text())["diagnostics"]
    assert diagnostics["center_underflow"] is False and "bump_residual" not in diagnostics
    center_y = json.loads(capsys.readouterr().out)["bump"]["center"][1]
    assert math.exp(diagnostics["center_log_y"]) == pytest.approx(center_y)


def test_jacobian_skips_heights_above_eps(case1_config, tmp_path):
    # k = 0 is the height y = 1 > eps = 0.5: the sweep starts at k = 1; below
    # k = -1023, 2^-k overflows, and those heights are skipped too
    for k_min in ("0", "-1100"):
        out = tmp_path / k_min
        code = main(["jacobian", "--config", case1_config, "--k-min", k_min, "--k-max", "3", "--out", str(out)])
        assert code == 0
        rows = (out / "jacobian.csv").read_text().strip().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == [0.5, 0.25, 0.125]


def test_jacobian_sweep(case1_config, tmp_path):
    code = main(
        ["jacobian", "--config", case1_config, "--k-min", "4", "--k-max", "12",
         "--verify", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    lines = (tmp_path / "out" / "jacobian.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,det,trace,class"
    dets = [float(r.split(",")[2]) for r in lines[1:]]
    assert all(b < a for a, b in zip(dets, dets[1:]))


def test_simulate_manifest_and_verify(flow_config, tmp_path):
    code = main(
        ["simulate", "--config", flow_config, "--T", "20", "--rtol", "1e-8",
         "--atol", "1e-10", "--x0", "0.6,-0.3,0.0,0.74", "--verify", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "simulate_manifest.json").read_text())
    assert manifest["diagnostics"]["chirality"] in ("different", "inconclusive")
    assert manifest["diagnostics"]["collapse"] is None
    # the chirality check's identity residual and the samples it measured at each node
    assert 0.0 <= manifest["diagnostics"]["max_identity_residual"] <= 1e-12
    assert manifest["diagnostics"]["samples_near_v"] + manifest["diagnostics"]["samples_near_w"] > 0
    traj = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    assert traj[0] == "t,x1,x2,x3,x4,r2"
    assert len(traj) > 10
    for name in manifest["outputs"]:
        import os

        assert os.path.exists(name) and os.path.getsize(name) > 0


def test_sojourn_manifest_counts_its_run(tmp_path):
    # sojourn integrates the run simulate does, and records the same counts
    counts = []
    for command in ("simulate", "sojourn"):
        out = tmp_path / command
        assert main([command, "--config", str(README_FLOW), "--T", "300", "--out", str(out)]) == 0
        diagnostics = json.loads((out / f"{command}_manifest.json").read_text())["diagnostics"]
        counts.append({key: diagnostics[key] for key in ("samples", "rhs_calls", "floor_abs")})
    assert counts[0] == counts[1]
    lines = (tmp_path / "simulate" / "trajectory.csv").read_text().splitlines()
    assert counts[0]["samples"] == len(lines) - 1
    assert 0.0 < counts[0]["floor_abs"] < 1e-3


def test_simulate_reports_collapse(flow_config, tmp_path):
    code = main(
        ["simulate", "--config", flow_config, "--T", "10", "--rtol", "1e-8", "--atol", "1e-10",
         "--x0", "1e-322,0,0,1", "--verify", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "simulate_manifest.json").read_text())
    collapse = manifest["diagnostics"]["collapse"]
    assert collapse["coordinate"] == "x1" and 0.0 < collapse["t"] < 10.0
    assert manifest["diagnostics"]["failure"] is None


def test_simulate_overflowing_start_fails_verify(flow_config, tmp_path):
    code = main(
        ["simulate", "--config", flow_config, "--x0", "1e155,1,0,0", "--T", "1", "--verify",
         "--out", str(tmp_path / "out")]
    )
    assert code == 1


@pytest.mark.parametrize("verify, code", [([], 0), (["--verify"], 1)])
def test_simulate_unmeetable_tolerance_ends_on_underflow(verify, code, flow_config, tmp_path):
    # each squared error term overflows; that is a rejection, not a traceback
    out = tmp_path / "out"
    argv = ["simulate", "--config", flow_config, "--rtol", "0", "--atol", "1e-300", "--T", "1", "--out", str(out)]
    assert main(argv + verify) == code
    if verify:
        assert not out.exists()
    else:
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["diagnostics"]["failure"].startswith("step-size underflow")


def test_trajectory_rows_stream_into_a_temporary_file(flow_config, tmp_path, capsys, monkeypatch):
    # the blocks of rows are written as they are formatted; a failure partway
    # through leaves neither the artifact, its temporary file nor a manifest
    out = tmp_path / "out"
    seen = []
    simulate = cli.cmd_simulate

    def failing(args, config):
        name, rows, diagnostics = simulate(args, config)

        def rows_then_error():
            yield from itertools.islice(rows, 100)
            seen.extend(f.name for f in out.iterdir())
            raise ValueError("row 100 cannot be formatted")

        return name, rows_then_error(), diagnostics

    monkeypatch.setattr(cli, "cmd_simulate", failing)
    assert main(["simulate", "--config", flow_config, "--T", "20", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: row 100 cannot be formatted\n"
    assert len(seen) == 1 and seen[0].startswith("trajectory.csv.")
    assert list(out.iterdir()) == []


def test_csv_cell_error_keeps_the_earlier_artifact(dense_config, tmp_path, capsys, monkeypatch):
    # 2,500 rows are three blocks of the 7 columns; the third block's first
    # column fails after two blocks went into the temporary file
    out = tmp_path / "out"
    argv = ["curve", "--config", dense_config, "--s-min", "1e-6", "--s-max", "0.5", "--n-samples", "2500"]
    assert main([*argv, "--out", str(out)]) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    cells = cli._cells
    seen = []

    def failing(column):
        seen.append(sorted(f.name for f in out.iterdir()))
        if len(seen) > 14:
            raise ValueError("column slice 15 cannot be formatted")
        return cells(column)

    monkeypatch.setattr(cli, "_cells", failing)
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith("error: column slice 15 cannot be formatted\n")
    # the cells were formatted with the temporary file open beside the old artifact
    assert len(seen) == 15 and all(len(names) == 3 for names in seen)
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


# values where repr changes form (below 1e-4 and from 1e16 on), signed
# zeros, non-finite and subnormal values
CSV_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072e-308, 2.2250738585072014e-308,
    1e-4, math.nextafter(1e-4, 0.0), 1e-5, math.nextafter(1e-5, 1.0), 1e16, math.nextafter(1e16, 0.0), 0.1, -1.5,
]
CSV_COLUMNS = {
    "float": lambda floats, ints, texts: floats,
    "np.float64-list": lambda floats, ints, texts: [np.float64(v) for v in floats],
    "float-array": lambda floats, ints, texts: np.array(floats),
    "int": lambda floats, ints, texts: ints,
    "numpy-int": lambda floats, ints, texts: np.array(ints, dtype=np.int64),
    "numpy-bool": lambda floats, ints, texts: np.array(ints, dtype=np.int64) % 2 == 0,
    "str": lambda floats, ints, texts: texts,
}


def _tiled(pool, rows):
    return [pool[i % len(pool)] for i in range(rows)]


@given(
    kinds=st.lists(st.sampled_from(sorted(CSV_COLUMNS)), min_size=1, max_size=4),
    rows=st.sampled_from([0, 1, cli.CSV_BLOCK, cli.CSV_BLOCK + 1]),
    floats=st.lists(st.one_of(st.sampled_from(CSV_FLOATS), st.floats()), min_size=1, max_size=8),
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8),
    texts=st.lists(st.text(st.characters(exclude_characters="\n"), max_size=4), min_size=1, max_size=8),
)
def test_csv_blocks_are_the_rows_cell_by_cell(kinds, rows, floats, ints, texts):
    """_csv's blocks, split at their newlines, are the rows cell by cell: an array's cells as floats, a list's by str."""
    floats, ints, texts = (_tiled(pool, rows) for pool in (floats, ints, texts))
    columns = [CSV_COLUMNS[kind](floats, ints, texts) for kind in kinds]
    cells = [
        [repr(float(v)) for v in column] if isinstance(column, np.ndarray) else [str(v) for v in column]
        for column in columns
    ]
    rows_by_cell = ["h", *map(",".join, zip(*cells))]
    blocks = list(cli._csv("h", *columns))
    # compared as lists of lines, which pytest reports by the first row that differs
    assert "\n".join(blocks).split("\n") == rows_by_cell
    assert len(blocks) == 1 + -(-rows // cli.CSV_BLOCK)


def test_main_builds_the_parser_once(case1_config, tmp_path, capsys, monkeypatch):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    # a cache of its own, so the process's parser neither serves nor keeps this one
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    for k in range(2):
        assert main(["classify", "--config", case1_config, "--out", str(tmp_path / f"out{k}")]) == 0
    assert len(built) == 1


@pytest.mark.parametrize(
    "command, loader, loaded, config, options",
    [
        ("classify", "load_saddle_params", "SaddleParams", "case1_config", []),
        ("simulate", "load_model_config", "ModelConfig", "flow_config", ["--T", "5"]),
    ],
)
def test_a_replaced_command_and_loader_run(command, loader, loaded, config, options, request, tmp_path, monkeypatch):
    # the parser is built before the replacements, and runs them
    argv = [command, "--config", request.getfixturevalue(config), *options]
    assert main([*argv, "--out", str(tmp_path / "before")]) == 0
    load = getattr(cli, loader)
    calls = []

    def replaced_loader(doc):
        calls.append(loader)
        return load(doc)

    def replaced_command(args, p):
        calls.append(command)
        return "replaced.json", {"loaded": type(p).__name__}, {}

    monkeypatch.setattr(cli, loader, replaced_loader)
    monkeypatch.setattr(cli, f"cmd_{command}", replaced_command)
    out = tmp_path / "after"
    assert main([*argv, "--out", str(out)]) == 0
    assert calls == [loader, command]
    assert json.loads((out / "replaced.json").read_text()) == {"loaded": loaded}


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "command, config, options", [("classify", README_PARAMS, []), ("simulate", README_FLOW, ["--T", "5"])]
)
def test_config_digest_is_that_of_the_parsed_bytes(command, config, options, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), *options]) == 0
    manifest = json.loads((out / f"{command}_manifest.json").read_text())
    assert manifest["config_digest"] == hashlib.sha256(config.read_bytes()).hexdigest()


def test_artifacts_follow_the_umask(case1_config, tmp_path, capsys):
    # a CSV and a JSON artifact, and their manifests, get the mode the umask
    # gives a new file, not mkstemp's 0600
    old = os.umask(0o022)
    try:
        assert main(["strips", "--config", case1_config, "--out", str(tmp_path / "strips")]) == 0
        assert main(["classify", "--config", str(DENSE_PARAMS), "--verify", "--out", str(tmp_path / "classify")]) == 0
    finally:
        os.umask(old)
    for command, artifact in (("strips", "strips.csv"), ("classify", "region.json")):
        for name in (artifact, f"{command}_manifest.json"):
            assert stat.S_IMODE((tmp_path / command / name).stat().st_mode) == 0o644


def test_manifest_is_strict_json(flow_config, tmp_path):
    # the run never enters the sphere band, so its sphere residual is inf
    out = tmp_path / "out"
    argv = ["simulate", "--config", flow_config, "--rtol", "0", "--atol", "1e-300", "--T", "1", "--out", str(out)]
    assert main(argv) == 0
    manifest = _strict_json((out / "simulate_manifest.json").read_text())
    assert manifest["diagnostics"]["sphere_residual"] is None
    assert manifest["non_finite"] == {"sphere_residual": "inf"}
    assert main(argv[:-2] + ["--T", "20", "--rtol", "1e-8", "--out", str(out)]) == 0
    manifest = _strict_json((out / "simulate_manifest.json").read_text())
    assert manifest["diagnostics"]["sphere_residual"] < 1e-7 and manifest["non_finite"] == {}


@pytest.mark.parametrize("key, value", [("lambda", math.nan), ("lambda", math.inf), ("alpha1", math.inf)])
def test_simulate_refuses_non_finite_coefficients(key, value, tmp_path, capsys):
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({"alpha1": 1.0, "alpha2": -0.1, "lambda": 0.0, "model": "example4d", key: value}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--T", "1", "--out", str(out)]) == 2
    field = "lam" if key == "lambda" else key
    assert f"{field} must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_3d_model(tmp_path):
    cfg = tmp_path / "m3.json"
    cfg.write_text(json.dumps({"alpha1": 1.0, "alpha2": -0.1, "lambda": 0.0, "model": "dim3"}))
    code = main(
        ["simulate", "--config", str(cfg), "--T", "10", "--rtol", "1e-8", "--atol", "1e-10",
         "--x0", "0.1,0.4,0.9", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x,y,z,r2"


@pytest.mark.parametrize(
    "x0, planes", [("0,0.3,0.5", {"x_residual"}), ("0.3,0,0.5", {"y_residual"}), ("0.3,0.4,0.5", set())]
)
def test_simulate_verify_replays_the_planes_of_the_3d_model(x0, planes, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "m3.json"
    cfg.write_text(json.dumps({"alpha1": 1.0, "alpha2": -0.1, "lambda": 0.0, "model": "dim3"}))
    argv = ["simulate", "--config", str(cfg), f"--x0={x0}", "--T", "50", "--verify"]
    assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
    diagnostics = json.loads((tmp_path / "ok" / "simulate_manifest.json").read_text())["diagnostics"]
    # the field keeps x = 0 and y = 0 exactly
    assert {key: diagnostics[key] for key in diagnostics if key.endswith("_residual")} == dict.fromkeys(planes, 0.0)
    if not planes:
        return
    # a field that pushes x and y off their planes
    broken = flow._FIELDS["dim3"] + "d1 += 1e-3 * x3\nd2 += 1e-3 * x3\n"
    monkeypatch.setitem(flow._FIELDS, "dim3", broken)
    flow._compiled.cache_clear()
    out = tmp_path / "broken"
    try:
        assert main([*argv, "--out", str(out)]) == 1
    finally:
        monkeypatch.undo()
        flow._compiled.cache_clear()
    plane = next(iter(planes)).replace("_residual", " = 0")
    assert capsys.readouterr().err.startswith(f"verification failed: {plane} subspace drift ")
    assert not out.exists()


FLOW = {"alpha1": 1.0, "alpha2": -0.1, "lambda": 0.0, "model": "example4d"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "parameter document must be a JSON object"),
        ({**FLOW, "alpha1": None}, "alpha1"),
        ({**FLOW, "alpha1": "1.0"}, "alpha1"),
        ({**FLOW, "model": "dim5"}, "model must be one of ('dim3', 'example4d', 'example4d_same_lift'), got 'dim5'"),
        ({**FLOW, "model": 5}, "model must be a str, got 5"),
    ],
)
def test_simulate_rejects_malformed(doc, message, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sojourn"])
@pytest.mark.parametrize(
    "tolerances, field",
    [
        (["--rtol", "0", "--atol", "0"], "atol"),
        (["--atol", "0", "--x0", "0.5,0.5,0,0.7"], "atol"),
        (["--atol", "nan"], "atol"),
        (["--rtol", "-1"], "rtol"),
        (["--rtol", "inf"], "rtol"),
    ],
    ids=["both-zero", "zero-atol", "nan-atol", "negative-rtol", "inf-rtol"],
)
def test_flow_tolerances_are_refused(command, tolerances, field, flow_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([command, "--config", flow_config, "--T", "1", "--out", str(out), *tolerances])
    assert code == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, message",
    [
        (["curve", "--s-min", "1e-3", "--s-max", "0.1", "--t", "nan"], "--t must be finite"),
        (["curve", "--s-min", "nan", "--s-max", "0.1"], "--s-min must be finite"),
        (["curve", "--s-min", "1e-3", "--s-max", "inf"], "--s-max must be finite"),
        (["reversals", "--t", "inf"], "--t must be finite"),
        (["tangency", "--x0", "nan"], "--x0 must be finite"),
        (["tangency", "--t=-inf"], "--t must be finite"),
        (["strips", "--tau", "nan"], "--tau must be finite"),
        (["jacobian", "--x", "nan"], "--x must be finite"),
        (["multipulse", "--x0", "nan"], "--x0 must be finite"),
        (["multipulse", "--x0", "inf"], "--x0 must be finite"),
        (["multipulse", "--s-min", "1e-3", "--s-max", "nan"], "--s-max must be finite"),
        (["multipulse", "--s-min=-inf", "--s-max", "0.1"], "--s-min must be finite"),
        (["simulate", "--T", "nan"], "--T must be finite"),
        (["simulate", "--T", "inf"], "--T must be finite"),
        (["simulate", "--rtol", "nan"], "--rtol must be finite"),
        (["sojourn", "--T", "nan"], "--T must be finite"),
        (["sojourn", "--atol", "inf"], "--atol must be finite"),
        (["sojourn", "--radius", "nan"], "--radius must be finite"),
        (["sojourn", "--radius", "-1"], "--radius must be > 0"),
        # the poles are 2 apart, so above radius 1 their neighbourhoods overlap
        (["sojourn", "--radius", "1.2"], "--radius must be > 0 and <= 1"),
        (["sojourn", "--radius", "1.5", "--verify"], "--radius must be > 0 and <= 1"),
        # from |phi| = 2^50 on, one ulp of the exit angle is a quarter radian or more
        (["curve", "--s-min", "1e-3", "--s-max", "0.1", "--t", "1125899906842624"], "--t must satisfy |t| < 2^50"),
        (["reversals", "--t=-1125899906842624"], "--t must satisfy |t| < 2^50, got -1125899906842624.0"),
        (["tangency", "--t", "1e16"], "--t must satisfy |t| < 2^50, got 1e+16"),
    ],
)
def test_non_finite_options_are_refused(command, message, case1_config, flow_config, tmp_path, capsys):
    config = flow_config if command[0] in ("simulate", "sojourn") else case1_config
    out = tmp_path / "out"
    code = main([command[0], "--config", config, "--out", str(out), *command[1:]])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sojourn_verify_replays_dwell_boundaries(flow_config, tmp_path, capsys):
    code = main(
        ["sojourn", "--config", flow_config, "--T", "150", "--rtol", "1e-8",
         "--atol", "1e-10", "--verify", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["median_ratio"] > 1.0
    manifest = json.loads((tmp_path / "out" / "sojourn_manifest.json").read_text())
    assert manifest["diagnostics"]["collapse"] is None
    assert (manifest["diagnostics"]["accepted"], manifest["diagnostics"]["rejected"]) == (2081, 12)
    assert 0.0 < manifest["diagnostics"]["boundary_residual"] < SAMPLE_SPACING**2 / 0.3


@pytest.mark.parametrize(
    "model, x0", [("dim3", "0.1,0.4,0.9"), ("example4d_same_lift", "-0.5,-0.139,-0.8807,0.3013")]
)
def test_sojourn_verify_on_other_models(model, x0, tmp_path):
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({**FLOW, "model": model}))
    out = tmp_path / "out"
    assert main(["sojourn", "--config", str(cfg), f"--x0={x0}", "--T", "300", "--verify", "--out", str(out)]) == 0
    manifest = json.loads((out / "sojourn_manifest.json").read_text())
    assert 0.0 < manifest["diagnostics"]["boundary_residual"] < SAMPLE_SPACING**2 / 0.3


def _move_one_boundary(series, neighborhood_radius):
    report = sojourn_analysis(series, neighborhood_radius)
    dwells = list(report.dwells)
    moved = dwells[3]
    dwells[3] = dataclasses.replace(moved, t_exit=moved.t_exit + 0.5, duration=moved.duration + 0.5)
    return dataclasses.replace(report, dwells=tuple(dwells))


UNDERFLOW = ["--rtol", "0", "--atol", "1e-300", "--T", "1"]


@pytest.mark.parametrize(
    "lam, options, analysis, message",
    [
        (0.0, UNDERFLOW, sojourn_analysis, "step-size underflow"),
        (0.05, ["--x0=1e-322,0,-0.0,1", "--T", "50"], sojourn_analysis, "x1 collapsed to 0.0"),
        (0.0, ["--T", "150"], _move_one_boundary, "dwell boundary is off the radius sphere"),
    ],
    ids=["underflow", "collapse", "moved-boundary"],
)
def test_sojourn_verify_refuses_the_run(lam, options, analysis, message, tmp_path, capsys, monkeypatch):
    config = tmp_path / "flow.json"
    config.write_text(json.dumps({**json.loads(README_FLOW.read_text()), "lambda": lam}))
    monkeypatch.setattr("bykov.cli.sojourn_analysis", analysis)
    out = tmp_path / "out"
    assert main(["sojourn", "--config", str(config), *options, "--verify", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sojourn"])
@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_horizon_at_the_stop_margin_is_refused(command, verify, tmp_path, capsys):
    # the integrator takes no step for T <= STOP_MARGIN: a run of one sample
    # at t = 0 is no trajectory, and under --verify it has no spacing to check
    out = tmp_path / "out"
    argv = [command, "--config", str(README_FLOW), "--T", "1e-13", "--out", str(out), *verify]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: T must be finite and > {flow.STOP_MARGIN}")
    assert not out.exists()


def test_sojourn_underflow_without_verify_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sojourn", "--config", str(README_FLOW), *UNDERFLOW, "--out", str(out)]) == 2
    assert "complete dwell episodes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sojourn"])
@pytest.mark.parametrize("x0", ["a,b,c,d", "", "1,2", "nan,0,0,1"], ids=["letters", "empty", "short", "nan"])
def test_bad_start_names_x0(command, x0, flow_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "--config", flow_config, f"--x0={x0}", "--T", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --x0 must be 4 finite")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["reversals", "--t=-1e15"], ["jacobian", "--x=-1e10"], ["tangency", "--x0=-1e3"]], ids=["t", "x", "x0"]
)
def test_negative_value_in_exponent_notation_joined_with_equals(argv, tmp_path):
    # argparse 3.10 and 3.11 take a split "-1e15" for an option string and
    # exit 2; README documents the joined form, which is all this asserts
    assert main([argv[0], "--config", str(DENSE_PARAMS), *argv[1:], "--out", str(tmp_path / "out")]) == 0


OPTIONS = {
    "classify": ["--config", "--out", "--verify"],
    "curve": ["--config", "--out", "--verify", "--t", "--s-min", "--s-max", "--n-samples"],
    "reversals": ["--config", "--out", "--verify", "--t", "--n-max"],
    "tangency": ["--config", "--out", "--verify", "--x0", "--t", "--n-max"],
    "strips": ["--config", "--out", "--verify", "--tau", "--n-limit"],
    "jacobian": ["--config", "--out", "--verify", "--x", "--k-min", "--k-max"],
    "multipulse": ["--config", "--out", "--verify", "--n", "--x0", "--s-min", "--s-max"],
    "simulate": ["--config", "--out", "--verify", "--rtol", "--atol", "--x0", "--T"],
    "sojourn": ["--config", "--out", "--verify", "--rtol", "--atol", "--x0", "--T", "--radius"],
}


def test_module_run_exits_with_the_code_of_main(tmp_path):
    # python -m bykov.cli runs main in a fresh interpreter and exits with its code
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    argv = ["curve", "--config", str(DENSE_PARAMS), "--t", "1e17", "--s-min", "1e-3", "--s-max", "0.1"]
    argv += ["--out", str(out)]
    run = subprocess.run([sys.executable, "-m", "bykov.cli", *argv], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (2, "", "error: --t must satisfy |t| < 2^50, got 1e+17\n")
    assert not out.exists()


def test_subcommand_options():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [opt for action in sp._actions for opt in action.option_strings if opt not in ("-h", "--help")]
        for name, sp in commands.choices.items()
    }
    assert got == OPTIONS


def test_failed_verify_writes_and_prints_nothing(case1_config, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("bykov.cli.turning_range_grid", lambda p: (-math.inf, math.inf))
    out = tmp_path / "out"
    assert main(["classify", "--config", case1_config, "--verify", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "verification failed" in captured.err
    assert not out.exists()


def _shorter_by_a_thousandth(family):
    first = family.strips[0]
    shorter = dataclasses.replace(first, b_of_t=first.b_of_t * (1.0 - 1e-3))
    return dataclasses.replace(family, strips=(shorter,) + family.strips[1:])


# name -> (config fixture, command, patched name in bykov.cli, change to
# what the original returns, message on stderr)
VERIFY_FAILURES = {
    "classify-falls-short": (
        "case1_config", ["classify"], "turning_range_grid", lambda r: (r[0] + 1e-3, r[1]),
        "turning-function grid falls short of the closed-form extrema",
    ),
    "curve-oracle": (
        "dense_config", ["curve", "--s-min", "1e-3", "--s-max", "0.5", "--n-samples", "4"], "eta_log",
        lambda r: (r[0] + 1e-6, r[1]), "disagrees with the composition oracle",
    ),
    # the deepest row, where x_w's terms are largest on the dense config, moved by 1e-6
    "curve-deep-row": (
        "dense_config", ["curve", "--s-min", "1e-300", "--s-max", "0.5", "--n-samples", "2000"], "curve_arrays",
        lambda r: (r[0], r[1] + np.where(np.arange(len(r[1])) == 0, 1e-6, 0.0), *r[2:]),
        "curve row at s=1e-300 disagrees with the composition oracle",
    ),
    "curve-nan": (
        "dense_config", ["curve", "--s-min", "1e-3", "--s-max", "0.5", "--n-samples", "4"], "eta_log",
        lambda r: (r[0], math.nan), "disagrees with the composition oracle",
    ),
    "reversals-period": (
        "dense_config", ["reversals", "--n-max", "20"], "reversal_sequence",
        lambda r: dataclasses.replace(r, log_s_values=r.log_s_values + np.linspace(0.0, 1e-3, len(r))),
        "period ln s_{n+2} - ln s_n = -pi/g_v violated",
    ),
    "reversals-turning": (
        "dense_config", ["reversals", "--n-max", "20"], "reversal_sequence",
        lambda r: dataclasses.replace(r, log_s_values=r.log_s_values + 0.01),
        "nonzero turning derivative at reversal 0",
    ),
    # every steep reversal moved by 1e-6 in u, a million ulps of it
    "reversals-turning-steep": (
        "steep_config", ["reversals", "--n-max", "100"], "reversal_sequence",
        lambda r: dataclasses.replace(r, log_s_values=r.log_s_values + 1e-6),
        "nonzero turning derivative at reversal 0",
    ),
    # at t = 1e7 the bounds carry ulp(t)/g_v, still far below a move of 1e-6
    "reversals-period-far-t": (
        "dense_config", ["reversals", "--n-max", "20", "--t", "1e7"], "reversal_sequence",
        lambda r: dataclasses.replace(r, log_s_values=r.log_s_values + 1e-6 * (np.arange(len(r)) == 5)),
        "period ln s_{n+2} - ln s_n = -pi/g_v violated",
    ),
    "reversals-turning-far-t": (
        "dense_config", ["reversals", "--n-max", "20", "--t", "1e7"], "reversal_sequence",
        lambda r: dataclasses.replace(r, log_s_values=r.log_s_values + 1e-6),
        "nonzero turning derivative at reversal 0",
    ),
    "tangency-history": (
        "dense_config", ["tangency", "--n-max", "100"], "find_tangency",
        lambda r: dataclasses.replace(r, history=r.history[::-1]), "running minimum distance is not non-increasing",
    ),
    "tangency-amplitude": (
        "dense_config", ["tangency", "--n-max", "100"], "find_tangency",
        lambda r: dataclasses.replace(r, amplitude=2.0 * r.amplitude), "is not the last history distance",
    ),
    "tangency-bump": (
        "dense_config", ["tangency", "--n-max", "100"], "find_tangency",
        lambda r: dataclasses.replace(r, bump=dataclasses.replace(r.bump, amplitude=r.bump.amplitude + 1e-9)),
        "the bump moves reversal",
    ),
    "strips-violations": (
        "dense_config", ["strips", "--n-limit", "2"], "build_strips", _shorter_by_a_thousandth,
        "strip 0: upper boundary misses target",
    ),
    "strips-images": (
        "dense_config", ["strips", "--n-limit", "2"], "strip_image_report",
        lambda r: [{**r[0], "within_width": False}] + r[1:], "strip image fails to stand across the rectangle",
    ),
    "jacobian-miss": (
        "case1_config", ["jacobian", "--k-max", "6"], "return_jacobian_chain", lambda r: r * 1.01,
        "Jacobian misses the chain-rule oracle at y=0.0625",
    ),
    # a shallow height's miss is reported ahead of the heights that are too deep
    "jacobian-miss-deep": (
        "case1_config", ["jacobian", "--k-max", "1030"], "return_jacobian_chain", lambda r: r * 1.01,
        "Jacobian misses the chain-rule oracle at y=0.0625",
    ),
    "jacobian-nan": (
        "case1_config", ["jacobian", "--k-max", "6"], "return_jacobian_chain", lambda r: r * math.nan,
        "Jacobian misses the chain-rule oracle at y=0.0625: nan relative",
    ),
    "multipulse-replay": (
        "case1_config", ["multipulse"], "replay_pulse", lambda r: dataclasses.replace(r, residual=1e-6),
        "pulse replay misses the trace by 1e-06",
    ),
    "multipulse-nan": (
        "case1_config", ["multipulse"], "replay_pulse", lambda r: dataclasses.replace(r, residual=math.nan),
        "pulse replay misses the trace by nan",
    ),
    "simulate-x3-drift": (
        "flow_config", ["simulate", "--T", "5", "--x0", "0.6,-0.3,0.0,0.74"], "invariant_subspace_residuals",
        lambda r: {**r, "x3=0": 1e-6}, "x3 = 0 subspace drift 1e-06",
    ),
    "simulate-spacing": (
        "flow_config", ["simulate", "--T", "5"], "integrate",
        lambda r: dataclasses.replace(r, times=r.times[::50], states=r.states[::50]), "sample spacing",
    ),
    "sojourn-dwells": (
        "flow_config", ["sojourn", "--T", "150", "--rtol", "1e-8", "--atol", "1e-10"], "sojourn_analysis",
        lambda r: dataclasses.replace(r, dwells=r.dwells[:3]), "3 complete dwells, need 4",
    ),
}


@pytest.mark.parametrize("name", list(VERIFY_FAILURES))
def test_verify_failure_writes_and_prints_nothing(name, request, tmp_path, capsys, monkeypatch):
    fixture, command, target, change, message = VERIFY_FAILURES[name]
    original = getattr(cli, target)
    monkeypatch.setattr(cli, target, lambda *args, **kwargs: change(original(*args, **kwargs)))
    out = tmp_path / "out"
    code = main([command[0], "--config", request.getfixturevalue(fixture), "--verify", "--out", str(out), *command[1:]])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("verification failed: ") and message in captured.err
    assert not out.exists()
