import argparse
import json
import math

import pytest

from bykov.cli import build_parser, main


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
        (["jacobian", "--k-min", "1030", "--k-max", "1030"], ["k_max", "y="]),
        (["jacobian", "--k-min", "1075", "--k-max", "1075"], ["k_max", "y > 0"]),
        # the slope dx_w/ds = x_u / s overflows, which would also warn
        (["curve", "--s-min", "1e-320", "--s-max", "1e-300", "--n-samples", "50", "--t", "100"],
         ["s_min=1e-320", "dxw_ds", "s=1e-320"]),
    ],
    ids=["negative-s-min", "inverted-window", "no-strips", "inverted-k", "subnormal-y", "zero-y", "subnormal-s"],
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
def test_verify_refuses_points_below_the_oracle(command, fixture, request, tmp_path, capsys):
    # the oracle's disk radius c1 s^delta_v underflows to 0 at these depths
    out = tmp_path / "out"
    code = main([command[0], "--config", request.getfixturevalue(fixture), "--out", str(out), *command[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: s_min=1e-300 is too deep for --verify") and "s=" in err
    assert not out.exists()


def test_classify_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alpha_v": 1.0, "oops": 2}))
    code = main(["classify", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2


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


@pytest.mark.parametrize("command", [["curve", "--s-min", "1e-3", "--s-max", "1.0"], ["jacobian"]])
def test_saddle_commands_report_constant_underflow(command, tmp_path, capsys):
    # eps > 1 with a large C_w/E_w: c4 = eps**(1 - C_w/E_w) underflows to 0
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({**CASE1, "E_w": 0.002, "eps": 2.0}))
    code = main([command[0], "--config", str(path), "--out", str(tmp_path / "out"), *command[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert "c4" in err and all(name in err for name in ("C_w", "E_w", "eps"))


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


def test_reversals_verify(dense_config, tmp_path):
    code = main(
        ["reversals", "--config", dense_config, "--n-max", "300", "--verify",
         "--out", str(tmp_path / "out")]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "reversals_manifest.json").read_text())
    assert manifest["diagnostics"]["count"] == 300
    for f in manifest["outputs"]:
        assert (tmp_path / "out" / "reversals.csv").exists()


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
    traj = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    assert traj[0] == "t,x1,x2,x3,x4,r2"
    assert len(traj) > 10
    for name in manifest["outputs"]:
        import os

        assert os.path.exists(name) and os.path.getsize(name) > 0


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
    if not verify:
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["diagnostics"]["failure"].startswith("step-size underflow")


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


FLOW = {"alpha1": 1.0, "alpha2": -0.1, "lambda": 0.0, "model": "example4d"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "parameter document must be a JSON object"),
        ({**FLOW, "alpha1": None}, "alpha1"),
        ({**FLOW, "alpha1": "1.0"}, "alpha1"),
    ],
)
def test_simulate_rejects_malformed(doc, message, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(cfg), "--T", "1", "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err


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
    ],
)
def test_non_finite_options_are_refused(command, message, case1_config, flow_config, tmp_path, capsys):
    config = flow_config if command[0] in ("simulate", "sojourn") else case1_config
    out = tmp_path / "out"
    code = main([command[0], "--config", config, "--out", str(out), *command[1:]])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sojourn_self_test(flow_config, tmp_path, capsys):
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
