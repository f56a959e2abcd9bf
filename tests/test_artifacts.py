"""The CLI's artifacts, pinned by digest, and its JSON artifacts by schema.

Each pinned command runs on a committed example config.  A JSON data file
and the command's stdout must be the same bytes, with the pinned sha256; a
CSV data file has its own pinned sha256, and nothing goes to stdout.  The
schema pin
lists the keys of every JSON object an artifact holds, by the result type
it serializes, so that a change of format is a deliberate change here; the
CLI writes a result dataclass as its fields, so they are the same names.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from bykov.cli import main
from bykov.flow import Dwell, SojournReport
from bykov.horseshoe import PulsePoint
from bykov.params import DerivedConstants, GammaRationality, Region
from bykov.returncurve import BumpSpec, TangencyReport

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

# name -> (argv with the config named by file, artifact, sha256 of its bytes)
PINNED_ARTIFACTS = {
    "classify-readme": (
        ["classify", "--config", "readme_params.json"], "region.json",
        "24e117c72284a1895a448a21ed425eac1f1c9f4376fdab91af9fce40660f9b53",
    ),
    "classify-dense": (
        ["classify", "--config", "dense_params.json"], "region.json",
        "c1c79135179b193f24a655f5c8ac8d045f82be56f85db461122c6e21bdefd93c",
    ),
    "tangency-dense-x0-0": (
        ["tangency", "--config", "dense_params.json", "--x0", "0.0", "--n-max", "10000"], "tangency.json",
        "a52f343f997547534a6437803cdf331a1713caabc567d4d3e0f6c87fdf0949db",
    ),
    "tangency-dense-x0-1": (
        ["tangency", "--config", "dense_params.json", "--x0", "1.0", "--n-max", "10000"], "tangency.json",
        "e2e914fc5b59c43aea7af4b3291fde1f74d1844cc06e8c971751957155e56bbd",
    ),
    "multipulse-readme-n2": (
        ["multipulse", "--config", "readme_params.json", "--n", "2"], "multipulse.json",
        "1ee42d26dc6dbffd5eee4a56c674b0ca01b8aae6d948eb28f65374c3b6a52910",
    ),
    "multipulse-readme-n3": (
        ["multipulse", "--config", "readme_params.json", "--n", "3"], "multipulse.json",
        "328fb1710743c409beae474c2ccd52b4e6d417d4d883ff15311ffda43bae9a36",
    ),
    "multipulse-dense-n4": (
        ["multipulse", "--config", "dense_params.json", "--n", "4"], "multipulse.json",
        "edb159fd4bdc05027f5f924e3e645865cf77b1a7206e4301097908771942caa2",
    ),
    "sojourn-readme": (
        ["sojourn", "--config", "readme_flow.json", "--T", "500", "--verify"], "sojourn.json",
        "b6f475d1b7dbce0d218e4b4dce9f9c4e7e2c03a7398e1c4083d550e0e32f3a90",
    ),
}

# name -> (argv with the config named by file, artifact, sha256 of its bytes)
PINNED_CSV = {
    "simulate-readme": (
        ["simulate", "--config", "readme_flow.json", "--T", "500", "--verify"], "trajectory.csv",
        "fb56cf40de7021e523fcfeb9fca548ec361bd865afe1af3a69f3aa95388cb183",
    ),
    "curve-readme": (
        ["curve", "--config", "readme_params.json", "--s-min", "1e-6", "--s-max", "0.5", "--n-samples", "400",
         "--verify"], "curve.csv",
        "72212f5117a0ea9418da47d6c739ad6a23e9b6db836f3081d6829859310b013c",
    ),
    "reversals-dense": (
        ["reversals", "--config", "dense_params.json", "--n-max", "1000", "--verify"], "reversals.csv",
        "2999adf95e90054e5c0c74aa14697546eb8a2ea3255f063f5149b4aa84155917",
    ),
    "jacobian-readme": (
        ["jacobian", "--config", "readme_params.json", "--x", "0.1", "--k-min", "4", "--k-max", "20", "--verify"],
        "jacobian.csv",
        "1c902f8abe8eb45fafbe8ce8086c29d7878420a4692e7147d3a3a692fee446cc",
    ),
    "strips-dense": (
        ["strips", "--config", "dense_params.json", "--tau", "0.4", "--n-limit", "5", "--verify"], "strips.csv",
        "d8956f5d32c7d349ced04b3fef8ac5ef69f9dcbf885f4804045b4551563621e7",
    ),
    "strips-readme": (
        ["strips", "--config", "readme_params.json", "--tau", "0.4", "--n-limit", "5", "--verify"], "strips.csv",
        "aeb4ba69c7911c6ec26fa0661042a83d88f5e112c4fa8cc6bc65e1a99ff645a6",
    ),
}

# the keys of each JSON object, by the result type it serializes, in order
SCHEMA = {
    "Region": ("tag", "a_min", "a_max", "k", "gamma_rationality"),
    "GammaRationality": ("is_rational_within_tol", "p", "q", "error", "tol", "q_max"),
    "DerivedConstants": ("delta_v", "delta_w", "delta", "g_v", "g_w", "gamma", "c1", "c2", "c3", "c4"),
    "TangencyReport": (
        "x0", "t", "n_max", "n_best", "x_best", "log_s_best", "amplitude", "bump", "region_tag", "warning", "history",
    ),
    "BumpSpec": ("amplitude", "center", "radius"),
    "PulsePoint": ("s", "n", "residual", "trace"),
    "SojournReport": ("dwells", "ratios_v", "ratios_w", "median_ratio", "discarded"),
    "Dwell": ("node", "t_enter", "t_exit", "duration"),
}


def _main(argv, tmp_path) -> None:
    argv = [str(CONFIGS / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--out", str(tmp_path)]) == 0


def _run(name, tmp_path, capsys) -> bytes:
    argv, file_name, _ = PINNED_ARTIFACTS[name]
    _main(argv, tmp_path)
    data = (tmp_path / file_name).read_bytes()
    assert capsys.readouterr().out.encode() == data
    return data


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_json_artifact_bit_for_bit(name, tmp_path, capsys):
    digest = hashlib.sha256(_run(name, tmp_path, capsys)).hexdigest()
    assert digest == PINNED_ARTIFACTS[name][2]


@pytest.mark.parametrize("name", sorted(PINNED_CSV))
def test_csv_artifact_bit_for_bit(name, tmp_path, capsys):
    argv, file_name, digest = PINNED_CSV[name]
    _main(argv, tmp_path)
    assert capsys.readouterr().out == ""
    assert hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest() == digest
    # the artifact and its manifest, and no temporary file beside them
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted([file_name, f"{argv[0]}_manifest.json"])


def test_json_artifact_keys(tmp_path, capsys):
    region = json.loads(_run("classify-dense", tmp_path / "c", capsys))
    assert tuple(region) == SCHEMA["Region"] + ("constants",)
    assert tuple(region["gamma_rationality"]) == SCHEMA["GammaRationality"]
    assert tuple(region["constants"]) == SCHEMA["DerivedConstants"]
    tangency = json.loads(_run("tangency-dense-x0-0", tmp_path / "t", capsys))
    assert tuple(tangency) == SCHEMA["TangencyReport"]
    assert tuple(tangency["bump"]) == SCHEMA["BumpSpec"]
    points = json.loads(_run("multipulse-readme-n3", tmp_path / "m", capsys))
    assert points and all(tuple(pt) == SCHEMA["PulsePoint"] for pt in points)
    sojourn = json.loads(_run("sojourn-readme", tmp_path / "s", capsys))
    assert tuple(sojourn) == SCHEMA["SojournReport"]
    assert sojourn["dwells"] and all(tuple(d) == SCHEMA["Dwell"] for d in sojourn["dwells"])


@pytest.mark.parametrize(
    "cls",
    [Region, GammaRationality, DerivedConstants, TangencyReport, BumpSpec, PulsePoint, SojournReport, Dwell],
    ids=lambda cls: cls.__name__,
)
def test_result_fields_are_the_artifact_keys(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == SCHEMA[cls.__name__]
