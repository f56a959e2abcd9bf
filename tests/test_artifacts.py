"""The CLI's JSON artifacts, pinned by digest and by schema.

Each pinned command runs on a committed example config; its data file and
its stdout must be the same bytes, with the pinned sha256.  The schema pin
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
        "1e118728436dfe026377e079c111aca57f8b6239b108c5f08f0b26da646d71aa",
    ),
    "tangency-dense-x0-1": (
        ["tangency", "--config", "dense_params.json", "--x0", "1.0", "--n-max", "10000"], "tangency.json",
        "69a4140fee05c5612a4a80810599b4ec55898e83026ac0353b81460881ffb89a",
    ),
    "multipulse-readme-n2": (
        ["multipulse", "--config", "readme_params.json", "--n", "2"], "multipulse.json",
        "488bf9c4bb2379c79eb3294c3b3d328e44cf76a4fb3538ebe1c082d096e851ff",
    ),
    "multipulse-readme-n3": (
        ["multipulse", "--config", "readme_params.json", "--n", "3"], "multipulse.json",
        "c3195b5ed947adfefa98143badf68c51321f62786b875de0c7cd58e83d3a4362",
    ),
    "sojourn-readme": (
        ["sojourn", "--config", "readme_flow.json", "--T", "500", "--verify"], "sojourn.json",
        "b6f475d1b7dbce0d218e4b4dce9f9c4e7e2c03a7398e1c4083d550e0e32f3a90",
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


def _run(name, tmp_path, capsys) -> bytes:
    argv, file_name, _ = PINNED_ARTIFACTS[name]
    argv = [str(CONFIGS / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    data = (tmp_path / file_name).read_bytes()
    assert capsys.readouterr().out.encode() == data
    return data


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_json_artifact_bit_for_bit(name, tmp_path, capsys):
    digest = hashlib.sha256(_run(name, tmp_path, capsys)).hexdigest()
    assert digest == PINNED_ARTIFACTS[name][2]


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
