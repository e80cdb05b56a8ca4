"""Committed reference reports, rerun: each file in tests/reference/ holds a
report and the config that made it, and the rerun must reproduce its rows and
its family, exactly but for the float tolerances in FLOAT_RTOL, and its mesh
depth and grid window.  `tests/reference/regenerate.py` rewrites the files,
and the input files in `tests/reference/inputs/` that some configs name,
relative to the repository root."""

from __future__ import annotations

import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from dyadlab.experiments import ExperimentConfig, run

REPO = Path(__file__).resolve().parents[1]
HERE = REPO / "tests" / "reference"
REFERENCES = sorted(HERE.glob("*.json"))
# relative tolerance on float fields, by experiment (default: exact); the
# average-hilbert correlation is np.corrcoef, whose products go through BLAS.
# The norms and ntv power iterations stop once sigma moves by at most norm_tol
# relative in a step, and their vector norms go through BLAS `dot`: another
# rounding may stop one a step earlier or later, which moves sigma (and the
# ratio) by about norm_tol, so allow ten times that
FLOAT_RTOL = {
    "average-hilbert": 1e-12,
    "norms": 10 * ExperimentConfig.norm_tol,
    "ntv": 10 * ExperimentConfig.norm_tol,
}


def matches(got, want, rtol):
    if isinstance(want, float) and isinstance(got, float):
        return got == want or abs(got - want) <= rtol * abs(want)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(matches(got[k], want[k], rtol) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(matches(g, w, rtol) for g, w in zip(got, want))
    return got == want


def load_regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", HERE / "regenerate.py")
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    return regenerate


def test_every_regenerated_reference_is_committed():
    regenerate = load_regenerate()
    assert [p.stem for p in REFERENCES] == sorted(regenerate.REFERENCES)
    for path in REFERENCES:
        config = asdict(ExperimentConfig(**regenerate.REFERENCES[path.stem]))
        assert json.loads(path.read_text())["config"] == json.loads(json.dumps(config))


def test_committed_inputs_are_regenerated(tmp_path):
    load_regenerate().write_inputs(tmp_path)
    committed = sorted((HERE / "inputs").iterdir())
    assert [p.name for p in committed] == sorted(p.name for p in tmp_path.iterdir())
    for path in committed:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.stem)
def test_reference_report_reproduces(monkeypatch, path):
    monkeypatch.chdir(REPO)  # input paths in a config are relative to the repository root
    want = json.loads(path.read_text())
    got = json.loads(json.dumps(run(ExperimentConfig(**want["config"]))))
    rtol = FLOAT_RTOL.get(want["experiment"], 0.0)
    assert matches(got["rows"], want["rows"], rtol), (got["rows"], want["rows"])
    assert matches(got.get("family"), want.get("family"), rtol)
    assert (got["mesh_depth"], got["grid_window"]) == (want["mesh_depth"], want["grid_window"])
