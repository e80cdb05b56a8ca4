"""Committed reference reports, rerun: each file in tests/reference/ holds a
report and the config that made it, and the rerun must reproduce its rows and
its family exactly.  `tests/reference/regenerate.py` rewrites the files."""

from __future__ import annotations

import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from dyadlab.experiments import ExperimentConfig, run

HERE = Path(__file__).resolve().parent / "reference"
REFERENCES = sorted(HERE.glob("*.json"))


def test_every_regenerated_reference_is_committed():
    spec = importlib.util.spec_from_file_location("regenerate", HERE / "regenerate.py")
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    assert [p.stem for p in REFERENCES] == sorted(regenerate.REFERENCES)
    for path in REFERENCES:
        config = asdict(ExperimentConfig(**regenerate.REFERENCES[path.stem]))
        assert json.loads(path.read_text())["config"] == json.loads(json.dumps(config))


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.stem)
def test_reference_report_reproduces(path):
    want = json.loads(path.read_text())
    got = json.loads(json.dumps(run(ExperimentConfig(**want["config"]))))
    assert got["rows"] == want["rows"]
    assert got["family"] == want["family"]
