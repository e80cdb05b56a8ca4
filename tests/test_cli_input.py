"""Bad input through `dyadlab.cli.main`: signal rows, margins and alphas are
config errors (exit 2) with a strict-JSON message, never a traceback or NaN."""

from __future__ import annotations

import json

import numpy as np
import pytest

from dyadlab.cli import main
from dyadlab.experiments import sweep_mesh
from dyadlab.signal import StepFunction


def strict_loads(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def assert_config_error(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert strict_loads(err)["error"] == "config"


def write_signal(tmp_path, depth, rows):
    sig, meta = tmp_path / "sig.csv", tmp_path / "sig.json"
    StepFunction(sweep_mesh(depth), np.zeros(1 << depth)).to_csv(sig, meta)
    sig.write_text("cell_index,value\n" + "".join(f"{i},{v}\n" for i, v in rows))
    return ["--signal", str(sig), "--signal-meta", str(meta)]


@pytest.mark.parametrize(
    "row", [(7, "1.0"), (-1, "1.0"), (2, "nan")], ids=["index-past-end", "negative-index", "nan-value"]
)
@pytest.mark.parametrize("experiment", ["haar", "average-hilbert"])
def test_bad_signal_row_is_a_config_error(tmp_path, capsys, row, experiment):
    # a 4-cell mesh; index 7 once raised IndexError, -1 overwrote the last cell, nan ran to exit 0
    files = write_signal(tmp_path, 2, [(0, "1.0"), row])
    extra = ["--samples", "2", "--seed", "0"] if experiment == "average-hilbert" else []
    assert_config_error(capsys, [experiment, *files, *extra])


def test_good_signal_rows_still_load(tmp_path, capsys):
    files = write_signal(tmp_path, 2, [(0, "1.0"), (3, "-2.5")])
    assert main(["haar", *files]) == 0
    capsys.readouterr()


def test_margin_emptying_every_window_is_a_config_error(capsys):
    # 2 m < -depth leaves [j_root - m, j_cell + m] without a generation
    assert_config_error(capsys, ["average-hilbert", "--depth", "6", "--samples", "2", "--seed", "0", "--margins", "-4"])
    assert main(["average-hilbert", "--depth", "6", "--samples", "2", "--seed", "0", "--margins", "-3"]) == 0
    assert strict_loads(capsys.readouterr().out)["experiment"] == "average-hilbert"


def test_margin_is_checked_against_the_signal_files_depth(tmp_path, capsys):
    # --depth 10 would allow -4, but the depth-6 signal file sets the mesh
    files = write_signal(tmp_path, 6, [(i, str(np.sin(i))) for i in range(64)])
    argv = ["average-hilbert", *files, "--depth", "10", "--samples", "2", "--seed", "0", "--margins"]
    assert_config_error(capsys, [*argv, "-4"])
    assert main([*argv, "-3"]) == 0


@pytest.mark.parametrize("alphas", ["0.5", "0.5,0.5"])
def test_norms_needs_two_distinct_alphas(capsys, alphas):
    # a one-point fit once printed "slope": 0.0848
    assert_config_error(capsys, ["norms", "--depth", "6", "--alphas", alphas, "--seed", "0"])
