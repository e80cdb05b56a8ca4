"""Bad input through `dyadlab.cli.main`: signal, cloud and config files, margins
and alphas are config errors (exit 2) with a strict-JSON message, never a
traceback or NaN; a fuzz test drives every experiment with arbitrary flags."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyadlab.cli import main
from dyadlab.experiments import EXPERIMENTS, sweep_mesh
from dyadlab.sht import MAX_CLOUD_POINTS
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


def test_signal_root_longer_than_its_cells_loads(tmp_path, capsys):
    # a depth-2 signal on [0, 1024) spans generations -10..-8; a grid window with j_max < 0 holds them, but
    # once failed on its 2^j_max denominators with "negative shift count", exit 2
    files = write_signal(tmp_path, 2, [(0, "1.0"), (1, "-2.0"), (2, "0.5"), (3, "3.0")])

    def haar_rows(name, *flags):
        out = tmp_path / name
        assert main(["haar", *files, *flags, "--out", str(out), "--format", "json"]) == 0
        capsys.readouterr()
        (report,) = out.glob("*.json")
        return strict_loads(report.read_text())["rows"]

    coefficients = {}
    for right in (4.0, 1024.0):
        (tmp_path / "sig.json").write_text(json.dumps({"root_left": 0.0, "root_right": right, "depth": 2}))
        coefficients[right] = [row["coefficient"] for row in haar_rows(f"out{right:g}")]
    # stretching the root by 256 keeps the mean (row 0) and multiplies each <f, h_I> by sqrt(256)
    mean, *haar = coefficients[4.0]
    assert coefficients[1024.0] == [mean] + [16.0 * c for c in haar]
    rows = {}
    for j_max in (-5, 0):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"r": 1.0, "j_min": -12, "j_max": j_max, "beta": "0" * (j_max + 13)}))
        rows[j_max] = haar_rows(f"grid{j_max}", "--grid", str(grid))
    assert rows[-5] == rows[0]
    assert [row["coefficient"] for row in rows[-5]] == coefficients[1024.0]


def test_margin_emptying_every_window_is_a_config_error(capsys):
    # 2 m < -depth leaves [j_root - m, j_cell + m] without a generation; above, the reference window
    # [-(m + 2), depth + m + 2] must keep |j| <= 1022, or 2**-j leaves the normal doubles (10000000 once
    # drew 2 m shift bits per sample, peaked at 1.1 GB and exited 3)
    for depth, rejected, accepted in (("6", "-4", "-3"), ("4", "10000000", "1016"), ("4", "1017", "1016")):
        argv = ["average-hilbert", "--depth", depth, "--samples", "2", "--seed", "0", "--margins"]
        assert_config_error(capsys, [*argv, rejected])
        assert main([*argv, accepted]) == 0
        assert strict_loads(capsys.readouterr().out)["experiment"] == "average-hilbert"


def test_margin_is_checked_against_the_signal_files_depth(tmp_path, capsys):
    # --depth 10 would allow -4 and reject 1014, but the depth-6 signal file sets the mesh
    files = write_signal(tmp_path, 6, [(i, str(np.sin(i))) for i in range(64)])
    argv = ["average-hilbert", *files, "--depth", "10", "--samples", "2", "--seed", "0", "--margins"]
    assert_config_error(capsys, [*argv, "-4"])
    assert main([*argv, "-3"]) == 0
    capsys.readouterr()
    assert_config_error(capsys, [*argv, "10000000"])
    assert_config_error(capsys, [*argv, "1015"])
    assert main([*argv, "1014"]) == 0
    capsys.readouterr()
    # edges near 2**10 measured in lengths 2**-1018 overflow: a far root lowers the bound
    (tmp_path / "sig.json").write_text('{"root_left": 1024.0, "root_right": 1025.0, "depth": 6}')
    assert_config_error(capsys, [*argv, "1010"])
    assert main([*argv, "1003"]) == 0


@pytest.mark.parametrize("alphas", ["0.5", "0.5,0.5"])
def test_norms_needs_two_distinct_alphas(capsys, alphas):
    # a one-point fit once printed "slope": 0.0848
    assert_config_error(capsys, ["norms", "--depth", "6", "--alphas", alphas, "--seed", "0"])


def test_signal_csv_without_value_column_is_a_config_error(tmp_path, capsys):
    files = write_signal(tmp_path, 2, [])
    (tmp_path / "sig.csv").write_text("cell_index,val\n0,1.0\n")
    assert_config_error(capsys, ["haar", *files])


def test_signal_cell_given_two_values_is_a_config_error(tmp_path, capsys):
    # the second row once overwrote the first and the run exited 0
    files = write_signal(tmp_path, 2, [(0, "1.0"), (1, "2.0"), (0, "3.0")])
    for experiment in ("haar", "average-hilbert"):
        assert_config_error(capsys, [experiment, *files, "--samples", "2", "--seed", "0"])
    files = write_signal(tmp_path, 2, [(0, "1.0"), (1, "2.0"), (0, "1.0")])  # repeated, but consistent
    assert main(["haar", *files]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "window",
    [(3, 6), (-2, 1)],
    ids=["root-above-window", "cells-below-window"],
)
def test_grid_window_missing_the_signal_is_a_config_error(tmp_path, capsys, window):
    # a depth-2 signal on [0, 1) needs generations 0..2; both windows once exited 3 ("numeric")
    files = write_signal(tmp_path, 2, [(0, "1.0"), (3, "-2.0")])
    j_min, j_max = window
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"r": 1.0, "j_min": j_min, "j_max": j_max, "beta": "0" * (j_max - j_min + 1)}))
    assert_config_error(capsys, ["haar", *files, "--grid", str(grid)])
    grid.write_text(json.dumps({"r": 1.0, "j_min": -2, "j_max": 2, "beta": "00000"}))
    assert main(["haar", *files, "--grid", str(grid)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "text",
    [
        '{"r": 1.0, "j_min": -2, "j_max": 2}',
        '{"r": 1.0, "j_min": -2, "j_max": 2, "beta": 5}',
        '[1.0, -2, 2, "00000"]',
        '{"r": 1.0, "j_min": -2, "j_max": 2, "beta": "00000", "span": [1]}',
        '{"r": 1.0, "j_min": -2, "j_max": 2, "beta": "00000", "span": [0, 1, 2]}',
        '{"r": 1.0, "j_min": -2, "j_max": 2, "beta": "00000", "spam": 1}',
        '{"r": 1.0, "j_min": -2.9, "j_max": 2, "beta": "00000"}',
        '{"r": true, "j_min": -2, "j_max": 2, "beta": "00000"}',
        '{"r": "1.0", "j_min": -2, "j_max": 2, "beta": "00000"}',
        '{"r": 1.0, "j_min": -2, "j_max": 2, "beta": [0, 0, 0, 0, 0]}',
        '{"r": 1.0, "j_min": -2000, "j_max": 2, "beta": "' + "0" * 2003 + '"}',
    ],
    ids=[
        "no-beta", "numeric-beta", "list", "one-number-span", "three-number-span", "unknown-key",
        "fractional-j_min", "boolean-r", "string-r", "list-beta", "window-past-the-normal-doubles",
    ],
)
def test_malformed_grid_file_is_a_config_error(tmp_path, capsys, text):
    # once: KeyError, TypeError, TypeError and IndexError tracebacks, exit 1; the next six loaded and
    # exited 0 (a span, an unknown key, a truncated -2.9, r true or "1.0", beta as a list), and the last
    # kept 2003 exact shift numerators of up to 2002 bits each: memory quadratic in the window width
    files = write_signal(tmp_path, 2, [(0, "1.0"), (3, "-2.0")])
    grid = tmp_path / "grid.json"
    grid.write_text(text)
    assert_config_error(capsys, ["haar", *files, "--grid", str(grid)])


def test_signal_side_file_without_depth_is_a_config_error(tmp_path, capsys):
    files = write_signal(tmp_path, 2, [(0, "1.0")])
    (tmp_path / "sig.json").write_text('{"root_left": 0.0, "root_right": 1.0}')
    assert_config_error(capsys, ["haar", *files])


SIDE_FILES = {
    "infinite-left": '{"root_left": -Infinity, "root_right": 1.0, "depth": 2}',
    "nan-right": '{"root_left": 0.0, "root_right": NaN, "depth": 2}',
    "boolean-depth": '{"root_left": 0.0, "root_right": 1.0, "depth": true}',
    "fractional-depth": '{"root_left": 0.0, "root_right": 1.0, "depth": 1.5}',
    "string-left": '{"root_left": "0", "root_right": 1.0, "depth": 2}',
    "boolean-right": '{"root_left": 0, "root_right": true, "depth": 2}',
    "subnormal-root": '{"root_left": 0.0, "root_right": 5e-324, "depth": 2}',
    "root-of-length-2^1023": '{"root_left": 0.0, "root_right": 8.98846567431158e307, "depth": 2}',
    "huge-integer-right": '{"root_left": 0, "root_right": 1' + "0" * 400 + ', "depth": 2}',
    "length-overflows": '{"root_left": -1.5e308, "root_right": 1.5e308, "depth": 2}',
    "reversed-root": '{"root_left": 1.0, "root_right": 0.0, "depth": 2}',
    "unknown-key": '{"root_left": 0.0, "root_right": 1.0, "depth": 2, "span": 1}',
    "not-an-object": '[0.0, 1.0, 2]',
    "non-dyadic-root": '{"root_left": 0.0, "root_right": 0.75, "depth": 2}',
}


@pytest.mark.parametrize("text", SIDE_FILES.values(), ids=SIDE_FILES.keys())
def test_malformed_signal_side_file_is_a_config_error(tmp_path, capsys, text):
    # once: -Infinity exited 3 ("cannot convert float infinity to integer"); depth true or 1.5 loaded as
    # depth 1, root_left "0" loaded, and the subnormal root and the root of length 2^1023 ran to exit 0
    # on grid windows reaching generations 1074 and -1024, where 2^-j is no normal double
    files = write_signal(tmp_path, 2, [(0, "1.0")])
    (tmp_path / "sig.json").write_text(text)
    assert_config_error(capsys, ["haar", *files])


def test_non_dyadic_root_gets_the_grid_generation_message(tmp_path, capsys):
    # without --grid the root is looked up on the standard grid, by the path a given grid takes
    files = write_signal(tmp_path, 2, [(0, "1.0")])
    (tmp_path / "sig.json").write_text(SIDE_FILES["non-dyadic-root"])
    assert main(["haar", *files]) == 2
    assert strict_loads(capsys.readouterr().err)["message"] == "root length does not match a grid generation"


@pytest.mark.parametrize(
    "operator", ["shift(0,3)", "shift(3,0)", "shift(4,1)", "shift(1)", "shift(a,b)", "shift(1,2,3)", "shift(-1,1)"]
)
def test_zero_or_unparsable_shift_sweep_is_a_config_error(capsys, operator):
    # at depth 3, shift(0,3) and shift(3,0) have no coefficient: every norm was 0 and the slope fit took
    # log 0, warning on stderr before exit 3; shift(1) failed with "not enough values to unpack"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_config_error(capsys, ["norms", "--depth", "3", "--alphas", "0.3,0.6", "--operator", operator,
                                     "--seed", "0"])


def test_unparsable_shift_message_states_the_grammar(capsys):
    assert main(["norms", "--depth", "3", "--operator", "shift(1)", "--seed", "0"]) == 2
    assert "shift(m,n)" in strict_loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("operator", ["shift(0,2)", "shift(2,0)", "shift(1, 2)"])
def test_shift_sweep_below_the_depth_runs(capsys, operator):
    assert main(["norms", "--depth", "3", "--alphas", "0.3,0.6", "--operator", operator, "--seed", "0"]) == 0
    assert isinstance(strict_loads(capsys.readouterr().out)["slope"], float)  # strict JSON: a finite slope


def three_point_cloud(mass):
    """Three points of one mass in one top cube, which splits into all three."""
    return f"id,x,y,mass\n0,0,0,{mass!r}\n1,0.3,0,{mass!r}\n2,0,0.6,{mass!r}\n"


@pytest.mark.parametrize(
    "text",
    [
        "id,x,y\n0,0.5,0.5\n1,0.25\n",
        "id,x,y\n",
        "id,x,y\n0,nan,0.5\n1,0.25,0.75\n",
        "id_i,id_j,distance\n0,1,1.0\n1,2,1.0\n",
        "id_i,id_j,distance\n0,1,1.0\n1,2,-1.0\n0,2,2.0\n",
        "id_i,id_j,distance\n0,1,1.0\n1,2,1.0\n0,2,2.0\n0,0,1.0\n",
        "id_i,id_j,distance\n0,1,1.0\n1,2,1.0\n0,2,2.0\n2,0,1.5\n",
        "id,x,y\n0,0.5,0.5\n1,0.25,0.75\n2,0.5,0.5\n",
        three_point_cloud(1e-320),
        three_point_cloud(1e154),
    ],
    ids=["short-row", "header-only", "nan-coordinate", "missing-pair", "negative-distance", "self-edge",
         "pair-given-twice", "equal-points", "subnormal-mass", "mass-total-squared-overflows"],
)
def test_bad_cloud_file_is_a_config_error(tmp_path, capsys, text):
    # once: IndexError (exit 1), a report of n_points 1 (exit 0), exit 0 on nan; the next five
    # ran to exit 0 on a matrix that is no quasi-metric (a missing pair reported 64 levels); a
    # subnormal mass exited 3 on a division by zero, and masses of 1e154 exited 0 on a basis of
    # zeros (gram_error 1)
    cloud = tmp_path / "cloud.csv"
    cloud.write_text(text)
    assert_config_error(capsys, ["sht", "--cloud", str(cloud)])


@pytest.mark.parametrize("header", ["id,x,y,mass", "id_i,id_j,distance"])
def test_header_only_cloud_prints_one_json_line(tmp_path, header):
    # numpy's reader warns "input contained no data" on stderr unless the empty read is caught
    cloud = tmp_path / "cloud.csv"
    cloud.write_text(header + "\n")
    proc = subprocess.run([sys.executable, "-m", "dyadlab.cli", "sht", "--cloud", str(cloud)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (2, "", 1)
    assert "data rows" in strict_loads(proc.stderr)["message"]


@pytest.mark.parametrize("mass", [1e-200, 1e150])
def test_cloud_masses_far_from_one_run(tmp_path, capsys, mass):
    # at 1e-200 a product of two cube masses underflows: exit 3 on a division by zero once
    cloud = tmp_path / "cloud.csv"
    cloud.write_text(three_point_cloud(mass))
    assert main(["sht", "--cloud", str(cloud), "--out", str(tmp_path), "--format", "json"]) == 0
    report = strict_loads(next(tmp_path.glob("*.json")).read_text())
    quantities = {r["quantity"]: r["value"] for r in report["rows"]}
    assert quantities["basis_size"] == 2 and quantities["gram_error"] <= 1e-12


def test_cube_mass_product_underflowing_is_a_numeric_error(tmp_path, capsys):
    # one cube of masses 1e-24 and 1e-300: its mass times the smaller child's is 0, a float division
    # by zero (exit 3) when each function was computed alone; the batched amplitudes keep that
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("id,x,y,mass\n0,0,0,1\n1,10,0,1e-24\n2,10.001,0,1e-300\n")
    assert main(["sht", "--cloud", str(cloud), "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and strict_loads(err)["error"] == "numeric"


@pytest.mark.parametrize("kind", ["points", "edges"])
def test_cloud_one_point_over_the_size_limit_is_a_config_error(tmp_path, capsys, kind):
    # the points run to exit 0 without the guard; the edge list is a star, which names every id
    # in n - 1 rows and would fail only after its n x n allocation, on the missing pairs
    n = MAX_CLOUD_POINTS + 1
    if kind == "points":
        rows = ["id,x,y", *(f"{k},{k},0" for k in range(n))]
    else:
        rows = ["id_i,id_j,distance", *(f"0,{k},1.0" for k in range(1, n))]
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("\n".join(rows) + "\n")
    assert main(["sht", "--cloud", str(cloud)]) == 2
    assert f"at most {MAX_CLOUD_POINTS} points" in strict_loads(capsys.readouterr().err)["message"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, code",
    [
        ("id_i,id_j,distance\n0,1,1e-10\n1,2,1e-10\n0,2,1e300\n", 2),
        ("id_i,id_j,distance\n0,1,1e308\n", 0),
        ("id,x,y\n0,0,0\n1,1e200,0\n2,0,1\n", 2),
        ("id,x,y\n0,inf,0\n1,0,0\n2,0,1\n", 2),
    ],
    ids=["quasi-triangle-constant-overflows", "two-step-path-overflows", "squared-distance-overflows",
         "infinite-coordinate"],
)
def test_cloud_overflow_prints_no_numpy_warning(tmp_path, capsys, text, code):
    # each once printed a RuntimeWarning line before its output: overflow in divide (exit 0, or exit 3 on
    # writing an infinite constant), in add, in square, and an invalid inf - inf
    cloud = tmp_path / "cloud.csv"
    cloud.write_text(text)
    assert main(["sht", "--cloud", str(cloud), "--out", str(tmp_path / "out")]) == code
    for line in capsys.readouterr().err.splitlines():
        strict_loads(line)


@pytest.mark.parametrize(
    "experiment, fields",
    [
        ("bellman", {"depth": "abc"}),
        ("bellman", {"samples": "x"}),
        ("sparse-dominate", {"samples": 2.5}),
        ("bellman", {"seed": "z"}),
        ("bellman", {"seed": 1.5}),
        ("average-hilbert", {"seeds": 5}),
        ("norms", {"norm_tol": "abc"}),
        ("norms", {"norm_iters": 2.5}),
        ("norms", {"norm_iters": 0}),
        ("ntv", {"norm_iters": 0}),
        ("bellman", {"out": 5}),
        ("average-hilbert", {"margins": [1.5]}),
        ("bellman", {"samples": 1000001}),
        ("carleson", {"samples": -5}),
        ("sparse-dominate", {"samples": -3}),
        ("bellman", {"samples": -5}),
    ],
    ids=["depth-string", "samples-string", "samples-float", "seed-string", "seed-float", "seeds-not-a-list",
         "norm_tol-string", "norm_iters-float", "norms-norm_iters-0", "ntv-norm_iters-0", "out-number",
         "margin-float", "samples-over-ceiling", "carleson-samples-negative", "sparse-dominate-samples-negative",
         "bellman-samples-negative"],
)
def test_bad_config_file_field_is_a_config_error(tmp_path, capsys, experiment, fields):
    # argparse types every flag, but a config file's values arrive unparsed: these once exited 1 with a
    # traceback (norm_iters 0 as UnboundLocalError in the power iteration), or ran: margin 1.5 as margin 1,
    # and samples above MAX_SAMPLES, of which the Bellman check holds 9 doubles each
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"depth": 4, "samples": 2, "seed": 0, **fields}))
    assert_config_error(capsys, [experiment, "--config", str(config)])


@pytest.mark.parametrize(
    "experiment, samples", [("carleson", "-5"), ("sparse-dominate", "-3"), ("bellman", "-5")]
)
def test_negative_samples_flag_is_a_config_error(capsys, experiment, samples):
    # these once exited 0: carleson ran no little-lemma sample, sparse-dominate
    # one run and bellman its 10^4-sample floor
    assert_config_error(capsys, [experiment, "--depth", "4", "--seed", "0", "--samples", samples])


def test_unparsable_flag_is_a_strict_json_config_error(capsys):
    # argparse once printed its usage text
    with pytest.raises(SystemExit) as exc:
        main(["average-hilbert", "--margins"])
    assert exc.value.code == 2
    assert strict_loads(capsys.readouterr().err)["error"] == "config"


def test_one_parser_per_process_gives_the_reports_of_fresh_processes(tmp_path, capsys):
    # the parser is built once per process: after a good call a bad flag still exits 2 in strict
    # JSON, and two experiments write the bytes that each writes in a fresh process
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("id,x,y\n" + "".join(f"{k},{k % 3},{k // 3}\n" for k in range(9)))
    out = tmp_path / "out"

    def written():
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        return files

    for argv in (["bellman", "--samples", "500", "--seed", "1"], ["sht", "--cloud", str(cloud), "--delta", "0.4"]):
        argv += ["--out", str(out), "--format", "both"]
        assert main(argv) == 0
        in_process = written()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--no-such-flag"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and strict_loads(captured.err)["error"] == "config"
        subprocess.run([sys.executable, "-m", "dyadlab.cli", *argv], check=True, capture_output=True)
        assert written() == in_process and len(in_process) == 2


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["norms", "--depth", "6", "--seed", "0"], "--alphas", "-0.5,0.5"),
        (["average-hilbert", "--depth", "6", "--samples", "2", "--seed", "0"], "--margins", "-2,3"),
    ],
)
def test_negative_list_values_parse_in_both_forms(capsys, argv, flag, value):
    # argparse once read a value starting with '-' and holding a comma as a flag: exit 2
    hashes = []
    for form in ([flag, value], [f"{flag}={value}"]):
        assert main([*argv, *form]) == 0
        hashes.append(strict_loads(capsys.readouterr().out)["config_hash"])
    assert hashes[0] == hashes[1]


def test_constant_reconstruction_is_a_numeric_error(tmp_path, capsys):
    # a depth-1 mesh at margin 0: np.corrcoef once warned and returned nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["average-hilbert", "--depth", "1", "--samples", "1", "--seed", "0", "--margins", "0",
                     "--out", str(tmp_path)])
    assert code == 3
    assert strict_loads(capsys.readouterr().err)["error"] == "numeric"


# -- fuzzing the command line -------------------------------------------------------

SIGNALS = {
    "good": ("cell_index,value\n0,1.0\n5,-2.0\n", {"root_left": 0.0, "root_right": 1.0, "depth": 3}),
    "renamed-column": ("cell_index,val\n0,1.0\n", {"root_left": 0.0, "root_right": 1.0, "depth": 3}),
    "short-row": ("cell_index,value\n0\n", {"root_left": 0.0, "root_right": 1.0, "depth": 3}),
    "index-past-end": ("cell_index,value\n8,1.0\n", {"root_left": 0.0, "root_right": 1.0, "depth": 3}),
    "no-depth": ("cell_index,value\n0,1.0\n", {"root_left": 0.0, "root_right": 1.0}),
    "too-deep": ("cell_index,value\n0,1.0\n", {"root_left": 0.0, "root_right": 1.0, "depth": 40}),
    "meta-not-an-object": ("cell_index,value\n0,1.0\n", [0.0, 1.0, 3]),
    "empty-root": ("cell_index,value\n0,1.0\n", {"root_left": 1.0, "root_right": 1.0, "depth": 3}),
    **{f"side-{name}": ("cell_index,value\n0,1.0\n", text) for name, text in SIDE_FILES.items()},
}
CLOUDS = {
    "points": "id,x,y\n0,0.1,0.2\n1,0.7,0.4\n2,0.5,0.9\n3,0.3,0.6\n",
    "weighted": "id,x,y,mass\n0,0.1,0.2,1\n1,0.7,0.4,2\n2,0.5,0.9,0.5\n",
    "edges": "id_i,id_j,distance\n0,1,1.0\n1,2,1.0\n0,2,2.0\n",
    "short-row": "id,x,y\n0,0.1,0.2\n1,0.7\n",
    "header-only": "id,x,y\n",
    "nan": "id,x,y\n0,nan,0.2\n1,0.7,0.4\n",
    "short-edge": "id_i,id_j,distance\n0,1\n",
    "zero-mass": "id,x,y,mass\n0,0.1,0.2,0\n1,0.7,0.4,1\n",
    "empty": "",
}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    signals = {}
    for name, (rows, meta) in SIGNALS.items():
        (root / f"{name}.csv").write_text(rows)
        (root / f"{name}.json").write_text(meta if isinstance(meta, str) else json.dumps(meta))
        signals[name] = ["--signal", str(root / f"{name}.csv"), "--signal-meta", str(root / f"{name}.json")]
    signals["missing-file"] = ["--signal", str(root / "absent.csv"), "--signal-meta", str(root / "absent.json")]
    clouds = {}
    for name, text in CLOUDS.items():
        (root / f"cloud-{name}.csv").write_text(text)
        clouds[name] = ["--cloud", str(root / f"cloud-{name}.csv")]
    clouds["missing-file"] = ["--cloud", str(root / "absent.csv")]
    (root / "a-file").write_text("")
    outs = {"none": [], "dir": ["--out", str(root / "out")], "file": ["--out", str(root / "a-file")]}
    return signals, clouds, outs


def flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


NUMBERS = st.text(alphabet="0123456789.,-e", max_size=10) | st.sampled_from(["nan", "inf", "1e308", "0.5,1.5"])
FUZZ_FLAGS = st.tuples(
    st.sampled_from(EXPERIMENTS).map(lambda e: [e]),
    flag("--depth", st.integers(-1, 6)),
    flag("--samples", st.integers(-1, 3)),
    flag("--seed", st.integers(-2, 2 ** 40)),
    flag("--operator", st.sampled_from(["martingale", "sha", "square", "shift(1,2)", "shift(9,9)", "sparse",
                                        "paraproduct", "commutator_sha", "maximal", "nope", "shift(1)",
                                        "shift(0,3)"])),
    flag("--alphas", NUMBERS),
    flag("--margins", NUMBERS),
    flag("--delta", st.sampled_from(["0.5", "0.9", "0", "-1", "2", "nan"])),
    flag("--format", st.sampled_from(["csv", "json", "both"])),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(FUZZ_FLAGS, st.data())
def test_cli_fuzz_exit_codes_and_strict_json(input_files, capsys, parts, data):
    signals, clouds, outs = input_files
    argv = [token for part in parts for token in part]
    argv += data.draw(st.sampled_from([[], *signals.values()]), label="signal")
    argv += data.draw(st.sampled_from([[], *clouds.values()]), label="cloud")
    argv += data.draw(st.sampled_from(list(outs.values())), label="out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach stderr as plain text
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4), (argv, code, err)
    for line in (out + err).splitlines():
        strict_loads(line)
    assert (out if code == 0 else err).strip(), argv
