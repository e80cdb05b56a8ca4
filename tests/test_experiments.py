"""Experiment runner and CLI: determinism, formats, exit codes, and the
mixed A2-Ainfty phenomenology of the norm sweeps."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dyadlab.errors import ConfigError
from dyadlab.experiments import (
    ExperimentConfig,
    SweepReport,
    run,
    rows_to_csv,
    sweep_mesh,
    tower_family,
    weak_type_witness,
    near_extremal_function,
    write_report,
)
from dyadlab.weights import power_weight
from dyadlab.sparse import verify_sparse


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="norms", depth=25)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="norms", seed=None)
    cfg = ExperimentConfig(experiment="bellman", depth=5)
    assert len(cfg.config_hash()) == 16


def test_config_from_flat_file(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("experiment = norms\ndepth = 6\noperator = sha\nalphas = [0.5, 1.5]\nseed = 3\n")
    cfg = ExperimentConfig.from_file(str(p))
    assert cfg.experiment == "norms" and cfg.depth == 6
    assert cfg.alphas == (0.5, 1.5)
    p2 = tmp_path / "cfg.json"
    p2.write_text(json.dumps({"experiment": "bellman", "samples": 500, "seed": 1}))
    cfg2 = ExperimentConfig.from_file(str(p2))
    assert cfg2.experiment == "bellman" and cfg2.samples == 500
    p3 = tmp_path / "bad.txt"
    p3.write_text("experiment = norms\nbogus_key = 1\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(str(p3))


def test_norms_experiment_runs_and_reports():
    cfg = ExperimentConfig(
        experiment="norms", depth=8, operator="sha", alphas=(0.5, 1.0, 1.5), seed=0
    )
    report = run(cfg)
    assert report["config_hash"] == cfg.config_hash()
    assert report["mesh_depth"] == 8
    assert report["grid_window"] == [-2, 12]
    assert len(report["rows"]) == 3
    rows = report["rows"]
    assert rows == sorted(rows, key=lambda r: r["a2"])
    assert all(r["norm"] > 0 for r in rows)


def test_fixed_seed_byte_identical_csv(tmp_path):
    cfg = ExperimentConfig(
        experiment="norms",
        depth=7,
        operator="paraproduct",
        alphas=(0.5, 1.2),
        seed=11,
        out=str(tmp_path / "a"),
    )
    report1 = run(cfg)
    paths1 = write_report(report1, cfg)
    cfg2 = ExperimentConfig(
        experiment="norms",
        depth=7,
        operator="paraproduct",
        alphas=(0.5, 1.2),
        seed=11,
        out=str(tmp_path / "b"),
    )
    paths2 = write_report(run(cfg2), cfg2)
    csv1 = [p for p in paths1 if p.endswith(".csv")][0]
    csv2 = [p for p in paths2 if p.endswith(".csv")][0]
    assert open(csv1, "rb").read() == open(csv2, "rb").read()
    header = open(csv1).readline().strip()
    assert header == "param,a2,norm,ratio"


def test_average_hilbert_experiment():
    cfg = ExperimentConfig(
        experiment="average-hilbert", depth=7, samples=60, seed=2, margins=(2, 4)
    )
    report = run(cfg)
    by_margin = {}
    for r in report["rows"]:
        by_margin.setdefault(r["margin"], []).append(r)
    assert set(by_margin) == {2, 4}
    # more samples help; here just sanity-check the fields
    assert all(-1.0 <= r["correlation"] <= 1.0 for r in report["rows"])


def write_signal(tmp_path, name, values):
    from dyadlab.signal import StepFunction

    mesh = sweep_mesh(int(np.log2(values.size)))
    csv_path, meta_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
    StepFunction(mesh, values).to_csv(csv_path, meta_path)
    return str(csv_path), str(meta_path)


def test_average_hilbert_correlates_the_mean_zero_part(tmp_path):
    # the shift average reconstructs H of f - <f>, so a mean-1 signal must
    # correlate as well as its zero-mean noise does
    from dyadlab.operators import average_shift
    from dyadlab.signal import StepFunction

    noise = np.random.default_rng(7).standard_normal(1 << 10)
    csv_path, meta_path = write_signal(tmp_path, "offset", noise - noise.mean() + 1.0)
    cfg = ExperimentConfig(
        experiment="average-hilbert", signal=csv_path, signal_meta=meta_path,
        samples=100, seed=3, margins=(3, 6),
    )
    report = run(cfg)
    assert all(r["correlation"] >= 0.95 for r in report["rows"])
    # against the dense exact transform of the mean-zero part
    f = StepFunction.from_csv(csv_path, meta_path)
    edges, mids = f.mesh.cell_edges(), f.mesh.cell_midpoints()
    jumps = np.diff(f.values - f.values.mean(), prepend=0.0, append=0.0)
    exact = np.log(np.abs(mids[:, None] - edges[None, :])) @ jumps / math.pi
    for r in report["rows"]:
        approx = average_shift(f, 100, 3, r["margin"]).values
        assert abs(r["correlation"] - np.corrcoef(approx, exact)[0, 1]) <= 1e-12


def test_report_mesh_fields_come_from_the_signal(tmp_path):
    csv_path, meta_path = write_signal(
        tmp_path, "deep", np.random.default_rng(8).standard_normal(1 << 12)
    )
    cfg = ExperimentConfig(
        experiment="average-hilbert", signal=csv_path, signal_meta=meta_path,
        samples=2, seed=0, margins=(1,),
    )
    assert cfg.depth == 10
    report = run(cfg)
    assert report["mesh_depth"] == 12
    # the signal loader's grid: standard, generations -1..13 around the root [0, 1)
    assert report["grid_window"] == [-1, 13]


def test_sparse_dominate_experiment_family_verifies():
    cfg = ExperimentConfig(experiment="sparse-dominate", depth=7, samples=3, seed=5)
    report = run(cfg)
    assert all(r["verified"] for r in report["rows"])
    assert all(r["c0_used"] <= 2 ** 16 for r in report["rows"])
    from dyadlab.sparse import SparseFamily

    mesh = sweep_mesh(7)
    fam = SparseFamily.from_json(mesh, report["family"])
    ok, _ = verify_sparse(fam)
    assert ok


def test_carleson_and_bellman_experiments():
    rep = run(ExperimentConfig(experiment="carleson", depth=7, samples=20, seed=3))
    assert rep["all_ok"]
    rep2 = run(ExperimentConfig(experiment="bellman", samples=2000, seed=0, depth=4))
    assert rep2["ok"]


def test_ntv_experiment():
    rep = run(ExperimentConfig(experiment="ntv", depth=6, alphas=(0.5, 1.0), seed=0))
    quantities = {r["quantity"]: r["value"] for r in rep["rows"]}
    assert quantities["joint_a2[alpha=0.5]"] >= 1.0
    assert quantities["t0_norm[alpha=0.5]"] >= 0.0


def test_sht_experiment(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "cloud.csv"
    with open(path, "w") as fh:
        fh.write("id,x,y\n")
        for i, (x, y) in enumerate(rng.random((40, 2))):
            fh.write(f"{i},{x},{y}\n")
    rep = run(ExperimentConfig(experiment="sht", cloud=str(path), depth=4))
    vals = {r["quantity"]: r["value"] for r in rep["rows"]}
    assert vals["dimension_identity"] is True
    assert vals["gram_error"] < 1e-10
    assert vals["partition_ok"] and vals["nested_ok"]


def test_haar_experiment_roundtrip(tmp_path):
    from dyadlab.grid import standard_grid
    from dyadlab.signal import Mesh, StepFunction

    g = standard_grid(-2, 8)
    mesh = Mesh(g.interval(0, 0), 4)
    f = StepFunction(mesh, np.arange(16.0))
    sig, meta = tmp_path / "sig.csv", tmp_path / "sig.json"
    f.to_csv(sig, meta)
    rep = run(
        ExperimentConfig(
            experiment="haar", signal=str(sig), signal_meta=str(meta), depth=4, seed=None
        )
    )
    assert rep["mean"] == pytest.approx(7.5)
    csv_text = rows_to_csv("haar", rep["rows"])
    assert csv_text.splitlines()[0] == "level,pos,coefficient"


def test_cli_exit_codes(tmp_path):
    def run_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "dyadlab.cli", *args],
            capture_output=True,
            text=True,
        )

    ok = run_cli("bellman", "--samples", "500", "--seed", "1")
    assert ok.returncode == 0
    out = json.loads(ok.stdout)
    assert out["ok"] is True

    bad_depth = run_cli("norms", "--depth", "99")
    assert bad_depth.returncode == 2

    missing_cloud = run_cli("sht")
    assert missing_cloud.returncode == 2

    bad_io = run_cli("haar", "--signal", "/nonexistent/sig.csv", "--signal-meta", "/nonexistent/m.json")
    assert bad_io.returncode == 4


def strict_loads(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dyadlab.cli", *args], capture_output=True, text=True
    )


def test_cli_norms_depth_1_is_a_config_error():
    # a depth-1 sweep has no slope to fit: it once printed "slope": NaN and exited 0
    proc = run_cli("norms", "--depth", "1", "--seed", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert strict_loads(proc.stderr)["error"] == "config"


def test_cli_alpha_at_most_minus_one_is_a_config_error():
    proc = run_cli("norms", "--depth", "6", "--alphas", "-1.5", "--seed", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert strict_loads(proc.stderr)["error"] == "config"


def test_non_finite_report_is_a_numeric_error(tmp_path):
    cfg = ExperimentConfig(experiment="norms", depth=4, seed=0, out=str(tmp_path / "out"))
    report = {"config_hash": cfg.config_hash(), "rows": [], "slope": float("nan")}
    with pytest.raises(ArithmeticError):
        write_report(report, cfg)
    assert not (tmp_path / "out").exists()


def test_cli_writes_outputs(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "dyadlab.cli",
            "norms",
            "--depth",
            "6",
            "--operator",
            "sha",
            "--alphas",
            "0.5,1.5",
            "--seed",
            "0",
            "--out",
            str(tmp_path),
            "--format",
            "both",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert len(summary["written"]) == 2
    report = json.loads(open([p for p in summary["written"] if p.endswith(".json")][0]).read())
    assert report["version"]
    assert report["config_hash"] == summary["config_hash"]


def test_sweep_report_fit_recovers_slope():
    rows = [{"a2": x, "norm": 3.0 * x ** 0.8} for x in [1.5, 4.0, 20.0, 100.0]]
    fit = SweepReport.fit(rows)
    assert fit.slope == pytest.approx(0.8, abs=1e-9)
    assert fit.slope_band[0] <= 0.8 <= fit.slope_band[1]


def test_mixed_a2_ainfty_phenomenology():
    # the finite tree caps the Fujii-Wilson characteristic at depth+1, and the
    # L2(w) norms then track sqrt(a2 * (ainf + ainf_inv)): the power sweep
    # follows the mixed bound with a slope near 1/2 in a2 and near 1 in the
    # mixed characteristic
    cfg = ExperimentConfig(
        experiment="norms",
        depth=10,
        operator="square",
        alphas=(0.3, 0.8, 1.2, 1.6, 2.0),
        seed=0,
    )
    report = run(cfg)
    rows = report["rows"]
    for r in rows:
        assert r["a_infty"] <= 11 + 1e-9 and r["a_infty_inv"] <= 11 + 1e-9
        mixed = math.sqrt(r["a2"] * (r["a_infty"] + r["a_infty_inv"]))
        assert r["norm"] <= 4.0 * mixed  # mixed bound up to its implied constant
    mixed_rows = [
        {"a2": math.sqrt(r["a2"] * (r["a_infty"] + r["a_infty_inv"])), "norm": r["norm"]}
        for r in rows
    ]
    fit_mixed = SweepReport.fit(mixed_rows)
    assert 0.8 <= fit_mixed.slope <= 1.2
    fit_plain = SweepReport.fit(rows)
    assert fit_plain.slope <= 0.65


def test_weak_witness_monotone_data():
    mesh = sweep_mesh(8)
    w = power_weight(mesh, 1.0)
    f = near_extremal_function(w)
    val = weak_type_witness(w, f)
    assert val > 0.0


def test_tower_family_is_half_sparse():
    mesh = sweep_mesh(8)
    fam = tower_family(mesh)
    ok, rep = verify_sparse(fam)
    assert ok and fam.eta >= 0.5


def test_norms_all_operator_handles():
    for op in ("martingale", "sharp", "square", "sha", "shift(1,1)",
               "paraproduct", "paraproduct_adj", "sparse", "commutator_sha", "maximal"):
        cfg = ExperimentConfig(
            experiment="norms", depth=6, operator=op, alphas=(0.5, 1.5), seed=0
        )
        rep = run(cfg)
        assert all(r["norm"] > 0 for r in rep["rows"]), op
