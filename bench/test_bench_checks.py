"""The benchmark's own tests: each checker accepts a correct output and
rejects a corrupted one, and the oracles agree with direct evaluations.

    python3 -m pytest bench -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import inputs
import oracles
import run
import tracing
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -- strict JSON ------------------------------------------------------------------


class _Op:
    check = staticmethod(lambda report: [])


def _write_report(tmp_path, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    return json.dumps({"experiment": "norms", "written": [str(path)]})


def test_strict_report_passes(tmp_path):
    stdout = _write_report(tmp_path, '{"rows": [], "slope": 1.0}')
    assert run.failures_of(_Op, 0, stdout, "") == []


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_report_rejected(tmp_path, constant):
    stdout = _write_report(tmp_path, f'{{"rows": [], "slope": {constant}}}')
    failures = run.failures_of(_Op, 0, stdout, "")
    assert failures and "strict JSON" in failures[0]


def test_nonzero_exit_rejected():
    assert run.failures_of(_Op, 3, "", '{"error": "numeric"}')[0].startswith("exit code 3")


# -- time metrics ------------------------------------------------------------------


def test_op_median_takes_the_median_of_round_medians():
    # three rounds of a fast and a slow operation: the plain median of all
    # six times would sit between the clusters, at (0.12 + 0.3) / 2
    records = [(0, "a", None), (0, "b", None), (1, "a", None), (1, "b", None), (2, "a", None), (2, "b", None)]
    times = [0.1, 0.3, 0.11, 0.32, 0.12, 0.5]
    assert run.op_median(records, times) == pytest.approx((0.11 + 0.32) / 2)


def test_slowdown_is_the_median_calibration_over_the_reference():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.slowdown([ref, 3 * ref, 1.5 * ref]) == pytest.approx(1.5)
    assert hostspeed.calibrate() > 0


# -- norms ---------------------------------------------------------------------------


def _norms_report(depth=6):
    alphas = (0.5, 1.0, 1.5)
    a2 = {a: oracles.a2_tree_max(oracles.power_weight_cells(depth, a)) for a in alphas}
    rows = [{"param": a, "a2": v, "norm": v ** 0.5} for a, v in a2.items()]
    return {"rows": rows, "slope": 0.5}, a2


def test_norms_check_accepts_oracle_values():
    report, a2 = _norms_report()
    assert oracles.check_norms(report, a2, 1.15) == []


def test_perturbed_a2_rejected():
    report, a2 = _norms_report()
    report["rows"][1]["a2"] *= 1 + 1e-8
    assert any("a2 at alpha=1.0" in f for f in oracles.check_norms(report, a2, 1.15))


def test_slope_over_upper_edge_rejected():
    report, a2 = _norms_report()
    report["slope"] = 1.2
    assert oracles.check_norms(report, a2, 1.15) != []
    assert oracles.check_norms(report, a2, 2.25) == []


def test_a2_oracle_matches_closed_form():
    for depth in (1, 4, 10):
        closed = oracles.a2_endpoint_closed_form(depth)
        assert math.isclose(oracles.a2_tree_max(oracles.power_weight_cells(depth, 1.0)), closed, rel_tol=1e-12)


# -- sparse families --------------------------------------------------------------------


def _tower_json(depth):
    """The left-spine tower [0, 2^-l) with right-half certificates (the last
    member takes its single cell), written as the CLI writes a family."""
    rows = []
    for level in range(depth + 1):
        width = 1 << (depth - level)
        cells = [[width // 2, width]] if level < depth else [[0, 1]]
        rows.append({"generation": level, "index": 0, "certificate_cells": cells})
    return json.dumps({"depth": depth, "eta": 0.5, "members": rows})


def test_family_check_accepts_tower():
    assert oracles.check_family(*oracles.decode_family(_tower_json(5))) == []


def test_overlapping_certificates_rejected():
    family = json.loads(_tower_json(5))
    # (0, 0) now certifies with [8, 24), which holds (1, 0)'s certificate [8, 16)
    family["members"][0]["certificate_cells"] = [[8, 24]]
    failures = oracles.check_family(*oracles.decode_family(json.dumps(family)))
    assert any("overlaps" in f for f in failures)


def test_certificate_outside_member_rejected():
    family = json.loads(_tower_json(5))
    family["members"][2]["certificate_cells"] = [[8, 12]]  # member (2, 0) holds cells [0, 8)
    failures = oracles.check_family(*oracles.decode_family(json.dumps(family)))
    assert any("leaves its member" in f for f in failures)


def test_carleson_sum_over_bound_rejected():
    # every interval of the depth-2 tree, certificates dropped: the root's
    # Carleson sum is 3|Q| > |Q| / (1/2)
    depth = 2
    members = [(level, pos) for level in range(depth + 1) for pos in range(1 << level)]
    certs = [np.zeros(0, dtype=np.int64)] * len(members)
    failures = oracles.check_family(depth, 0.5, members, certs)
    assert any("Carleson" in f for f in failures)


def test_sparse_rows_check():
    rows = [{"run": 0, "c0_used": 4.0, "eta": 0.5, "members": 3, "verified": True}]
    assert oracles.check_sparse_rows({"rows": rows}, 1) == []
    rows[0]["verified"] = False
    assert oracles.check_sparse_rows({"rows": rows}, 1) != []


def test_domination_oracle():
    rng = np.random.default_rng(0)
    depth = 5
    f = rng.standard_normal(1 << depth)
    levels = [rng.integers(0, 2, size=1 << l) * 2.0 - 1.0 for l in range(depth)]
    lhs = oracles.martingale_apply(f, levels)
    dense = oracles.dense_martingale(depth, np.concatenate(levels))
    np.testing.assert_allclose(lhs, dense @ f, atol=1e-12)
    # the whole tree as the family: |T f| <= (J + 1) max|f| <= C A_S|f| fails for C tiny
    everything = [(l, p) for l in range(depth + 1) for p in range(1 << l)]
    rhs = oracles.sparse_average(np.abs(f), everything)
    assert oracles.check_domination(lhs, 1e-3, rhs) != []


# -- sht ------------------------------------------------------------------------------------


def _lattice_report(m=3):
    n = 1 << m
    q = {
        "n_points": n, "levels": m + 1, "basis_size": n - 1, "top_cubes": 1,
        "dimension_identity": True, "gram_error": 2.2e-16, "partition_ok": True,
        "nested_ok": True, "outer_ball_constant": 0.9, "inner_ball_constant": 1.8,
    }
    return {"rows": [{"quantity": k, "value": v} for k, v in q.items()]}


def test_sht_check_accepts_lattice():
    assert oracles.check_sht(_lattice_report(), 8, 3) == []


def test_dropped_basis_function_rejected():
    report = _lattice_report()
    next(r for r in report["rows"] if r["quantity"] == "basis_size")["value"] -= 1
    assert oracles.check_sht(report, 8) != []
    assert oracles.check_sht(report, 8, 3) != []


def test_gram_error_rejected():
    report = _lattice_report()
    next(r for r in report["rows"] if r["quantity"] == "gram_error")["value"] = 1e-6
    assert oracles.check_sht(report, 8) != []


# -- average-hilbert ---------------------------------------------------------------------------


def _hilbert_report(corr=0.99, disc=(1e-3, 1e-4)):
    rows = [{"margin": m, "seed": 0, "correlation": corr, "l2_discrepancy": d}
            for m, d in zip((3, 6), disc)]
    return {"rows": rows}


def test_average_hilbert_check():
    assert oracles.check_average_hilbert(_hilbert_report(), (3, 6), 0.95) == []
    assert oracles.check_average_hilbert(_hilbert_report(corr=0.72), (3, 6), 0.95) != []
    assert oracles.check_average_hilbert(_hilbert_report(disc=(1e-4, 1e-3)), (3, 6), 0.95) != []


def test_hilbert_oracle_matches_direct_sum():
    rng = np.random.default_rng(1)
    n = 64
    values = rng.standard_normal(n)
    left, right = -0.5, 1.5
    edges = np.linspace(left, right, n + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    jumps = np.diff(values, prepend=0.0, append=0.0)
    direct = np.log(np.abs(mids[:, None] - edges[None, :])) @ jumps / math.pi
    np.testing.assert_allclose(oracles.hilbert_at_midpoints(values, left, right), direct, atol=1e-12)


def test_dense_petermichl_is_isometric_below_the_finest_level():
    depth = 5
    H = oracles.haar_matrix(depth)
    h = 1.0 / (1 << depth)
    sha = oracles.dense_petermichl(depth)
    # Sha maps h_I (I above the two finest levels) to a unit vector
    image = sha @ H[0]
    assert math.isclose(float(image @ image * h), 1.0, rel_tol=1e-12)


# -- inputs and the benchmark definition ---------------------------------------------------------


def test_inputs_are_seeded_and_every_edge_jumps(tmp_path):
    a = inputs.generate("hilbert-avg", 5, tmp_path / "a")
    b = inputs.generate("hilbert-avg", 5, tmp_path / "b")
    c = inputs.generate("hilbert-avg", 6, tmp_path / "c")
    for name in a:
        assert Path(a[name][0]).read_bytes() == Path(b[name][0]).read_bytes()
    assert Path(a["white"][0]).read_bytes() != Path(c["white"][0]).read_bytes()
    # the failing mean-1 signal is the same on every seed
    assert Path(a["offset"][0]).read_bytes() == Path(c["offset"][0]).read_bytes()
    values = np.loadtxt(a["offset"][0], delimiter=",", skiprows=1)[:, 1]
    assert math.isclose(values.mean(), 1.0, rel_tol=1e-12)


def test_lattice_edges_are_the_dyadic_ultrametric():
    a, b, dist = inputs.lattice_edges(np.random.default_rng(0), 3)
    assert len(dist) == 8 * 7 // 2
    assert len({frozenset(p) for p in zip(a.tolist(), b.tolist())}) == len(dist)
    assert sorted(set(dist.tolist())) == [0.9 * 2.0 ** (k - 3) for k in (1, 2, 3)]


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == {k: unit for k, (_, _, unit) in tracing.PER_LAYER.items()}
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["setup_s", "op_p50_s", "work_per_s", "peak_rss_mb"]
