"""Weight characteristics, Carleson sequences, and the Bellman lemmas."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from dyadlab import weights
from dyadlab.errors import DegenerateWeightError
from dyadlab.experiments import sweep_mesh
from dyadlab.grid import standard_grid
from dyadlab.signal import Mesh, StepFunction, analyze, average, haar_function, means_pyramid
from dyadlab.weights import (
    CarlesonSequence,
    Weight,
    a_infty_fujii_wilson,
    alpha_sequence,
    ap_characteristic,
    ap_characteristic_report,
    a_infty_classical,
    bellman_B,
    bellman_verify,
    in_bellman_domain,
    bmo_dyadic_norm,
    bmo_weighted_norm,
    carleson_intensity,
    fkp_sequence,
    little_lemma_map,
    log_symbol,
    ntv_conditions,
    power_weight,
)


def unit_mesh(depth=6):
    g = standard_grid(-2, depth + 2)
    return Mesh(g.interval(0, 0), depth)


def random_weight(mesh, rng, spread=1.5):
    return Weight(mesh, np.exp(rng.uniform(-spread, spread, mesh.n_cells)))


def dyadic_random_weight(mesh, rng):
    """Weight with small dyadic-rational values: float sums over it are exact."""
    return Weight(mesh, rng.integers(1, 64, mesh.n_cells) / 16.0)


def intensity_oracle(seq: CarlesonSequence, v: Weight | None = None) -> float:
    """O(N^2) exhaustive double loop over (J, I subset J)."""
    mesh = seq.mesh
    best = 0.0
    for lj in range(mesh.depth + 1):
        for pj in range(1 << lj):
            total = 0.0
            for li in range(lj, mesh.depth + 1):
                shift = li - lj
                for pi in range(pj << shift, (pj + 1) << shift):
                    total += seq.levels[li][pi]
            if v is None:
                mass = mesh.level_length(lj)
            else:
                sl = mesh.cell_slice(lj, pj)
                mass = float(np.sum(v.values[sl]) * mesh.cell_length)
            best = max(best, total / mass)
    return best


# -- characteristics ----------------------------------------------------------


def test_ap_of_unit_weight_is_one():
    mesh = unit_mesh(5)
    w = Weight(mesh, np.ones(mesh.n_cells))
    for p in [1.5, 2.0, 3.0]:
        assert ap_characteristic(w, p) == pytest.approx(1.0, rel=1e-14)


def test_ap_two_value_weight_closed_form():
    # w = 1 on [0,1/2), t on [1/2,1): dyadic A_2 over D([0,1)) is
    # (1+t)(1+1/t)/4, attained at the root
    mesh = unit_mesh(6)
    for t in [0.3, 2.0, 7.5]:
        vals = np.ones(mesh.n_cells)
        vals[mesh.n_cells // 2 :] = t
        w = Weight(mesh, vals)
        want = (1 + t) * (1 + 1 / t) / 4
        rep = ap_characteristic_report(w, 2.0)
        assert rep["value"] == pytest.approx(want, rel=1e-12)
        assert rep["argmax_interval"] == (0, 0)
        # brute force over every tree interval
        pw = means_pyramid(w)
        ps = means_pyramid(w.reciprocal())
        brute = max(float(np.max(a * b)) for a, b in zip(pw, ps))
        assert rep["value"] == pytest.approx(brute, rel=1e-14)


def test_ap_always_at_least_one_and_dual_symmetry():
    rng = np.random.default_rng(2)
    mesh = unit_mesh(6)
    for _ in range(25):
        w = random_weight(mesh, rng)
        c = ap_characteristic(w, 2.0)
        assert c >= 1.0
        assert ap_characteristic(w.reciprocal(), 2.0) == pytest.approx(c, rel=1e-12)
    const = Weight(mesh, np.full(mesh.n_cells, 3.7))
    assert ap_characteristic(const, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_power_weight_divergence_with_alpha_and_depth():
    g = standard_grid(-2, 16)
    mesh = Mesh(g.interval(0, 0), 12)
    # the characteristic grows without bound as the exponent climbs
    grow = [ap_characteristic(power_weight(mesh, a), 2.0) for a in [0.5, 0.9, 1.5, 2.0]]
    assert all(a < b for a, b in zip(grow, grow[1:]))
    assert grow[-1] / grow[0] > 100  # two decades available at depth 12
    # beyond the continuum A_2 range (alpha >= 1) it diverges with depth
    out = [
        ap_characteristic(power_weight(Mesh(g.interval(0, 0), d), 1.5), 2.0)
        for d in [6, 9, 12]
    ]
    assert out[0] < out[1] < out[2]
    assert out[2] / out[0] > 5  # roughly 2^{(J2-J0)(alpha-1)} = 8
    # inside the range it stabilizes: depth doubling moves it by little
    inside = [
        ap_characteristic(power_weight(Mesh(g.interval(0, 0), d), 0.5), 2.0)
        for d in [6, 12]
    ]
    assert abs(inside[1] - inside[0]) < 0.2 * inside[1]


def test_endpoint_power_weight_closed_form():
    # |x| on [0, 1) has cell averages (2k+1)/2^{J+1}; the root attains the
    # characteristic, [w]_{A2} = <w> <w^{-1}> = sum_{k<2^J} 1/(2k+1), which
    # grows like (J ln 2)/2 -- the endpoint family of the C05 sharpness half
    for depth in (1, 4, 8, 12, 16):
        rep = ap_characteristic_report(power_weight(sweep_mesh(depth), 1.0), 2.0)
        want = math.fsum(1.0 / (2 * k + 1) for k in range(1 << depth))
        assert rep["value"] == pytest.approx(want, rel=1e-12)
        assert rep["argmax_interval"] == (0, 0)


def test_a_infty_unit_and_dominated_by_a2():
    mesh = unit_mesh(6)
    w = Weight(mesh, np.ones(mesh.n_cells))
    assert a_infty_fujii_wilson(w) == pytest.approx(1.0, rel=1e-14)
    rng = np.random.default_rng(7)
    for _ in range(100):
        w = random_weight(mesh, rng, spread=1.0)
        assert a_infty_fujii_wilson(w) <= ap_characteristic(w, 2.0) * (1 + 1e-10)


def reference_a_infty_fujii_wilson(w):
    """The per-level form: for each level, the running maximum of the means is
    pushed from that level down to the cells through `np.repeat`."""
    mesh = w.mesh
    pyr = means_pyramid(w)
    best = 1.0
    for level in range(mesh.depth + 1):
        running = pyr[level]
        for finer in pyr[level + 1 :]:
            running = np.maximum(np.repeat(running, 2), finer)
        integrals = running.reshape(1 << level, -1).sum(axis=1) * mesh.cell_length
        masses = pyr[level] * mesh.level_length(level)
        best = max(best, float(np.max(integrals / masses)))
    return best


@pytest.mark.parametrize("depth", [6, 10, 14])
def test_a_infty_matches_the_per_level_maxima(depth):
    mesh = sweep_mesh(depth)
    rng = np.random.default_rng(depth)
    ws = [power_weight(mesh, alpha) for alpha in (-0.9, 0.3, 1.0, 2.0, 5.0)]
    ws += [w.reciprocal() for w in ws]
    ws += [Weight(mesh, np.exp(s * rng.standard_normal(mesh.n_cells))) for s in (0.5, 2.0)]
    for w in ws:
        assert a_infty_fujii_wilson(w) == reference_a_infty_fujii_wilson(w)


def test_subtree_sums_match_the_reshape_sums():
    mesh = sweep_mesh(9)
    rng = np.random.default_rng(9)
    levels = [rng.exponential(size=1 << l) * (rng.random(1 << l) < 0.7) for l in range(mesh.depth + 1)]
    for entries in levels:  # nonnegative, and the pair sums start from +0.0
        entries[:8] = -0.0
    want = [levels[-1].copy()]
    for level in range(mesh.depth - 1, -1, -1):
        want.insert(0, levels[level] + want[0].reshape(-1, 2).sum(axis=1))
    got = CarlesonSequence(mesh, levels).subtree_sums()
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


# -- BMO and Carleson ----------------------------------------------------------


def test_bmo_trivial_and_haar():
    mesh = unit_mesh(6)
    assert bmo_dyadic_norm(StepFunction(mesh, np.full(mesh.n_cells, 9.0))) == 0.0
    h = haar_function(mesh, (0, 0))
    # sup attained at the root where <|h|^2> = 1/|I| = 1
    assert bmo_dyadic_norm(h) == pytest.approx(1.0, rel=1e-12)


def test_bmo_squared_equals_coefficient_intensity():
    mesh = unit_mesh(6)
    rng = np.random.default_rng(3)
    for _ in range(50):
        b = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
        s = analyze(b)
        seq = CarlesonSequence.zeros(mesh)
        for level in range(mesh.depth):
            seq.levels[level] = s.levels[level] ** 2
        assert bmo_dyadic_norm(b) ** 2 == pytest.approx(
            carleson_intensity(seq), rel=1e-10
        )


def test_carleson_intensity_trivial_and_oracle():
    mesh = unit_mesh(6)
    seq = CarlesonSequence.zeros(mesh)
    seq.levels[0][0] = 1.0
    assert carleson_intensity(seq) == pytest.approx(1.0 / mesh.root.length, rel=1e-14)
    rng = np.random.default_rng(11)
    for depth in [4, 6, 8]:
        mesh = unit_mesh(depth)
        for _ in range(3):
            seq = CarlesonSequence(
                mesh,
                [rng.integers(0, 32, 1 << l) / 8.0 for l in range(mesh.depth + 1)],
            )
            v = dyadic_random_weight(mesh, rng)
            assert carleson_intensity(seq) == intensity_oracle(seq)
            assert carleson_intensity(seq, v) == intensity_oracle(seq, v)


def loop_sup(mesh, term):
    """(sup, argmax) of term(level, pos) by a loop over every tree interval,
    root first and left to right in a level; the first largest value wins."""
    best, arg = -math.inf, None
    for level in range(mesh.depth + 1):
        for pos in range(1 << level):
            t = term(level, pos)
            if t > best:
                best, arg = t, (level, pos)
    return best, arg


@pytest.mark.parametrize("depth", range(1, 8))
def test_tree_maxima_match_the_loop_over_every_interval(depth):
    # powers of two: every average, product and difference below is exact, so
    # values must agree bit for bit and ties go to the first interval; the
    # constant weight ties everywhere, at the root first
    mesh = unit_mesh(depth)
    rng = np.random.default_rng([depth, 26])
    exact = [Weight(mesh, np.full(mesh.n_cells, 2.0)), Weight(mesh, 2.0 ** rng.integers(-2, 3, mesh.n_cells))]
    for w in exact:
        w_inv = w.reciprocal()
        want = loop_sup(mesh, lambda l, p: average(w, (l, p)) * average(w_inv, (l, p)))
        got = ap_characteristic_report(w, 2.0)
        assert (got["value"], got["argmax_interval"]) == want
        b = StepFunction(mesh, w.values * 16.0 - 32.0)  # integers, of both signs
        b2 = b * b
        want = loop_sup(mesh, lambda l, p: max(average(b2, (l, p)) - average(b, (l, p)) ** 2, 0.0))
        assert bmo_dyadic_norm(b) == math.sqrt(want[0])
    seq = CarlesonSequence(mesh, [rng.integers(0, 32, 1 << l) / 8.0 for l in range(depth + 1)])

    def subtree(l, p):
        return sum(float(np.sum(seq.levels[k][p << (k - l) : (p + 1) << (k - l)])) for k in range(l, depth + 1))

    v = exact[1]
    assert carleson_intensity(seq) == loop_sup(mesh, lambda l, p: subtree(l, p) / mesh.level_length(l))[0]
    want = loop_sup(mesh, lambda l, p: subtree(l, p) / (average(v, (l, p)) * mesh.level_length(l)))
    assert carleson_intensity(seq, v) == want[0]
    # continuous values: the loop's averages round apart from the pyramid's
    w, b = random_weight(mesh, rng), StepFunction(mesh, rng.standard_normal(mesh.n_cells))
    w_dual, log_w = w.dual(3.0), StepFunction(mesh, np.log(w.values))
    want = loop_sup(mesh, lambda l, p: average(w, (l, p)) * average(w_dual, (l, p)) ** 2.0)
    got = ap_characteristic_report(w, 3.0)
    assert got["value"] == pytest.approx(want[0], rel=1e-12) and got["argmax_interval"] == want[1]
    want = loop_sup(mesh, lambda l, p: average(w, (l, p)) * math.exp(-average(log_w, (l, p))))
    assert a_infty_classical(w) == pytest.approx(want[0], rel=1e-12)

    def weighted_oscillation(l, p):
        sl = mesh.cell_slice(l, p)
        return float(np.mean(np.abs(b.values[sl] - average(b, (l, p))))) / average(w, (l, p))

    assert bmo_weighted_norm(b, w) == pytest.approx(loop_sup(mesh, weighted_oscillation)[0], rel=1e-12)
    want = loop_sup(mesh, lambda l, p: max(average(b * b, (l, p)) - average(b, (l, p)) ** 2, 0.0))
    assert bmo_dyadic_norm(b) == pytest.approx(math.sqrt(want[0]), rel=1e-10)


def test_fkp_alpha_sequences_vanish_for_constant():
    mesh = unit_mesh(5)
    w = Weight(mesh, np.full(mesh.n_cells, 2.5))
    assert carleson_intensity(fkp_sequence(w)) == 0.0
    assert carleson_intensity(alpha_sequence(w, 0.25)) == 0.0


def test_little_lemma_factor_four():
    rng = np.random.default_rng(13)
    mesh = unit_mesh(6)
    for _ in range(200):
        seq = CarlesonSequence(
            mesh, [rng.uniform(0, 1, 1 << l) * (rng.random(1 << l) < 0.3) for l in range(mesh.depth + 1)]
        )
        w = random_weight(mesh, rng)
        unit_intensity = carleson_intensity(seq)
        mapped = little_lemma_map(seq, w)
        assert carleson_intensity(mapped, w) <= 4.0 * unit_intensity * (1 + 1e-10)


def test_alpha_lemma_bound_quarter():
    g = standard_grid(-2, 16)
    mesh = Mesh(g.interval(0, 0), 10)
    for a in [0.3, 0.6, 0.9, 0.99]:
        w = power_weight(mesh, a)
        mu = alpha_sequence(w, 0.25)
        bound = 576.0 * ap_characteristic(w, 2.0) ** 0.25
        assert carleson_intensity(mu) <= bound
    rng = np.random.default_rng(4)
    mesh = unit_mesh(7)
    for _ in range(50):
        w = random_weight(mesh, rng)
        mu = alpha_sequence(w, 0.25)
        assert carleson_intensity(mu) <= 576.0 * ap_characteristic(w, 2.0) ** 0.25


def test_fkp_log_bound_with_sharp_constant():
    # the sharp constant 8 is calibrated against the classical exponential
    # A_infty characteristic; the smaller Fujii-Wilson one admits random
    # weights with ratios slightly above 8, but power weights stay under it
    g = standard_grid(-2, 16)
    mesh = Mesh(g.interval(0, 0), 8)
    for a in [0.2, 0.5, 0.9, 0.99]:
        w = power_weight(mesh, a)
        inten = carleson_intensity(fkp_sequence(w))
        assert inten <= 8.0 * math.log(a_infty_fujii_wilson(w)) * (1 + 1e-10)
        assert inten <= 8.0 * math.log(a_infty_classical(w)) * (1 + 1e-10)
    rng = np.random.default_rng(21)
    mesh = unit_mesh(6)
    for _ in range(200):
        w = random_weight(mesh, rng, spread=rng.uniform(0.2, 2.5))
        assert carleson_intensity(fkp_sequence(w)) <= 8.0 * math.log(
            a_infty_classical(w)
        ) * (1 + 1e-10)


# -- Bellman -------------------------------------------------------------------


def test_bellman_formula_values():
    assert bellman_B(1.0, 1.0, 0.0) == 0.0
    assert bellman_B(2.0, 1.0, 1.0) == pytest.approx(2.0 - 0.5)
    with pytest.raises(ValueError):
        bellman_B(0.5, 0.5, 0.0)  # uv < 1
    with pytest.raises(ValueError):
        bellman_B(2.0, 2.0, 1.5)  # l > 1


def test_bellman_B_on_arrays():
    u, v, l = weights._sample_domain(np.random.default_rng(4), 200)
    expected = [bellman_B(a, b, c) for a, b, c in zip(u.tolist(), v.tolist(), l.tolist())]
    assert bellman_B(u, v, l).tolist() == expected
    l[[7, 9]] = 1.5
    assert np.flatnonzero(~in_bellman_domain(u, v, l)).tolist() == [7, 9]
    with pytest.raises(ValueError, match=re.escape(f"({u[7]},{v[7]},1.5) outside")):
        bellman_B(u, v, l)


def _reference_gradient(u, v, l):
    return np.array([1.0, 1.0 / (v ** 2 * (1.0 + l)), 1.0 / (v * (1.0 + l) ** 2)])


def _reference_in_domain(u, v, l):
    return u > 0 and v > 0 and u * v >= 1.0 and 0.0 <= l <= 1.0


def _reference_B(u, v, l):
    if not _reference_in_domain(u, v, l):
        raise ValueError(f"({u},{v},{l}) outside the Bellman domain")
    return u - 1.0 / (v * (1.0 + l))


def reference_bellman_verify(sample_count, seed):
    """The per-sample loops that `bellman_verify` replaced, kept as its oracle;
    the Hessian comes from the module so that a patched one reaches both."""
    rng = np.random.default_rng(seed)
    tol = 1e-12
    fd_step = 1e-5
    report = {
        "samples": sample_count,
        "range_violations": 0,
        "derivative_violations": 0,
        "hessian_violations": 0,
        "fd_hessian_max_error": 0.0,
        "convexity_violations": 0,
        "convexity_checked": 0,
    }
    u, v, l = weights._sample_domain(rng, sample_count)
    for ui, vi, li in zip(u, v, l):
        B = _reference_B(ui, vi, li)
        if not (-tol <= B <= ui + tol):
            report["range_violations"] += 1
        if _reference_gradient(ui, vi, li)[2] < 1.0 / (4.0 * vi) - tol:
            report["derivative_violations"] += 1
        H = weights._bellman_hessian(vi, li)
        if np.max(np.linalg.eigvalsh(H)) > tol * max(1.0, np.abs(H).max()):
            report["hessian_violations"] += 1
    for ui, vi, li in zip(u[:50], v[:50], l[:50]):
        if not (fd_step < li < 1 - fd_step and vi > 10 * fd_step):
            continue
        H = weights._bellman_hessian(vi, li)
        fd = np.zeros((3, 3))
        x0 = np.array([ui, vi, li])
        for i in range(3):
            for j in range(3):
                xpp = x0.copy(); xpp[i] += fd_step; xpp[j] += fd_step
                xpm = x0.copy(); xpm[i] += fd_step; xpm[j] -= fd_step
                xmp = x0.copy(); xmp[i] -= fd_step; xmp[j] += fd_step
                xmm = x0.copy(); xmm[i] -= fd_step; xmm[j] -= fd_step
                vals = [u0 - 1.0 / (v0 * (1.0 + l0)) for u0, v0, l0 in (xpp, xpm, xmp, xmm)]
                fd[i, j] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * fd_step ** 2)
        err = float(np.max(np.abs(fd - H)) / max(1.0, np.abs(H).max()))
        report["fd_hessian_max_error"] = max(report["fd_hessian_max_error"], err)
    up, vp, lp = weights._sample_domain(rng, sample_count)
    um, vm, lm = weights._sample_domain(rng, sample_count)
    for i in range(sample_count):
        lmid = 0.5 * (lp[i] + lm[i])
        alpha = rng.uniform(0.0, 1.0 - lmid)
        x = (0.5 * (up[i] + um[i]), 0.5 * (vp[i] + vm[i]), lmid + alpha)
        if not _reference_in_domain(*x):
            continue
        gain = _reference_B(*x) - 0.5 * (_reference_B(up[i], vp[i], lp[i]) + _reference_B(um[i], vm[i], lm[i]))
        report["convexity_checked"] += 1
        if gain < alpha / (4.0 * x[1]) - tol:
            report["convexity_violations"] += 1
    report["ok"] = (
        report["range_violations"] == 0
        and report["derivative_violations"] == 0
        and report["hessian_violations"] == 0
        and report["convexity_violations"] == 0
        and report["fd_hessian_max_error"] < 1e-4
    )
    return report


@pytest.mark.parametrize("sample_count", [1, 2, 50, 500, 2000, 10 ** 4])
def test_bellman_verify_matches_the_per_sample_loops(sample_count):
    for seed in range(6):
        expected = json.dumps(reference_bellman_verify(sample_count, seed))
        assert json.dumps(bellman_verify(sample_count, seed)) == expected, (sample_count, seed)


def test_bellman_verify_counts_a_negated_hessian_like_the_loops(monkeypatch):
    hessian = weights._bellman_hessian
    monkeypatch.setattr(weights, "_bellman_hessian", lambda v, l: -hessian(v, l))
    report = bellman_verify(500, 1)
    assert json.dumps(report) == json.dumps(reference_bellman_verify(500, 1))
    assert report["hessian_violations"] == 500 and not report["ok"]


def test_bellman_verify_clean():
    report = bellman_verify(10 ** 4, seed=0)
    assert report["ok"]
    assert report["range_violations"] == 0
    assert report["derivative_violations"] == 0
    assert report["hessian_violations"] == 0
    assert report["convexity_violations"] == 0
    assert report["convexity_checked"] > 5000
    assert report["fd_hessian_max_error"] < 1e-4


# -- NTV two-weight report -------------------------------------------------------


def test_ntv_unit_weights():
    mesh = unit_mesh(5)
    one = Weight(mesh, np.ones(mesh.n_cells))
    rep = ntv_conditions(one, one)
    assert rep["joint_a2"] == pytest.approx(1.0, rel=1e-14)
    assert rep["carleson_u_inv_intensity"] == 0.0
    assert rep["carleson_v_intensity"] == 0.0
    assert rep["alpha_unit_intensity"] == 0.0
    assert rep["t0_norm"] == 0.0


def test_ntv_t0_norm_matches_dense_svd():
    from dyadlab.operators import dense_matrix, positive_dyadic_operator
    from dyadlab.weights import ntv_alpha_sequence

    mesh = unit_mesh(6)
    rng = np.random.default_rng(29)
    u = random_weight(mesh, rng)
    v = random_weight(mesh, rng)
    rep = ntv_conditions(u, v, norm_tol=1e-12)
    seq = ntv_alpha_sequence(u.reciprocal(), v)
    mat = dense_matrix(positive_dyadic_operator(seq))
    sim = np.sqrt(v.values)[:, None] * mat * (1.0 / np.sqrt(u.values))[None, :]
    sv = np.linalg.svd(sim, compute_uv=False)[0]
    assert rep["t0_norm"] == pytest.approx(sv, rel=1e-8)


def test_ntv_alpha_intensity_provable_bound():
    # telescoping the concavity gain of log(<w>_I <w^{-1}>_I) down the tree
    # gives intensity <= 4 log[w]_{A2} for u = v = w, and the constant 4 is
    # asymptotically attained by a one-split weight w = 1 +- eps, so no
    # smaller constant can be asserted
    g = standard_grid(-2, 16)
    mesh = Mesh(g.interval(0, 0), 10)
    for a in [0.3, 0.6, 0.9, 0.99]:
        w = power_weight(mesh, a)
        rep = ntv_conditions(w, w)
        bound = 4.0 * math.log(ap_characteristic(w, 2.0))
        assert rep["alpha_unit_intensity"] <= bound * (1 + 1e-10)


# -- degenerate weights ----------------------------------------------------------


def test_degenerate_weight_rejected():
    mesh = unit_mesh(4)
    vals = np.ones(mesh.n_cells)
    vals[3] = 0.0
    with pytest.raises(DegenerateWeightError):
        Weight(mesh, vals)
    with pytest.raises(DegenerateWeightError):
        power_weight(mesh, -1.5)


def test_log_symbol_has_finite_bmo():
    g = standard_grid(-2, 16)
    for depth in [8, 10, 12]:
        mesh = Mesh(g.interval(0, 0), depth)
        b = log_symbol(mesh)
        assert bmo_dyadic_norm(b) < 3.0  # stays bounded as depth grows
