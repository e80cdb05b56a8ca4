"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 5 checks the two halves of the sharp A2 bounds on two
weight families: the Fujii-Wilson cap on finite meshes keeps growth on the
wide depth-12 power sweep at the mixed-bound rate [w]^{1/2}, so the upper
band edges are asserted there and the full bands on the endpoint family
|x| at increasing depth (see its docstring).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from dyadlab.experiments import (
    SweepReport,
    default_bump,
    near_extremal_function,
    run,
    sweep_mesh,
    tower_family,
    weak_type_witness,
)
from dyadlab.grid import standard_grid
from dyadlab.operators import (
    SignSymbol,
    average_shift,
    average_shifts,
    hilbert_exact,
    hilbert_of_indicator,
    martingale_transform,
    maximal_dyadic,
    named_operator,
    operator_norm_weighted,
    positive_dyadic_operator,
    square_function,
    square_norm_weighted,
    dense_matrix,
)
from dyadlab.signal import Mesh, StepFunction, analyze, lp_norm, synthesize
from dyadlab.sparse import (
    SparseFamily,
    carleson_constant,
    construct_certificates,
    lacey_dominate,
    sparse_operator,
    verify_sparse,
)
from dyadlab.weights import (
    CarlesonSequence,
    Weight,
    a_infty_classical,
    alpha_sequence,
    ap_characteristic,
    bellman_verify,
    bmo_dyadic_norm,
    carleson_intensity,
    fkp_sequence,
    little_lemma_map,
    log_symbol,
    ntv_alpha_sequence,
    ntv_conditions,
    power_weight,
)

SWEEP_ALPHAS = (0.3, 0.6, 0.9, 1.2, 1.5, 1.75, 2.0)


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c01_haar_roundtrip_and_parseval():
    """Depth-12 mesh, 100 random signals: reconstruction sup-error
    <= 1e-12 ||f||_inf, Parseval relative error <= 1e-10, under 1 second."""
    g = standard_grid(-2, 16)
    mesh = Mesh(g.interval(0, 0), 12)
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_sup, worst_parseval = 0.0, 0.0
    for _ in range(100):
        f = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
        s = analyze(f)
        back = synthesize(s)
        sup = float(np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values)))
        lhs = lp_norm(f, 2) ** 2
        rhs = mesh.root.length * s.mean ** 2 + s.energy()
        worst_sup = max(worst_sup, sup)
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / lhs)
    elapsed = time.perf_counter() - t0
    ok = worst_sup <= 1e-12 and worst_parseval <= 1e-10 and elapsed < 1.0
    report(
        "C01 haar-roundtrip",
        ok,
        f"sup={worst_sup:.2e} parseval={worst_parseval:.2e} time={elapsed:.2f}s",
    )
    assert worst_sup <= 1e-12
    assert worst_parseval <= 1e-10
    assert elapsed < 1.0


def test_c02_isometries():
    """||T_sigma f||_2 and ||S f||_2 equal ||f - mean||_2 within 1e-10."""
    mesh = sweep_mesh(10)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        f = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
        sigma = SignSymbol.random(mesh, rng)
        base = lp_norm(StepFunction(mesh, f.values - f.values.mean()), 2)
        t_err = abs(lp_norm(martingale_transform(f, sigma), 2) - base) / base
        s_err = abs(lp_norm(square_function(f), 2) - base) / base
        worst = max(worst, t_err, s_err)
    report("C02 isometries", worst <= 1e-10, f"worst rel err={worst:.2e}")
    assert worst <= 1e-10


def test_c03_exact_hilbert_oracle():
    """H(1_[0,1])(2) = ln2/pi within 1e-12; PV quadrature agrees to 1e-6."""
    from scipy.integrate import quad

    g = standard_grid(-4, 16)
    mesh = Mesh(g.interval(-2, 0), 12)  # root [0, 4)
    n = mesh.n_cells
    vals = np.zeros(n)
    vals[: n // 4] = 1.0  # exactly 1_[0,1)
    f = StepFunction(mesh, vals)
    got = hilbert_exact(f, [2.0])[0]
    want = math.log(2.0) / math.pi
    err_exact = abs(got - want)
    closed = hilbert_of_indicator(0.0, 1.0, [2.0])[0]
    err_closed = abs(closed - want)
    # quadrature oracle at points inside and outside the support
    edges = mesh.cell_edges()
    worst_quad = 0.0
    for x in [0.3141, 0.87 + 1e-4, 2.5, 3.75]:
        ours = hilbert_exact(f, [x])[0]
        total = 0.0
        for k in range(n):
            a, b = edges[k], edges[k + 1]
            if vals[k] == 0.0:
                continue
            if a < x < b:
                total -= quad(lambda y: vals[k], a, b, weight="cauchy", wvar=x)[0]
            else:
                total += quad(lambda y: vals[k] / (x - y), a, b, limit=400)[0]
        total /= math.pi
        worst_quad = max(worst_quad, abs(ours - total) / max(abs(total), 1e-6))
    ok = err_exact <= 1e-12 and err_closed <= 1e-12 and worst_quad <= 1e-6
    report(
        "C03 hilbert-oracle",
        ok,
        f"|H1(2)-ln2/pi|={err_exact:.2e} quad rel err={worst_quad:.2e}",
    )
    assert err_exact <= 1e-12
    assert err_closed <= 1e-12
    assert worst_quad <= 1e-6


def test_c04_petermichl_averaging():
    """Depth 10, 2000 sampled grids: cell-midpoint correlation with the exact
    transform >= 0.95; the window-truncation L2 discrepancy (against the
    widest-window reconstruction on the same grids) strictly decreases in the
    10-seed mean when the window widens from +-3 to +-6; under 60 s."""
    t0 = time.perf_counter()
    mesh = sweep_mesh(10)
    f = default_bump(mesh)
    exact = hilbert_exact(f, mesh.cell_midpoints())
    approx = average_shift(f, 2000, seed=11, margin=6)
    corr = float(np.corrcoef(approx.values, exact)[0, 1])
    d3, d6 = [], []
    for seed in range(10):
        # one pass on the same grids as three average_shift calls at margins 3, 6, 8
        approx_by_margin = average_shifts(f, 300, seed, [3, 6, 8])
        a3, a6, ref = (approx_by_margin[m].values for m in (3, 6, 8))
        d3.append(lp_norm(StepFunction(mesh, a3 - ref), 2))
        d6.append(lp_norm(StepFunction(mesh, a6 - ref), 2))
    elapsed = time.perf_counter() - t0
    decreases = float(np.mean(d3)) > float(np.mean(d6))
    ok = corr >= 0.95 and decreases and elapsed < 60.0
    report(
        "C04 petermichl-averaging",
        ok,
        f"corr={corr:.4f} disc3={np.mean(d3):.2e} disc6={np.mean(d6):.2e} time={elapsed:.1f}s",
    )
    assert corr >= 0.95
    assert decreases
    assert elapsed < 60.0


C05_BANDS = {
    "sha": (0.75, 1.15),
    "paraproduct": (0.75, 1.15),
    "sparse": (0.75, 1.15),
    "square": (0.75, 1.15),
    "commutator_sha": (1.6, 2.25),
}
# operators with a known extremal family, whose lower band edge is asserted
C05_SHARP = ("sha", "sparse", "square", "commutator_sha")
ENDPOINT_DEPTHS = tuple(range(4, 15))


def c05_sweep(weights):
    """Fitted log-log slopes of the L2(w) norms against [w]_{A2}, the span
    of [w]_{A2} in decades, and the worst paraproduct ratio
    ||pi_b||/([w]_{A2} ||b||_BMO), with b = log|x| on each weight's mesh."""
    rows = {name: [] for name in C05_BANDS}
    a2s = []
    worst_pp_ratio = 0.0
    for w in weights:
        mesh = w.mesh
        b = log_symbol(mesh)
        a2 = ap_characteristic(w, 2.0)
        a2s.append(a2)
        norms = {
            "sha": operator_norm_weighted(named_operator("sha", mesh), w, tol=1e-8),
            "paraproduct": operator_norm_weighted(
                named_operator("paraproduct", mesh, b=b), w, tol=1e-8
            ),
            "sparse": operator_norm_weighted(
                named_operator("sparse", mesh, family=tower_family(mesh)), w, tol=1e-8
            ),
            "square": square_norm_weighted(w, tol=1e-10),
            "commutator_sha": operator_norm_weighted(
                named_operator("commutator_sha", mesh, b=b), w, tol=1e-8
            ),
        }
        for name, value in norms.items():
            rows[name].append({"a2": a2, "norm": value})
        worst_pp_ratio = max(worst_pp_ratio, norms["paraproduct"] / (a2 * bmo_dyadic_norm(b)))
    slopes = {name: SweepReport.fit(rs).slope for name, rs in rows.items()}
    return slopes, math.log10(max(a2s) / min(a2s)), worst_pp_ratio


def test_c05_sharp_constant_sweeps():
    """Sharp linear A2 growth (quadratic for the commutator), checked one
    half at a time: the log-log slope bands are [0.75, 1.15] for sha,
    paraproduct, sparse and square, and [1.6, 2.25] for commutator_sha.

    Upper half, on the depth-12 power sweep |x|^alpha, alpha in SWEEP_ALPHAS,
    spanning >= 2 decades of the dyadic A2 characteristic: every slope stays
    under its band's upper edge, the paraproduct norm stays under
    8 [w]_{A2} ||b||_BMO, and the whole criterion runs in under 300 s.

    Sharpness half, on the endpoint family w_J = |x| on the depth-J mesh,
    J = 4..14 (alpha = 1, the A2 endpoint, with the truncation scale 2^-J in
    the role of delta in the classical extremals |x|^{1-delta}): the slopes
    of sha, sparse, square and commutator_sha fall inside their full bands
    (measured 1.096, 1.085, 1.096, 2.046; the depth ranges 4-16, 6-14, 8-16
    and 10-16 give 1.04-1.10 and 2.00-2.06).  Here
    [w_J]_{A2} = sum_{k<2^J} 1/(2k+1) exactly, about (J ln 2)/2 + 0.98, while
    [w_J^{-1}]_{A_infty} grows only from 1.98 to 4.47, so the mixed
    A2-A_infty bound does not bind.  The family spans about 0.39 decades and
    no more is available: [w_J]_{A2} grows like J, reaching only ~7.9 at
    J = 20, so no decades floor applies to this half.

    Why the halves use different families: on a depth-J mesh the dyadic
    maximal function of w 1_I is a maximum of at most J - level(I) + 1 tree
    averages, so the Fujii-Wilson characteristic of every weight is at most
    J + 1.  The mixed A2-A_infty bounds then cap every L2(w) norm near
    sqrt([w]_{A2} * 2(J+1)).  A sweep reaching large [w]_{A2} at fixed depth
    (for alpha >= 1, |x|^alpha is not an A2 weight in the continuum and its
    characteristic comes from the one cell at the singularity) therefore
    grows like [w]^{1/2}: measured slopes 0.38-0.59, pinned in
    tests/test_experiments.py::test_mixed_a2_ainfty_phenomenology.  Linear
    growth is only visible where [w]_{A_infty} keeps pace with [w]_{A2}.

    The paraproduct pi_b with b = log|x| has no extremal (b, w) pair named
    here, so its lower edge is not asserted: its slope is 0.39 on w_J, and
    about 1.24 on w_J^{-1} (same characteristic), where its ratio to
    [w]_{A2} ||b||_BMO stays <= 1.14 (<= 0.54 on w_J).  Its ratio <= 8 and
    its 1.15 upper edge are asserted on both families.
    """
    t0 = time.perf_counter()
    mesh = sweep_mesh(12)
    power_slopes, decades, power_pp_ratio = c05_sweep(
        [power_weight(mesh, alpha) for alpha in SWEEP_ALPHAS]
    )
    endpoint_slopes, _, endpoint_pp_ratio = c05_sweep(
        [power_weight(sweep_mesh(depth), 1.0) for depth in ENDPOINT_DEPTHS]
    )
    elapsed = time.perf_counter() - t0
    worst_pp_ratio = max(power_pp_ratio, endpoint_pp_ratio)
    upper_ok = all(
        slopes[n] <= hi
        for slopes in (power_slopes, endpoint_slopes)
        for n, (_, hi) in C05_BANDS.items()
    )
    sharp_ok = all(C05_BANDS[n][0] <= endpoint_slopes[n] for n in C05_SHARP)
    ok = decades >= 2.0 and worst_pp_ratio <= 8.0 and elapsed < 300.0 and upper_ok and sharp_ok
    power_text = {k: round(v, 3) for k, v in power_slopes.items()}
    endpoint_text = {k: round(v, 3) for k, v in endpoint_slopes.items()}
    report(
        "C05 sharp-constant-sweeps",
        ok,
        f"decades={decades:.2f} pp_ratio_max={worst_pp_ratio:.2f} "
        f"upper-half slopes={power_text} sharpness-half slopes={endpoint_text} "
        f"time={elapsed:.1f}s",
    )
    assert decades >= 2.0
    assert worst_pp_ratio <= 8.0, f"paraproduct ratio exceeded 8: {worst_pp_ratio}"
    assert elapsed < 300.0
    assert upper_ok, (
        f"upper band edges 1.15 / 2.25 exceeded: power sweep {power_text}, "
        f"endpoint family {endpoint_text}"
    )
    assert sharp_ok, (
        f"endpoint family below the lower band edges 0.75 / 1.6: {endpoint_text}"
    )


def test_c06_buckley_maximal():
    """Weak-type witness grows no faster than [w]^{1/2} (fitted slope
    <= 0.65) and the strong norm ratio to [w]_{A2} stays bounded (<= 8)."""
    mesh = sweep_mesh(12)
    rows = []
    worst_strong = 0.0
    for alpha in SWEEP_ALPHAS:
        w = power_weight(mesh, alpha)
        a2 = ap_characteristic(w, 2.0)
        f = near_extremal_function(w)
        weak = weak_type_witness(w, f)
        strong = lp_norm(maximal_dyadic(f), 2, w) / lp_norm(f, 2, w)
        worst_strong = max(worst_strong, strong / a2)
        rows.append({"a2": a2, "norm": weak})
    slope = SweepReport.fit(rows).slope
    ok = slope <= 0.65 and worst_strong <= 8.0
    report("C06 buckley", ok, f"weak slope={slope:.3f} strong ratio max={worst_strong:.3f}")
    assert slope <= 0.65
    assert worst_strong <= 8.0


def intensity_oracle(seq: CarlesonSequence, v: Weight | None = None) -> float:
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


def test_c07_carleson_machinery():
    """Little Lemma factor 4, alpha-Lemma with C_{1/4} = 576, and the
    oscillation-sum log bound with sharp constant 8 (against the classical
    exponential A_infty characteristic it is calibrated to) on 200 randomized
    instances each; intensity matches the O(N^2) oracle exactly at depth <= 8."""
    rng = np.random.default_rng(55)
    g = standard_grid(-2, 12)
    mesh = Mesh(g.interval(0, 0), 6)
    little_ok = alpha_ok = fkp_ok = True
    for _ in range(200):
        seq = CarlesonSequence(
            mesh,
            [rng.uniform(0, 1, 1 << l) * (rng.random(1 << l) < 0.3) for l in range(mesh.depth + 1)],
        )
        w = Weight(mesh, np.exp(rng.uniform(-1.5, 1.5, mesh.n_cells)))
        little_ok &= carleson_intensity(little_lemma_map(seq, w), w) <= 4.0 * carleson_intensity(seq) * (1 + 1e-10)
        alpha_ok &= carleson_intensity(alpha_sequence(w, 0.25)) <= 576.0 * ap_characteristic(w, 2.0) ** 0.25 * (1 + 1e-10)
        fkp_ok &= carleson_intensity(fkp_sequence(w)) <= 8.0 * math.log(a_infty_classical(w)) * (1 + 1e-10)
    # exact oracle agreement on dyadic-rational fixtures
    oracle_ok = True
    for depth in (4, 6, 8):
        m = Mesh(g.interval(0, 0), depth)
        for _ in range(5):
            seq = CarlesonSequence(m, [rng.integers(0, 32, 1 << l) / 8.0 for l in range(depth + 1)])
            v = Weight(m, rng.integers(1, 64, m.n_cells) / 16.0)
            oracle_ok &= carleson_intensity(seq) == intensity_oracle(seq)
            oracle_ok &= carleson_intensity(seq, v) == intensity_oracle(seq, v)
    ok = little_ok and alpha_ok and fkp_ok and oracle_ok
    report(
        "C07 carleson-machinery",
        ok,
        f"little4={little_ok} alpha576={alpha_ok} fkp8={fkp_ok} oracle_exact={oracle_ok}",
    )
    assert little_ok and alpha_ok and fkp_ok and oracle_ok


def test_c08_bellman():
    """10^4 domain samples and admissible triples: range, derivative,
    Hessian NSD, and dyadic convexity with zero violations."""
    rep = bellman_verify(10 ** 4, seed=3)
    ok = rep["ok"] and rep["convexity_checked"] >= 5000
    report(
        "C08 bellman",
        ok,
        f"violations={rep['range_violations']}+{rep['derivative_violations']}"
        f"+{rep['hessian_violations']}+{rep['convexity_violations']} "
        f"fd_err={rep['fd_hessian_max_error']:.1e} checked={rep['convexity_checked']}",
    )
    assert rep["range_violations"] == 0
    assert rep["derivative_violations"] == 0
    assert rep["hessian_violations"] == 0
    assert rep["convexity_violations"] == 0
    assert rep["fd_hessian_max_error"] < 1e-4
    assert rep["convexity_checked"] >= 5000


def carleson_family_oracle(family: SparseFamily) -> float:
    mesh = family.mesh
    best = 0.0
    for lq in range(mesh.depth + 1):
        for pq in range(1 << lq):
            total = sum(
                mesh.level_length(lp)
                for lp, pp in family.members
                if lp >= lq and (pp >> (lp - lq)) == pq
            )
            best = max(best, total / mesh.level_length(lq))
    return best


def test_c09_sparse_engine():
    """Packing constant matches the exhaustive oracle exactly at depth <= 8;
    certificates succeed at Lambda = exact constant on 200 random families;
    Lacey domination returns 1/2-sparse certified families with cell-wise
    pointwise domination on 100 random (f, sigma) at depth 10, C0 <= 2^16,
    in under 2 minutes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    g = standard_grid(-2, 14)
    oracle_ok = True
    for depth in (4, 6, 8):
        mesh = Mesh(g.interval(0, 0), depth)
        for _ in range(5):
            members = [
                (l, p)
                for l in range(depth + 1)
                for p in range(1 << l)
                if rng.random() < 0.25
            ] or [(0, 0)]
            fam = SparseFamily(mesh, members)
            oracle_ok &= carleson_constant(fam) == carleson_family_oracle(fam)
    constructed = 0
    attempts = 0
    construct_ok = True
    mesh8 = Mesh(g.interval(0, 0), 8)
    while constructed < 200:
        attempts += 1
        assert attempts < 2000, "family generator starved"
        density = float(rng.uniform(0.05, 0.4))
        # keep members at least 3 levels above the cells so the exact
        # constant stays within each member's resolution
        members = [
            (l, p)
            for l in range(mesh8.depth - 2)
            for p in range(1 << l)
            if rng.random() < density
        ] or [(0, 0)]
        fam = SparseFamily(mesh8, members)
        lam = carleson_constant(fam)
        finest = max(l for l, _ in fam.members)
        if (1 << (mesh8.depth - finest)) < lam:
            continue  # members thinner than Lambda cells: the error regime
        certified = construct_certificates(fam, lam)
        okv, _ = verify_sparse(certified)
        construct_ok &= okv
        constructed += 1
    mesh10 = Mesh(g.interval(0, 0), 10)
    lacey_ok = True
    worst_c0 = 0.0
    for _ in range(100):
        f = StepFunction(mesh10, rng.standard_normal(mesh10.n_cells))
        sigma = SignSymbol.random(mesh10, rng)
        fam, c0 = lacey_dominate(f, sigma)
        okv, _ = verify_sparse(fam)
        lhs = np.abs(martingale_transform(f, sigma).values)
        rhs = c0 * sparse_operator(fam, StepFunction(mesh10, np.abs(f.values))).values
        lacey_ok &= okv and fam.eta >= 0.5 and bool(np.all(lhs <= rhs + 1e-12)) and c0 <= 2 ** 16
        worst_c0 = max(worst_c0, c0)
    elapsed = time.perf_counter() - t0
    ok = oracle_ok and construct_ok and lacey_ok and elapsed < 120.0
    report(
        "C09 sparse-engine",
        ok,
        f"oracle={oracle_ok} certificates=200/{construct_ok} lacey={lacey_ok} "
        f"worst_C0={worst_c0:.0f} time={elapsed:.0f}s",
    )
    assert oracle_ok and construct_ok and lacey_ok
    assert elapsed < 120.0


def test_c10_sht():
    """Random planar cloud n=512, delta=1/2: partition/nested/ball checks,
    Haar Gram identity within 1e-10, the dimension identity, and classical
    Haar values on the 1-D lattice within 1e-12."""
    from dyadlab.sht import (
        QuasiMetricCloud,
        build_cube_system,
        build_sht_haar,
        gram_error,
        lattice_cloud,
    )
    from dyadlab.signal import haar_function

    rng = np.random.default_rng(99)
    cloud = QuasiMetricCloud.from_points(rng.random((512, 2)))
    system = build_cube_system(cloud, 0.5)
    verification = system.verify()
    basis = build_sht_haar(system)
    gram_err = gram_error(basis)
    dim_ok = basis.coefficient_count() + basis.top_cubes == cloud.n
    n = 64
    lat = lattice_cloud(n, metric="dyadic")
    lat_basis = build_sht_haar(build_cube_system(lat, 0.5))
    g = standard_grid(-2, 10)
    mesh = Mesh(g.interval(0, 0), 6)
    classical_err = 0.0
    for f, (level, cube) in enumerate(zip(lat_basis.level, lat_basis.cube)):
        values = np.zeros(n)  # the function from its runs
        values[lat_basis.order[lat_basis.start[f]:lat_basis.mid[f]]] = lat_basis.a[f]
        values[lat_basis.order[lat_basis.mid[f]:lat_basis.end[f]]] = -lat_basis.b[f]
        pts = lat_basis.system.cube_points(level, cube)
        pos = int(pts.min()) // (n >> level)
        classical = haar_function(mesh, (int(level), pos)).values
        classical_err = max(
            classical_err, float(np.max(np.abs(values * math.sqrt(n) - classical)))
        )
    ok = (
        verification["partition_ok"]
        and verification["nested_ok"]
        and verification["inner_ball_constant"] > 0
        and gram_err <= 1e-10
        and dim_ok
        and classical_err <= 1e-12
    )
    report(
        "C10 sht",
        ok,
        f"partition={verification['partition_ok']} nested={verification['nested_ok']} "
        f"balls=({verification['inner_ball_constant']:.2f},{verification['outer_ball_constant']:.2f}) "
        f"gram={gram_err:.1e} dim={dim_ok} classical={classical_err:.1e}",
    )
    assert verification["partition_ok"] and verification["nested_ok"]
    assert verification["inner_ball_constant"] > 0
    assert gram_err <= 1e-10
    assert dim_ok
    assert classical_err <= 1e-12


def test_c11_ntv_report():
    """u = v = w over the A2 sweep: all four reported quantities finite, the
    alpha-sequence unit intensity within the provable 4 log[w]_{A2} bound
    (the tolerance is pinned to the telescoping-concavity constant 4; the
    nominal constant 1 admits near-constant-weight counterexamples with
    ratio -> 4), and the positive-operator norm matching dense SVD to 1e-8
    at depth 6."""
    mesh = sweep_mesh(10)
    finite_ok = intensity_ok = True
    for alpha in SWEEP_ALPHAS:
        w = power_weight(mesh, alpha)
        rep = ntv_conditions(w, w, norm_tol=1e-6)
        vals = [
            rep["joint_a2"],
            rep["carleson_u_inv_intensity"],
            rep["carleson_v_intensity"],
            rep["t0_norm"],
        ]
        finite_ok &= all(np.isfinite(v) for v in vals)
        loga2 = math.log(ap_characteristic(w, 2.0))
        intensity_ok &= rep["alpha_unit_intensity"] <= 4.0 * loga2 * (1 + 1e-10) + 1e-12
    mesh6 = sweep_mesh(6)
    rng = np.random.default_rng(5)
    svd_err = 0.0
    for _ in range(3):
        u = Weight(mesh6, np.exp(rng.uniform(-1.2, 1.2, mesh6.n_cells)))
        v = Weight(mesh6, np.exp(rng.uniform(-1.2, 1.2, mesh6.n_cells)))
        rep = ntv_conditions(u, v, norm_tol=1e-12)
        seq = ntv_alpha_sequence(u.reciprocal(), v)
        mat = dense_matrix(positive_dyadic_operator(seq))
        sim = np.sqrt(v.values)[:, None] * mat * (1.0 / np.sqrt(u.values))[None, :]
        sv = float(np.linalg.svd(sim, compute_uv=False)[0])
        svd_err = max(svd_err, abs(rep["t0_norm"] - sv) / sv)
    ok = finite_ok and intensity_ok and svd_err <= 1e-8
    report(
        "C11 ntv-report",
        ok,
        f"finite={finite_ok} alpha_intensity<=4log={intensity_ok} svd rel err={svd_err:.1e}",
    )
    assert finite_ok
    assert intensity_ok
    assert svd_err <= 1e-8
