"""Hytonen-Kairema cubes and Haar bases on finite quasi-metric clouds."""

from __future__ import annotations

import csv
import math
import tracemalloc
from array import array
from dataclasses import replace

import numpy as np
import pytest

from dyadlab import sht
from dyadlab.grid import standard_grid
from dyadlab.sht import (
    QuasiMetricCloud,
    assign_cubes,
    build_cube_system,
    build_nets,
    build_sht_haar,
    gram_error,
    gram_matrix,
    lattice_cloud,
    sht_expand,
    sht_reconstruct,
)
from dyadlab.signal import Mesh, haar_function


def planar_cloud(n, seed, mass=False):
    rng = np.random.default_rng(seed)
    xy = rng.random((n, 2))
    m = rng.uniform(0.5, 2.0, n) if mass else None
    return QuasiMetricCloud.from_points(xy, m)


def five_point_cloud():
    """One outlier glued at quasi-distance 1/2 to the head of a unit-spaced line."""
    n = 5
    dist = np.zeros((n, n))
    xs = [0.0, 1.0, 2.0, 3.0]
    for i in range(4):
        for j in range(4):
            dist[i + 1, j + 1] = abs(xs[i] - xs[j])
    # the outlier sits at coordinate -1 metrically, except that its distance
    # to the head of the line is shortened to 1/2
    for j in range(4):
        dist[0, j + 1] = dist[j + 1, 0] = 0.5 if j == 0 else 1.0 + xs[j]
    return QuasiMetricCloud(dist, np.ones(n), A0=2.0)


def five_children_cloud():
    """A pentagon of clusters: pairwise >= 0.5 but diameter < 1, so the top
    cube splits into exactly five children."""
    rng = np.random.default_rng(7)
    angles = 2 * np.pi * np.arange(5) / 5
    verts = 0.45 * np.c_[np.cos(angles), np.sin(angles)]
    pieces = [v + 0.005 * rng.random((sz, 2)) for v, sz in zip(verts, [3, 4, 2, 5, 3])]
    xy = np.vstack(pieces)
    return QuasiMetricCloud.from_points(xy, mass=rng.uniform(0.5, 2.0, xy.shape[0]))


ORACLE_CLOUDS = {
    **{f"planar{n}{'-mass' if mass else ''}": (lambda n=n, mass=mass: planar_cloud(n, n, mass))
       for n in (1, 2, 7, 64, 300) for mass in (False, True)},
    "lattice-euclidean": lambda: lattice_cloud(64),  # equidistant neighbours: ties
    "lattice-dyadic": lambda: lattice_cloud(64, metric="dyadic"),
    "five-point": five_point_cloud,
    "five-children": five_children_cloud,
}


def reference_assignment(cloud, nets):
    """Per point and level: the nearest center among those inside the point's
    parent cube, ties to the smallest center index."""
    assignment, up = [], [0] * cloud.n  # above level 0, one cube holds the whole cloud
    for cs in nets:
        allowed = [[c for c in range(len(cs)) if up[cs[c]] == up[p]] for p in range(cloud.n)]
        up = [min(allowed[p], key=lambda c: (cloud.dist[p, cs[c]], c)) for p in range(cloud.n)]
        assignment.append(up)
    return assignment


def reference_ball_constants(system):
    """Outer and inner constants cube by cube, over the points inside and outside it."""
    inner, outer = math.inf, 0.0
    for level, cs in enumerate(system.centers):
        for cube, center in enumerate(cs):
            inside = system.assignment[level] == cube
            d = system.cloud.dist[center] / system.delta ** level
            outer = max([outer, *d[inside]])
            inner = min([inner, *d[~inside]])
    return inner if inner < math.inf else 1.0, outer


@pytest.mark.parametrize("name", ORACLE_CLOUDS)
def test_cube_assignment_and_ball_constants_match_the_per_cube_loops(name):
    cloud = ORACLE_CLOUDS[name]()
    nets = build_nets(cloud, 0.5, k_max=8 if name == "five-point" else None)
    system = assign_cubes(nets, cloud, 0.5)
    expected = reference_assignment(cloud, nets)
    assert [a.tolist() for a in system.assignment] == expected
    for level in range(1, system.n_levels):
        assert system.parent[level].tolist() == [expected[level - 1][c] for c in nets[level]]
    report = system.verify()
    assert report["partition_ok"] and report["nested_ok"]
    inner, outer = reference_ball_constants(system)
    assert (report["inner_ball_constant"], report["outer_ball_constant"]) == (inner, outer)


def with_assignment(system, level, assignment):
    return replace(system, assignment=[*system.assignment[:level], assignment, *system.assignment[level + 1:]])


def test_verify_flags_an_empty_cube_and_an_index_out_of_range():
    system = build_cube_system(planar_cloud(64, 11), 0.5)
    level = next(k for k in range(system.n_levels) if len(system.centers[k]) >= 2)
    a = system.assignment[level].copy()
    a[a == 1] = 0  # cube 1 loses every point
    assert not with_assignment(system, level, a).verify()["partition_ok"]
    for bad in (-1, len(system.centers[0])):
        a = system.assignment[0].copy()
        a[5] = bad
        assert not with_assignment(system, 0, a).verify()["partition_ok"]


def test_verify_flags_a_point_moved_under_another_parent():
    system = build_cube_system(planar_cloud(64, 11), 0.5)
    level = next(k for k in range(1, system.n_levels) if len(system.centers[k - 1]) >= 2)
    a = system.assignment[level].copy()
    p = next(p for p in range(system.cloud.n) if np.sum(a == a[p]) >= 2)  # its cube stays non-empty
    up = system.assignment[level - 1][p]
    a[p] = int(np.flatnonzero(system.parent[level] != up)[0])
    report = with_assignment(system, level, a).verify()
    assert report["partition_ok"] and not report["nested_ok"]


def test_constructor_rejects_asymmetry_a_nonzero_diagonal_and_a_zero_distance():
    good = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    QuasiMetricCloud(good, np.ones(3))
    asymmetric, diagonal, zero = good.copy(), good.copy(), good.copy()
    asymmetric[0, 1] = 1.25
    diagonal[2, 2] = 0.5
    zero[0, 2] = zero[2, 0] = 0.0
    for dist in (asymmetric, diagonal, zero):
        with pytest.raises(ValueError):
            QuasiMetricCloud(dist, np.ones(3))


@pytest.mark.parametrize("i, j", [(0, 1), (2, 0), (4, 1), (1, 4)])
def test_symmetry_check_in_tiles_finds_one_asymmetric_pair(monkeypatch, i, j):
    # 2 x 2 tiles of a 5 x 5 matrix: a pair inside a diagonal tile, across tiles and in the last, short tile
    monkeypatch.setattr(sht, "BLOCK_ELEMENTS", 4)
    xy = np.random.default_rng(5).random((5, 2))
    dist = QuasiMetricCloud.from_points(xy).dist
    dist[i, j] *= 1.0 + 1e-15
    with pytest.raises(ValueError, match="symmetric"):
        QuasiMetricCloud(dist, np.ones(5))


def test_points_cloud_peaks_at_its_distances_plus_one_block():
    # summing whole n x n blocks per coordinate once peaked at twice the matrix: 67 MB at 2048 points
    xy = np.random.default_rng(2048).random((2048, 2))
    tracemalloc.start()
    try:
        cloud = QuasiMetricCloud.from_points(xy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cloud.dist.nbytes + 8 * sht.BLOCK_ELEMENTS + 1e6
    assert np.array_equal(cloud.dist, np.sqrt(sum((x[:, None] - x[None, :]) ** 2 for x in xy.T)))


def per_z_quasi_triangle_constant(d):
    """The largest d_ij / (d_iz + d_zj), one z at a time."""
    worst = 1.0
    for z in range(len(d)):
        through = d[:, z][:, None] + d[z, :][None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(through > 0, d / through, 0.0)
        worst = max(worst, float(np.max(ratio)))
    return worst


@pytest.mark.parametrize("seed", range(20))
def test_min_plus_quasi_triangle_constant_matches_the_per_z_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 48))
    if seed % 2:  # a power of a metric: a quasi-metric with A0 = 2^(power - 1)
        x = rng.random((n, 2))
        dist = np.hypot(*(x[:, None, :] - x[None, :, :]).T) ** rng.uniform(1.0, 3.0)
    else:  # symmetric, positive, and far from any metric
        dist = rng.exponential(size=(n, n)) ** 3
        dist += dist.T
        np.fill_diagonal(dist, 0.0)
    cloud = QuasiMetricCloud(dist, np.ones(n), A0=1.0)
    assert cloud.validate()["quasi_triangle_constant"] == per_z_quasi_triangle_constant(cloud.dist)


def dyadic_ultrametric(labels):
    """2^b between the points of the given integer labels, b the bit length of
    their xor: the size of the smallest dyadic block holding both."""
    d = 2.0 ** np.frexp(labels[:, None] ^ labels[None, :])[1]
    np.fill_diagonal(d, 0.0)
    return d


def shortened_ultrametric(n):
    """The ultrametric of distance 2 between any two points, except 1 between
    n-3 and n-2 and 1 + 2^-52 from both to n-1, with d(n-3, n-1) shortened to
    2^-60: fl(1 + 2^-60) = 1 < d(n-2, n-1) is the one failing triangle, in the
    last rows, and its ratio exceeds 1 by one ulp.  No pair is shortened below
    three points."""
    d = np.full((n, n), 2.0)
    np.fill_diagonal(d, 0.0)
    if n > 2:
        d[n - 3:, n - 3:] = [[0.0, 1.0, 2.0 ** -60], [1.0, 0.0, np.nextafter(1.0, 2.0)], [0.0, 0.0, 0.0]]
        d[n - 1, n - 3:n - 1] = d[n - 3:n - 1, n - 1]
    return d


def scan_clouds(n, seed):
    """A power of a planar metric, a symmetric matrix far from any metric, a
    planar cloud with its last pair (n-2, n-1) stretched, the one worst pair,
    which lies in the last rows, the dyadic ultrametric on permuted labels, an
    equidistant cloud and `shortened_ultrametric`: the scan of every block, of
    none (ultrametrics, whose minimax bound is 1) and of the last rows alone."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 2))
    planar = np.hypot(*(x[:, None, :] - x[None, :, :]).T)
    wild = rng.exponential(size=(n, n)) ** 3
    wild += wild.T
    np.fill_diagonal(wild, 0.0)
    stretched = planar.copy()
    if n > 1:
        stretched[n - 2, n - 1] = stretched[n - 1, n - 2] = 3 * planar.max()
    return {"power": planar ** rng.uniform(1.0, 3.0), "wild": wild, "stretched": stretched,
            "dyadic": dyadic_ultrametric(rng.permutation(n)), "equidistant": 1.0 - np.eye(n),
            "shortened": shortened_ultrametric(n)}


@pytest.mark.parametrize("rows", ["one", "uneven", "all"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 47, 64, 100])
def test_blocked_quasi_triangle_scan_matches_the_per_z_loop(monkeypatch, n, rows):
    # blocks of one row, of r rows with n % r >= 2 where n allows it (the last block is short
    # and holds the stretched pair), and of the whole cloud
    r = {"one": 1, "uneven": next((r for r in range(3, n) if n % r >= 2), 2), "all": n}[rows]
    monkeypatch.setattr(sht, "BLOCK_ELEMENTS", r * n)
    for name, dist in scan_clouds(n, 1000 + n).items():
        cloud = QuasiMetricCloud(dist, np.ones(n), A0=1.0)
        assert cloud.validate()["quasi_triangle_constant"] == per_z_quasi_triangle_constant(dist), name


def min_max_closure(d):
    """U_ij by brute force: min(U_ij, max(U_iz, U_zj)), one z at a time."""
    u = d.copy()
    for z in range(len(d)):
        u = np.minimum(u, np.maximum(u[:, z, None], u[z, None, :]))
    return u


@pytest.mark.parametrize("kind", ["power", "wild", "dyadic", "equidistant", "shortened", "tied"])
@pytest.mark.parametrize("seed", range(7))
def test_minimax_matches_the_min_max_closure(kind, seed):
    rng = np.random.default_rng(seed)
    n = seed + 1 if seed < 3 else int(rng.integers(4, 49))
    if kind == "tied":  # three distinct distances: many trees are minimal
        dist = rng.integers(1, 4, (n, n)).astype(float)
        dist = np.triu(dist, 1) + np.triu(dist, 1).T
    else:
        dist = scan_clouds(n, seed)[kind]
    ranks, levels = sht._minimax(dist)
    assert ranks.dtype == np.min_scalar_type(n)
    u = levels[np.maximum(ranks, ranks.T)]
    np.fill_diagonal(u, 0.0)
    assert u.tobytes() == min_max_closure(dist).tobytes()


def test_validate_peaks_at_its_minimax_ranks_plus_two_blocks():
    # n x n float bounds (33.5 MB at 2048 points) or a permuted copy of the ranks (8.4 MB) would not fit
    n = 2048
    cloud = QuasiMetricCloud(shortened_ultrametric(n), np.ones(n))
    tracemalloc.start()
    try:
        constant = cloud.validate()["quasi_triangle_constant"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert constant == np.nextafter(1.0, 2.0)
    assert peak <= n * n * 2 + 2 * 8 * sht.BLOCK_ELEMENTS + 1e6  # the uint16 ranks and `validate`'s buffer


@pytest.mark.parametrize("kind", ["points", "edges"])
def test_cloud_size_guard_takes_the_limit_and_rejects_one_more(tmp_path, monkeypatch, kind):
    monkeypatch.setattr(sht, "MAX_CLOUD_POINTS", 3)

    def cloud_file(n):
        path = tmp_path / f"{kind}{n}.csv"
        if kind == "points":
            path.write_text("id,x,y\n" + "".join(f"{k},{k},{k * k}\n" for k in range(n)))
        else:
            path.write_text("id_i,id_j,distance\n" + "".join(f"{a},{b},1.0\n" for a in range(n) for b in range(a)))
        return str(path)

    assert QuasiMetricCloud.from_csv(cloud_file(3)).n == 3
    with pytest.raises(ValueError, match="at most 3 points"):
        QuasiMetricCloud.from_csv(cloud_file(4))


def test_quasi_metric_validation():
    cloud = planar_cloud(64, 0)
    report = cloud.validate()
    assert report["quasi_triangle_constant"] <= 1.0 + 1e-12  # Euclidean is a metric
    assert report["A0_ok"]


def test_nonmetric_quasi_triangle_estimated():
    # 3 points violating the triangle inequality but not the A0=2 version
    dist = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    cloud = QuasiMetricCloud(dist, np.ones(3), A0=2.0)
    rep = cloud.validate()
    assert rep["quasi_triangle_constant"] == pytest.approx(1.5)
    assert rep["A0_ok"]


def test_single_point_cloud():
    cloud = QuasiMetricCloud.from_points(np.array([[0.3, 0.4]]))
    nets = build_nets(cloud, 0.5)
    assert all(len(net) == 1 for net in nets)
    system = build_cube_system(cloud, 0.5)
    assert all(a[0] == 0 for a in system.assignment)


def reference_nets(cloud, delta, k_max=None):
    """The greedy scan of every level from scratch, one point at a time: the
    previous centers first, then the other points in id order."""
    nets, prev = [], []
    for k in range(k_max + 1 if k_max is not None else 64):
        radius, seen = delta ** k, set(prev)
        centers, dmin = [], np.full(cloud.n, np.inf)
        for pid in prev + [i for i in range(cloud.n) if i not in seen]:
            if dmin[pid] >= radius:
                centers.append(pid)
                dmin = np.minimum(dmin, cloud.dist[pid])
        nets.append(centers)
        prev = centers
        if k_max is None and len(centers) == cloud.n:
            break
    return nets


@pytest.mark.parametrize("k_max", [None, 3])
@pytest.mark.parametrize("delta", [0.05, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("name", ORACLE_CLOUDS)
def test_nets_match_the_per_point_greedy_scan(name, delta, k_max):
    # the scan visits only the points that can still join, and keeps the previous centers
    cloud = ORACLE_CLOUDS[name]()
    assert [c.tolist() for c in build_nets(cloud, delta, k_max)] == reference_nets(cloud, delta, k_max)


def test_nets_separation_and_covering():
    cloud = planar_cloud(512, 1)
    nets = build_nets(cloud, 0.5)
    for k, centers in enumerate(nets):
        radius = 0.5 ** k
        sub = cloud.dist[np.ix_(centers, centers)]
        off = sub[~np.eye(len(centers), dtype=bool)]
        if off.size:
            assert off.min() >= radius  # separation
        assert cloud.dist[:, centers].min(axis=1).max() < radius  # covering
    # nested
    for a, b in zip(nets, nets[1:]):
        assert set(a).issubset(set(b))
    assert len(nets[-1]) == cloud.n  # auto-extension reaches singletons


def test_cube_system_partition_nested_balls():
    cloud = planar_cloud(512, 2)
    system = build_cube_system(cloud, 0.5)
    report = system.verify()
    assert report["partition_ok"]
    assert report["nested_ok"]
    assert report["inner_ball_constant"] > 0.0
    assert report["outer_ball_constant"] < 8.0  # measured, reported vs target
    # exhaustive nestedness: any two cubes across levels nest or are disjoint
    rng = np.random.default_rng(3)
    for _ in range(400):
        l1 = int(rng.integers(0, system.n_levels))
        l2 = int(rng.integers(0, system.n_levels))
        if l1 > l2:
            l1, l2 = l2, l1
        c1 = int(rng.integers(0, len(system.centers[l1])))
        c2 = int(rng.integers(0, len(system.centers[l2])))
        p1 = set(system.cube_points(l1, c1))
        p2 = set(system.cube_points(l2, c2))
        assert p2 <= p1 or not (p1 & p2)


def test_lattice_cubes_are_contiguous_ranges():
    cloud = lattice_cloud(64)
    system = build_cube_system(cloud, 0.5)
    for level in range(system.n_levels):
        for cube in range(len(system.centers[level])):
            pts = system.cube_points(level, cube)
            assert np.array_equal(pts, np.arange(pts.min(), pts.max() + 1))


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_dyadic_lattice_distances_match_the_pair_loop(n):
    depth = n.bit_length() - 1
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = 0.9 * 2.0 ** ((i ^ j).bit_length() - depth)
    assert np.array_equal(lattice_cloud(n, metric="dyadic").dist, dist)


def test_dyadic_lattice_reproduces_grid_hierarchy():
    n = 64
    cloud = lattice_cloud(n, metric="dyadic")
    system = build_cube_system(cloud, 0.5)
    # level k has exactly 2^k cubes, each a generation-k dyadic block
    for k in range(system.n_levels):
        assert len(system.centers[k]) == min(2 ** k, n)
        if 2 ** k <= n:
            width = n >> k
            for cube in range(2 ** k):
                pts = system.cube_points(k, cube)
                assert pts.min() % width == 0 and pts.size == width


def reference_haar(system):
    """The peeling construction cube by cube, one dense function at a time:
    a list of (level, cube, values)."""
    mu = system.cloud.mass
    functions = []
    for level in range(system.n_levels - 1):
        here, below = system.assignment[level], system.assignment[level + 1]
        for cube in range(len(system.centers[level])):
            kids = system.children(level, cube)
            if kids.size < 2:
                continue
            masses = [mu[below == k].sum() for k in kids]
            order = sorted(range(kids.size), key=lambda i: (-masses[i], -kids[i]))
            rem_mask = here == cube
            for oi in order[:-1]:
                plus = below == kids[oi]
                minus = rem_mask & ~plus
                m_plus, m_minus = float(mu[plus].sum()), float(mu[minus].sum())
                m_all = m_plus + m_minus
                vals = np.zeros(system.cloud.n)
                vals[plus] = math.sqrt(m_minus / (m_all * m_plus))
                vals[minus] = -math.sqrt(m_plus / (m_all * m_minus))
                functions.append((level, cube, vals))
                rem_mask = minus
    return functions


def haar_rows(basis):
    """The Haar functions as dense rows over the cloud, one function at a time
    from its runs: a on order[start:mid], -b on order[mid:end]."""
    rows = np.zeros((basis.a.size, basis.system.cloud.n))
    for row, s, m, e, a, b in zip(rows, basis.start, basis.mid, basis.end, basis.a, basis.b):
        row[basis.order[s:m]] = a
        row[basis.order[m:e]] = -b
    return rows


def reference_expand(f, functions, system):
    mu = system.cloud.mass
    coeffs = np.array([float(np.sum(f * vals * mu)) for _, _, vals in functions])
    tops = []
    for cube in range(len(system.centers[0])):
        pts = system.cube_points(0, cube)
        tops.append(float(np.sum(f[pts] * mu[pts]) / np.sum(mu[pts])))
    return coeffs, np.array(tops)


def reference_reconstruct(coeffs, tops, functions, system):
    out = np.zeros(system.cloud.n)
    for c, (_, _, vals) in zip(coeffs, functions):
        out += c * vals
    for cube, mean in enumerate(tops):
        out[system.cube_points(0, cube)] += mean
    return out


@pytest.mark.parametrize("name", ORACLE_CLOUDS)
def test_haar_array_and_its_operations_match_the_per_function_loops(name):
    system = build_cube_system(ORACLE_CLOUDS[name](), 0.5, k_max=8 if name == "five-point" else None)
    basis = build_sht_haar(system)
    expected = reference_haar(system)
    rows = haar_rows(basis)
    assert rows.shape == (len(expected), system.cloud.n)
    assert basis.level.tolist() == [lv for lv, _, _ in expected]
    assert basis.cube.tolist() == [cb for _, cb, _ in expected]
    for row, (_, _, vals) in zip(rows, expected):
        assert np.array_equal(row, vals)
    f = np.random.default_rng(len(name)).standard_normal(system.cloud.n)
    coeffs, tops = sht_expand(f, basis)
    ref_coeffs, ref_tops = reference_expand(f, expected, system)
    np.testing.assert_allclose(coeffs, ref_coeffs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tops, ref_tops, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        sht_reconstruct(coeffs, tops, basis),
        reference_reconstruct(coeffs, tops, expected, system),
        rtol=0, atol=1e-12,
    )


def test_two_equal_children_reproduce_classical_shape():
    cloud = lattice_cloud(8, metric="dyadic")
    basis = build_sht_haar(build_cube_system(cloud, 0.5))
    top = haar_rows(basis)[basis.level == 0][0]
    # +- 1/sqrt(mu(Q)) with positive sign on the second half (right child)
    amp = 1.0 / np.sqrt(8.0)
    np.testing.assert_allclose(top[4:], amp)
    np.testing.assert_allclose(top[:4], -amp)


def test_dyadic_lattice_matches_classical_haar_values():
    n = 64
    cloud = lattice_cloud(n, metric="dyadic")
    basis = build_sht_haar(build_cube_system(cloud, 0.5))
    g = standard_grid(-2, 10)
    mesh = Mesh(g.interval(0, 0), 6)
    # counting measure vs Lebesgue: L2(mu) and L2(dx) normalizations differ
    # by sqrt(n) uniformly across levels; cube indices follow the greedy
    # center order, so recover the dyadic position from the point range
    for values, level, cube in zip(haar_rows(basis), basis.level, basis.cube):
        pts = basis.system.cube_points(level, cube)
        width = n >> level
        pos = int(pts.min()) // width
        classical = haar_function(mesh, (int(level), pos)).values
        np.testing.assert_allclose(values * np.sqrt(n), classical, atol=1e-12)


def test_five_children_cube_gram_identity():
    system = build_cube_system(five_children_cloud(), 0.5)
    assert len(system.centers[0]) == 1
    assert len(system.centers[1]) == 5
    basis = build_sht_haar(system)
    assert np.count_nonzero(basis.level == 0) == 4  # N(Q) - 1
    assert gram_error(basis) <= 1e-10


def system_rows(basis):
    """The whole orthonormal system as dense rows: the normalized top-cube
    indicators, then the Haar functions."""
    mu, top = basis.system.cloud.mass, basis.system.assignment[0]
    indicators = np.zeros((basis.top_cubes, basis.system.cloud.n))
    indicators[top, np.arange(top.size)] = 1.0 / np.sqrt(np.bincount(top, mu))[top]
    return np.vstack([indicators, haar_rows(basis)])


def gram_by_products(S, mu):
    return S @ (mu[:, None] * S.T)


def gram_by_pairs(S, mu):
    """The sum over the points, in increasing order, of mu_p times the
    products of the pairs of values at p."""
    G = np.zeros((len(S), len(S)))
    for p in range(S.shape[1]):
        G += mu[p] * np.outer(S[:, p], S[:, p])
    return G


# the two dense oracles of the Gram matrix: one array product, or a sum over pairs of values point by point
GRAM_ORACLES = {"pairs": gram_by_pairs, "products": gram_by_products}


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("oracle", GRAM_ORACLES)
@pytest.mark.parametrize("name", ORACLE_CLOUDS)
def test_coordinate_gram_matches_the_dense_product(monkeypatch, name, oracle, block):
    if block:
        monkeypatch.setattr(sht, "BLOCK_ELEMENTS", block)  # the cubes assigned a few (point, child) pairs at a time
    system = build_cube_system(ORACLE_CLOUDS[name](), 0.5, k_max=8 if name == "five-point" else None)
    basis = build_sht_haar(system)
    rng = np.random.default_rng(len(name))
    # the built basis, and one whose amplitudes are off, so that no function has mean zero
    skewed = replace(basis, a=basis.a * rng.uniform(0.5, 2.0, basis.a.size), b=-basis.b)
    for case in (basis, skewed):
        S, mu = system_rows(case), system.cloud.mass
        G = GRAM_ORACLES[oracle](S, mu)
        diag, off = gram_matrix(case)
        np.testing.assert_allclose(diag, np.diag(G)[case.top_cubes:], rtol=0, atol=1e-14)
        # per function, the largest entry over the functions before it: together with
        # symmetry these are all entries off the diagonal
        earlier = np.max(np.abs(np.triu(G, 1)), axis=0, initial=0.0)[case.top_cubes:]
        np.testing.assert_allclose(off, earlier, rtol=0, atol=1e-14)
        assert abs(gram_error(case) - np.max(np.abs(G - np.eye(len(G))), initial=0.0)) <= 1e-14


def test_haar_build_and_gram_of_one_cube_with_every_point_a_child_stay_in_blocks():
    # summing every remainder at once held n^2 / 2 point ids: 43 MB at n = 1024, against 60 kB of basis
    n = 1024
    dist = np.full((n, n), 0.9)
    np.fill_diagonal(dist, 0.0)
    system = build_cube_system(QuasiMetricCloud(dist, np.ones(n)), 0.5)
    assert [len(c) for c in system.centers] == [1, n]
    tracemalloc.start()
    try:
        basis = build_sht_haar(system)
        err = gram_error(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err <= 1e-12
    assert peak <= 64 * n + 6 * 8 * sht.BLOCK_ELEMENTS


@pytest.mark.parametrize("count", [1, 3, 40])
def test_segment_sums_match_the_sum_of_each_gathered_segment_bit_for_bit(count):
    # np.add.reduceat adds left to right; a numpy that reorders row sums against 1-D sums fails here first
    rng = np.random.default_rng(count)
    values = rng.standard_normal(5000) * np.exp(rng.uniform(-30, 30, 5000))  # order-sensitive sums
    lengths = np.repeat(np.r_[0:301, 511, 512, 1000, 1024, 1025, 3000], count)
    flat = rng.integers(0, values.size, int(lengths.sum()))
    starts = np.cumsum(lengths) - lengths
    sums = sht._row_sums(values, flat, starts, lengths)
    expected = [values[flat[s:s + m]].sum() for s, m in zip(starts, lengths)]
    assert sums.tolist() == expected


@pytest.mark.parametrize("oracle", GRAM_ORACLES)
def test_gram_of_a_cube_whose_points_are_all_children_stays_in_blocks(tmp_path, oracle):
    n = 200
    cloud_csv = tmp_path / "equidistant.csv"
    cloud_csv.write_text("id_i,id_j,distance\n" + "".join(f"{a},{b},0.9\n" for a in range(n) for b in range(a)))
    system = build_cube_system(QuasiMetricCloud.from_csv(cloud_csv), 0.5)
    assert [len(c) for c in system.centers] == [1, n]  # one cube with n children
    basis = build_sht_haar(system)
    alive = np.count_nonzero(haar_rows(basis), axis=0)
    assert int(np.sum(alive.astype(np.int64) ** 2)) > 2_500_000  # pairs of values at a point: about n^3 / 3
    tracemalloc.start()
    try:
        err = gram_error(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err <= 1e-12
    # the dense Haar array would be 0.3 MB and one array per pair of values 20 MB
    assert peak < 3e6
    G = GRAM_ORACLES[oracle](system_rows(basis), system.cloud.mass)
    assert abs(err - np.max(np.abs(G - np.eye(len(G))), initial=0.0)) <= 1e-14


def write_cloud(path, kind):
    """A cloud whose functions share few points ("pairs"), or one cube of 32
    equidistant children whose Gram matrix is dense ("products")."""
    if kind == "pairs":
        xy = np.random.default_rng(12).random((64, 2))
        path.write_text("id,x,y\n" + "".join(f"{k},{x!r},{y!r}\n" for k, (x, y) in enumerate(xy.tolist())))
    else:
        path.write_text("id_i,id_j,distance\n" + "".join(f"{a},{b},0.9\n" for a in range(32) for b in range(a)))


@pytest.mark.parametrize("kind", ["pairs", "products"])
@pytest.mark.parametrize("mutation", ["flip-one-sign", "scale-one-a", "zero-one-row", "move-one-mid"])
def test_gram_error_catches_a_broken_haar_function(tmp_path, monkeypatch, mutation, kind):
    from dyadlab.experiments import ExperimentConfig, run

    cloud_csv = tmp_path / "cloud.csv"
    write_cloud(cloud_csv, kind)
    build = sht.build_sht_haar

    def broken(system):
        basis = build(system)
        f = int(np.argmax(basis.end - basis.start))  # the widest function: its mid can move either way
        if mutation == "flip-one-sign":
            basis.a[f] = -basis.a[f]
        elif mutation == "scale-one-a":
            basis.a[f] *= 1.0 + 1e-8
        elif mutation == "zero-one-row":
            basis.a[f] = basis.b[f] = 0.0
        else:
            basis.mid[f] += 1 if basis.end[f] - basis.mid[f] > 1 else -1
        return basis

    def reported_gram_error():
        rows = run(ExperimentConfig(experiment="sht", cloud=str(cloud_csv)))["rows"]
        return next(r["value"] for r in rows if r["quantity"] == "gram_error")

    assert reported_gram_error() <= 1e-12
    monkeypatch.setattr(sht, "build_sht_haar", broken)
    assert reported_gram_error() > 1e-10


@pytest.mark.parametrize("name", ["planar300-mass", "lattice-euclidean", "five-children"])
def test_blocked_assignment_and_verification_match_one_block(monkeypatch, name):
    cloud = ORACLE_CLOUDS[name]()
    nets = build_nets(cloud, 0.5)
    whole = assign_cubes(nets, cloud, 0.5)
    report = whole.verify()
    monkeypatch.setattr(sht, "BLOCK_ELEMENTS", 7)  # a few (point, child) pairs, one row of distances
    blocked = assign_cubes(nets, cloud, 0.5)
    assert all(np.array_equal(a, b) for a, b in zip(blocked.assignment, whole.assignment))
    assert blocked.verify() == report


def test_expand_reconstruct_and_parseval():
    cloud = planar_cloud(512, 5, mass=True)
    basis = build_sht_haar(build_cube_system(cloud, 0.5))
    rng = np.random.default_rng(6)
    f = rng.standard_normal(cloud.n)
    coeffs, tops = sht_expand(f, basis)
    back = sht_reconstruct(coeffs, tops, basis)
    np.testing.assert_allclose(back, f, atol=1e-10)
    # constant expands to zero coefficients
    c0, t0 = sht_expand(np.full(cloud.n, 3.3), basis)
    np.testing.assert_allclose(c0, 0.0, atol=1e-12)
    np.testing.assert_allclose(t0, 3.3, atol=1e-12)
    # Parseval in L2(mu)
    mu = cloud.mass
    norm2 = float(np.sum(f ** 2 * mu))
    top_mass = [mu[basis.system.cube_points(0, c)].sum() for c in range(basis.top_cubes)]
    rhs = float(np.sum(coeffs ** 2)) + float(np.sum(tops ** 2 * np.array(top_mass)))
    assert norm2 == pytest.approx(rhs, rel=1e-10)


def test_dimension_identity():
    for seed, n in [(0, 64), (1, 129), (2, 512)]:
        cloud = planar_cloud(n, seed)
        basis = build_sht_haar(build_cube_system(cloud, 0.5))
        assert basis.coefficient_count() + basis.top_cubes == n


def test_projection_formula():
    # the span-of-children projection at x in child R equals <f>_R - <f>_Q
    cloud = planar_cloud(256, 9, mass=True)
    system = build_cube_system(cloud, 0.5)
    basis = build_sht_haar(system)
    H = haar_rows(basis)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(cloud.n)
    mu = cloud.mass
    done = 0
    for level in range(system.n_levels - 1):
        for cube in range(len(system.centers[level])):
            kids = system.children(level, cube)
            if kids.size < 2:
                continue
            rows = H[(basis.level == level) & (basis.cube == cube)]
            proj = rows @ (f * mu) @ rows
            qpts = system.cube_points(level, cube)
            favg_q = np.sum(f[qpts] * mu[qpts]) / np.sum(mu[qpts])
            for k in kids:
                rpts = system.cube_points(level + 1, k)
                favg_r = np.sum(f[rpts] * mu[rpts]) / np.sum(mu[rpts])
                np.testing.assert_allclose(
                    proj[rpts], favg_r - favg_q, atol=1e-10
                )
            done += 1
            if done > 10:
                return


def test_cloud_csv_edge_list(tmp_path):
    # explicit quasi-metric via an edge list; A0 estimated by exhaustive scan
    path = tmp_path / "edges.csv"
    with open(path, "w") as fh:
        fh.write("id_i,id_j,distance\n")
        fh.write("0,1,1.0\n0,2,3.0\n1,2,1.0\n")
    cloud = QuasiMetricCloud.from_csv(str(path))
    assert cloud.n == 3
    assert cloud.A0 == pytest.approx(1.5)
    rep = cloud.validate()
    assert rep["A0_ok"]


def test_edge_list_in_any_row_order_and_orientation_gives_the_distance_matrix(tmp_path):
    rng = np.random.default_rng(5)
    n = 40
    x = rng.random((n, 2))
    want = np.hypot(*(x[:, None, :] - x[None, :, :]).T)
    ids = 10 ** 12 + 7 * rng.permutation(n)  # sparse, unordered ids; point k has the k-th smallest
    rank = np.argsort(np.argsort(ids))
    a, b = np.triu_indices(n, k=1)
    pairs = np.concatenate([np.stack([a, b], 1), np.stack([b, a], 1)[: n]])  # some pairs twice, reversed
    pairs = pairs[rng.permutation(len(pairs))]
    path = tmp_path / "edges.csv"
    path.write_text("id_i,id_j,distance\n" + "".join(
        f"{ids[i]},{ids[j]},{float(want[rank[i], rank[j]])!r}\n" for i, j in pairs
    ))
    assert np.array_equal(QuasiMetricCloud.from_csv(str(path)).dist, want)
    i, j = pairs[-1]
    with open(path, "a") as fh:  # the pair given once more, with another distance
        fh.write(f"{ids[j]},{ids[i]},{float(want[rank[i], rank[j]]) * 2!r}\n")
    with pytest.raises(ValueError, match="two different distances"):
        QuasiMetricCloud.from_csv(str(path))


def row_loop_cloud(path):
    """The row-by-row reader that `QuasiMetricCloud.from_csv` replaced, kept as
    its oracle: Python's csv module, `int` and `float` per field, and the
    distances of a points cloud summed over the coordinates from zero."""
    with open(path) as fh:
        reader = csv.reader(fh)
        header = [h.strip().lower() for h in next(reader, [])]
        if header[:3] not in (["id", "x", "y"], ["id_i", "id_j", "distance"]):
            raise ValueError("unrecognized cloud CSV header")
        if header[0] == "id_i":
            return QuasiMetricCloud(row_loop_edge_distances(reader), None)
        body = list(reader)
    width = min(len(header), 4)
    if not body or any(len(r) < width for r in body):
        raise ValueError(f"a cloud CSV needs data rows of {width} fields under its header")
    sht._check_cloud_size(len(body))
    order = np.argsort([int(r[0]) for r in body])
    xy = np.array([[float(body[i][1]), float(body[i][2])] for i in order])
    mass = np.array([float(body[i][3]) for i in order]) if len(header) > 3 else np.ones(len(body))
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN distance, which the constructor rejects
        dist = np.sqrt(sum((x[:, None] - x[None, :]) ** 2 for x in xy.T))
    return QuasiMetricCloud(dist, mass)


def row_loop_edge_distances(reader):
    """Per row the places of its two ids in order of first appearance and
    its distance, in packed arrays; the pair checks as array operations."""
    index, ends, given = {}, array("q"), array("d")
    for r in reader:
        if len(r) < 3:
            given = None  # a short row
            break
        ends.append(index.setdefault(int(r[0]), len(index)))
        ends.append(index.setdefault(int(r[1]), len(index)))
        given.append(float(r[2]))
    if not given:
        raise ValueError("a cloud CSV needs data rows of 3 fields under its header")
    ids, n = list(index), len(index)
    sht._check_cloud_size(n)
    ends, given = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2), np.frombuffer(given)
    rank = np.empty(n, dtype=int)  # first-appearance place -> place among the sorted ids
    rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
    i, j = np.sort(rank[ends], axis=1).T
    dist = np.zeros((n, n))
    dist[i, j] = given
    kept = dist[i, j]
    clash = np.flatnonzero((kept != given) & ~(np.isnan(kept) & np.isnan(given)))
    if clash.size:
        a, b = (ids[k] for k in ends[clash[0]])
        raise ValueError(f"cloud CSV gives the pair {a},{b} two different distances")
    dist[j, i] = given
    return dist


def read_outcome(read, path):
    """(distance bytes, mass bytes) of the cloud read, or (error type, message)."""
    try:
        cloud = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return cloud.dist.tobytes(), cloud.mass.tobytes()


EDGES = "id_i,id_j,distance\n"
BIG_IDS = [-10 ** 12, -3, 10 ** 12 - 1, 10 ** 12 + 7]
READER_LAYOUTS = {
    "points": "id,x,y\n0,0.1,0.2\n1,0.7,0.4\n2,0.3,0.9\n",
    "points-mass": "id,x,y,mass\n2,0.3,0.9,0.5\n0,0.1,0.2,2.0\n1,0.7,0.4,1e-3\n",
    "points-spaces": " ID , X , Y , Mass \n 0 , 0.1 , 0.2 , 2.0 \n1,  0.7,0.4  ,  1.5\n",
    "points-quoted": '"id","x","y"\n"0","0.1","0.2"\n"1",0.7,"0.4"\n',
    "points-extra-columns": "id,x,y,mass,label\n0,0.1,0.2,2.0,7\n1,0.7,0.4,1.5,8,9\n",
    "points-extra-fields": "id,x,y\n0,0.1,0.2,5\n1,0.7,0.4,x,y\n",
    "points-crlf": "id,x,y,mass\r\n0,0.1,0.2,3\r\n1,0.7,0.4,4\r\n",
    "points-ids-negative-and-large": "id,x,y\n" + "".join(
        f"{k},0.{k % 7 + 1},0.{k % 5 + 2}\n" for k in BIG_IDS[::-1]),
    "points-duplicate-ids": "id,x,y\n1,0.1,0.2\n0,0.7,0.4\n1,0.3,0.9\n0,0.5,0.5\n",
    "points-float-spellings": "id,x,y,mass\n0,1e-3,.5,5.\n1,+0.25,-0.0,1E2\n"
                              "2,0.1000000000000000055511151231257827,4.9e-324,2.5e-3\n"
                              "3,-1.5e-7,0.30000000000000004,7\n",
    "points-equal": "id,x,y\n0,0.5,0.5\n1,0.25,0.75\n2,0.5,0.5\n",
    "points-nan": "id,x,y\n0,nan,0.5\n1,0.25,0.75\n",
    "points-infinite": "id,x,y\n0,-Infinity,0.5\n1,0.25,inf\n",
    "points-huge": "id,x,y\n0,1e400,0.5\n1,0.25,0.75\n",
    "points-subnormal-mass": "id,x,y,mass\n0,0,0,1e-320\n1,0.3,0,1e-320\n",
    "points-zero-mass": "id,x,y,mass\n0,0,0,0\n1,0.3,0,1\n",
    "points-header-only": "id,x,y\n",
    "points-header-only-crlf": "id,x,y,mass\r\n",
    "points-short-row": "id,x,y\n0,0.1,0.2\n1,0.7\n",
    "points-non-integer-id": "id,x,y\n0,0.1,0.2\n1.5,0.7,0.4\n",
    "points-blank-lines": "id,x,y\n\n0,0.1,0.2\n\n1,0.7,0.4\n\n",
    "points-underscore-digits": "id,x,y\n0,0.1,0.2\n1,0.7,0_4\n",
    "points-id-beyond-int64": "id,x,y\n0,0.1,0.2\n9223372036854775808,0.7,0.4\n",
    "empty": "",
    "unknown-header": "a,b,c\n0,1,2\n",
    "edges": EDGES + "0,1,1.0\n0,2,3.0\n1,2,1.0\n",
    "edges-spaces": " Id_I , ID_J , distance \n 0 , 1 , 1.0 \n0,  2,3.0  \n  1,2,1.0\n",
    "edges-quoted": '"id_i","id_j","distance"\n"0","1","1.0"\n0,"2",3.0\n"1",2,"1.0"\n',
    "edges-extra-columns": "id_i,id_j,distance,weight\n0,1,1.0,9\n0,2,3.0,9,9\n1,2,1.0,x\n",
    "edges-crlf": EDGES.replace("\n", "\r\n") + "0,1,1.0\r\n0,2,3.0\r\n1,2,1.0\r\n",
    "edges-reversed-and-repeated": EDGES + "1,0,1.0\n0,2,3.0\n2,1,1.0\n0,1,1.0\n2,0,3.0\n",
    "edges-ids-negative-and-large": EDGES + "".join(
        f"{a},{b},{1 + (k * 7 % 5) / 8}\n" for k, (a, b) in enumerate(
            (BIG_IDS[p], BIG_IDS[q]) for p in range(4) for q in range(4) if p > q)),
    "edges-float-spellings": EDGES + "0,1,1e0\n0,2,.75\n0,3,2.\n1,2,+1.25\n1,3,1.0000000000000000000000001\n"
                                     "2,3,1.2345678901234567890123456\n",
    "edges-subnormal": EDGES + "0,1,4.9e-324\n1,2,4.9e-324\n0,2,9.9e-324\n",
    "edges-clash": EDGES + "0,1,1.0\n0,2,3.0\n2,1,1.0\n2,0,2.5\n1,2,1.0\n",
    "edges-clash-ids-reversed": EDGES + "-5,7,1.0\n1000000000003,-5,2.0\n7,1000000000003,1.5\n-5,1000000000003,2.5\n",
    "edges-nan-twice": EDGES + "0,1,nan\n1,0,nan\n0,2,1\n1,2,1\n",
    "edges-nan-then-number": EDGES + "0,1,nan\n1,0,1.0\n0,2,1\n1,2,1\n",
    "edges-missing-pair": EDGES + "0,1,1.0\n1,2,1.0\n",
    "edges-self-edge": EDGES + "0,1,1.0\n1,2,1.0\n0,2,2.0\n0,0,1.0\n",
    "edges-negative": EDGES + "0,1,1.0\n1,2,-1.0\n0,2,2.0\n",
    "edges-infinite": EDGES + "0,1,1.0\n1,2,1e400\n0,2,2.0\n",
    "edges-header-only": EDGES,
    "edges-short-row": EDGES + "0,1,1.0\n1,2\n",
    "edges-non-integer-id": EDGES + "0,1,1.0\n1.5,2,1.0\n",
    "edges-blank-lines": EDGES + "\n0,1,1.0\n\n0,2,3.0\n1,2,1.0\n\n",
    "edges-underscore-digits": EDGES + "0,1,1.0\n0,2,1_0\n1,2,1.0\n",
    "edges-id-beyond-int64": EDGES + "0,1,1.0\n0,9223372036854775808,3.0\n1,9223372036854775808,1.0\n",
}
LOADS = None
NEED3 = "a cloud CSV needs data rows of 3 fields under its header"
READER_CHANGES = {  # layout: the row loops' outcome and the array reader's, LOADS or a ValueError message's start
    # (a row that does not parse is named by its file line, the header being line 1)
    "points-short-row": (NEED3, NEED3 + ": line 3: invalid column index 2"),
    "points-non-integer-id": ("invalid literal for int()", NEED3 + ": line 3: could not convert string '1.5' to int64"),
    "points-blank-lines": (NEED3, LOADS),
    "points-underscore-digits": (LOADS, NEED3 + ": line 3: could not convert string '0_4' to float64"),
    "points-id-beyond-int64": (LOADS, NEED3 + ": line 3: could not convert string '9223372036854775808' to int64"),
    "edges-short-row": (NEED3, NEED3 + ": line 3: invalid column index 2"),
    "edges-non-integer-id": ("invalid literal for int()", NEED3 + ": line 3: could not convert string '1.5' to int64"),
    "edges-blank-lines": (NEED3, LOADS),
    "edges-underscore-digits": (LOADS, NEED3 + ": line 3: could not convert string '1_0' to float64"),
    "edges-id-beyond-int64": (LOADS, NEED3 + ": line 3: could not convert string '9223372036854775808' to int64"),
}


@pytest.mark.parametrize("name", READER_LAYOUTS)
def test_array_reader_matches_the_row_loops(tmp_path, name):
    # the same distances and masses bit for bit, or the same error and message, except the
    # documented changes: blank lines skipped, and ids outside int64 or digits with `_` rejected
    path = tmp_path / "cloud.csv"
    path.write_bytes(READER_LAYOUTS[name].encode())  # CRLF kept as written
    new, old = read_outcome(QuasiMetricCloud.from_csv, path), read_outcome(row_loop_cloud, path)
    if name not in READER_CHANGES:
        assert new == old
        return
    for got, want in zip((old, new), READER_CHANGES[name]):
        assert isinstance(got[0], bytes) if want is LOADS else got[0] is ValueError and got[1].startswith(want)
    if READER_CHANGES[name][1] is LOADS:  # the rows without their blank lines
        path.write_text("".join(line for line in READER_LAYOUTS[name].splitlines(True) if line.strip()))
        assert new == read_outcome(row_loop_cloud, path)


DOUBLE_FORMS = ("{!r}", "{:.17g}", "{:.25g}", "{:.25e}", "{:.24f}")


def double_strings(rng, size, low, high):
    """Random doubles of random sign and exponent in [low, high) in the
    DOUBLE_FORMS: shortest reprs, 17- and 25-digit forms and fixed point
    (of values over 1e-5, so that none reads as zero)."""
    form = rng.integers(0, len(DOUBLE_FORMS), size)
    values = rng.choice([-1.0, 1.0], size) * rng.random(size) * 10.0 ** rng.integers(np.where(form < 4, low, -5), high)
    return [DOUBLE_FORMS[k].format(float(v)) for k, v in zip(form, values)]


def test_array_reader_parses_every_double_as_python_float_does(tmp_path):
    # subnormals, the largest exponents, overflow to inf, underflow to zero, nan and inf spellings
    special = ["nan", "-nan", "nAn", "inf", "-inf", "+Infinity", "-Infinity", "1e400", "-1e400", "4.9e-324",
               "2.4e-324", "1e-400", "-0.0", "0", "2.2250738585072014e-308", "1.7976931348623157e308"]
    text = special + double_strings(np.random.default_rng(27), 20000, -325, 309)
    path = tmp_path / "values.csv"
    path.write_text("".join(f"{k},{-k},{t}\n" for k, t in enumerate(text)))
    with open(path) as fh:
        rows = sht._read_rows(fh, ("i", "j", "d"), 2)
    assert rows["d"].tobytes() == np.array([float(t) for t in text]).tobytes()
    assert np.array_equal(rows["j"], -np.arange(len(text)))


@pytest.mark.parametrize("kind", ["points", "edges"])
def test_array_reader_matches_the_row_loops_on_random_clouds(tmp_path, kind):
    # exponents within 1e+-100, so that no squared difference and no ratio of the scan leaves the doubles
    rng, n = np.random.default_rng(28), 60
    path = tmp_path / "cloud.csv"
    if kind == "points":
        coords, mass = double_strings(rng, 2 * n, -100, 100), [s.lstrip("-") for s in double_strings(rng, n, -100, 100)]
        path.write_text("id,x,y,mass\n" + "".join(f"{k},{coords[2 * k]},{coords[2 * k + 1]},{mass[k]}\n"
                                                  for k in rng.permutation(n)))
    else:
        a, b = np.triu_indices(n, k=1)
        swap = rng.random(a.size) < 0.5
        text = [s.lstrip("-") for s in double_strings(rng, a.size, -100, 100)]
        path.write_text(EDGES + "".join(f"{p},{q},{t}\n" for p, q, t in zip(np.where(swap, b, a), np.where(swap, a, b), text)))
    new = read_outcome(QuasiMetricCloud.from_csv, path)
    assert isinstance(new[0], bytes) and new == read_outcome(row_loop_cloud, path)


def test_cloud_csv_points(tmp_path):
    path = tmp_path / "pts.csv"
    with open(path, "w") as fh:
        fh.write("id,x,y,mass\n")
        fh.write("1,0.5,0.5,2.0\n0,0.0,0.0,1.0\n")
    cloud = QuasiMetricCloud.from_csv(str(path))
    assert cloud.n == 2
    np.testing.assert_allclose(cloud.mass, [1.0, 2.0])
    assert cloud.dist[0, 1] == pytest.approx(np.hypot(0.5, 0.5))


def test_five_point_nonopen_ball_fixture():
    # finite analogue of the classical non-open-ball pathology: the
    # quasi-triangle constant exceeds 1 and the cube machinery still works
    cloud = five_point_cloud()
    rep = cloud.validate()
    assert rep["quasi_triangle_constant"] > 1.0
    assert rep["A0_ok"]
    system = build_cube_system(cloud, 0.5, k_max=8)
    v = system.verify()
    assert v["partition_ok"] and v["nested_ok"]
