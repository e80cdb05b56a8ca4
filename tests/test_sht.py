"""Hytonen-Kairema cubes and Haar bases on finite quasi-metric clouds."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from dyadlab.grid import standard_grid
from dyadlab.sht import (
    QuasiMetricCloud,
    assign_cubes,
    build_cube_system,
    build_nets,
    build_sht_haar,
    gram_matrix,
    lattice_cloud,
    sht_expand,
    sht_projection,
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


def reference_projection(f, functions, system, level, cube):
    mu = system.cloud.mass
    out = np.zeros(system.cloud.n)
    for lv, cb, vals in functions:
        if (lv, cb) == (level, cube):
            out += float(np.sum(f * vals * mu)) * vals
    return out


@pytest.mark.parametrize("name", ORACLE_CLOUDS)
def test_haar_array_and_its_operations_match_the_per_function_loops(name):
    system = build_cube_system(ORACLE_CLOUDS[name](), 0.5, k_max=8 if name == "five-point" else None)
    basis = build_sht_haar(system)
    expected = reference_haar(system)
    assert basis.functions.shape == (len(expected), system.cloud.n)
    assert basis.level.tolist() == [lv for lv, _, _ in expected]
    assert basis.cube.tolist() == [cb for _, cb, _ in expected]
    for row, (_, _, vals) in zip(basis.functions, expected):
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
    # every cube with functions, and a finest-level cube, which has none
    cubes = {(lv, cb) for lv, cb, _ in expected} | {(system.n_levels - 1, 0)}
    for level, cube in sorted(cubes):
        np.testing.assert_allclose(
            sht_projection(f, basis, level, cube),
            reference_projection(f, expected, system, level, cube),
            rtol=0, atol=1e-12,
        )


def test_two_equal_children_reproduce_classical_shape():
    cloud = lattice_cloud(8, metric="dyadic")
    basis = build_sht_haar(build_cube_system(cloud, 0.5))
    top = basis.functions[basis.level == 0][0]
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
    for values, level, cube in zip(basis.functions, basis.level, basis.cube):
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
    G = gram_matrix(basis)
    np.testing.assert_allclose(G, np.eye(len(basis.functions)), atol=1e-10)


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
    rng = np.random.default_rng(4)
    f = rng.standard_normal(cloud.n)
    mu = cloud.mass
    done = 0
    for level in range(system.n_levels - 1):
        for cube in range(len(system.centers[level])):
            kids = system.children(level, cube)
            if kids.size < 2:
                continue
            proj = sht_projection(f, basis, level, cube)
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
