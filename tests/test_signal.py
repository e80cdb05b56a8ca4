"""Step functions and the fast Haar transform."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dyadlab.errors import MeshMismatchError, ResolutionError
from dyadlab.grid import standard_grid, sample_random_grid
from dyadlab.signal import (
    HaarSpectrum,
    Mesh,
    StepFunction,
    _Primitive,
    analyze,
    average,
    haar_function,
    inner,
    lp_norm,
    means_pyramid,
    synthesize,
)


def unit_mesh(depth=6):
    g = standard_grid(-2, depth + 2)
    return Mesh(g.interval(0, 0), depth)


def analyze_direct(f: StepFunction) -> HaarSpectrum:
    """O(N^2) analysis by direct inner products."""
    mesh = f.mesh
    levels = [
        np.array([inner(f, haar_function(mesh, (level, p))) for p in range(1 << level)])
        for level in range(mesh.depth)
    ]
    return HaarSpectrum(mesh, average(f, (0, 0)), levels)


def random_function(mesh, rng):
    return StepFunction(mesh, rng.standard_normal(mesh.n_cells))


def test_average_and_norm_trivial():
    mesh = unit_mesh(4)
    f = StepFunction(mesh, np.full(16, 3.25))
    for level in range(5):
        for pos in range(1 << level):
            assert average(f, (level, pos)) == 3.25
    one = StepFunction(mesh, np.ones(16))
    assert lp_norm(one, 2) == pytest.approx(math.sqrt(mesh.root.length), abs=1e-15)


def test_weighted_norm_matches_cell_sum_oracle():
    mesh = unit_mesh(6)
    rng = np.random.default_rng(0)
    f = random_function(mesh, rng)
    w = StepFunction(mesh, rng.uniform(0.5, 2.0, mesh.n_cells))
    direct = np.sum(f.values ** 2 * w.values * mesh.cell_length)
    assert lp_norm(f, 2, w) ** 2 == pytest.approx(direct, rel=1e-14)


def test_haar_function_spectrum_is_delta():
    mesh = unit_mesh(8)
    f = haar_function(mesh, (0, 0))
    s = analyze(f)
    assert s.mean == pytest.approx(0.0, abs=1e-14)
    assert s.levels[0][0] == pytest.approx(1.0, rel=1e-14)
    assert sum(np.abs(a).sum() for a in s.levels[1:]) == pytest.approx(0.0, abs=1e-12)


def test_constant_has_zero_coefficients():
    mesh = unit_mesh(7)
    s = analyze(StepFunction(mesh, np.ones(mesh.n_cells)))
    assert s.mean == pytest.approx(1.0)
    assert all(np.allclose(a, 0.0, atol=1e-15) for a in s.levels)


def test_analyze_matches_direct_oracle():
    mesh = unit_mesh(5)
    rng = np.random.default_rng(3)
    f = random_function(mesh, rng)
    fast = analyze(f)
    slow = analyze_direct(f)
    assert fast.mean == pytest.approx(slow.mean, rel=1e-12)
    for a, b in zip(fast.levels, slow.levels):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_roundtrip_and_parseval_depth12():
    g = standard_grid(-2, 14)
    mesh = Mesh(g.interval(0, 0), 12)
    rng = np.random.default_rng(11)
    for _ in range(100):
        f = random_function(mesh, rng)
        s = analyze(f)
        back = synthesize(s)
        sup = np.max(np.abs(back.values - f.values))
        assert sup <= 1e-12 * np.max(np.abs(f.values))
        lhs = lp_norm(f, 2) ** 2
        rhs = mesh.root.length * s.mean ** 2 + s.energy()
        assert abs(lhs - rhs) <= 1e-10 * lhs


def test_orthonormal_gram_bruteforce():
    mesh = unit_mesh(5)
    hs = [
        haar_function(mesh, (level, pos))
        for level in range(mesh.depth)
        for pos in range(1 << level)
    ]
    gram = np.array([[inner(a, b) for b in hs] for a in hs])
    np.testing.assert_allclose(gram, np.eye(len(hs)), atol=1e-10)


def test_telescoping_partial_sums():
    # sum_{I strictly above cell level, I contains J} <f,h_I> h_I(x) + mean = <f>_J
    mesh = unit_mesh(6)
    rng = np.random.default_rng(5)
    f = random_function(mesh, rng)
    s = analyze(f)
    means = means_pyramid(f)
    for level in [1, 3, 6]:
        for pos in [0, (1 << level) - 1, (1 << level) // 2]:
            x_cell = pos << (mesh.depth - level)
            total = s.mean
            for l in range(level):
                p = pos >> (level - l)
                hval = haar_function(mesh, (l, p)).values[x_cell]
                total += s.levels[l][p] * hval
            assert total == pytest.approx(means[level][pos], rel=1e-11, abs=1e-12)


def test_mesh_on_random_grid():
    g = sample_random_grid(17, -3, 12)
    mesh = Mesh(g.interval(-1, 0), 8)
    rng = np.random.default_rng(1)
    f = random_function(mesh, rng)
    back = synthesize(analyze(f))
    np.testing.assert_allclose(back.values, f.values, atol=1e-12)
    edges = mesh.cell_edges()
    assert edges[0] == pytest.approx(mesh.root.left)
    assert edges[-1] == pytest.approx(mesh.root.right)
    assert np.allclose(np.diff(edges), mesh.cell_length)


def bit_walk_first_index(mesh: Mesh, level: int) -> int:
    """The leftmost level-`level` descendant of the root, one shift bit per
    generation: the walk that the closed form of `Mesh.first_index` replaced."""
    k = mesh.root.k
    for j in range(mesh.root.j + 1, mesh.root.j + level + 1):
        k = 2 * k + mesh.grid.bit(j)
    return k


def test_first_index_matches_the_bit_walk_on_random_grids():
    rng = np.random.default_rng(240)
    for case in range(3000):
        j_min = int(rng.integers(-12, 6))
        j_max = j_min + int(rng.integers(2, 40))
        grid = sample_random_grid(rng, j_min, j_max)
        j_root = int(rng.integers(j_min, j_max))
        mesh = Mesh(grid.interval(j_root, int(rng.integers(-1000, 1000))), int(rng.integers(1, j_max - j_root + 1)))
        for level in range(mesh.depth + 1):
            assert mesh.first_index(level) == bit_walk_first_index(mesh, level), (case, level)
            leftmost = grid.interval(mesh.root.j + level, mesh.first_index(level))
            assert leftmost._unscaled_left_numerator() == mesh.root._unscaled_left_numerator()


def test_resolution_and_mismatch_errors():
    mesh = unit_mesh(4)
    f = StepFunction(mesh, np.ones(16))
    with pytest.raises(ResolutionError):
        average(f, (5, 0))
    with pytest.raises(ResolutionError):
        haar_function(mesh, (4, 0))
    other = StepFunction(unit_mesh(5), np.ones(32))
    with pytest.raises(MeshMismatchError):
        inner(f, other)


def test_csv_roundtrip(tmp_path):
    mesh = unit_mesh(4)
    rng = np.random.default_rng(8)
    f = random_function(mesh, rng)
    p, m = tmp_path / "sig.csv", tmp_path / "sig.json"
    f.to_csv(p, m)
    g = StepFunction.from_csv(p, m)
    np.testing.assert_array_equal(g.values, f.values)
    assert g.mesh.depth == mesh.depth
    assert g.mesh.root.left == mesh.root.left


def test_from_csv_on_custom_grid(tmp_path):
    from dyadlab.grid import GridParameters

    beta = tuple(1 if j == 1 else 0 for j in range(-2, 11))
    grid = GridParameters(1.0, -2, 10, beta)  # generation-0 k=0 is [0.5, 1.5)
    mesh = Mesh(grid.interval(0, 0), 4)
    rng = np.random.default_rng(2)
    f = StepFunction(mesh, rng.standard_normal(16))
    sig, meta = tmp_path / "s.csv", tmp_path / "s.json"
    f.to_csv(sig, meta)
    g = StepFunction.from_csv(sig, meta, grid=grid)
    np.testing.assert_array_equal(g.values, f.values)
    assert g.mesh.root == mesh.root


def test_primitive_slots_are_the_binary_search_of_the_edges():
    # the uniform-edge estimate, corrected against the edges, is
    # searchsorted(edges, x, "right") at every point: the edges themselves,
    # their neighbours one double either way, and points up to three root
    # lengths outside the mesh, on grids with r != 1 and roots far from 0
    rng = np.random.default_rng(25)
    for depth in range(1, 21):
        grid = sample_random_grid(rng, -4, depth + 6)
        mesh = Mesh(grid.interval(int(rng.integers(-3, 3)), int(rng.integers(-10 ** 6, 10 ** 6))), depth)
        assert grid.r != 1.0
        f = random_function(mesh, rng)
        edges = mesh.cell_edges()
        length = mesh.root.length
        outside = rng.uniform(mesh.root.left - 3 * length, mesh.root.right + 3 * length, 1000)
        far = np.array([mesh.root.left - 3 * length, mesh.root.right + 3 * length])
        xs = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), outside, far])
        np.testing.assert_array_equal(_Primitive(f).slots(xs), np.searchsorted(edges, xs, "right"), err_msg=f"depth {depth}")


def dictreader_cells(path, n_cells):
    """The signal CSV's cell values as `csv.DictReader` reads them: the parse
    loop that column positions replaced."""
    import csv

    vals = np.zeros(n_cells)
    given = np.zeros(n_cells, dtype=bool)
    with open(path) as fh:
        reader = csv.DictReader(fh, restval="nan")
        if not {"cell_index", "value"} <= set(reader.fieldnames or ()):
            raise ValueError("signal CSV needs a cell_index and a value column")
        for row in reader:
            i, v = int(row["cell_index"]), float(row["value"])
            if not (0 <= i < n_cells and math.isfinite(v)):
                raise ValueError(f"row {i},{v}: need cell_index in [0, {n_cells}) and a finite value")
            if given[i] and vals[i] != v:
                raise ValueError(f"signal CSV gives cell {i} two different values")
            vals[i], given[i] = v, True
    return vals


CSV_PARITY = {
    "plain": "cell_index,value\n0,1.5\n1,-2\n2,3e-3\n3,4\n",
    "duplicate header": "cell_index,value,value\n0,1,9\n1,2,8\n2,3,7\n3,4,6\n",
    "duplicate header, short row": "value,cell_index,value\n1,0,5\n2,1\n",
    "blank line": "cell_index,value\n\n0,1\n\n1,2\n2,3\n\n3,4\n\n",
    "blank first line": "\ncell_index,value\n0,1\n",
    "extra column": "cell_index,value,note\n0,1,a\n1,2,b,c,d\n2,3\n3,4,\n",
    "swapped column order": "value,cell_index\n1,0\n2,1\n3,2\n4,3\n",
    "quoted field": 'cell_index,"value"\n"0","1.25"\n1,"2,5"\n',
    "quoted number": 'cell_index,value\n"0", 1.25\n"1","-0.5"\n',
    "short row": "cell_index,value\n0,1\n1\n2,3\n",
    "short row without an index": "value,cell_index\n1,0\n2\n",
    "missing column": "cell_index,val\n0,1\n",
    "empty file": "",
    "repeated cell": "cell_index,value\n0,1\n0,1\n1,2\n0,3\n",
}


@pytest.mark.parametrize("case", sorted(CSV_PARITY))
def test_from_csv_reads_as_dictreader_does(tmp_path, case):
    # same values, or the same error with the same message, on every layout
    sig, meta = tmp_path / "s.csv", tmp_path / "s.json"
    sig.write_text(CSV_PARITY[case])
    meta.write_text('{"root_left": 0.0, "root_right": 1.0, "depth": 2}')
    try:
        want = dictreader_cells(sig, 4)
    except ValueError as err:
        with pytest.raises(type(err)) as got:
            StepFunction.from_csv(sig, meta)
        assert str(got.value) == str(err)
    else:
        np.testing.assert_array_equal(StepFunction.from_csv(sig, meta).values, want)
