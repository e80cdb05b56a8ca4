"""The tree primitives (pyramid, broadcast, Haar partial sums) against
brute-force loops, and every operator handle against its declared adjoint."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dyadlab.experiments import sweep_mesh, tower_family, weak_type_witness
from dyadlab.operators import (
    LinearOperator,
    ShiftCoefficients,
    SignSymbol,
    _running_peak,
    dense_matrix,
    haar_shift,
    maximal_dyadic,
    mean_oscillation,
    named_operator,
    oscillations,
)
from dyadlab.signal import (
    HaarSpectrum,
    StepFunction,
    analyze,
    broadcast,
    haar_refine,
    haar_steps,
    lp_norm,
    means_pyramid,
    partial_sums,
    pyramid,
    synthesize,
)
from dyadlab.sparse import SparseFamily, sparse_operator
from dyadlab.weights import Weight


def ancestor(cell, depth, level):
    return cell >> (depth - level)


@pytest.mark.parametrize("reduce", [np.mean, np.min])
@pytest.mark.parametrize("depth", [1, 2, 5, 9])
def test_pyramid_matches_reduce_over_each_interval(reduce, depth):
    # small integers keep every sum and every dyadic mean exact
    rng = np.random.default_rng(depth)
    values = rng.integers(-50, 50, 1 << depth).astype(float)
    levels = pyramid(values, reduce)
    assert len(levels) == depth + 1
    for level in range(depth + 1):
        expected = [
            reduce(values[[i for i in range(values.size) if ancestor(i, depth, level) == pos]])
            for pos in range(1 << level)
        ]
        assert levels[level].tolist() == expected
    assert levels[depth] is not values


@pytest.mark.parametrize("combine", [np.add, np.maximum])
@pytest.mark.parametrize("depth", [1, 3, 8])
def test_broadcast_matches_combine_over_each_cells_ancestors(combine, depth):
    rng = np.random.default_rng(10 + depth)
    levels = [rng.standard_normal(1 << l) for l in range(depth + 1)]
    for finest in range(depth + 1):
        got = broadcast(levels[: finest + 1], combine)
        assert got.shape == (1 << finest,)
        for cell in range(1 << finest):
            acc = levels[0][0]
            for level in range(1, finest + 1):
                acc = combine(acc, levels[level][ancestor(cell, finest, level)])
            assert got[cell] == acc


def test_partial_sums_telescope_to_the_means():
    mesh = sweep_mesh(7)
    f = StepFunction(mesh, np.random.default_rng(3).standard_normal(mesh.n_cells))
    s = analyze(f)
    sums = list(partial_sums(np.array([s.mean]), haar_steps(mesh, s.levels)))
    means = means_pyramid(f)
    assert len(sums) == mesh.depth
    for level, partial in enumerate(sums):
        np.testing.assert_allclose(partial, means[level + 1], rtol=1e-12, atol=1e-12)


# -- the strided kernels against the reshape/repeat forms they replaced ---------
#
# These are the kernels as they were written before the even/odd slices: each
# reduction over a length-2 axis of `reshape(-1, 2)`, each expansion through
# `np.repeat`.  The strided kernels must reproduce them bit for bit, the sign
# of zero included.


def reference_pyramid(values, reduce):
    out = [np.array(values, dtype=float)]
    while out[-1].size > 1:
        out.append(reduce(out[-1].reshape(-1, 2), axis=1))
    out.reverse()
    return out


def reference_broadcast(levels, combine):
    cur = levels[0]
    for level in levels[1:]:
        cur = combine(np.repeat(cur, 2), level)
    return cur


def reference_analyze(f):
    mesh = f.mesh
    levels = [None] * mesh.depth
    cur = f.values
    for level in range(mesh.depth - 1, -1, -1):
        pairs = cur.reshape(-1, 2)
        scale = 0.5 * math.sqrt(mesh.level_length(level))
        levels[level] = (pairs[:, 1] - pairs[:, 0]) * scale
        cur = pairs.mean(axis=1)
    return HaarSpectrum(mesh, float(cur[0]), levels)


def reference_partial_sums(s):
    cur = np.array([s.mean])
    for level, coeffs in enumerate(s.levels):
        amp = 1.0 / math.sqrt(s.mesh.level_length(level))
        cur = np.repeat(cur, 2)
        cur[0::2] -= coeffs * amp
        cur[1::2] += coeffs * amp
        yield cur


def assert_bits_equal(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def wide_range_values(depth):
    """N(0,1) exp(5 N(0,1)): magnitudes over many decades, and about 3 % signed
    zeros, pairs of -0.0 among them, whose sums and means depend on how the
    reduction starts."""
    rng = np.random.default_rng(1000 + depth)
    n = 1 << depth
    values = rng.standard_normal(n) * np.exp(5.0 * rng.standard_normal(n))
    zeros = rng.random(n) < 0.03
    values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
    values[: min(n, 4)] = -0.0
    return values


DEPTHS_1_16 = range(1, 17)


@pytest.mark.parametrize("depth", DEPTHS_1_16)
def test_pyramid_matches_the_reshape_reduction(depth):
    values = wide_range_values(depth)
    stopping = values > 0.5  # a boolean mask, as the stopping-time rules pass
    for reduce in (np.mean, np.min):
        for data in (values, stopping):
            got, want = pyramid(data, reduce), reference_pyramid(data, reduce)
            assert len(got) == len(want) == depth + 1
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert_bits_equal(a, b)


@pytest.mark.parametrize("depth", DEPTHS_1_16)
def test_broadcast_matches_the_repeat_expansion(depth):
    levels = reference_pyramid(wide_range_values(depth), np.mean)
    for combine in (np.add, np.maximum):
        for finest in {0, 1, depth // 2, depth}:
            got = broadcast(levels[: finest + 1], combine)
            assert_bits_equal(got, reference_broadcast(levels[: finest + 1], combine))


@pytest.mark.parametrize("depth", [1, 2, 5, 9, 12])
def test_batched_kernels_match_the_row_by_row_calls(depth):
    # a (2, 3, N) batch: every row of pyramid, broadcast, haar_refine,
    # partial_sums and the sharp truncation's kernel is bit for bit the 1-D
    # call on that row; an empty batch keeps its shape
    rng = np.random.default_rng(2000 + depth)
    batch = np.stack([wide_range_values(depth)] + [rng.standard_normal(1 << depth) for _ in range(5)]).reshape(2, 3, -1)
    rows = list(np.ndindex(batch.shape[:-1]))
    for data in (batch, batch > 0.5):
        for reduce in (np.mean, np.min):
            got = pyramid(data, reduce)
            for row in rows:
                for a, b in zip(got, pyramid(data[row], reduce), strict=True):
                    assert a.dtype == b.dtype
                    assert_bits_equal(a[row], b)
    levels = pyramid(batch, np.mean)
    for combine in (np.add, np.maximum):
        for finest in {0, 1, depth // 2, depth}:
            got = broadcast(levels[: finest + 1], combine)
            assert_bits_equal(got, broadcast(iter(levels[: finest + 1]), combine))  # a generator, folded as it comes
            for row in rows:
                assert_bits_equal(got[row], broadcast([a[row] for a in levels[: finest + 1]], combine))
    for cur, step in zip(levels[:-1], (rng.standard_normal(a.shape) for a in levels[:-1])):
        got = haar_refine(cur, step)
        for row in rows:
            assert_bits_equal(got[row], haar_refine(cur[row], step[row]))
    # Haar steps of the batch's own sibling differences carry its signed zeros
    steps = list(haar_steps(sweep_mesh(depth), [a[..., 1::2] - a[..., 0::2] for a in levels[1:]]))
    for start in (levels[0], np.zeros_like(levels[0])):
        got = list(partial_sums(start, steps))
        peak = _running_peak(start, steps)
        for row in rows:
            row_steps = [a[row] for a in steps]
            for a, b in zip(got, partial_sums(start[row], row_steps), strict=True):
                assert_bits_equal(a[row], b)
            assert_bits_equal(peak[row], _running_peak(start[row], row_steps))
    empty = pyramid(np.zeros((0, 1 << depth)), np.mean)
    assert [a.shape for a in empty] == [(0, 1 << l) for l in range(depth + 1)]
    assert broadcast(empty, np.add).shape == (0, 1 << depth)


@pytest.mark.parametrize("depth", DEPTHS_1_16)
def test_analyze_and_synthesize_match_the_reshape_transform(depth):
    f = StepFunction(sweep_mesh(depth), wide_range_values(depth))
    got, want = analyze(f), reference_analyze(f)
    assert np.signbit(got.mean) == np.signbit(want.mean) and got.mean == want.mean
    for a, b in zip(got.levels, want.levels, strict=True):
        assert_bits_equal(a, b)
    got = partial_sums(np.array([want.mean]), haar_steps(want.mesh, want.levels))
    for a, b in zip(got, reference_partial_sums(want), strict=True):
        assert_bits_equal(a, b)
    assert_bits_equal(synthesize(want).values, b)


HANDLES = ["martingale", "sha", "shift(1,2)", "paraproduct", "paraproduct_adj", "commutator_sha", "sparse"]


@pytest.mark.parametrize("name", HANDLES)
@pytest.mark.parametrize("depth", range(1, 11))
def test_handle_adjoint_dot_test(name, depth):
    """<T f, g> = <f, T* g> on plain L^2 for every named handle."""
    mesh = sweep_mesh(depth)
    if name == "shift(1,2)" and depth < 2:
        with pytest.raises(ValueError):
            named_operator(name, mesh)
        return
    rng = np.random.default_rng(100 * depth + HANDLES.index(name))
    b = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
    op = named_operator(
        name, mesh, sigma=SignSymbol.random(mesh, rng), b=b, family=tower_family(mesh)
    )
    f, g = rng.standard_normal(mesh.n_cells), rng.standard_normal(mesh.n_cells)
    tf, tg = op.apply(f), op.adjoint(g)
    lhs, rhs = float(np.dot(tf, g)), float(np.dot(f, tg))
    scale = np.linalg.norm(tf) * np.linalg.norm(g) + np.linalg.norm(f) * np.linalg.norm(tg)
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)


RULE_CASES = [(src, tgt, sym) for src in ("haar", "means") for tgt in ("haar", "means") for sym in (False, True)]


@pytest.mark.parametrize("case", [*RULE_CASES, "sqrt_w"])
@pytest.mark.parametrize("depth", range(1, 11))
def test_adjoint_rule_on_every_source_target_pair(case, depth):
    """The transposed operator is the plain-L^2 adjoint for random per-level
    D on each (source, target) pair, with and without a symbol, and for the
    multiplier by sqrt(<w>_I) that square_norm_weighted iterates."""
    mesh = sweep_mesh(depth)
    rng = np.random.default_rng(depth)
    if case == "sqrt_w":
        w = StepFunction(mesh, np.exp(rng.uniform(-2, 2, mesh.n_cells)))
        op = LinearOperator(mesh, "haar", [np.sqrt(m) for m in means_pyramid(w)], "haar")
    else:
        source, target, with_symbol = case
        coeffs = [rng.standard_normal(1 << l) for l in range(depth + 1)]
        symbol = rng.standard_normal(mesh.n_cells) if with_symbol else None
        op = LinearOperator(mesh, source, coeffs, target, symbol)
    f, g = rng.standard_normal(mesh.n_cells), rng.standard_normal(mesh.n_cells)
    tf, tg = op.apply(f), op.adjoint(g)
    lhs, rhs = float(np.dot(tf, g)), float(np.dot(f, tg))
    scale = np.linalg.norm(tf) * np.linalg.norm(g) + np.linalg.norm(f) * np.linalg.norm(tg)
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)
    if depth <= 6:
        mat = dense_matrix(op)
        np.testing.assert_allclose(dense_matrix(op.transposed), mat.T, rtol=0, atol=1e-13 * np.abs(mat).max())


def test_sha_on_a_depth_one_mesh_is_zero():
    mesh = sweep_mesh(1)
    f = StepFunction(mesh, [3.0, -1.0])
    assert not np.any(haar_shift(f, ShiftCoefficients.petermichl(mesh)).values)
    op = named_operator("sha", mesh)
    assert not np.any(op.apply(f.values)) and not np.any(op.adjoint(f.values))


def test_shift_complexity_equal_to_depth_has_no_tables():
    mesh = sweep_mesh(2)
    coeffs = ShiftCoefficients.random(mesh, 1, 2, np.random.default_rng(0))
    assert coeffs.tables == []
    f = StepFunction(mesh, [1.0, 4.0, -2.0, 0.5])
    assert not np.any(haar_shift(f, coeffs).values)
    with pytest.raises(ValueError):
        ShiftCoefficients.random(sweep_mesh(1), 1, 2, np.random.default_rng(0))


def test_oscillations_match_mean_oscillation():
    mesh = sweep_mesh(6)
    b = StepFunction(mesh, np.random.default_rng(4).standard_normal(mesh.n_cells))
    for level, sums in enumerate(oscillations(b)):
        cells = 1 << (mesh.depth - level)
        for pos in range(1 << level):
            assert sums[pos] / cells == mean_oscillation(b, (level, pos))


def test_weak_type_witness_matches_the_superlevel_loop():
    mesh = sweep_mesh(8)
    rng = np.random.default_rng(6)
    w = Weight(mesh, np.exp(rng.uniform(-2, 2, mesh.n_cells)))
    f = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
    g = maximal_dyadic(f).values
    order = np.argsort(g)
    tail = np.cumsum((w.values[order] * mesh.cell_length)[::-1])[::-1]
    best = 0.0
    for i in range(g.size):
        best = max(best, g[order][i] * (1 - 1e-12) * math.sqrt(tail[i]))
    assert weak_type_witness(w, f) == best / lp_norm(f, 2, w)


def test_sparse_operator_matches_the_member_loop():
    mesh = sweep_mesh(7)
    rng = np.random.default_rng(8)
    members = [(l, p) for l in range(mesh.depth + 1) for p in range(1 << l) if rng.random() < 0.2]
    family = SparseFamily(mesh, members)
    f = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
    expected = np.zeros(mesh.n_cells)
    for level, pos in sorted(members):
        sl = mesh.cell_slice(level, pos)
        expected[sl] += means_pyramid(f)[level][pos]
    assert np.array_equal(sparse_operator(family, f).values, expected)
