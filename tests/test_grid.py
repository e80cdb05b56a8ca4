"""Grid construction, addressing, the one-third trick, and random grids."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.errors import OutOfWindowError
from dyadlab.grid import (
    MAX_GENERATION,
    GridParameters,
    covering_interval,
    sample_random_grid,
    standard_grid,
    third_grid,
)


def shift_sum_oracle(grid: GridParameters, j: int) -> Fraction:
    """x_j recomputed directly from the definition, independent of the cached numerators."""
    total = Fraction(0)
    for i in range(j + 1, grid.j_max + 1):
        total += Fraction(grid.bit(i)) / Fraction(2) ** i
    return total


def test_standard_grid_endpoints():
    g = standard_grid(-4, 10)
    assert g.interval(1, 0).endpoints() == (0.0, 0.5)
    assert g.interval(0, -1).endpoints() == (-1.0, 0.0)
    assert g.interval(3, 5).endpoints() == (5 / 8, 6 / 8)


def test_shifted_grid_endpoint_from_shift_sum():
    # beta_1 = 1, all other bits 0: x_0 = 1/2, so generation-0 k=0 is [0.5, 1.5)
    beta = tuple(1 if j == 1 else 0 for j in range(-2, 11))
    g = GridParameters(1.0, -2, 10, beta)
    iv = g.interval(0, 0)
    assert iv.endpoints() == (0.5, 1.5)
    for j in range(-2, 11):
        assert g.shift(j) == shift_sum_oracle(g, j)
    # a window below generation 0 has 2^{j_max} < 1 as its common denominator
    g = sample_random_grid(3, -12, -5)
    for j in range(-13, -4):
        assert g.shift(j) == shift_sum_oracle(g, j)
    assert g.interval(-5, 7).unscaled_left() == 7 * 32 + g.shift(-5)


def suffix_sum_numerators(grid: GridParameters) -> dict[int, int]:
    """n_j with x_j = n_j / 2^{j_max} for j_min-1 <= j <= j_max, from the
    recurrence n_{j-1} = n_j + beta_j 2^{j_max - j} down from n_{j_max} = 0."""
    nums = {grid.j_max: 0}
    for j in range(grid.j_max, grid.j_min - 1, -1):
        nums[j - 1] = nums[j] + grid.beta[j - grid.j_min] * (1 << (grid.j_max - j))
    return nums


@pytest.mark.parametrize(
    "j_min, j_max",
    [(-12, -5), (3, 17), (-1, 0), (4, 5), (-3, 40), (-MAX_GENERATION, MAX_GENERATION)],
    ids=["below-0", "above-0", "width-1-at-0", "width-1", "straddling-0", "widest"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shift_numerators_match_the_suffix_sum_recurrence(seed, j_min, j_max):
    g = sample_random_grid(seed, j_min, j_max)
    for j, n in suffix_sum_numerators(g).items():
        assert g.shift_numerator(j) == n, j
    for j in (j_min - 2, j_max + 1):
        with pytest.raises(OutOfWindowError):
            g.shift_numerator(j)


@pytest.mark.parametrize(
    "j_min, j_max",
    [(-MAX_GENERATION - 1, 0), (0, MAX_GENERATION + 1), (-2000, 2), (5, 5), (6, 5)],
    ids=["below", "above", "far-below", "empty", "reversed"],
)
def test_window_outside_the_normal_doubles_or_empty_is_rejected(j_min, j_max):
    width = max(j_max - j_min + 1, 0)
    for build in (
        lambda: GridParameters(1.0, j_min, j_max, (0,) * width),
        lambda: standard_grid(j_min, j_max),
        lambda: third_grid(1, j_min, j_max),
        lambda: sample_random_grid(0, j_min, j_max),
    ):
        with pytest.raises(ValueError):
            build()


def test_generation_out_of_window():
    g = standard_grid(0, 6)
    with pytest.raises(OutOfWindowError):
        g.interval(7, 0)
    with pytest.raises(OutOfWindowError):
        g.interval(0, 0).parent()
    with pytest.raises(OutOfWindowError):
        g.interval(6, 0).children()


def test_children_partition_parent():
    g = standard_grid(-2, 8)
    iv = g.interval(1, 0)  # [0, 0.5)
    l, r = iv.children()
    assert l.endpoints() == (0.0, 0.25)
    assert r.endpoints() == (0.25, 0.5)
    assert l.parent() == iv and r.parent() == iv


def test_parent_children_consistency_on_random_shifted_grid():
    rng = np.random.default_rng(7)
    beta = tuple(int(b) for b in rng.integers(0, 2, size=13))
    g = GridParameters(1.0, -2, 10, beta)
    for _ in range(100):
        j = int(rng.integers(g.j_min + 1, g.j_max))
        k = int(rng.integers(-50, 50))
        iv = g.interval(j, k)
        l, r = iv.children()
        # children endpoints recomputed both ways
        assert l.unscaled_left() == iv.unscaled_left()
        assert r.unscaled_right() == iv.unscaled_right()
        assert l.unscaled_right() == r.unscaled_left()
        assert l.parent() == iv and r.parent() == iv


def test_locate_tower_and_brute_force():
    g = standard_grid(0, 10)
    assert g.locate(0.3, 2).endpoints() == (0.25, 0.5)
    tower = [g.locate(0.3, j) for j in range(0, 11)]
    for big, small in zip(tower, tower[1:]):
        assert big.unscaled_left() <= small.unscaled_left() and small.unscaled_right() <= big.unscaled_right()
    # brute-force scan on the 1/3-shifted grid D^1
    g1 = third_grid(1, 0, 10)
    for x in [0.01, 0.3, 0.77, 0.5, -0.2]:
        for j in [0, 3, 7]:
            iv = g1.locate(x, j)
            assert iv.contains(x)
            hits = [k for k in range(iv.k - 3, iv.k + 4) if g1.interval(j, k).contains(x)]
            assert hits == [iv.k]


def test_third_grids_offsets():
    # i=0 recovers the standard grid
    g0 = third_grid(0, 0, 20)
    assert g0.beta == standard_grid(0, 20).beta
    # window depth 20: generation-0 offset of D^1 within 2^-20 of 1/3,
    # and of D^2 within 2^-20 of 2/3
    g1 = third_grid(1, 0, 20)
    g2 = third_grid(2, 0, 20)
    assert abs(g1.interval(0, 0).left - 1.0 / 3.0) <= 2.0 ** -20
    assert abs(g2.interval(0, 0).left - 2.0 / 3.0) <= 2.0 ** -20


def test_covering_interval_examples():
    i, J = covering_interval(0.4, 0.6)
    assert i == 0
    assert J.endpoints() == (0.0, 1.0)
    a, b = 0.0, 2.0 ** -5
    i, J = covering_interval(a, b)
    assert J.contains_range(a, b)
    assert 3 * (b - a) <= J.length <= 6 * (b - a)


def test_covering_interval_exists_in_two_grids():
    rng = np.random.default_rng(41)
    grids = None
    for _ in range(1000):
        a = float(rng.uniform(-2, 2))
        d = float(2.0 ** rng.uniform(-8, -1))
        b = a + d
        j_hi = math.floor(math.log2(1.0 / (3.0 * d))) + 1
        grids = [third_grid(i, j_hi - 3, j_hi + 24) for i in range(3)]
        found = set()
        for i, g in enumerate(grids):
            for j in range(g.j_min, j_hi + 1):
                length = g.generation_length(j)
                if not 3 * d <= length <= 6 * d:
                    continue
                if g.locate(a, j).contains_range(a, b):
                    found.add(i)
        assert len(found) >= 2, (a, b, found)


def test_partition_property():
    for g in [standard_grid(-1, 6), third_grid(1, -1, 6), sample_random_grid(5, -1, 6)]:
        for j in range(g.j_min, g.j_max + 1):
            ivs = [g.interval(j, k) for k in range(-5, 6)]
            for a, b in zip(ivs, ivs[1:]):
                assert a.unscaled_right() == b.unscaled_left()


@settings(max_examples=200, deadline=None)
@given(
    j1=st.integers(0, 8),
    k1=st.integers(-40, 40),
    j2=st.integers(0, 8),
    k2=st.integers(-40, 40),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_nestedness_property(j1, k1, j2, k2, seed):
    g = sample_random_grid(seed, -1, 9)
    a, b = g.interval(j1, k1), g.interval(j2, k2)
    disjoint = a.unscaled_right() <= b.unscaled_left() or b.unscaled_right() <= a.unscaled_left()
    a_in_b = b.unscaled_left() <= a.unscaled_left() and a.unscaled_right() <= b.unscaled_right()
    b_in_a = a.unscaled_left() <= b.unscaled_left() and b.unscaled_right() <= a.unscaled_right()
    if a == b:
        assert a_in_b and b_in_a and not disjoint
    else:
        assert sum([disjoint, a_in_b, b_in_a]) == 1


def test_random_grid_determinism_and_laws():
    g1 = sample_random_grid(123, -3, 12)
    g2 = sample_random_grid(123, -3, 12)
    assert g1 == g2
    rng = np.random.default_rng(2024)
    betas = []
    logs = []
    for _ in range(10 ** 4):
        g = sample_random_grid(rng, 0, 4)
        betas.extend(g.beta)
        logs.append(math.log(g.r))
    assert abs(np.mean(betas) - 0.5) <= 0.02
    # E[ln r] against the quadrature oracle for the density 1/(r ln 2) on [1,2)
    ts = np.linspace(1.0, 2.0, 20001)
    dens = 1.0 / (ts * math.log(2.0))
    expected = np.trapezoid(np.log(ts) * dens, ts)
    assert abs(np.mean(logs) - expected) <= 0.01
    assert abs(expected - math.log(2.0) / 2.0) <= 1e-6


def test_grid_json_roundtrip():
    g = sample_random_grid(9, -2, 7)
    g2 = GridParameters.from_json(g.to_json())
    assert g == g2
