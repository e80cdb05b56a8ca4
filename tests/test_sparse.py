"""Sparse families: packing constants, certificates, operators, domination."""

from __future__ import annotations

import json

import numpy as np
import pytest

from dyadlab.errors import CalibrationError, InfeasibleError, ResolutionError
from dyadlab.grid import standard_grid
from dyadlab.operators import SignSymbol
from dyadlab.signal import Mesh, StepFunction, inner
from dyadlab.sparse import (
    SparseFamily,
    _maximal_intervals,
    carleson_constant,
    construct_certificates,
    lacey_dominate,
    lor_oscillation_check,
    sparse_operator,
    verify_sparse,
)


def unit_mesh(depth=6):
    g = standard_grid(-2, depth + 2)
    return Mesh(g.interval(0, 0), depth)


def carleson_oracle(family: SparseFamily) -> float:
    """Exhaustive double loop over (Q, P in S with P subset Q)."""
    mesh = family.mesh
    best = 0.0
    for lq in range(mesh.depth + 1):
        for pq in range(1 << lq):
            total = 0.0
            for lp, pp in family.members:
                if lp >= lq and (pp >> (lp - lq)) == pq:
                    total += mesh.level_length(lp)
            best = max(best, total / mesh.level_length(lq))
    return best


def random_family(mesh, rng, density=0.25) -> SparseFamily:
    members = []
    for level in range(mesh.depth + 1):
        for pos in range(1 << level):
            if rng.random() < density:
                members.append((level, pos))
    if not members:
        members = [(0, 0)]
    return SparseFamily(mesh, members)


def test_carleson_constant_examples():
    mesh = unit_mesh(6)
    assert carleson_constant(SparseFamily(mesh, [(0, 0)])) == 1.0
    fam = SparseFamily(mesh, [(0, 0), (1, 0), (1, 1)])
    assert carleson_constant(fam) == 2.0
    # all intervals of levels 0..J: constant J+1, telescoping per level
    for J in [4, 6, 8]:
        mesh = unit_mesh(J)
        members = [(l, p) for l in range(J + 1) for p in range(1 << l)]
        fam = SparseFamily(mesh, members)
        assert carleson_constant(fam) == J + 1
        assert carleson_oracle(fam) == J + 1


def test_carleson_constant_matches_oracle_exactly():
    rng = np.random.default_rng(3)
    for depth in [4, 6, 8]:
        mesh = unit_mesh(depth)
        for _ in range(10):
            fam = random_family(mesh, rng)
            assert carleson_constant(fam) == carleson_oracle(fam)


def test_construct_certificates_examples():
    mesh = unit_mesh(6)
    fam = construct_certificates(SparseFamily(mesh, [(0, 0)]), 1.0)
    assert fam.certificates[(0, 0)].all()
    assert fam.eta == 1.0
    fam3 = construct_certificates(SparseFamily(mesh, [(0, 0), (1, 0), (1, 1)]), 2.0)
    ok, report = verify_sparse(fam3)
    assert ok, report
    assert fam3.eta == pytest.approx(0.5)


def test_construct_certificates_at_exact_constant_200_random():
    rng = np.random.default_rng(7)
    count = 0
    while count < 200:
        depth = int(rng.integers(4, 9))
        mesh = unit_mesh(depth)
        fam = random_family(mesh, rng, density=float(rng.uniform(0.05, 0.5)))
        lam = carleson_constant(fam)
        # members thinner than Lambda cells are the documented error regime
        finest = max(l for l, _ in fam.members)
        if (1 << (depth - finest)) < lam:
            with pytest.raises((ResolutionError, InfeasibleError)):
                construct_certificates(fam, lam)
            continue
        certified = construct_certificates(fam, lam)
        ok, report = verify_sparse(certified)
        assert ok, report
        # cell-resolution slack: at most one cell relative to each member
        assert certified.eta >= 1.0 / lam - 2.0 ** -(depth - finest)
        count += 1


def test_construct_certificates_infeasible_lambda():
    # constant 2 family, Lambda = 1.2 below it: the root runs out of mass
    mesh = unit_mesh(5)
    fam = SparseFamily(mesh, [(0, 0), (1, 0), (1, 1)])
    with pytest.raises(InfeasibleError):
        construct_certificates(fam, 1.2)
    # a member thinner than Lambda cells is a resolution error
    deep = SparseFamily(mesh, [(0, 0), (5, 3)])
    with pytest.raises(ResolutionError):
        construct_certificates(deep, 2.0)


def test_verify_sparse_detects_tampering():
    mesh = unit_mesh(5)
    fam = construct_certificates(SparseFamily(mesh, [(0, 0), (1, 0), (1, 1)]), 2.0)
    ok, _ = verify_sparse(fam)
    assert ok
    # give a cell of (1, 0) to the root: (1, 0) drops below eta|Q|
    light = fam.owner.copy()
    light[np.flatnonzero(light == 1)[0]] = 0
    ok, report = verify_sparse(SparseFamily(mesh, fam.members, light, fam.eta))
    assert not ok
    assert ("mass below eta|Q|", (1, 0)) in report["violations"]
    # give a cell of (1, 1) to (1, 0), which does not contain it
    astray = fam.owner.copy()
    astray[np.flatnonzero(astray == 2)[0]] = 1
    ok, report = verify_sparse(SparseFamily(mesh, fam.members, astray, fam.eta))
    assert not ok
    assert ("E_Q not inside Q", (1, 0)) in report["violations"]


@pytest.mark.parametrize(
    "runs",
    [[[0, 20]], [[24, 40]], [[-1, 2]], [[6, 3]]],
    ids=["overlap", "past-the-end", "negative", "reversed"],
)
def test_from_json_rejects_overlapping_or_off_mesh_runs(runs):
    # overlaps can only come from a file: the owner array cannot hold them
    mesh = unit_mesh(5)
    fam = construct_certificates(SparseFamily(mesh, [(0, 0), (1, 0), (1, 1)]), 2.0)
    d = json.loads(fam.to_json())
    d["members"][2]["certificate_cells"] = runs
    with pytest.raises(ValueError):
        SparseFamily.from_json(mesh, json.dumps(d))


def test_verify_disjoint_family_full_certificates():
    mesh = unit_mesh(4)
    owner = np.r_[np.zeros(4, int), np.full(8, -1), np.ones(4, int)]
    fam = SparseFamily(mesh, [(2, 0), (2, 3)], owner, eta=1.0)
    ok, _ = verify_sparse(fam)
    assert ok


def test_duality_certified_eta_bounds_packing():
    # easy direction of the equivalence: eta-certified => constant <= 1/eta
    rng = np.random.default_rng(13)
    for _ in range(30):
        mesh = unit_mesh(6)
        fam = random_family(mesh, rng, density=0.2)
        lam = carleson_constant(fam)
        finest = max(l for l, _ in fam.members)
        if (1 << (mesh.depth - finest)) < lam:
            continue
        certified = construct_certificates(fam, lam)
        assert carleson_constant(certified) <= 1.0 / certified.eta + 1e-9


def test_sparse_operator_basics():
    mesh = unit_mesh(6)
    rng = np.random.default_rng(1)
    f = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
    root_only = SparseFamily(mesh, [(0, 0)])
    out = sparse_operator(root_only, f)
    np.testing.assert_allclose(out.values, f.values.mean())
    fam = random_family(mesh, rng)
    g = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
    a, b = 2.0, -0.7
    comb = StepFunction(mesh, a * f.values + b * g.values)
    np.testing.assert_allclose(
        sparse_operator(fam, comb).values,
        a * sparse_operator(fam, f).values + b * sparse_operator(fam, g).values,
        atol=1e-12,
    )
    pos = StepFunction(mesh, np.abs(f.values))
    assert np.all(sparse_operator(fam, pos).values >= 0.0)
    # self-adjointness
    assert inner(sparse_operator(fam, f), g) == pytest.approx(
        inner(f, sparse_operator(fam, g)), rel=1e-12, abs=1e-12
    )


def test_lacey_indicator_needs_only_root():
    mesh = unit_mesh(8)
    f = StepFunction(mesh, np.ones(mesh.n_cells))
    sigma = SignSymbol.random(mesh, np.random.default_rng(0))
    fam, c0 = lacey_dominate(f, sigma)
    assert fam.members == [(0, 0)]
    assert c0 == 4.0


def test_lacey_haar_function():
    mesh = unit_mesh(8)
    from dyadlab.signal import haar_function

    f = haar_function(mesh, (0, 0))
    rng = np.random.default_rng(5)
    sigma = SignSymbol.random(mesh, rng)
    fam, c0 = lacey_dominate(f, sigma)
    ok, report = verify_sparse(fam)
    assert ok, report
    assert fam.eta >= 0.5


def test_lacey_random_functions_depth10():
    g = standard_grid(-2, 14)
    mesh = Mesh(g.interval(0, 0), 10)
    rng = np.random.default_rng(101)
    for _ in range(10):
        f = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
        sigma = SignSymbol.random(mesh, rng)
        fam, c0 = lacey_dominate(f, sigma)
        assert c0 <= 2.0 ** 16
        ok, report = verify_sparse(fam)
        assert ok
        assert fam.eta >= 0.5


def test_lacey_localized_top():
    mesh = unit_mesh(8)
    rng = np.random.default_rng(3)
    f = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
    sigma = SignSymbol.random(mesh, rng)
    fam, c0 = lacey_dominate(f, sigma, top=(2, 1))
    for level, pos in fam.members:
        assert level >= 2 and (pos >> (level - 2)) == 1


def test_lacey_rejects_zero_mass():
    mesh = unit_mesh(6)
    sigma = SignSymbol.constant(mesh)
    with pytest.raises(ValueError):
        lacey_dominate(StepFunction(mesh, np.zeros(mesh.n_cells)), sigma)


def test_lacey_too_small_c0_raises():
    mesh = unit_mesh(8)
    rng = np.random.default_rng(9)
    f = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
    sigma = SignSymbol.random(mesh, rng)
    with pytest.raises(CalibrationError):
        lacey_dominate(f, sigma, C0=0.125)


def test_family_json_roundtrip():
    mesh = unit_mesh(5)
    fam = construct_certificates(SparseFamily(mesh, [(0, 0), (2, 1), (3, 7)]), 3.0)
    back = SparseFamily.from_json(mesh, fam.to_json())
    assert back.members == fam.members
    assert back.eta == fam.eta
    for key in fam.certificates:
        np.testing.assert_array_equal(back.certificates[key], fam.certificates[key])


# -- the owner array against the per-member loops it replaced ---------------------


def maximal_intervals_oracle(mesh, level, pos, stopping):
    """Recursive descent: keep an interval fully inside the set, split one
    that is partly inside."""
    out = []

    def recurse(l, p, lo, hi):
        if not stopping[lo:hi].any():
            return
        if stopping[lo:hi].all():
            out.append((l, p))
            return
        mid = (lo + hi) // 2
        recurse(l + 1, 2 * p, lo, mid)
        recurse(l + 1, 2 * p + 1, mid, hi)

    recurse(level, pos, 0, 1 << (mesh.depth - level))
    return out


def rle_oracle(mask):
    """Cell runs [start, stop) of a mask, grown one cell at a time."""
    runs = []
    for i in np.flatnonzero(mask):
        if runs and runs[-1][1] == i:
            runs[-1][1] = int(i) + 1
        else:
            runs.append([int(i), int(i) + 1])
    return runs


def blocky_mask(rng, n):
    """A union of random dyadic blocks, or iid cells: both kinds of stopping set."""
    if rng.random() < 0.3:
        return rng.random(n) < rng.uniform(0.0, 1.0)
    mask = np.zeros(n, dtype=bool)
    for _ in range(int(rng.integers(0, 6))):
        width = 1 << int(rng.integers(0, n.bit_length()))
        start = width * int(rng.integers(0, n // width))
        mask[start : start + width] = True
    return mask


def test_maximal_intervals_match_recursion():
    rng = np.random.default_rng(61)
    for depth in range(1, 11):
        mesh = unit_mesh(depth)
        for _ in range(30):
            level = int(rng.integers(0, depth + 1))
            pos = int(rng.integers(0, 1 << level))
            stopping = blocky_mask(rng, 1 << (depth - level))
            got = _maximal_intervals(mesh, level, pos, stopping)
            assert got == maximal_intervals_oracle(mesh, level, pos, stopping)
        for stopping in (np.ones(1 << depth, bool), np.zeros(1 << depth, bool)):
            assert _maximal_intervals(mesh, 0, 0, stopping) == maximal_intervals_oracle(mesh, 0, 0, stopping)


def random_owner(rng, mesh, n_members):
    """Each cell owned by a random member or free, in runs of random length;
    some members own nothing."""
    owners = np.arange(-1, n_members)[rng.random(n_members + 1) < 0.7]
    if owners.size == 0:
        owners = np.array([-1])
    owner = np.empty(mesh.n_cells, dtype=np.int64)
    pos = 0
    while pos < mesh.n_cells:
        run = int(rng.integers(1, 9))
        owner[pos : pos + run] = rng.choice(owners)
        pos += run
    return owner


def test_to_json_runs_match_per_member_encoding():
    rng = np.random.default_rng(62)
    for depth in (1, 3, 6, 9):
        mesh = unit_mesh(depth)
        for _ in range(20):
            fam = random_family(mesh, rng, density=float(rng.uniform(0.05, 0.5)))
            fam.owner = random_owner(rng, mesh, len(fam.members))
            rows = json.loads(fam.to_json())["members"]
            for i, row in enumerate(rows):
                assert row["certificate_cells"] == rle_oracle(fam.owner == i)
            back = SparseFamily.from_json(mesh, fam.to_json())
            np.testing.assert_array_equal(back.owner, fam.owner)
            assert back.members == fam.members
    # no certificates: no certificate_cells keys, and none read back
    fam = random_family(unit_mesh(4), rng)
    assert all("certificate_cells" not in row for row in json.loads(fam.to_json())["members"])
    assert SparseFamily.from_json(fam.mesh, fam.to_json()).owner is None


def test_lor_oscillation_probe():
    mesh = unit_mesh(6)
    rng = np.random.default_rng(12)
    const = StepFunction(mesh, np.full(mesh.n_cells, 2.0))
    fam = SparseFamily(mesh, [(0, 0), (1, 0), (2, 3)])
    report = lor_oscillation_check(fam, const)
    assert report["all_met"]
    assert all(v["ratio"] == 0.0 for v in report["per_member"].values())
    # b = Haar on Q with S = {Q, Q_l, Q_r}: both sides computable directly
    from dyadlab.signal import haar_function

    b = haar_function(mesh, (0, 0))
    fam2 = SparseFamily(mesh, [(0, 0), (1, 0), (1, 1)])
    report2 = lor_oscillation_check(fam2, b)
    assert report2["per_member"][(0, 0)]["ratio"] <= 8.0 + 1e-9
    # random symbols on random families at depth <= 8, greedy augmentation
    for depth in [6, 8]:
        mesh = unit_mesh(depth)
        for _ in range(50):
            fam = random_family(mesh, rng, density=0.1)
            b = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
            rep = lor_oscillation_check(fam, b)
            for q, row in rep["per_member"].items():
                assert row["met"] or row["ratio"] > 8.0  # either met or honestly reported


def test_sparse_operator_a2_witness():
    # linear weighted bound for the tower family across the power sweep
    from dyadlab.experiments import sweep_mesh, tower_family
    from dyadlab.operators import named_operator, operator_norm_weighted
    from dyadlab.weights import ap_characteristic, power_weight

    mesh = sweep_mesh(10)
    fam = tower_family(mesh)
    op = named_operator("sparse", mesh, family=fam)
    for alpha in (0.5, 1.0, 1.5, 2.0):
        w = power_weight(mesh, alpha)
        ratio = operator_norm_weighted(op, w, tol=1e-7) / ap_characteristic(w, 2.0)
        assert ratio <= 8.0


def test_lacey_sparse_support_function():
    # mostly-zero f exercises the zero-mass recursion branch: selected
    # stopping intervals with no remaining mass are dropped, and the
    # pointwise verification still gates the result
    mesh = unit_mesh(8)
    rng = np.random.default_rng(23)
    for _ in range(5):
        vals = np.zeros(mesh.n_cells)
        idx = rng.choice(mesh.n_cells, size=6, replace=False)
        vals[idx] = rng.standard_normal(6)
        f = StepFunction(mesh, vals)
        sigma = SignSymbol.random(mesh, rng)
        fam, c0 = lacey_dominate(f, sigma)
        ok, report = verify_sparse(fam)
        assert ok, report
        from dyadlab.operators import martingale_transform

        lhs = np.abs(martingale_transform(f, sigma).values)
        rhs = c0 * sparse_operator(fam, StepFunction(mesh, np.abs(vals))).values
        assert np.all(lhs <= rhs + 1e-12)
