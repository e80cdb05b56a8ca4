"""Sparse families: packing constants, certificates, operators, domination."""

from __future__ import annotations

import collections
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from dyadlab.errors import CalibrationError, InfeasibleError, ResolutionError
from dyadlab.grid import standard_grid
from dyadlab.operators import (
    SignSymbol,
    martingale_transform,
    maximal_dyadic,
    oscillations,
    sharp_truncation,
    sparse_commutator,
    sparse_commutator_adjoint,
)
from dyadlab.signal import Mesh, StepFunction, broadcast, inner, pyramid
from dyadlab.sparse import (
    SparseFamily,
    _ancestor_sums,
    _maximal_intervals,
    _subtree,
    carleson_constant,
    construct_certificates,
    lacey_dominate,
    lor_enlargement,
    sparse_operator,
    verify_sparse,
)
from dyadlab.weights import CarlesonSequence


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


def test_empty_family_with_certificates_names_the_empty_family():
    # eta is a minimum over the members; numpy once failed here with
    # "zero-size array to reduction operation minimum"
    mesh = unit_mesh(4)
    with pytest.raises(ValueError, match="family is empty"):
        SparseFamily(mesh, [], np.full(mesh.n_cells, -1))
    with pytest.raises(ValueError, match="family is empty"):
        SparseFamily(mesh, [], np.full(mesh.n_cells, -1), eta=0.5).measured_eta()


@pytest.mark.parametrize(
    "owner, message",
    [
        (np.zeros(15, int), "shape"),
        (np.zeros((4, 4), int), "shape"),
        (np.zeros(16), "integer array"),
        (np.r_[np.full(15, -1), -2], r"\[-1, 2\)"),
        (np.r_[np.full(15, -1), 2], r"\[-1, 2\)"),
        (np.zeros(16, int), None),
    ],
    ids=["short", "two-dimensional", "float", "below -1", "past the members", "valid"],
)
def test_owner_shape_and_range_are_checked(owner, message):
    mesh = unit_mesh(4)
    if message is None:
        assert SparseFamily(mesh, [(0, 0), (1, 0)], owner).owner is owner
        return
    with pytest.raises(ValueError, match=message):
        SparseFamily(mesh, [(0, 0), (1, 0)], owner)


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


SYMBOLS = (
    lambda rng, n: rng.standard_normal(n),
    lambda rng, n: rng.standard_normal(n) ** 3,  # heavy tails push the ratio towards 8
    lambda rng, n: rng.standard_normal(n) * (rng.random(n) < 0.05),  # spikes: stopping sets near |Q|/4
)


def lor_stopping_oracle(mesh, b, q):
    """The cells of q where some dyadic P inside q, cells included, has
    <|b - <b>_q|>_P > 4 Omega(b;q): block means by reshape, widest first."""
    chunk = b.values[mesh.cell_slice(*q)]
    h = np.abs(chunk - chunk.mean())
    stop, width = np.zeros(h.size, bool), h.size
    while width:
        stop |= np.repeat(h.reshape(-1, width).mean(axis=1) > 4.0 * h.mean(), width)
        width //= 2
    return stop


def reference_lor_enlargement(mesh, b, members) -> set:
    """S with the trees of `lor_stopping_oracle` grown from its members."""
    out, todo = set(), list(members)
    while todo:
        q = todo.pop()
        if q not in out:
            out.add(q)
            todo += maximal_intervals_oracle(mesh, *q, lor_stopping_oracle(mesh, b, q))
    return out


def reference_lor_ratio(mesh, b, members) -> float:
    """The worst ratio of |b - <b>_Q| to sum_{R in S~, R in Q} Omega(b;R) 1_R
    over the members Q of S~, one member at a time."""
    omega = [np.zeros(1 << l) for l in range(mesh.depth + 1)]
    deviations = {}
    for level, pos in members:
        chunk = b.values[mesh.cell_slice(level, pos)]
        deviations[level, pos] = h = np.abs(chunk - chunk.mean())
        omega[level][pos] = pyramid(h, np.mean)[0][0]
    ratio = 0.0
    for (level, pos), h in deviations.items():
        rhs = broadcast(_subtree(omega, level, pos), np.add)
        ratio = max(ratio, float(np.max(np.divide(h, rhs, out=np.zeros_like(h), where=h > 0.0))))
    return ratio


def test_lor_oscillation_probe():
    mesh = unit_mesh(6)
    rng = np.random.default_rng(12)
    const = StepFunction(mesh, np.full(mesh.n_cells, 2.0))
    fam = SparseFamily(mesh, [(0, 0), (1, 0), (2, 3)])
    assert lor_enlargement(fam, const) == (fam, 0.0)
    # b = Haar on Q with S = {Q, Q_l, Q_r}: b is constant on the halves, so nothing is added
    from dyadlab.signal import haar_function

    fam2 = SparseFamily(mesh, [(0, 0), (1, 0), (1, 1)])
    assert lor_enlargement(fam2, haar_function(mesh, (0, 0))) == (fam2, 1.0)
    # random families and symbols: the bound 8 and the weak-(1,1) bound |Q|/4 hold by construction
    for depth in [6, 8]:
        mesh = unit_mesh(depth)
        for i in range(50):
            fam = random_family(mesh, rng, density=0.05)
            b = StepFunction(mesh, SYMBOLS[i % 3](rng, mesh.n_cells))
            enlarged, ratio = lor_enlargement(fam, b)
            assert ratio <= 8.0
            assert set(fam.members) <= set(enlarged.members)
            assert set(enlarged.members) == reference_lor_enlargement(mesh, b, fam.members)
            assert ratio == reference_lor_ratio(mesh, b, enlarged.members)
            for q in enlarged.members:
                assert 4 * int(lor_stopping_oracle(mesh, b, q).sum()) <= 1 << (depth - q[0])
            # the greedy probe, handed S~, finds every member within the bound and adds nothing
            greedy = reference_lor_probe(enlarged, b)
            assert greedy["added"] == 0 and greedy["all_met"]
            worst = max(row["ratio"] for row in greedy["per_member"].values())
            assert worst == pytest.approx(ratio, rel=1e-9, abs=1e-12)


def test_lor_enlargement_is_sparse():
    # b is constant on blocks of 8 cells and no member of S is shorter, so no
    # stopping interval is either: the certificates of S~ resolve on the mesh
    rng = np.random.default_rng(14)
    for depth in [8, 10]:
        mesh = unit_mesh(depth)
        for i in range(12):
            fam = SparseFamily(mesh, random_family(unit_mesh(depth - 3), rng, density=0.1).members)
            b = StepFunction(mesh, np.repeat(SYMBOLS[i % 3](rng, mesh.n_cells >> 3), 8))
            enlarged, ratio = lor_enlargement(fam, b)
            assert ratio <= 8.0
            ok, report = verify_sparse(construct_certificates(enlarged, carleson_constant(enlarged)))
            assert ok, report


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


# -- the stopping-time engine against the loops it replaced -------------------------


def reference_lacey_build(floc: StepFunction, sigma: SignSymbol, top, c0) -> SparseFamily:
    """Lacey's stopping time with one zero-padded copy of the mesh per member,
    on which the maximal function and the sharp truncation run in full."""
    mesh = floc.mesh
    members: list[tuple[int, int]] = []
    owner = np.full(mesh.n_cells, -1)
    stack = [top]
    while stack:
        level, pos = stack.pop()
        sl = mesh.cell_slice(level, pos)
        width = sl.stop - sl.start
        avg_abs = float(np.mean(np.abs(floc.values[sl])))
        if avg_abs == 0.0:
            continue  # nothing left to dominate below this interval
        local = np.zeros(mesh.n_cells)
        local[sl] = floc.values[sl]
        g = StepFunction(mesh, local)
        threshold = 0.5 * c0 * avg_abs
        m_vals = maximal_dyadic(g).values[sl]
        t_vals = sharp_truncation(g, sigma).values[sl]
        stopping = np.maximum(m_vals, t_vals) > threshold
        if int(stopping.sum()) * 2 > width:
            raise CalibrationError(
                f"stopping set exceeds half of ({level},{pos}) at C0={c0}"
            )
        owner[sl][~stopping] = len(members)
        members.append((level, pos))
        stack.extend(_maximal_intervals(mesh, level, pos, stopping))
    return SparseFamily(mesh, members, owner)


def reference_lacey_dominate(f, sigma, top=(0, 0), C0=None):
    """The C0 calibration of `lacey_dominate`, over `reference_lacey_build`."""
    mesh = f.mesh
    inside = np.zeros(mesh.n_cells, bool)
    inside[mesh.cell_slice(*top)] = True
    floc = StepFunction(mesh, np.where(inside, f.values, 0.0))
    lhs = np.where(inside, np.abs(martingale_transform(floc, sigma).values), 0.0)
    error = None
    for c0 in [C0] if C0 is not None else [4.0 * 2.0 ** k for k in range(15)]:
        try:
            family = reference_lacey_build(floc, sigma, top, c0)
        except CalibrationError as exc:
            error = exc
            continue
        if np.all(lhs <= c0 * sparse_operator(family, abs(floc)).values + 1e-12):
            return family, c0
        error = CalibrationError(f"pointwise domination failed at C0={c0}")
    raise error


def lacey_outcome(dominate, f, sigma, **kwargs):
    try:
        family, c0 = dominate(f, sigma, **kwargs)
    except CalibrationError as exc:
        return str(exc)
    return family.members, family.owner.tolist(), family.to_json(), c0


@pytest.mark.parametrize("depth, seeds", [(4, 9), (6, 9), (8, 6), (10, 3), (12, 1)])
def test_lacey_engine_matches_per_member_reference(depth, seeds):
    mesh = unit_mesh(depth)
    for seed in range(seeds):
        rng = np.random.default_rng([depth, seed])
        values = rng.standard_normal(mesh.n_cells)
        if seed % 3 == 1:  # zero on 90 % of the cells: subtrees without mass are skipped
            values[1:][rng.random(mesh.n_cells - 1) < 0.9] = 0.0
        if seed % 3 == 2:  # zero on the second and the last quarter
            values.reshape(4, -1)[1::2] = 0.0
        f, sigma = StepFunction(mesh, values), SignSymbol.random(mesh, rng)
        top = (0, 0) if seed % 2 == 0 else (1, 0)
        got = lacey_outcome(lacey_dominate, f, sigma, top=top)
        assert not isinstance(got, str)
        assert got == lacey_outcome(reference_lacey_dominate, f, sigma, top=top)
        low = lacey_outcome(lacey_dominate, f, sigma, top=top, C0=0.125)
        assert low.startswith("stopping set exceeds half of")  # the top itself
        assert low == lacey_outcome(reference_lacey_dominate, f, sigma, top=top, C0=0.125)
        got = lacey_outcome(lacey_dominate, f, sigma, top=top, C0=8.0)
        assert got == lacey_outcome(reference_lacey_dominate, f, sigma, top=top, C0=8.0)


@pytest.mark.parametrize("depth", [3, 6, 9, 11])
def test_lacey_engine_matches_reference_on_every_data_kind(depth):
    # Gaussian, lognormal, half-integer-rounded (ties among the means) and
    # 70 %-zero data, both tops, and C0 auto, 4 and 0.5 (which fails)
    mesh = unit_mesh(depth)
    rng = np.random.default_rng([depth, 70])
    gauss = rng.standard_normal(mesh.n_cells)
    sparse = rng.standard_normal(mesh.n_cells) * (rng.random(mesh.n_cells) >= 0.7)
    sparse[0] = 1.0
    kinds = [gauss, rng.lognormal(0.0, 2.0, mesh.n_cells), np.round(2.0 * gauss) / 2.0, sparse]
    for values in kinds:
        f, sigma = StepFunction(mesh, values), SignSymbol.random(mesh, rng)
        for top in [(0, 0), (1, 0)]:
            for c0 in [None, 4.0, 0.5]:
                got = lacey_outcome(lacey_dominate, f, sigma, top=top, C0=c0)
                assert got == lacey_outcome(reference_lacey_dominate, f, sigma, top=top, C0=c0)


def replayed_starts(floc: StepFunction, sigma: SignSymbol, level: int) -> np.ndarray:
    """The partial sum of the martingale transform of f 1_Q at each level-`level`
    interval Q, replayed along Q's ancestor path with the float operations of
    `analyze` and `partial_sums`: the per-member walk that `_ancestor_sums`
    replaced, with the members of one level along an array axis."""
    mesh = floc.mesh
    pos = np.arange(1 << level)
    mean, coeffs = pyramid(floc.values, np.mean)[level], []
    for l in range(level - 1, -1, -1):  # analysis up the path: sibling means are 0
        right = (pos >> (level - 1 - l) & 1).astype(bool)
        pair = (np.where(right, 0.0, mean), np.where(right, mean, 0.0))
        scale = 0.5 * math.sqrt(mesh.level_length(l))
        coeffs.append((pair[1] - pair[0]) * scale * sigma.levels[l][pos >> (level - l)])
        mean = (pair[0] + pair[1]) / 2
    total = np.zeros(pos.size)  # partial sums down the path, from the zero mean term
    for l, c in enumerate(reversed(coeffs)):
        right = (pos >> (level - 1 - l) & 1).astype(bool)
        amp = 1.0 / math.sqrt(mesh.level_length(l))
        total = np.where(right, total + c * amp, total - c * amp)
    return total


@pytest.mark.parametrize("depth", range(1, 17))
def test_ancestor_sums_are_exact(depth):
    mesh = unit_mesh(depth)
    sigma = SignSymbol.random(mesh, np.random.default_rng(depth))
    path = _ancestor_sums(sigma)
    assert [a.shape for a in path] == [(1 << l,) for l in range(depth + 1)]
    for level, got in enumerate(path):
        pos = np.arange(1 << level)
        # 2^level path_Q = sum over the ancestors I at levels l < level of sigma_I 2^l, an integer
        scaled = sum((sigma.levels[l][pos >> (level - l)].astype(np.int64) << l for l in range(level)), np.zeros_like(pos))
        np.testing.assert_array_equal(got * 2.0 ** level, scaled)
        if level <= 8:
            exact = [
                sum((Fraction(int(sigma.levels[l][p >> (level - l)]), 1 << (level - l)) for l in range(level)), Fraction(0))
                for p in range(1 << level)
            ]
            assert [Fraction(x) for x in got] == exact


@pytest.mark.parametrize("depth", range(1, 17))
def test_closed_form_start_is_within_four_ulp_of_the_replay(depth):
    mesh = unit_mesh(depth)
    rng = np.random.default_rng([depth, 4])
    f = StepFunction(mesh, rng.standard_normal(mesh.n_cells) * np.exp(3.0 * rng.standard_normal(mesh.n_cells)))
    sigma = SignSymbol.random(mesh, rng)
    means, path = pyramid(f.values, np.mean), _ancestor_sums(sigma)
    for level in range(depth + 1):
        gap = np.abs(means[level] * path[level] - replayed_starts(f, sigma, level))
        assert np.all(gap <= 4 * np.finfo(float).eps * np.abs(means[level])), level


@pytest.mark.parametrize("depth", [1, 4, 9, 13])
def test_packing_sequence_matches_the_entry_by_entry_build(depth):
    mesh = unit_mesh(depth)
    rng = np.random.default_rng(depth)
    for density in (0.0, 0.05, 0.5, 1.0):
        members = [(l, p) for l in range(depth + 1) for p in range(1 << l) if rng.random() < density]
        rng.shuffle(members)
        family = SparseFamily(mesh, members)
        want = CarlesonSequence.zeros(mesh)
        for level, pos in family.members:
            want.levels[level][pos] = mesh.level_length(level)
        got = family.packing_sequence()
        assert len(got.levels) == depth + 1
        for a, b in zip(got.levels, want.levels):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def reference_lor_probe(family: SparseFamily, b: StepFunction) -> dict:
    """The greedy oscillation probe: grow S by the descendant of largest mean
    oscillation through the worst cell until each member meets the factor 8,
    within 8 |S| + 128 additions per member."""
    mesh = family.mesh
    budget = 8 * len(family.members) + 128
    osc = [s / (1 << (mesh.depth - l)) for l, s in enumerate(oscillations(b))]
    enlarged = set(family.members)
    report = {"per_member": {}, "all_met": True, "added": 0}
    for q in family.members:
        added = 0
        while True:
            ratio, worst_cell = reference_osc_ratio(mesh, b, osc, enlarged, q)
            if ratio <= 8.0 + 1e-9 or added >= budget:
                break
            path = [(l, worst_cell >> (mesh.depth - l)) for l in range(q[0], mesh.depth + 1)]
            fresh = [key for key in path if key not in enlarged and osc[key[0]][key[1]] > 0.0]
            if not fresh:
                break
            enlarged.add(max(fresh, key=lambda key: osc[key[0]][key[1]]))
            added += 1
        report["added"] += added
        report["per_member"][q] = {"ratio": ratio, "met": bool(ratio <= 8.0 + 1e-9)}
        report["all_met"] = report["all_met"] and ratio <= 8.0 + 1e-9
    return report


def reference_osc_ratio(mesh, b, osc, family_set, q):
    """max over the cells of q of |b - <b>_q| / sum_{R in the set, R in q}
    Omega(b;R) 1_R, by a loop over the whole set, and the worst cell."""
    level, pos = q
    sl = mesh.cell_slice(level, pos)
    lhs = np.abs(b.values[sl] - b.values[sl].mean())
    rhs = np.zeros(sl.stop - sl.start)
    for (l, p) in family_set:
        if l < level or (p >> (l - level)) != pos:
            continue
        rsl = mesh.cell_slice(l, p)
        rhs[rsl.start - sl.start : rsl.stop - sl.start] += osc[l][p]
    ratios = np.where(lhs <= 1e-15, 0.0, lhs / np.where(rhs > 0, rhs, np.inf))
    worst = int(np.argmax(ratios))
    return float(ratios[worst]), sl.start + worst


# -- the level-at-a-time passes against the per-member loops they replaced ---------


def reference_commutators(family, b: StepFunction, f: StepFunction):
    """T_{S,b} f and T*_{S,b} f, one member at a time in member order."""
    mesh = b.mesh
    out, adj = np.zeros(mesh.n_cells), np.zeros(mesh.n_cells)
    absf = np.abs(f.values)
    for level, pos in family.members:
        sl = mesh.cell_slice(level, pos)
        dev = np.abs(b.values[sl] - b.values[sl].mean())
        out[sl] += dev * absf[sl].mean()
        adj[sl] += float(np.mean(dev * absf[sl]))
    return out, adj


@pytest.mark.parametrize("depth", range(4, 15))
def test_sparse_commutators_match_the_member_loop(depth):
    from dyadlab.experiments import sweep_mesh, tower_family

    rng = np.random.default_rng(depth)
    mesh = sweep_mesh(depth)
    f = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
    b = StepFunction(mesh, rng.standard_normal(mesh.n_cells) ** 3)
    lacey, _ = lacey_dominate(f, SignSymbol.random(mesh, rng))
    for fam in (lacey, tower_family(mesh)):
        out, adj = reference_commutators(fam, b, f)
        # both families list every member before the members inside it, so
        # each cell takes its terms coarsest first in either order: bit for bit
        assert np.array_equal(sparse_commutator(fam, b, f).values, out)
        assert np.array_equal(sparse_commutator_adjoint(fam, b, f).values, adj)
        shuffled = SparseFamily(mesh, [fam.members[i] for i in rng.permutation(len(fam.members))])
        np.testing.assert_allclose(sparse_commutator(shuffled, b, f).values, out, rtol=1e-15, atol=0)
        np.testing.assert_allclose(sparse_commutator_adjoint(shuffled, b, f).values, adj, rtol=1e-15, atol=0)


def reference_certificates(family: SparseFamily, lam: float) -> np.ndarray:
    """The owner array of construct_certificates, one member at a time: finest
    level first, in member order within a level."""
    mesh = family.mesh
    owner = np.full(mesh.n_cells, -1)
    for i in sorted(range(len(family.members)), key=lambda i: -family.members[i][0]):
        level, pos = family.members[i]
        target = int(math.floor((1 << (mesh.depth - level)) / lam + 1e-9))
        if target == 0:
            raise ResolutionError(f"|Q|/Lambda below one cell for member ({level},{pos}); refine the mesh")
        sl = mesh.cell_slice(level, pos)
        free = np.flatnonzero(owner[sl] < 0)
        if free.size < target:
            raise InfeasibleError(
                f"not enough free mass in ({level},{pos}); Lambda={lam} is below the Carleson constant of the family"
            )
        owner[free[:target] + sl.start] = i
    return owner


def test_construct_certificates_matches_the_member_loop():
    # shuffled random families at and around their constant: the same owners,
    # or the same error naming the same member
    rng = np.random.default_rng(29)
    outcomes = collections.Counter()
    for _ in range(300):
        depth = int(rng.integers(3, 10))
        finest = max(depth - int(rng.choice([0, 2, 3, 4])), 0)
        density = rng.uniform(0.02, 0.5)
        mesh = unit_mesh(depth)
        members = [(l, p) for l in range(finest + 1) for p in range(1 << l) if rng.random() < density]
        fam = SparseFamily(mesh, [members[i] for i in rng.permutation(len(members))] or [(0, 0)])
        lam = max(1.0, carleson_constant(fam) * float(rng.choice([0.6, 0.9, 1.0, 1.3])))
        try:
            expect = reference_certificates(fam, lam)
        except (ResolutionError, InfeasibleError) as exc:
            with pytest.raises(type(exc)) as got:
                construct_certificates(fam, lam)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            outcomes[type(exc).__name__] += 1
            continue
        assert np.array_equal(construct_certificates(fam, lam).owner, expect)
        outcomes["certified"] += 1
    assert set(outcomes) == {"certified", "ResolutionError", "InfeasibleError"}
    assert min(outcomes.values()) >= 30, outcomes
