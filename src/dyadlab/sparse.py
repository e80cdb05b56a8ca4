"""Sparse families of dyadic intervals, Carleson packing constants, certified
sparseness, sparse operators, and pointwise sparse domination of the
martingale transform.

Certificates are sets of mesh cells: the sets E_Q are disjoint, so one owner
array holds them all, the index of the member whose E_Q contains each cell,
or -1 for a free cell.  Disjointness holds by construction, and the mass and
containment checks are exact lattice computations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, InfeasibleError, ResolutionError
from .operators import (
    SignSymbol,
    martingale_transform,
    maximal_dyadic,
    oscillations,
    positive_dyadic_operator,
    sharp_truncation,
)
from .signal import Mesh, StepFunction, pyramid
from .weights import CarlesonSequence, carleson_intensity


@dataclass
class SparseFamily:
    """A finite set of mesh intervals with optional disjoint-set certificates.

    members are (level, pos) addresses; owner is the int array over the N
    cells holding the index in members of the member whose set E_Q contains
    the cell, or -1 for a free cell (None: no certificates); eta is the
    claimed sparseness, by default the measured one when owner is given.
    """

    mesh: Mesh
    members: list[tuple[int, int]]
    owner: np.ndarray | None = None
    eta: float | None = None

    def __post_init__(self):
        seen = set()
        for level, pos in self.members:
            if not (0 <= level <= self.mesh.depth and 0 <= pos < (1 << level)):
                raise ResolutionError(f"member ({level},{pos}) outside the mesh tree")
            if (level, pos) in seen:
                raise ValueError(f"duplicate member ({level},{pos})")
            seen.add((level, pos))
        if self.owner is not None and self.eta is None:
            self.eta = self.measured_eta()

    @property
    def certificates(self) -> dict[tuple[int, int], np.ndarray]:
        """Read-only view: each member's boolean cell mask of E_Q."""
        if self.owner is None:
            return {}
        return {m: self.owner == i for i, m in enumerate(self.members)}

    def _cell_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(cells of E_Q, cells of Q) per member, in member order."""
        levels = np.array([level for level, _ in self.members], dtype=np.int64)
        mass = np.bincount(self.owner[self.owner >= 0], minlength=len(self.members))
        return mass, np.left_shift(1, self.mesh.depth - levels)

    def measured_eta(self) -> float:
        if self.owner is None:
            raise ValueError("no certificates present")
        mass, width = self._cell_counts()
        return float(np.min(mass / width))

    def packing_sequence(self) -> CarlesonSequence:
        """lambda_Q = |Q| on the members, zero elsewhere."""
        return CarlesonSequence.from_entries(
            self.mesh, {m: self.mesh.level_length(m[0]) for m in self.members}
        )

    def to_json(self) -> str:
        """Members as absolute grid addresses {generation, index} plus
        run-length-encoded certificate cell ranges [start, stop)."""
        rows = [
            {"generation": self.mesh.root.j + level, "index": self.mesh.first_index(level) + pos}
            for level, pos in self.members
        ]
        if self.owner is not None:
            for row in rows:
                row["certificate_cells"] = []
            # a run is a maximal stretch of cells with one owner
            starts = np.r_[0, np.flatnonzero(np.diff(self.owner)) + 1]
            stops = np.r_[starts[1:], self.owner.size]
            for i, a, b in zip(self.owner[starts].tolist(), starts.tolist(), stops.tolist()):
                if i >= 0:
                    rows[i]["certificate_cells"].append([a, b])
        return json.dumps({"depth": self.mesh.depth, "eta": self.eta, "members": rows})

    @classmethod
    def from_json(cls, mesh: Mesh, text: str) -> "SparseFamily":
        d = json.loads(text)
        if d["depth"] != mesh.depth:
            raise ValueError("mesh depth mismatch")
        members, owner = [], None
        for i, row in enumerate(d["members"]):
            level = int(row["generation"]) - mesh.root.j
            if not 0 <= level <= mesh.depth:
                raise ResolutionError(f"generation {row['generation']} off the mesh")
            members.append((level, int(row["index"]) - mesh.first_index(level)))
            if "certificate_cells" in row:
                if owner is None:
                    owner = np.full(mesh.n_cells, -1)
                for a, b in row["certificate_cells"]:
                    a, b = int(a), int(b)
                    if not 0 <= a <= b <= mesh.n_cells or np.any(owner[a:b] >= 0):
                        raise ValueError(f"certificate run [{a}, {b}) leaves the mesh or overlaps an earlier run")
                    owner[a:b] = i
        return cls(mesh, members, owner, d.get("eta"))


def carleson_constant(family: SparseFamily) -> float:
    """max over tree intervals Q of sum_{P in S, P subset Q} |P| / |Q|: the
    intensity of the packing sequence.

    Member lengths are dyadic rationals, so the subtree sums are exact in
    binary floating point.
    """
    return carleson_intensity(family.packing_sequence())


def construct_certificates(family: SparseFamily, lam: float) -> SparseFamily:
    """Realize a Lambda-Carleson family as (1/Lambda)-sparse, constructively.

    Walks the generations bottom-up; each member takes its leftmost
    floor(#cells(Q)/Lambda) still-free cells inside Q.  The packing bound
    guarantees enough free mass at every step when lam is at least the true
    Carleson constant; running out on the way up means lam was too small.
    """
    mesh = family.mesh
    if lam < 1.0:
        raise InfeasibleError("Lambda must be at least 1")
    owner = np.full(mesh.n_cells, -1)
    for i in sorted(range(len(family.members)), key=lambda i: -family.members[i][0]):
        level, pos = family.members[i]
        width = 1 << (mesh.depth - level)
        target = int(math.floor(width / lam + 1e-9))
        if target == 0:
            raise ResolutionError(
                f"|Q|/Lambda below one cell for member ({level},{pos}); refine the mesh"
            )
        sl = mesh.cell_slice(level, pos)
        free = np.flatnonzero(owner[sl] < 0)
        if free.size < target:
            raise InfeasibleError(
                f"not enough free mass in ({level},{pos}); Lambda={lam} is below "
                "the Carleson constant of the family"
            )
        owner[free[:target] + sl.start] = i
    return SparseFamily(mesh, list(family.members), owner)


def verify_sparse(family: SparseFamily) -> tuple[bool, dict]:
    """Exact check of the certificate invariants on the cell lattice: each
    E_Q lies inside Q and holds at least eta|Q| of its cells."""
    if family.owner is None:
        return (False, {"ok": False, "violations": ["no certificates"]})
    eta = family.eta if family.eta is not None else family.measured_eta()
    level, pos = np.array(family.members, dtype=np.int64).reshape(-1, 2).T
    cells = np.flatnonzero(family.owner >= 0)
    who = family.owner[cells]
    outside = np.unique(who[(cells >> (family.mesh.depth - level[who])) != pos[who]])
    mass, width = family._cell_counts()
    light = np.flatnonzero(mass < eta * width - 1e-9)
    violations = [("E_Q not inside Q", family.members[i]) for i in outside]
    violations += [("mass below eta|Q|", family.members[i]) for i in light]
    return (not violations, {"ok": not violations, "violations": violations, "eta": eta})


def sparse_operator(family: SparseFamily, f: StepFunction) -> StepFunction:
    """A_S f = sum_{Q in S} <f>_Q 1_Q: the positive dyadic operator of the
    packing sequence."""
    op = positive_dyadic_operator(family.packing_sequence())
    return StepFunction(family.mesh, op.apply(f.values))


# -- Lacey's pointwise domination of the martingale transform -------------------


def lacey_dominate(
    f: StepFunction,
    sigma: SignSymbol,
    top: tuple[int, int] = (0, 0),
    C0: float | None = None,
) -> tuple[SparseFamily, float]:
    """Pointwise sparse domination of the martingale transform.

    Returns (S, C0_used) with S a 1/2-sparse certified family and
    |1_{I0} T_sigma(f 1_{I0})(x)| <= C0_used * A_S|f|(x) at every cell; both
    facts are re-verified before returning.  Stopping sets use the dyadic
    maximal function and sharp truncation of the localized data f 1_I; in
    auto mode C0 starts at 4 and doubles, up to 2^16, until every stopping set
    has at most half the mass of its interval and the pointwise check passes.
    """
    mesh = f.mesh
    top_sl = mesh.cell_slice(*top)
    loc = np.zeros(mesh.n_cells)
    loc[top_sl] = f.values[top_sl]
    if not np.any(np.abs(loc) > 0):
        raise ValueError("f must have positive mass on the top interval")
    floc = StepFunction(mesh, loc)
    lhs = np.abs(martingale_transform(floc, sigma).values)
    outside = np.ones(mesh.n_cells, dtype=bool)
    outside[top_sl] = False
    lhs[outside] = 0.0
    candidates = [C0] if C0 is not None else [4.0 * 2.0 ** k for k in range(15)]
    last_error: Exception | None = None
    for c0 in candidates:
        try:
            family = _lacey_build(floc, sigma, top, c0)
        except CalibrationError as exc:
            last_error = exc
            continue
        ok, report = verify_sparse(family)
        if not ok:
            raise CalibrationError(f"certificate verification failed: {report}")
        rhs = c0 * sparse_operator(family, StepFunction(mesh, np.abs(loc))).values
        if np.all(lhs <= rhs + 1e-12):
            return family, c0
        last_error = CalibrationError(f"pointwise domination failed at C0={c0}")
    raise last_error


def _lacey_build(floc: StepFunction, sigma: SignSymbol, top, c0) -> SparseFamily:
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


def _maximal_intervals(mesh: Mesh, level: int, pos: int, stopping: np.ndarray):
    """Maximal dyadic subintervals of (level,pos) fully inside the stopping set,
    left to right.

    `stopping` is the boolean cell mask relative to the interval; returned
    addresses are absolute tree positions.  An interval is inside the set
    when its min over the mask is 1, and maximal when its parent's min is 0.
    The mask is a union of cells, so these maximal intervals cover it exactly.
    """
    mins = pyramid(stopping, np.min)
    out = []
    for k, m in enumerate(mins):
        top = m == 1
        if k:
            top &= np.repeat(mins[k - 1] == 0, 2)
        out += [(level + k, (pos << k) + int(p)) for p in np.flatnonzero(top)]
    return sorted(out, key=lambda m: m[1] << (mesh.depth - m[0]))


# -- oscillation-domination probe ------------------------------------------------


def lor_oscillation_check(family: SparseFamily, b: StepFunction) -> dict:
    """Probe the oscillation-domination lemma with a greedy enlargement.

    For each member Q, compares |b - <b>_Q| against
    8 * sum_{R in S~, R subset Q} Omega(b;R) 1_R with S~ grown greedily by
    the descendant of largest mean oscillation through the worst cell, and
    reports whether the factor-8 bound is met within 8 |S| + 128 additions
    per member.  The lemma guarantees SOME enlargement works; a failure here
    indicts the greedy choice, not the lemma.
    """
    mesh = family.mesh
    budget = 8 * len(family.members) + 128
    # osc[l][p] = Omega(b; (l, p))
    osc = [s / (1 << (mesh.depth - l)) for l, s in enumerate(oscillations(b))]
    enlarged = set(family.members)
    report = {"per_member": {}, "all_met": True, "added": 0}
    for q in family.members:
        added = 0
        while True:
            ratio, worst_cell = _osc_ratio(mesh, b, osc, enlarged, q)
            if ratio <= 8.0 + 1e-9 or added >= budget:
                break
            cand = _best_descendant(mesh, osc, enlarged, q, worst_cell)
            if cand is None:
                break
            enlarged.add(cand)
            added += 1
        report["added"] += added
        report["per_member"][q] = {"ratio": ratio, "met": bool(ratio <= 8.0 + 1e-9)}
        report["all_met"] = report["all_met"] and ratio <= 8.0 + 1e-9
    report["enlarged_size"] = len(enlarged)
    return report


def _osc_ratio(mesh, b, osc, family_set, q):
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


def _best_descendant(mesh, osc, family_set, q, cell):
    """Largest-oscillation tree interval through `cell` inside q, not yet chosen."""
    path = [(l, cell >> (mesh.depth - l)) for l in range(q[0], mesh.depth + 1)]
    fresh = [key for key in path if key not in family_set and osc[key[0]][key[1]] > 0.0]
    return max(fresh, key=lambda key: osc[key[0]][key[1]], default=None)
