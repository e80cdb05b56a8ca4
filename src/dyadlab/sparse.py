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
from .operators import SignSymbol, martingale_transform, positive_dyadic_operator
from .signal import HaarSpectrum, Mesh, StepFunction, analyze, broadcast, haar_refine, haar_steps, pyramid
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
        if self.owner is None:
            return
        self.owner = np.asarray(self.owner)
        if self.owner.shape != (self.mesh.n_cells,) or not np.issubdtype(self.owner.dtype, np.integer):
            raise ValueError(
                f"owner must be an integer array of shape ({self.mesh.n_cells},), "
                f"got {self.owner.dtype} of shape {self.owner.shape}"
            )
        if not -1 <= self.owner.min() <= self.owner.max() < len(self.members):
            raise ValueError(f"owner entries must lie in [-1, {len(self.members)}): one per member or -1 for free")
        if self.eta is None:
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
        if not self.members:
            raise ValueError("the family is empty: its sparseness eta is a minimum over no members")
        mass, width = self._cell_counts()
        return float(np.min(mass / width))

    def packing_sequence(self) -> CarlesonSequence:
        """lambda_Q = |Q| on the members, zero elsewhere."""
        levels, pos = np.array(self.members, dtype=np.int64).reshape(-1, 2).T
        counts = [np.bincount(pos[levels == l], minlength=1 << l) for l in range(self.mesh.depth + 1)]
        return CarlesonSequence(self.mesh, [c * self.mesh.level_length(l) for l, c in enumerate(counts)])

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
    inside = np.zeros(mesh.n_cells, dtype=bool)
    inside[mesh.cell_slice(*top)] = True
    floc = StepFunction(mesh, np.where(inside, f.values, 0.0))
    if not np.any(np.abs(floc.values) > 0):
        raise ValueError("f must have positive mass on the top interval")
    lhs = np.where(inside, np.abs(martingale_transform(floc, sigma).values), 0.0)
    candidates = [C0] if C0 is not None else [4.0 * 2.0 ** k for k in range(15)]
    last_error: Exception | None = None
    for c0 in candidates:
        owner = np.full(mesh.n_cells, -1)
        try:
            family = SparseFamily(mesh, _stopping_tree(mesh, [top], _lacey_rule(floc, sigma, c0), owner), owner)
        except CalibrationError as exc:
            last_error = exc
            continue
        ok, report = verify_sparse(family)
        if not ok:
            raise CalibrationError(f"certificate verification failed: {report}")
        rhs = c0 * sparse_operator(family, abs(floc)).values
        if np.all(lhs <= rhs + 1e-12):
            return family, c0
        last_error = CalibrationError(f"pointwise domination failed at C0={c0}")
    raise last_error


def _lacey_rule(floc: StepFunction, sigma: SignSymbol, c0: float):
    """Lacey's stopping rule: at a member Q, stop where the dyadic maximal
    function or the sharp truncation of f 1_Q exceeds C0 <|f|>_Q / 2; skip Q
    when f vanishes on it.

    Both are read off Q's slices of pyramids built once for f 1_I0.  Above
    Q, the means of |f 1_Q| halve and its Haar partial sums stay below
    |<f>_Q| (a geometric series), so neither raises the maximum.  On Q, each
    Haar term of f 1_Q above Q is sigma_I <f>_Q |Q|/|I|: the sums inside Q
    start from <f>_Q times Q's `_ancestor_sums` entry.
    """
    mesh = floc.mesh
    absf = np.abs(floc.values)
    abs_means, means = pyramid(absf, np.mean), pyramid(floc.values, np.mean)
    path = _ancestor_sums(sigma)
    signed = [np.multiply(c, sg, out=c) for c, sg in zip(analyze(floc).levels, sigma.levels)]  # one tree copy fewer
    steps = list(haar_steps(HaarSpectrum(mesh, 0.0, signed)))

    def rule(level, pos):
        sl = mesh.cell_slice(level, pos)
        avg_abs = float(np.mean(absf[sl]))
        if avg_abs == 0.0:
            return None  # nothing left to dominate below this interval
        below = _subtree(abs_means, level, pos)
        tops, sums = below[:1], np.array([means[level][pos] * path[level][pos]])
        for m, step in zip(below[1:], _subtree(steps, level, pos)):
            sums = haar_refine(sums, step)
            tops.append(np.maximum(m, np.abs(sums)))
        stopping = broadcast(tops, np.maximum) > 0.5 * c0 * avg_abs
        if int(stopping.sum()) * 2 > sl.stop - sl.start:
            raise CalibrationError(f"stopping set exceeds half of ({level},{pos}) at C0={c0}")
        return stopping

    return rule


def _ancestor_sums(sigma: SignSymbol) -> list[np.ndarray]:
    """Per tree level, sum_{I > Q} sigma_I |Q|/|I| for each Q: 0 at the root, (sum at I + sigma_I) / 2 at
    both children of I.  The entries are multiples of 2^-J in (-1, 1), so exact in floating point."""
    path = [np.zeros(1)]
    for sg in sigma.levels:
        path.append(np.repeat((path[-1] + sg) / 2, 2))
    return path


def _subtree(levels, level: int, pos: int) -> list[np.ndarray]:
    """The slices of per-level tree arrays that lie inside (level, pos), from
    its own level down."""
    return [a[pos << (l - level) : (pos + 1) << (l - level)] for l, a in enumerate(levels[level:], level)]


def _stopping_tree(mesh: Mesh, tops, rule, owner: np.ndarray | None = None) -> list[tuple[int, int]]:
    """The members of a stopping-time tree, walked depth-first from `tops`.

    rule(level, pos) returns the interval's stopping mask over its cells, or
    None to skip it: a skipped interval is no member and nothing below it is
    visited.  A member's cells outside its mask get its index in `owner`, and
    its maximal stopping intervals are visited next, the rightmost first.
    """
    members, stack = [], list(reversed(tops))
    while stack:
        level, pos = stack.pop()
        stopping = rule(level, pos)
        if stopping is None:
            continue
        if owner is not None:
            owner[mesh.cell_slice(level, pos)][~stopping] = len(members)
        members.append((level, pos))
        stack.extend(_maximal_intervals(mesh, level, pos, stopping))
    return members


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
            parent_open = mins[k - 1] == 0
            top[0::2] &= parent_open
            top[1::2] &= parent_open
        out += [(level + k, (pos << k) + int(p)) for p in np.flatnonzero(top)]
    return sorted(out, key=lambda m: m[1] << (mesh.depth - m[0]))


# -- the oscillation enlargement ---------------------------------------------------


def lor_enlargement(family: SparseFamily, b: StepFunction) -> tuple[SparseFamily, float]:
    """The enlargement S~ of S of Lerner-Ombrosi-Rivera-Rios (Adv. Math. 319,
    2017, Lemma 5.1), by its stopping rule: at Q, stop on the maximal P where
    the dyadic maximal function of |b - <b>_Q| on Q exceeds 4 Omega(b;Q).

    S~ holds these trees from every member of S.  A stopping set holds at
    most |Q|/4 (weak (1,1)) and |<b>_P - <b>_Q| <= 8 Omega(b;Q), so
    |b - <b>_Q| <= 8 sum_{R in S~, R in Q} Omega(b;R) 1_R on each Q in S~.
    Returns S~ and the worst ratio of the two sides over S~.
    """
    mesh = family.mesh
    omega = [np.zeros(1 << l) for l in range(mesh.depth + 1)]  # Omega(b;R) on the members of S~
    seen = set()

    def deviation(level, pos):
        chunk = b.values[mesh.cell_slice(level, pos)]
        return np.abs(chunk - chunk.mean())

    def rule(level, pos):
        if (level, pos) in seen:
            return None  # grown already, from an earlier member of S
        seen.add((level, pos))
        means = pyramid(deviation(level, pos), np.mean)
        omega[level][pos] = means[0][0]
        return broadcast(means, np.maximum) > 4.0 * means[0][0]

    enlarged = _stopping_tree(mesh, family.members, rule)
    ratio = 0.0
    for level, pos in enlarged:
        h = deviation(level, pos)
        rhs = broadcast(_subtree(omega, level, pos), np.add)
        ratio = max(ratio, float(np.max(np.divide(h, rhs, out=np.zeros_like(h), where=h > 0.0))))
    return SparseFamily(mesh, enlarged), ratio
