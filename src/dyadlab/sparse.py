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
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, InfeasibleError, ResolutionError
from .operators import SignSymbol, _by_level, _deviation, martingale_transform, positive_dyadic_operator
from .signal import HaarSpectrum, Mesh, StepFunction, _resolve, analyze, broadcast, haar_refine, haar_steps, pyramid
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
    # the members' levels and positions as arrays, read once at construction
    _levels: np.ndarray = field(init=False, repr=False, compare=False)
    _pos: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = np.array(self.members, dtype=None if len(self.members) else int)  # object beyond int64
        self._levels, self._pos = level, pos = members.reshape(-1, 2).T
        width = np.left_shift(1, np.clip(level, 0, self.mesh.depth))
        inside = (level >= 0) & (level <= self.mesh.depth) & (pos >= 0) & (pos < width)
        # the heap index 2^level + pos names an address; off-tree members get distinct negative keys
        bad = np.ones(pos.size, dtype=bool)
        bad[np.unique(np.where(inside, width + pos, -1 - np.arange(pos.size)), return_index=True)[1]] = False
        bad |= ~inside
        if bad.any():
            i = int(np.argmax(bad))  # the first bad member, as a walk in member order meets it
            if not inside[i]:
                raise ResolutionError(f"member ({level[i]},{pos[i]}) outside the mesh tree")
            raise ValueError(f"duplicate member ({level[i]},{pos[i]})")
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
        mass = np.bincount(self.owner[self.owner >= 0], minlength=len(self.members))
        return mass, np.left_shift(1, self.mesh.depth - self._levels)

    def measured_eta(self) -> float:
        if self.owner is None:
            raise ValueError("no certificates present")
        if not self.members:
            raise ValueError("the family is empty: its sparseness eta is a minimum over no members")
        mass, width = self._cell_counts()
        return float(np.min(mass / width))

    def packing_sequence(self) -> CarlesonSequence:
        """lambda_Q = |Q| on the members, zero elsewhere."""
        levels, pos = self._levels, self._pos
        counts = [np.bincount(pos[levels == l], minlength=1 << l) for l in range(self.mesh.depth + 1)]
        return CarlesonSequence(self.mesh, [c * self.mesh.level_length(l) for l, c in enumerate(counts)])

    def to_json(self) -> str:
        """Members as absolute grid addresses {generation, index} plus
        run-length-encoded certificate cell ranges [start, stop).  Blocks of
        4096 members are encoded in turn, so only one block's rows are ever
        Python objects: at depth 20 they would hold most of a run's memory."""
        level, pos = self._levels, self._pos
        # J + 1 distinct first indices; object entries keep the grid's exact integers
        first = np.array([self.mesh.first_index(l) for l in range(self.mesh.depth + 1)], dtype=object)
        generation, index = (level + self.mesh.root.j).tolist(), (first[level] + pos).tolist()
        if self.owner is not None:
            # a run is a maximal stretch of cells with one owner; a member's runs go left to right
            starts = np.r_[0, np.flatnonzero(np.diff(self.owner)) + 1]
            who = self.owner[starts]
            order = np.argsort(who, kind="stable")
            order = order[who[order] >= 0]  # free runs belong to no member
            runs = np.stack([starts, np.r_[starts[1:], self.owner.size]], axis=1)[order]
            bounds = np.searchsorted(who[order], np.arange(len(index) + 1))

        def block(a: int) -> str:
            b = min(a + 4096, len(index))
            rows = [{"generation": g, "index": i} for g, i in zip(generation[a:b], index[a:b])]
            if self.owner is not None:
                cells, cuts = runs[bounds[a] : bounds[b]].tolist(), (bounds[a : b + 1] - bounds[a]).tolist()
                for row, s, t in zip(rows, cuts, cuts[1:]):
                    row["certificate_cells"] = cells[s:t]
            return json.dumps(rows)[1:-1]

        head = json.dumps({"depth": self.mesh.depth, "eta": self.eta, "members": []})[: -len("[]}")]
        return head + "[" + ", ".join(map(block, range(0, len(index), 4096))) + "]}"

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

    Walks the generations bottom-up, a level's disjoint members at once; each
    member takes its leftmost floor(#cells(Q)/Lambda) still-free cells inside
    Q.  The packing bound guarantees enough free mass at every step when lam is
    at least the true Carleson constant; running out on the way up means lam
    was too small.
    """
    mesh = family.mesh
    if lam < 1.0:
        raise InfeasibleError("Lambda must be at least 1")
    owner = np.full(mesh.n_cells, -1)
    for level, index, pos in reversed(_by_level(family.members)):
        target = int(math.floor((1 << (mesh.depth - level)) / lam + 1e-9))
        if target == 0:
            raise ResolutionError(f"|Q|/Lambda below one cell for member ({level},{pos[0]}); refine the mesh")
        rows = owner.reshape(1 << level, -1)
        free = rows[pos] < 0
        short = np.flatnonzero(free.sum(axis=1) < target)
        if short.size:
            raise InfeasibleError(
                f"not enough free mass in ({level},{pos[short[0]]}); Lambda={lam} is below the Carleson constant of the family"
            )
        rows[pos] = np.where(free & (np.cumsum(free, axis=1) <= target), index[:, None], rows[pos])
    return SparseFamily(mesh, list(family.members), owner)


def verify_sparse(family: SparseFamily) -> tuple[bool, dict]:
    """Exact check of the certificate invariants on the cell lattice: each
    E_Q lies inside Q and holds at least eta|Q| of its cells."""
    if family.owner is None:
        return (False, {"ok": False, "violations": ["no certificates"]})
    eta = family.eta if family.eta is not None else family.measured_eta()
    level, pos = family._levels, family._pos
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


# -- the stopping-time engine -------------------------------------------------------


def _stopping_forest(mesh: Mesh, tops, rule) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The members of the stopping-time trees grown from `tops`, and their owner
    array, one tree level at a time.

    rule(level, pos) takes a level's candidate positions and returns (keep,
    stopping): which are members, and the members' boolean stopping masks, one
    row of cells each.  Nothing below a skipped candidate is visited.  A
    member's cells get its index in the owner array, its stopping cells -1
    until a member below claims them, and its maximal stopping intervals are
    queued at their own levels.  A level's members are disjoint, so they are
    written and split at once.  An interval several trees reach is a member of
    the first.  Members come out as a depth-first walk lists them: top by top,
    each tree by right end descending, then level ascending.
    """
    queue = [[] for _ in range(mesh.depth + 1)]  # per level: (positions, trees) of the candidates
    for tree, (level, pos) in enumerate(tops):
        queue[level].append((np.array([pos]), np.array([tree])))
    found = [(np.zeros(0, np.int64),) * 3]  # per level: (levels, positions, trees) of its members
    owner, count = np.full(mesh.n_cells, -1), 0
    for level in range(mesh.depth + 1):
        if not queue[level]:
            continue
        pos, tree = (np.concatenate(a) for a in zip(*queue[level]))
        queue[level] = None
        order = np.lexsort((tree, pos))  # one candidate per interval, of its first tree
        pos, tree = pos[order], tree[order]
        first = np.r_[True, pos[1:] != pos[:-1]]
        pos, tree = pos[first], tree[first]
        keep, stopping = rule(level, pos)
        pos, tree = pos[keep], tree[keep]
        index = np.arange(count, count + pos.size)  # in the order found; renumbered at the end
        count += pos.size
        rows = owner.reshape(1 << level, -1)
        rows[pos] = np.where(stopping, -1, index[:, None])
        found.append((np.full(pos.size, level), pos, tree))
        for child_level, child_pos, row in _stopping_children(level, pos, stopping):
            queue[child_level].append((child_pos, tree[row]))
        del stopping, rows  # before the next level's rule runs
    level, pos, tree = (np.concatenate(a) for a in zip(*found))
    order = np.lexsort((level, -((pos + 1) << (mesh.depth - level)), tree))
    rank = np.full(count + 1, -1)  # rank[-1] = -1 keeps free cells free
    rank[order] = np.arange(count)
    np.take(rank, owner, out=owner, mode="wrap")  # renumbered in place; -1 wraps to rank[-1]
    return list(zip(level[order].tolist(), pos[order].tolist())), owner


def _stopping_children(level: int, pos: np.ndarray, stopping: np.ndarray):
    """Yields (level, positions, rows): per finer level, the maximal dyadic
    intervals strictly inside the intervals `pos` of `level` that lie in their
    stopping sets (one boolean row of cells each), by a min pyramid: min 1 on
    the interval and 0 on its parent.  They cover each mask exactly, unless
    the row is one stopping cell."""
    mins = pyramid(stopping, np.min)
    for k in range(1, len(mins)):
        inside = mins[k] == 1
        if k > 1:
            parent_open = mins[k - 1] == 0
            inside[:, 0::2] &= parent_open
            inside[:, 1::2] &= parent_open
        row, p = np.nonzero(inside)
        if row.size:
            yield level + k, (pos[row] << k) + p, row


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
    `top` must be a mesh interval and C0 finite and positive.
    """
    mesh = f.mesh
    top = _resolve(mesh, top)
    if C0 is not None and not 0.0 < C0 < math.inf:
        raise ValueError(f"C0 must be finite and positive, got {C0!r}")
    inside = np.zeros(mesh.n_cells, dtype=bool)
    inside[mesh.cell_slice(*top)] = True
    floc = StepFunction(mesh, np.where(inside, f.values, 0.0))
    if not np.any(np.abs(floc.values) > 0):
        raise ValueError("f must have positive mass on the top interval")
    lhs = np.where(inside, np.abs(martingale_transform(floc, sigma).values), 0.0)
    candidates = [C0] if C0 is not None else [4.0 * 2.0 ** k for k in range(15)]
    last_error: Exception | None = None
    for c0 in candidates:
        failed = []
        members, owner = _stopping_forest(mesh, [top], _lacey_rule(floc, sigma, c0, failed))
        if failed:
            last_error = CalibrationError(f"stopping set exceeds half of ({failed[1]},{failed[2]}) at C0={c0}")
            continue
        family = SparseFamily(mesh, members, owner)
        ok, report = verify_sparse(family)
        if not ok:
            raise CalibrationError(f"certificate verification failed: {report}")
        rhs = c0 * sparse_operator(family, abs(floc)).values
        if np.all(lhs <= rhs + 1e-12):
            return family, c0
        last_error = CalibrationError(f"pointwise domination failed at C0={c0}")
    raise last_error


def _lacey_rule(floc: StepFunction, sigma: SignSymbol, c0: float, failed: list):
    """Lacey's stopping rule: at a member Q, stop where the dyadic maximal
    function or the sharp truncation of f 1_Q exceeds C0 <|f|>_Q / 2; skip Q
    when f vanishes on it.  A level's candidates are rows of one array pass.

    Both are read off Q's rows of pyramids built once for f 1_I0.  Above
    Q, the means of |f 1_Q| halve and its Haar partial sums stay below
    |<f>_Q| (a geometric series), so neither raises the maximum.  On Q, each
    Haar term of f 1_Q above Q is sigma_I <f>_Q |Q|/|I|: the sums inside Q
    start from <f>_Q times Q's `_ancestor_sums` entry.

    A Q whose stopping set exceeds half of it is no member: `failed` holds
    [right end, level, pos] of the first in the walk's order (largest right
    end), and candidates ending left of it, which come later, are skipped.
    """
    depth = floc.mesh.depth
    absf = np.abs(floc.values)
    abs_means, means = pyramid(absf, np.mean), pyramid(floc.values, np.mean)
    path = _ancestor_sums(sigma)
    signed = [np.multiply(c, sg, out=c) for c, sg in zip(analyze(floc).levels, sigma.levels)]  # one tree copy fewer
    steps = list(haar_steps(HaarSpectrum(floc.mesh, 0.0, signed)))

    def rule(level, pos):
        def rows(a):
            return a.reshape(1 << level, -1)[pos]

        right = (pos + 1) << (depth - level)
        avg_abs = rows(absf).mean(axis=1)
        live = avg_abs > 0.0  # nothing left to dominate below an interval without mass
        if failed:
            live &= right > failed[0]
        pos, avg_abs = pos[live], avg_abs[live]
        sums = (means[level][pos] * path[level][pos])[:, None]
        peak = abs_means[level][pos][:, None]
        for k in range(level, depth):  # the max over Q's subtree, pushed down a level at a time
            sums = haar_refine(sums, rows(steps[k]))
            below = np.abs(sums)
            peak = broadcast([peak, np.maximum(below, rows(abs_means[k + 1]), out=below)], np.maximum)
        stopping = peak > 0.5 * c0 * avg_abs[:, None]
        over = 2 * np.count_nonzero(stopping, axis=1) > stopping.shape[1]
        if over.any():
            i = np.argmax(np.where(over, right[live], -1))  # the skipping above puts it before any earlier one
            failed[:] = [int(right[live][i]), level, int(pos[i])]
            live[live] = ~over
        return live, stopping[~over]

    return rule


def _ancestor_sums(sigma: SignSymbol) -> list[np.ndarray]:
    """Per tree level, sum_{I > Q} sigma_I |Q|/|I| for each Q: 0 at the root, (sum at I + sigma_I) / 2 at
    both children of I.  The entries are multiples of 2^-J in (-1, 1), so exact in floating point."""
    path = [np.zeros(1)]
    for sg in sigma.levels:
        path.append(np.repeat((path[-1] + sg) / 2, 2))
    return path


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

    def rule(level, pos):
        means = pyramid(_deviation(b.values.reshape(1 << level, -1)[pos]), np.mean)
        omega[level][pos] = means[0][:, 0]
        return np.ones(pos.size, dtype=bool), broadcast(means, np.maximum) > 4.0 * means[0]

    enlarged, _ = _stopping_forest(mesh, family.members, rule)
    ratio = 0.0
    for level, _, pos in _by_level(enlarged):
        h = _deviation(b.values.reshape(1 << level, -1)[pos])
        rhs = broadcast(omega[level:], np.add).reshape(1 << level, -1)[pos]
        ratio = max(ratio, float(np.max(np.divide(h, rhs, out=np.zeros_like(h), where=h > 0.0))))
    return SparseFamily(mesh, enlarged), ratio
