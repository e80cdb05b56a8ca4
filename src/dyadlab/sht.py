"""Dyadic cubes and Haar bases on finite quasi-metric point clouds.

Nets are greedy maximal delta^k-separated subsets, nested by seeding each
level with the previous centers; cubes assign each point to its nearest
center among the children of its current cube (ties to the smallest center
id), which forces the partition and nestedness properties by construction.
Ball constants are measured and reported against the c1 = c0/(3 A0^2),
C1 = 2 A0 C0 targets rather than guaranteed.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeightError

# the most elements one block holds in a points cloud's distance build, the
# constructor's symmetry check, `assign_cubes`, `CubeSystem.verify` and the
# Haar build's remainder sums: 2^15 doubles stay in cache (measured fastest
# of 2^12..2^20 at 1024 and 4096 points), kept apart from operators' block
# caps so that sht imports none of the signal modules and its tests can
# shrink it alone
BLOCK_ELEMENTS = 1 << 15
MAX_CLOUD_POINTS = 4096  # the largest cloud a file may hold: `sht` keeps n x n distances


@dataclass
class QuasiMetricCloud:
    """Finite point set with a symmetric distance matrix and point masses."""

    dist: np.ndarray
    mass: np.ndarray
    A0: float = 1.0

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=float)
        n = self.dist.shape[0]
        if self.dist.shape != (n, n):
            raise ValueError("distance matrix must be square")
        self.mass = np.ones(n) if self.mass is None else np.asarray(self.mass, dtype=float)
        d = self.dist  # its checks make no n x n temporary: a NaN or an infinity shows in the min or the max
        if n == 0 or not (math.isfinite(low := d.min()) and math.isfinite(d.max()) and np.all(np.isfinite(self.mass))):
            raise ValueError("a cloud needs at least one point, finite distances and finite masses")
        # zero exactly on the diagonal: no duplicate points, no missing pairs
        zero_only_on_diagonal = not np.diagonal(d).any() and np.count_nonzero(d) == n * n - n
        if not (_symmetric(d) and low >= 0 and zero_only_on_diagonal):
            raise ValueError("a cloud's distances must be symmetric, zero on the diagonal and positive elsewhere")
        if np.min(self.mass) <= 0:
            raise DegenerateWeightError("point masses must be positive")
        total = float(np.sum(self.mass))
        if np.min(self.mass) < np.finfo(float).tiny or not math.isfinite(total * total):
            raise ValueError("point masses must be normal doubles (at least 2.2e-308) whose total has a finite square")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def validate(self) -> dict:
        """Exhaustive checks of the quasi-metric axioms, as one min-plus pass.

        The quasi-triangle constant is the largest d_ij / (d_iz + d_zj) over i != j
        and every z, which is d_ij over the min-plus square min_z (d_iz + d_zj):
        correctly rounded division is monotone in the divisor, so the two agree bit
        for bit.  d and so the square are exactly symmetric: blocks of rows lo..
        that fit BLOCK_ELEMENTS read j >= lo only.  A sum d_iz + d_zj that
        overflows to inf is harmless, as the true ratio there is below 1; a
        constant that overflows is a config error.

        A block whose ratios d_ij / U_ij are all at most the running maximum is
        skipped, U_ij being the minimax distance of `_minimax`, and the constant
        stays bit for bit the same: for z not in {i, j}, fl(d_iz + d_zj) >=
        max(d_iz, d_zj) >= U_ij, as i, z, j is a path; for z in {i, j} the term
        is d_ij >= U_ij, the one-step path.  So the square is >= U_ij and each
        ratio <= fl(d_ij / U_ij), by the monotone division again.  An infinite
        bound is never skipped.  An ultrametric has U = d, so it skips every block."""
        d, n, worst = self.dist, self.n, 1.0
        ranks, levels = _minimax(d)
        # one allocation, as blocks of shrinking sizes fragment the heap, whose two rows start on 64-byte
        # boundaries: at 1024 planar points the scan ran 20-25 % slower into a buffer 16 bytes off one
        width = -(-(rows := max(1, BLOCK_ELEMENTS // n)) * n // 8) * 8
        raw = np.empty(2 * width + 8)
        buf = raw[-raw.ctypes.data % 64 // 8:][:2 * width].reshape(2, width)
        with np.errstate(over="ignore"):
            for lo in range(0, n, rows):
                right = d[lo:lo + rows, lo:]
                through, step = (b[:right.size].reshape(right.shape) for b in buf)
                np.take(levels, np.maximum(ranks[lo:lo + rows, lo:], ranks[lo:, lo:lo + rows].T), out=step)
                if np.max(np.divide(right, step, out=step)) <= worst:  # the diagonal reads 0 / levels[0]
                    continue
                through.fill(np.inf)
                for z in range(n):
                    np.minimum(through, np.add(d[lo:lo + rows, z, None], d[z, lo:], out=step), out=through)
                np.fill_diagonal(through, np.inf)  # d_ii = 0 over inf: the diagonal does not count
                worst = max(worst, float(np.max(np.divide(right, through, out=step))))
        if not math.isfinite(worst):
            raise ValueError("a cloud's quasi-triangle constant overflows a double")
        return {"quasi_triangle_constant": worst, "A0_ok": worst <= self.A0 * (1 + 1e-12)}

    @classmethod
    def from_points(cls, xy: np.ndarray, mass=None) -> "QuasiMetricCloud":
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        return cls(_euclidean_distances(xy), np.ones(xy.shape[0]) if mass is None else mass, A0=1.0)

    @classmethod
    def from_csv(cls, path) -> "QuasiMetricCloud":
        """Load `id,x,y[,mass]` rows (Euclidean) or `id_i,id_j,distance` edges."""
        with open(path) as fh:
            header = [h.strip().lower() for h in next(csv.reader([fh.readline()]), [])]  # readline keeps fh.tell()
            if header[:3] not in (["id", "x", "y"], ["id_i", "id_j", "distance"]):
                raise ValueError("unrecognized cloud CSV header")
            if header[0] == "id_i":
                cloud = cls(_edge_distances(_read_rows(fh, ("i", "j", "d"), 2)), None, A0=1.0)
                cloud.A0 = cloud.validate()["quasi_triangle_constant"]
                return cloud
            rows = _read_rows(fh, ("id", "x", "y", "mass")[:len(header)], 1)
        _check_cloud_size(rows.size)
        rows = rows[np.argsort(rows["id"])]
        xy, mass = np.column_stack([rows["x"], rows["y"]]), rows["mass"].copy() if len(header) > 3 else None
        del rows  # freed first: alive, it could split the free block that the n x n distances fit in
        return cls.from_points(xy, mass)


def _read_rows(fh, names, ints: int) -> np.ndarray:
    """The data rows under a cloud CSV's header by one C-level `np.loadtxt`: fields `names`, the first
    `ints` int64 ids and the rest doubles, quoted or space-padded; extra columns and blank lines skipped.
    A row that does not parse is named by its line in the file, the header being line 1."""
    dtype = np.dtype([(name, np.int64 if k < ints else float) for k, name in enumerate(names)])
    need = f"a cloud CSV needs data rows of {len(names)} fields under its header"
    load = functools.partial(np.loadtxt, dtype=dtype, comments=None, delimiter=",", usecols=range(len(names)),
                             quotechar='"', ndmin=1)
    start = fh.tell()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data": rejected below
        try:
            rows = load(fh)
        except ValueError as exc:  # a short row, or a field that is no int64 id or no double
            fh.seek(start)
            raise ValueError(f"{need}: {_bad_line(fh, load) or exc}") from exc
    if not rows.size:
        raise ValueError(need)
    return rows


def _bad_line(fh, load) -> str:
    """'line k: ' and numpy's reason for the first line of fh, numbered from 2, that `load` rejects
    alone: the lines are read again 4096 at a time, and only a rejected block line by line.  Empty
    when each line loads alone (a quoted field across lines)."""
    lines = iter(fh)
    for first in itertools.count(2, 4096):
        if not (block := list(itertools.islice(lines, 4096))):
            return ""
        try:
            load(block)
        except ValueError:
            for number, line in enumerate(block, first):
                try:
                    load([line])
                except ValueError as exc:  # numpy's row number counts from the line given: dropped
                    return f"line {number}: " + re.sub(r" at row \d+", "", str(exc))
            return ""


def _minimax(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U_ij, the least over the paths from i to j of their largest step, as
    `levels[max(ranks[i, j], ranks[j, i])]` for i != j: ranks into the sorted
    distinct join weights, each pair held once, in the row of whichever of i and j
    joins the tree later (0 elsewhere), in the smallest unsigned type that holds n.

    Prim's pass from point 0 joins the points in an order v_0, v_1, ... at weights
    w_1, w_2, ..., in O(n^2); then U(v_s, v_t) = max(w_s+1, ..., w_t) for s < t.
    At least that: before v_m joins, every step out of the tree weighs at least
    w_m, and a path from v_s to v_t takes one.  At most that, by induction on t:
    v_t joins by a step of w_t to some v_a; if a >= s, U(v_s, v_a) is at most
    the largest w in (s, a], and if a < s, each of w_a+1..w_s is at most
    d(v_a, v_t) = w_t, a step out of the tree when v_a+1..v_s joined."""
    n = len(d)
    order, weight = np.zeros(n, np.intp), np.full(n, np.inf)  # the root joins at weight inf
    far = np.zeros(n)  # inf on the tree's points, so that no step leads back into it
    far[0] = np.inf
    best, step = d[0] + far, np.empty(n)  # each point's shortest step from the tree
    for t in range(1, n):
        order[t] = k = best.argmin()
        weight[k], best[k], far[k] = best[k], np.inf, np.inf
        np.minimum(best, np.add(d[k], far, out=step), out=best)
    levels, rank = np.unique(weight, return_inverse=True)
    ranks = np.zeros((n, n), np.min_scalar_type(n))
    joined = rank[order].astype(ranks.dtype)
    for t in range(1, n):
        ranks[order[t], order[:t]] = np.maximum.accumulate(joined[t:0:-1])[::-1]
    return ranks, levels


def _symmetric(d: np.ndarray) -> bool:
    """d == d.T, compared in square tiles of about BLOCK_ELEMENTS entries, so
    that the transposed tile is read from cache and not by a stride of n."""
    side = math.isqrt(BLOCK_ELEMENTS)
    return all(
        np.array_equal(d[i:i + side, j:j + side], d[j:j + side, i:i + side].T)
        for i in range(0, len(d), side)
        for j in range(i, len(d), side)
    )


def _euclidean_distances(xy: np.ndarray) -> np.ndarray:
    """The distance matrix of the rows of xy, built BLOCK_ELEMENTS at a time:
    each block takes the first coordinate's squared differences and adds the
    others' in order, the float operations of `sum` over the coordinates."""
    n = xy.shape[0]
    dist = np.empty((n, n))
    rows = max(1, min(n, BLOCK_ELEMENTS // max(n, 1)))
    work = np.empty((rows, n))  # one block of squared differences, reused
    first, *rest = xy.T
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN distance, which the constructor rejects
        for i in range(0, n, rows):
            block, step = dist[i : i + rows], work[: n - i]
            np.square(np.subtract(first[i : i + rows, None], first, out=block), out=block)
            for x in rest:
                block += np.square(np.subtract(x[i : i + rows, None], x, out=step), out=step)
    return np.sqrt(dist, out=dist)


def _edge_distances(rows: np.ndarray) -> np.ndarray:
    """The distance matrix of the `(i, j, d)` edge rows, points in increasing
    id order, each pair written at its (smaller, larger) ranks."""
    ids = np.unique(ends := np.column_stack([rows["i"], rows["j"]]))
    _check_cloud_size(ids.size)
    ends = np.searchsorted(ids, ends)  # each id's rank
    ends.sort(axis=1)
    low, high = ends.T
    dist = np.zeros((ids.size, ids.size))  # a pair left out stays at 0, which the constructor rejects
    dist[low, high] = given = rows["d"]
    kept = dist[low, high]  # the last distance given for each pair
    clash = np.flatnonzero(kept != given)  # in two steps: one mask over the rows, not four
    clash = clash[~(np.isnan(kept[clash]) & np.isnan(given[clash]))]  # NaN both times is no clash
    if clash.size:
        raise ValueError("cloud CSV gives the pair {},{} two different distances".format(*rows[["i", "j"]][clash[0]]))
    dist[high, low] = given
    return dist


def _check_cloud_size(n: int) -> None:
    if n > MAX_CLOUD_POINTS:
        raise ValueError(f"a cloud CSV may hold at most {MAX_CLOUD_POINTS} points (memory guard), not {n}")


def lattice_cloud(n_points: int, metric: str = "euclidean") -> QuasiMetricCloud:
    """Uniform 1-D lattice of midpoints (i+1/2)/n on [0,1).

    metric="dyadic" uses the ultrametric d(x,y) = |smallest dyadic interval
    containing both|, under which nearest-center cubes are exactly the
    classical dyadic blocks.
    """
    xs = (np.arange(n_points) + 0.5) / n_points
    if metric == "euclidean":
        return QuasiMetricCloud.from_points(xs[:, None])
    if metric != "dyadic":
        raise ValueError("metric must be 'euclidean' or 'dyadic'")
    if n_points & (n_points - 1):
        raise ValueError("dyadic lattice metric needs a power-of-two size")
    depth = n_points.bit_length() - 1
    ids = np.arange(n_points)
    block = np.frexp(ids[:, None] ^ ids[None, :])[1]  # the bit length of i ^ j: 2^block cells in common
    # scale by 0.9 so delta=1/2 nets at level k sit one per
    # generation-k block and nearest centers are strict
    dist = 0.9 * 2.0 ** (block - depth)
    np.fill_diagonal(dist, 0.0)
    return QuasiMetricCloud(dist, np.ones(n_points), A0=1.0)


def build_nets(cloud: QuasiMetricCloud, delta: float, k_max: int | None = None):
    """Nested greedy maximal delta^k-separated center sets for k = 0.. .

    Level k candidates are the previous centers first (so nets are nested),
    then the remaining points in id order.  Auto mode extends k until every
    point is a center (all cubes become singletons) or 64 levels.

    The previous centers are pairwise at least delta^(k-1) >= delta^k apart,
    so each of them stays a center, and `dmin`, every point's distance to
    the nearest center so far, carries over from the level before.  Only a
    point with dmin >= delta^k can still join, so the greedy scan visits
    those alone, in id order.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0,1)")
    if cloud.n == 0:
        raise ValueError("empty cloud")
    nets = []
    centers: list[int] = []
    dmin = np.full(cloud.n, np.inf)
    limit = k_max + 1 if k_max is not None else 64
    for k in range(limit):
        radius = delta ** k
        for pid in np.flatnonzero(dmin >= radius).tolist():
            if dmin[pid] >= radius:
                centers.append(pid)
                np.minimum(dmin, cloud.dist[pid], out=dmin)
        nets.append(np.array(centers))
        if k_max is None and len(centers) == cloud.n:
            break
    return nets


@dataclass
class CubeSystem:
    cloud: QuasiMetricCloud
    delta: float
    centers: list[np.ndarray]  # per level, point ids of the centers
    assignment: list[np.ndarray]  # per level, point -> cube index
    parent: list[np.ndarray] = field(default_factory=list)  # per level>0, cube -> parent cube

    @property
    def n_levels(self) -> int:
        return len(self.centers)

    def cube_points(self, level: int, cube: int) -> np.ndarray:
        return np.flatnonzero(self.assignment[level] == cube)

    def children(self, level: int, cube: int) -> np.ndarray:
        if level + 1 >= self.n_levels:
            return np.array([], dtype=int)
        return np.flatnonzero(self.parent[level + 1] == cube)

    def verify(self) -> dict:
        """Partition, nestedness, and measured inner/outer ball constants.

        Point p lies in cube a[p] and in no other, so the outer constant
        reads the n distances dist[cs[a[p]], p], and the inner one the rows
        dist[cs] with those n entries set to inf, BLOCK_ELEMENTS at a time into
        one reused buffer.  The rows are read with mode="clip": every center
        of a non-empty cube was already indexed by the outer constant.
        """
        report = {"partition_ok": True, "nested_ok": True}
        inner, outer = math.inf, 0.0
        dist = self.cloud.dist
        rows = max(1, BLOCK_ELEMENTS // self.cloud.n)
        buf = np.empty((rows, self.cloud.n))
        for level, (cs, a) in enumerate(zip(self.centers, self.assignment)):
            k = len(cs)
            inside = (a >= 0) & (a < k)
            if not (np.all(inside) and np.all(np.bincount(a, minlength=k))):
                report["partition_ok"] = False  # an index out of range, or an empty cube
            if level and not np.array_equal(self.parent[level][a], self.assignment[level - 1]):
                report["nested_ok"] = False
            pts = np.flatnonzero(inside)
            own = a[pts]
            scale = self.delta ** level
            outer = max(outer, float(np.max(dist[cs[own], pts], initial=0.0)) / scale)
            by_cube, first = _grouped(own, k)
            for lo in range(0, k, rows):
                hi = min(k, lo + rows)
                block = np.take(dist, cs[lo:hi], axis=0, out=buf[:hi - lo], mode="clip")
                mine = by_cube[first[lo]:first[hi]]  # the points of these cubes
                block[own[mine] - lo, pts[mine]] = np.inf
                inner = min(inner, float(np.min(block, initial=math.inf)) / scale)
        a0 = self.cloud.A0
        report["outer_ball_constant"] = outer
        report["inner_ball_constant"] = inner if inner < math.inf else 1.0
        report["outer_target_2A0C0"] = 2.0 * a0
        report["inner_target_c0_over_3A0sq"] = 1.0 / (3.0 * a0 ** 2)
        return report


def _chunks(sizes: np.ndarray):
    """Consecutive ranges lo:hi of items whose sizes sum to at most
    BLOCK_ELEMENTS, or of one item."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < sizes.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - sizes[lo] + BLOCK_ELEMENTS, "right")))
        yield lo, hi
        lo = hi


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[g]:starts[g] + lengths[g], concatenated."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def _grouped(labels: np.ndarray, k: int):
    """(order, start): the indices sorted by label, ascending within a label,
    so label g holds order[start[g]:start[g + 1]]."""
    start = np.zeros(k + 1, dtype=int)
    np.cumsum(np.bincount(labels, minlength=k), out=start[1:])
    return np.argsort(labels, kind="stable"), start


def assign_cubes(nets, cloud: QuasiMetricCloud, delta: float) -> CubeSystem:
    """Hierarchically constrained nearest-center assignment, one pass per level.

    The nets must be nested, as `build_nets` makes them, so that every cube
    keeps its own center one level down.  Above level 0 one cube holds the
    whole cloud.  A point whose cube has a single child goes to that child;
    the points of a splitting cube choose the nearest among its children
    only, which makes each generation a partition refining the previous one.
    They choose by one segmented argmin over their (point, child) distances,
    BLOCK_ELEMENTS pairs at a time, the children of each point in increasing
    center index, so ties go to the smallest.
    """
    centers = [np.asarray(c) for c in nets]
    up, cubes = np.zeros(cloud.n, dtype=int), 1
    assignment, parents = [], []
    for cs in centers:
        parent_of_center = up[cs]
        kids, start = _grouped(parent_of_center, cubes)
        count = np.diff(start)
        a = kids[start[up]]  # each point's first child: its cube when that is the only one
        choose = np.flatnonzero(count[up] > 1)
        reps = count[up[choose]]
        for lo, hi in _chunks(reps):
            p, r = choose[lo:hi], reps[lo:hi]
            seg = np.cumsum(r) - r  # each point's first pair
            c = kids[_ranges(start[up[p]], r)]
            d = cloud.dist[cs[c], np.repeat(p, r)]
            hit = np.flatnonzero(d == np.repeat(np.minimum.reduceat(d, seg), r))
            owner = np.repeat(np.arange(p.size), r)[hit]
            a[p] = c[hit[np.diff(owner, prepend=-1) > 0]]  # the first minimum of each point
        assignment.append(a)
        parents.append(parent_of_center)
        up, cubes = a, len(cs)
    return CubeSystem(cloud, delta, centers, assignment, [np.array([], dtype=int), *parents[1:]])


def build_cube_system(
    cloud: QuasiMetricCloud, delta: float = 0.5, k_max: int | None = None
) -> CubeSystem:
    return assign_cubes(build_nets(cloud, delta, k_max), cloud, delta)


# -- Haar system -------------------------------------------------------------


@dataclass
class SHTHaarSystem:
    """The Haar functions as runs of one point order, in which every cube,
    child and peeled remainder is contiguous: function f is a[f] on
    order[start[f]:mid[f]] (its child), -b[f] on order[mid[f]:end[f]] (the
    children peeled after it) and zero elsewhere.  A cube's functions are
    consecutive and in peeling order; `level` and `cube` name the cube of each."""

    system: CubeSystem
    order: np.ndarray
    start: np.ndarray
    mid: np.ndarray
    end: np.ndarray
    level: np.ndarray
    cube: np.ndarray
    a: np.ndarray
    b: np.ndarray
    top_cubes: int

    @property
    def functions(self) -> np.recarray:
        """One (start, mid, end, a, b) record per Haar function."""
        return np.rec.fromarrays((self.start, self.mid, self.end, self.a, self.b), names="start,mid,end,a,b")

    def coefficient_count(self) -> int:
        return self.a.size


def _row_sums(values: np.ndarray, flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per segment g, values[flat[starts[g]:starts[g] + lengths[g]]].sum() to
    the bit.  The segments of one length m are summed as the rows of one
    (count x m) gather, which numpy reduces row by row in the pairwise order
    of a 1-D sum; `np.add.reduceat` adds left to right and differs."""
    out = np.empty(lengths.size)
    for m in np.flatnonzero(np.bincount(lengths)):  # each length that occurs
        group = np.flatnonzero(lengths == m)
        out[group] = values[flat[starts[group, None] + np.arange(m)]].sum(axis=1)
    return out


def _amplitudes(m_plus: np.ndarray, m_minus: np.ndarray, shift: int):
    """a = sqrt(m- / (m m+)) and b = sqrt(m+ / (m m-)), m = m+ + m-, scaled by
    2^(-shift): the float operations of `math.sqrt` and `math.ldexp`, and a
    zero divisor raises as a Python float division does."""
    m_all = m_plus + m_minus
    if not (np.all(m_all * m_plus) and np.all(m_all * m_minus)):
        raise ZeroDivisionError("float division by zero")
    with np.errstate(over="ignore"):  # inf, as a Python float overflows
        return (np.ldexp(np.sqrt(m_minus / (m_all * m_plus)), -shift),
                np.ldexp(np.sqrt(m_plus / (m_all * m_minus)), -shift))


def build_sht_haar(system: CubeSystem) -> SHTHaarSystem:
    """Peeling construction of the Haar functions, one fewer than children.

    Children are enumerated by decreasing mass (ties by descending child id,
    which orients equal-mass binary splits like the classical Haar function);
    E^1 = Q, E^{i+1} = E^i minus the i-th child, and
    h^i = a 1_{child_i} - b 1_{E^{i+1}} with a, b forced by L^2(mu)
    normalization and mean zero.  Every cube keeps its own center one level
    down, so each level adds (children - cubes) functions.

    One level at a time: the children of every cube are sorted into peeling
    order at once, and the masses of the children and of the remainders
    E^{i+1} are summed over their points in increasing id, as a per-cube
    loop would sum them.  The remainders are read BLOCK_ELEMENTS cube points
    at a time.  The point order lists each cube's children in peeling order,
    so each child and each E^{i+1} is one run; `first` is each cube's first
    place.  The masses are scaled by the 2^(-2k) that brings their total near
    1, and a and b back by 2^(-k), both exact: same bits, and no mass product
    underflows."""
    shift = math.frexp(float(np.sum(system.cloud.mass)))[1] // 2
    mu = np.ldexp(system.cloud.mass, -2 * shift)
    inside, cube_start = _grouped(system.assignment[0], len(system.centers[0]))
    first = cube_start[:-1]
    parts = [(np.zeros(0, dtype=int),) * 5 + (np.zeros(0),) * 2]  # per level: start, mid, end, level, cube, a, b
    for level in range(system.n_levels - 1):
        below, parent = system.assignment[level + 1], system.parent[level + 1]
        points, kid_start = _grouped(below, parent.size)
        size, cube_size = np.diff(kid_start), np.diff(cube_start)
        count = np.bincount(parent, minlength=cube_size.size)  # children per cube
        split = np.flatnonzero(count[parent] > 1)  # a cube with one child waits until it subdivides
        mass = np.zeros(parent.size)
        mass[split] = _row_sums(mu, points, kid_start[split], size[split])
        if np.any(mass[split] <= 0):
            raise DegenerateWeightError("child cube with zero mass")
        kids = np.lexsort((-np.arange(parent.size), -mass, parent))  # cube by cube, in peeling order
        before = np.cumsum(size[kids]) - size[kids]  # the points of the cubes and children before
        offset, rank = np.empty_like(before), np.empty_like(before)
        offset[kids] = before - cube_start[parent[kids]]  # each child's first place in its cube's run
        rank[kids] = np.arange(kids.size) - (np.cumsum(count) - count)[parent[kids]]
        kid = kids[rank[kids] < count[parent[kids]] - 1]  # every child but the last peeled
        cube = parent[kid]
        start = first[cube] + offset[kid]
        mid, end = start + size[kid], first[cube] + cube_size[cube]
        m_minus, peeled = np.empty(kid.size), rank[below]  # per point, its child's peeling rank
        for lo, hi in _chunks(cube_size[cube]):
            c, left = cube[lo:hi], (end - mid)[lo:hi]
            pts = inside[_ranges(cube_start[c], cube_size[c])]  # each function's cube, in id order
            rest = pts[peeled[pts] > np.repeat(rank[kid[lo:hi]], cube_size[c])]  # E^{i+1}: a later peeling rank
            m_minus[lo:hi] = _row_sums(mu, rest, np.cumsum(left) - left, left)
        parts.append((start, mid, end, np.full(kid.size, level), cube, *_amplitudes(mass[kid], m_minus, shift)))
        first, inside, cube_start = first[parent] + offset, points, kid_start
    start, mid, end, level, cube, a, b = map(np.concatenate, zip(*parts))
    order = np.argsort(first[system.assignment[-1]], kind="stable")
    return SHTHaarSystem(system, order, start, mid, end, level, cube, a, b, top_cubes=len(system.centers[0]))


def _run_sums(values: np.ndarray, basis: SHTHaarSystem):
    """Per function, the direct sums of the per-point `values` over its plus and its minus run."""
    ordered = np.append(values[basis.order], 0.0)  # an end at n is a legal index
    sums = np.add.reduceat(ordered, np.column_stack([basis.start, basis.mid, basis.end]).ravel())
    return sums[0::3], sums[1::3]


def sht_expand(f: np.ndarray, basis: SHTHaarSystem):
    """Coefficients against the Haar system plus the per-top-cube means."""
    mu, top = basis.system.cloud.mass, basis.system.assignment[0]
    fmu = np.asarray(f, dtype=float) * mu
    plus, minus = _run_sums(fmu, basis)
    tops = np.bincount(top, fmu, basis.top_cubes) / np.bincount(top, mu, basis.top_cubes)
    return basis.a * plus - basis.b * minus, tops


def sht_reconstruct(coeffs: np.ndarray, tops: np.ndarray, basis: SHTHaarSystem) -> np.ndarray:
    """The Haar terms, as steps c a at each start, -c (a + b) at each mid and
    c b at each end summed up in `order`, plus the top-cube means."""
    c, n = np.asarray(coeffs, dtype=float), basis.system.cloud.n
    at = np.concatenate([basis.start, basis.mid, basis.end])
    steps = np.bincount(at, np.concatenate([c * basis.a, -c * (basis.a + basis.b), c * basis.b]), n + 1)
    out = np.empty(n)
    out[basis.order] = np.cumsum(steps[:n])
    return out + np.asarray(tops)[basis.system.assignment[0]]


def gram_matrix(basis: SHTHaarSystem) -> tuple[np.ndarray, np.ndarray]:
    """Per Haar function f: G_ff, and the largest |G_gf| = |sum_p mu_p h_g h_f|
    over the g before f in the orthonormal system [top-cube indicators; Haar
    functions].  With G symmetric, these cover the whole matrix.

    Each g is constant on the support of each later f that it meets, so G_gf
    is h_g there times a m+ - b m-, and disjoint supports give exact zeros.
    The largest |h_g| over the earlier g is read at order[start[f]] in one
    coarse-to-fine sweep, in rounds of one level and one peeling rank: the
    functions of a round lie in distinct cubes of one level, so their runs
    are disjoint and the round reads and raises `high` at once.  The
    indicators come first so that every function's mean is checked, also one
    with no Haar function over it."""
    mu = basis.system.cloud.mass
    plus, minus = _run_sums(mu, basis)
    a, b = np.abs(basis.a), np.abs(basis.b)
    diag = a * a * plus + b * b * minus
    top = basis.system.assignment[0]
    high = (1.0 / np.sqrt(np.bincount(top, mu, basis.top_cubes)))[top[basis.order]]  # per place in `order`
    above = np.empty(a.size)
    f = np.arange(a.size)
    new_cube = np.diff(basis.level, prepend=-1) | np.diff(basis.cube, prepend=-1)  # a cube's functions are consecutive
    rank = f - np.maximum.accumulate(np.where(new_cube != 0, f, 0))
    rounds = np.lexsort((rank, basis.level))
    cut = np.flatnonzero(np.diff(basis.level[rounds]) | np.diff(rank[rounds])) + 1
    for fs in np.split(rounds, cut):
        s, m, e = basis.start[fs], basis.mid[fs], basis.end[fs]
        above[fs] = high[s]
        lengths = np.column_stack([m - s, e - m]).ravel()
        at = _ranges(np.column_stack([s, m]).ravel(), lengths)
        high[at] = np.maximum(high[at], np.repeat(np.column_stack([a[fs], b[fs]]).ravel(), lengths))
    return diag, np.abs(basis.a * plus - basis.b * minus) * above


def gram_error(basis: SHTHaarSystem) -> float:
    """max |G - I| over the orthonormal system, read off `gram_matrix`."""
    diag, off = gram_matrix(basis)
    return float(np.max(np.concatenate([np.abs(diag - 1.0), off]), initial=0.0))
