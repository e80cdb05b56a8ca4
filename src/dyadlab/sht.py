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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeightError


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
        if self.mass is None:
            self.mass = np.ones(n)
        self.mass = np.asarray(self.mass, dtype=float)
        if n == 0 or not (np.all(np.isfinite(self.dist)) and np.all(np.isfinite(self.mass))):
            raise ValueError("a cloud needs at least one point, finite distances and finite masses")
        d = self.dist  # zero exactly on the diagonal: no duplicate points, no missing pairs
        if not (np.array_equal(d, d.T) and np.all(d >= 0) and np.array_equal(d > 0, ~np.eye(n, dtype=bool))):
            raise ValueError("a cloud's distances must be symmetric, zero on the diagonal and positive elsewhere")
        if np.min(self.mass) <= 0:
            raise DegenerateWeightError("point masses must be positive")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def validate(self) -> dict:
        """Exhaustive checks of the quasi-metric axioms (n <= 512 is cheap)."""
        d = self.dist
        worst = 1.0
        for z in range(self.n):
            through = d[:, z][:, None] + d[z, :][None, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(through > 0, d / through, 0.0)
            worst = max(worst, float(np.max(ratio)))
        return {"quasi_triangle_constant": worst, "A0_ok": worst <= self.A0 * (1 + 1e-12)}

    @classmethod
    def from_points(cls, xy: np.ndarray, mass=None) -> "QuasiMetricCloud":
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        dist = sum((x[:, None] - x[None, :]) ** 2 for x in xy.T)  # one n x n block per coordinate
        np.sqrt(dist, out=dist)
        n = xy.shape[0]
        return cls(dist, np.ones(n) if mass is None else mass, A0=1.0)

    @classmethod
    def from_csv(cls, path) -> "QuasiMetricCloud":
        """Load `id,x,y[,mass]` rows (Euclidean) or `id_i,id_j,distance` edges."""
        with open(path) as fh:
            rows = list(csv.reader(fh))
        header = [h.strip().lower() for h in rows[0]] if rows else []
        body = rows[1:]
        if header[:3] not in (["id", "x", "y"], ["id_i", "id_j", "distance"]):
            raise ValueError("unrecognized cloud CSV header")
        width = 3 if header[0] == "id_i" else min(len(header), 4)
        if not body or any(len(r) < width for r in body):
            raise ValueError(f"a cloud CSV needs data rows of {width} fields under its header")
        if header[:3] == ["id", "x", "y"]:
            order = np.argsort([int(r[0]) for r in body])
            xy = np.array([[float(body[i][1]), float(body[i][2])] for i in order])
            mass = (
                np.array([float(body[i][3]) for i in order])
                if len(header) > 3
                else None
            )
            return cls.from_points(xy, mass)
        ids = sorted({int(r[0]) for r in body} | {int(r[1]) for r in body})
        index = {pid: k for k, pid in enumerate(ids)}
        n = len(ids)
        dist = np.zeros((n, n))  # a pair left out stays at 0, which the constructor rejects
        given = np.zeros((n, n), dtype=bool)
        for r in body:
            i, j, dv = index[int(r[0])], index[int(r[1])], float(r[2])
            if given[i, j] and dist[i, j] != dv:
                raise ValueError(f"cloud CSV gives the pair {r[0]},{r[1]} two different distances")
            given[i, j] = given[j, i] = True
            dist[i, j] = dist[j, i] = dv
        cloud = cls(dist, np.ones(n), A0=1.0)
        cloud.A0 = cloud.validate()["quasi_triangle_constant"]
        return cloud


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
    dist = np.zeros((n_points, n_points))
    for i in range(n_points):
        for j in range(i + 1, n_points):
            block = (i ^ j).bit_length()  # cells in the smallest common block: 2^block
            # scale by 0.9 so delta=1/2 nets at level k sit one per
            # generation-k block and nearest centers are strict
            dist[i, j] = dist[j, i] = 0.9 * 2.0 ** (block - depth)
    return QuasiMetricCloud(dist, np.ones(n_points), A0=1.0)


def build_nets(cloud: QuasiMetricCloud, delta: float, k_max: int | None = None):
    """Nested greedy maximal delta^k-separated center sets for k = 0.. .

    Level k candidates are the previous centers first (so nets are nested),
    then the remaining points in id order.  Auto mode extends k until every
    point is a center (all cubes become singletons) or 64 levels.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0,1)")
    if cloud.n == 0:
        raise ValueError("empty cloud")
    nets = []
    prev: list[int] = []
    limit = k_max + 1 if k_max is not None else 64
    for k in range(limit):
        radius = delta ** k
        seen = set(prev)
        order = list(prev) + [i for i in range(cloud.n) if i not in seen]
        centers: list[int] = []
        dmin = np.full(cloud.n, np.inf)
        for pid in order:
            if dmin[pid] >= radius:
                centers.append(pid)
                dmin = np.minimum(dmin, cloud.dist[pid])
        nets.append(np.array(centers))
        prev = centers
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

        Each level is one masked reduction over its (center x point) block of
        the distance matrix: own[c, p] says whether point p lies in cube c.
        """
        report = {"partition_ok": True, "nested_ok": True}
        inner, outer = math.inf, 0.0
        for level, (cs, a) in enumerate(zip(self.centers, self.assignment)):
            k = len(cs)
            if not (np.all((a >= 0) & (a < k)) and np.all(np.bincount(a, minlength=k))):
                report["partition_ok"] = False  # an index out of range, or an empty cube
            if level and not np.array_equal(self.parent[level][a], self.assignment[level - 1]):
                report["nested_ok"] = False
            d, own = self.cloud.dist[cs], a == np.arange(k)[:, None]
            scale = self.delta ** level
            outer = max(outer, float(np.max(d, where=own, initial=0.0)) / scale)
            inner = min(inner, float(np.min(d, where=~own, initial=math.inf)) / scale)
        a0 = self.cloud.A0
        report["outer_ball_constant"] = outer
        report["inner_ball_constant"] = inner if inner < math.inf else 1.0
        report["outer_target_2A0C0"] = 2.0 * a0
        report["inner_target_c0_over_3A0sq"] = 1.0 / (3.0 * a0 ** 2)
        return report


def assign_cubes(nets, cloud: QuasiMetricCloud, delta: float) -> CubeSystem:
    """Hierarchically constrained nearest-center assignment, one pass per level.

    At the top level every point takes its nearest center.  Below, a point
    chooses among the centers whose own cube at the previous level equals the
    point's cube (the others are masked to inf), which makes each generation a
    partition refining the previous one.  argmin takes the first minimum, so
    ties go to the smallest center index.
    """
    centers = [np.asarray(c) for c in nets]
    # the (center x point) rows dist[cs] are contiguous copies; symmetry makes them dist[:, cs].T
    assignment = [np.argmin(cloud.dist[centers[0]], axis=0)]
    parents = [np.array([], dtype=int)]
    for cs in centers[1:]:
        up = assignment[-1]
        parent_of_center = up[cs]
        d = cloud.dist[cs]
        d[parent_of_center[:, None] != up] = np.inf
        assignment.append(np.argmin(d, axis=0))
        parents.append(parent_of_center)
    return CubeSystem(cloud, delta, centers, assignment, parents)


def build_cube_system(
    cloud: QuasiMetricCloud, delta: float = 0.5, k_max: int | None = None
) -> CubeSystem:
    return assign_cubes(build_nets(cloud, delta, k_max), cloud, delta)


# -- Haar system -------------------------------------------------------------


@dataclass
class SHTHaarSystem:
    """The Haar functions as the rows of one (functions x points) array, each
    dense over the cloud and zero off its cube.  A cube's rows are consecutive
    and in peeling order; `level` and `cube` name the cube of each row."""

    system: CubeSystem
    functions: np.ndarray
    level: np.ndarray
    cube: np.ndarray
    top_cubes: int

    def coefficient_count(self) -> int:
        return len(self.functions)


def build_sht_haar(system: CubeSystem) -> SHTHaarSystem:
    """Peeling construction of the Haar functions, one fewer than children.

    Children are enumerated by decreasing mass (ties by descending child id,
    which orients equal-mass binary splits like the classical Haar function);
    E^1 = Q, E^{i+1} = E^i minus the i-th child, and
    h^i = a 1_{child_i} - b 1_{E^{i+1}} with a, b forced by L^2(mu)
    normalization and mean zero.  Every cube keeps its own center one level
    down, so each level adds (children - cubes) functions.
    """
    mu = system.cloud.mass
    count = len(system.centers[-1]) - len(system.centers[0])
    functions = np.zeros((count, system.cloud.n))
    level_of, cube_of = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    row = 0
    for level in range(system.n_levels - 1):
        here, below, parent = system.assignment[level], system.assignment[level + 1], system.parent[level + 1]
        for cube in np.flatnonzero(np.bincount(parent) > 1):  # a cube with one child waits until it subdivides
            kids = np.flatnonzero(parent == cube)
            masses = np.array([mu[below == k].sum() for k in kids])
            if np.any(masses <= 0):
                raise DegenerateWeightError("child cube with zero mass")
            order = sorted(range(kids.size), key=lambda i: (-masses[i], -kids[i]))
            rem_mask = here == cube
            for oi in order[:-1]:
                plus = below == kids[oi]
                minus = rem_mask & ~plus
                m_plus = float(mu[plus].sum())
                m_minus = float(mu[minus].sum())
                m_all = m_plus + m_minus
                functions[row, plus] = math.sqrt(m_minus / (m_all * m_plus))
                functions[row, minus] = -math.sqrt(m_plus / (m_all * m_minus))
                level_of[row], cube_of[row] = level, cube
                row += 1
                rem_mask = minus
    return SHTHaarSystem(system, functions, level_of, cube_of, top_cubes=len(system.centers[0]))


def sht_expand(f: np.ndarray, basis: SHTHaarSystem):
    """Coefficients against the Haar system plus the per-top-cube means."""
    mu = basis.system.cloud.mass
    fmu = np.asarray(f, dtype=float) * mu
    top = basis.system.assignment[0]
    tops = np.bincount(top, fmu, basis.top_cubes) / np.bincount(top, mu, basis.top_cubes)
    return basis.functions @ fmu, tops


def sht_reconstruct(coeffs: np.ndarray, tops: np.ndarray, basis: SHTHaarSystem) -> np.ndarray:
    return np.asarray(coeffs, dtype=float) @ basis.functions + np.asarray(tops)[basis.system.assignment[0]]


def gram_matrix(basis: SHTHaarSystem) -> np.ndarray:
    H, mu = basis.functions, basis.system.cloud.mass
    return H @ (mu[:, None] * H.T)
