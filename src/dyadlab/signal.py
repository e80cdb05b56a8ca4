"""Step functions on a dyadic mesh and the fast Haar transform.

A mesh is a root interval subdivided to depth J, giving N = 2^J equal cells.
Step functions are value arrays over the cells; every integral below is an
exact cell sum.  Intervals inside the mesh are addressed by (level, pos):
level 0 is the root, level J the cells, pos runs left to right.  The Haar
coefficient tree lives on levels 0..J-1; the root mean is carried separately
because the truncated Haar system spans only mean-zero functions.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightError, MeshMismatchError, ResolutionError
from .grid import DyadicInterval, GridParameters, standard_grid

MAX_DEPTH = 20  # 2^20 cells: the largest mesh a config or a signal file may ask for
MAX_SAMPLES = 10 ** 6  # the most samples a config may ask for: the Bellman check holds 9 doubles each


@dataclass(frozen=True)
class Mesh:
    root: DyadicInterval
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("mesh depth must be at least 1")
        self.root.grid.check_generation(self.root.j + self.depth)

    @property
    def grid(self) -> GridParameters:
        return self.root.grid

    @property
    def n_cells(self) -> int:
        return 1 << self.depth

    @property
    def cell_length(self) -> float:
        return self.root.length / self.n_cells

    def level_length(self, level: int) -> float:
        return self.root.length * 2.0 ** (-level)

    def first_index(self, level: int) -> int:
        """Grid index of the leftmost level-`level` descendant of the root: the
        root's left end less the shift x_j, in units of 2^-j (exact integers)."""
        j = self.root.j + level
        return (self.root._unscaled_left_numerator() - self.grid.shift_numerator(j)) >> (self.grid.j_max - j)

    def cell_edges(self) -> np.ndarray:
        """The N+1 cell endpoints, exact integer arithmetic scaled by r last."""
        base = self.root._unscaled_left_numerator()
        step = 1 << (self.grid.j_max - self.root.j - self.depth)
        nums = base + step * np.arange(self.n_cells + 1, dtype=float)
        return self.grid.r * (nums / 2.0 ** self.grid.j_max)

    def cell_midpoints(self) -> np.ndarray:
        e = self.cell_edges()
        return 0.5 * (e[:-1] + e[1:])

    def cell_slice(self, level: int, pos: int) -> slice:
        width = 1 << (self.depth - level)
        return slice(pos * width, (pos + 1) * width)


@dataclass
class StepFunction:
    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.mesh.n_cells,):
            raise ValueError(f"expected {self.mesh.n_cells} cell values, got {vals.shape}")
        self.values = vals

    def prefix_integrals(self) -> np.ndarray:
        """P[i] = integral over the first i cells (length N+1)."""
        out = np.zeros(self.mesh.n_cells + 1)
        np.cumsum(self.values * self.mesh.cell_length, out=out[1:])
        return out

    def __add__(self, other):
        return StepFunction(self.mesh, self.values + _coerce(self, other))

    def __sub__(self, other):
        return StepFunction(self.mesh, self.values - _coerce(self, other))

    def __mul__(self, other):
        return StepFunction(self.mesh, self.values * _coerce(self, other))

    __rmul__ = __mul__

    def __abs__(self):
        return StepFunction(self.mesh, np.abs(self.values))

    def to_csv(self, path, meta_path=None):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["cell_index", "value"])
            for i, v in enumerate(self.values):
                w.writerow([i, repr(float(v))])
        if meta_path is not None:
            root = self.mesh.root
            with open(meta_path, "w") as fh:
                json.dump({"root_left": root.left, "root_right": root.right, "depth": self.mesh.depth}, fh)

    @classmethod
    def from_csv(cls, path, meta_path, grid: GridParameters | None = None) -> "StepFunction":
        """Load a signal; the root is located on `grid` (default: the standard grid), using the side
        file's root_left and length.  The side file holds exactly root_left < root_right, finite
        numbers a finite length apart, and depth, an integer in 1..MAX_DEPTH."""
        with open(meta_path) as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict) or set(meta) != {"root_left", "root_right", "depth"}:
            raise ValueError("signal side file needs an object with exactly the keys root_left, root_right and depth")
        left, right, depth = meta["root_left"], meta["root_right"], meta["depth"]
        if not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in (left, right)):
            raise ValueError(f"signal root_left and root_right must be finite numbers, got {left!r} and {right!r}")
        length = float(right) - float(left)
        if not 0.0 < length < math.inf:
            raise ValueError("signal root needs root_left < root_right, a finite length apart")
        if type(depth) is not int or not 1 <= depth <= MAX_DEPTH:
            raise ValueError(f"signal depth must be an integer between 1 and {MAX_DEPTH} (memory guard)")
        if grid is None:
            j = round(-math.log2(length))
            grid = standard_grid(min(j, 0) - 1, max(j + depth, 0) + 1)
        j_root = round(math.log2(grid.r) - math.log2(length))
        if abs(grid.generation_length(j_root) - length) > 1e-12 * length:
            raise ValueError("root length does not match a grid generation")
        if not (grid.j_min <= j_root and j_root + depth <= grid.j_max):
            raise ValueError(f"generations {j_root}..{j_root + depth} outside window [{grid.j_min},{grid.j_max}]")
        root = grid.locate(left + 0.25 * length, j_root)
        if abs(root.left - left) > 1e-9 * max(1.0, abs(left)):
            raise ValueError("root_left is not a grid interval endpoint")
        mesh = Mesh(root, depth)
        vals = np.zeros(mesh.n_cells)
        given = np.zeros(mesh.n_cells, dtype=bool)
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            column = {name: k for k, name in enumerate(header)}  # as in csv.DictReader, a repeated name: its last column
            if not {"cell_index", "value"} <= set(column):
                raise ValueError("signal CSV needs a cell_index and a value column")
            at_i, at_v, width, n = column["cell_index"], column["value"], len(header), mesh.n_cells
            for row in filter(None, reader):  # blank lines are skipped
                row += ["nan"] * (width - len(row))  # a short row fails the finite check
                i, v = int(row[at_i]), float(row[at_v])
                if not (0 <= i < n and math.isfinite(v)):
                    raise ValueError(f"row {i},{v}: need cell_index in [0, {n}) and a finite value")
                if given[i] and vals[i] != v:
                    raise ValueError(f"signal CSV gives cell {i} two different values")
                vals[i], given[i] = v, True
        return cls(mesh, vals)


def _coerce(f: StepFunction, other) -> np.ndarray:
    if isinstance(other, StepFunction):
        if other.mesh != f.mesh:
            raise MeshMismatchError("step functions live on different meshes")
        return other.values
    return np.asarray(other, dtype=float)


class _Primitive:
    """Primitive of the zero-extended step function at arbitrary finite points:
    P[u] + V[u] (x - E[u]), with u the number of cell edges at or left of x and
    the primitive, values and left edges padded with one zero cell at each end."""

    def __init__(self, f: StepFunction):
        edges = f.mesh.cell_edges()
        # slot u holds [bounds[u], bounds[u + 1]); NaN leaves the slots outside the mesh open
        self.bounds = np.concatenate(([np.nan], edges, [np.nan]))
        self.lefts = np.concatenate((edges[:1], edges))
        self.pref = np.concatenate(([0.0], f.prefix_integrals()))
        self.vals = np.concatenate(([0.0], f.values, [0.0]))
        self.origin, self.cell_length = edges[0], f.mesh.cell_length

    def slots(self, xs: np.ndarray) -> np.ndarray:
        """np.searchsorted(edges, xs, "right") without a search: the edges are
        uniform, so floor((x - e_0) / h) + 1 is the slot up to rounding, and
        the estimate is moved against the edges themselves until it holds x."""
        u = np.clip((xs - self.origin) / self.cell_length + 1.0, 0.0, self.vals.size - 1).astype(np.intp)
        while True:
            fix = np.subtract(xs >= self.bounds.take(u + 1), xs < self.bounds.take(u), dtype=np.intp)
            if not fix.any():
                return u
            u += fix

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        u = self.slots(xs)
        return self.pref.take(u) + self.vals.take(u) * (xs - self.lefts.take(u))


@dataclass
class HaarSpectrum:
    """Root mean plus the Haar coefficient tree, one array per level 0..J-1."""

    mesh: Mesh
    mean: float
    levels: list[np.ndarray]

    def __post_init__(self):
        if len(self.levels) != self.mesh.depth:
            raise ValueError("spectrum must carry one array per coefficient level")
        self.levels = [np.asarray(a, dtype=float) for a in self.levels]

    def energy(self) -> float:
        """Sum of squared Haar coefficients (mean term excluded)."""
        return float(sum(float(np.dot(a, a)) for a in self.levels))


def _resolve(mesh: Mesh, where) -> tuple[int, int]:
    level, pos = where
    if not (0 <= level <= mesh.depth and 0 <= pos < (1 << level)):
        raise ResolutionError(f"({level},{pos}) not addressable on this mesh")
    return (int(level), int(pos))


def average(f: StepFunction, where) -> float:
    """Lebesgue average of f over a mesh interval."""
    level, pos = _resolve(f.mesh, where)
    return float(f.values[f.mesh.cell_slice(level, pos)].mean())


def inner(f: StepFunction, g: StepFunction) -> float:
    if f.mesh != g.mesh:
        raise MeshMismatchError("inner product needs a common mesh")
    return float(np.dot(f.values, g.values) * f.mesh.cell_length)


def lp_norm(f: StepFunction, p: float, w: StepFunction | None = None) -> float:
    if p < 1:
        raise ValueError("lp_norm needs p >= 1")
    dens = f.mesh.cell_length if w is None else w.values * f.mesh.cell_length
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    return float(np.sum(np.abs(f.values) ** p * dens) ** (1.0 / p))


def _pair_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, bit for bit what np.sum returns on each pair: numpy's sum
    starts from +0.0, which only turns the sum of two -0.0 into +0.0."""
    s = a + b
    s += 0.0
    return s


def _pair_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a + b) / 2, bit for bit what np.mean returns on each pair."""
    m = _pair_sum(a, b)
    m /= 2
    return m


# the pairwise form of each reduction `pyramid` accepts
_PAIRWISE = {
    np.mean: _pair_mean,
    np.sum: _pair_sum,
    np.min: np.minimum,
    np.max: np.maximum,
}


def pyramid(values: np.ndarray, reduce) -> list[np.ndarray]:
    """`reduce` (np.mean, np.min, np.max or np.sum) over every tree interval,
    levels 0..J, taken pairwise up from the cells; level J is a copy of the
    cell values.  Each level pairs the even and odd entries of the one below
    as strided slices.  Leading axes of `values` (..., 2^J) are a batch: each
    row gets its own pyramid, bit for bit the one of the row alone."""
    pair = _PAIRWISE[reduce]
    out = [np.array(values, dtype=float)]
    while out[-1].shape[-1] > 1:
        out.append(pair(out[-1][..., 0::2], out[-1][..., 1::2]))
    out.reverse()
    return out


def broadcast(levels, combine) -> np.ndarray:
    """The dual of `pyramid`: push per-level arrays from the coarsest down to
    the last (finest) one given, each child taking combine(parent, own entry),
    with combine np.add or np.maximum; the even and odd children are written
    as strided slices.  Leading axes (..., 2^l) are a batch, as in `pyramid`."""
    cur = levels[0]
    for level in levels[1:]:
        nxt = np.empty(level.shape, dtype=np.result_type(cur, level))
        combine(cur, level[..., 0::2], out=nxt[..., 0::2])
        combine(cur, level[..., 1::2], out=nxt[..., 1::2])
        cur = nxt
    return cur


def means_pyramid(f: StepFunction) -> list[np.ndarray]:
    """Per-interval averages for levels 0..J; level J is the cell values."""
    return pyramid(f.values, np.mean)


def haar_function(mesh: Mesh, where) -> StepFunction:
    """h_I = |I|^{-1/2} (1_{I_right} - 1_{I_left}); I must sit above cell level."""
    level, pos = _resolve(mesh, where)
    if level >= mesh.depth:
        raise ResolutionError("Haar function of a cell is not representable on the mesh")
    vals = np.zeros(mesh.n_cells)
    sl = mesh.cell_slice(level, pos)
    half = (sl.stop - sl.start) // 2
    amp = 1.0 / math.sqrt(mesh.level_length(level))
    vals[sl.start : sl.start + half] = -amp
    vals[sl.start + half : sl.stop] = amp
    return StepFunction(mesh, vals)


def sibling_difference(pyr: list[np.ndarray], level: int) -> np.ndarray:
    """Per interval of `level`, its right child's entry minus its left child's in `pyr`."""
    fine = pyr[level + 1]
    return fine[1::2] - fine[0::2]


def analyze(f: StepFunction) -> HaarSpectrum:
    """The means pyramid, then c_I = |I|^{1/2} (<f>_{I_right} - <f>_{I_left}) / 2."""
    mesh = f.mesh
    pyr = pyramid(f.values, np.mean)
    levels = [sibling_difference(pyr, level) for level in range(mesh.depth)]
    for level, c in enumerate(levels):
        c *= 0.5 * math.sqrt(mesh.level_length(level))
    return HaarSpectrum(mesh, float(pyr[0][0]), levels)


def haar_refine(cur: np.ndarray, step: np.ndarray) -> np.ndarray:
    """One level of Haar synthesis: the left children of `cur` take
    cur - step and the right children cur + step, along the last axis."""
    out = np.empty(cur.shape[:-1] + (2 * cur.shape[-1],))
    np.subtract(cur, step, out=out[..., 0::2])
    np.add(cur, step, out=out[..., 1::2])
    return out


def haar_steps(s: HaarSpectrum):
    """Yield per level the value c_I |I|^{-1/2} of each Haar term of s on the right half of I."""
    for level, coeffs in enumerate(s.levels):
        yield coeffs * (1.0 / math.sqrt(s.mesh.level_length(level)))


def partial_sums(s: HaarSpectrum):
    """Yield the Haar partial sums of s through levels 0..J-1; the one through
    level l lives on the 2^(l+1) children of level l, the last on the cells."""
    cur = np.array([s.mean])
    for step in haar_steps(s):
        cur = haar_refine(cur, step)
        yield cur


def synthesize(s: HaarSpectrum) -> StepFunction:
    for cells in partial_sums(s):
        pass
    return StepFunction(s.mesh, cells)


# -- weighted Haar system --------------------------------------------------


def _weighted_amplitudes(w: StepFunction, level: int, pos: int):
    """(sl, half, a, b): h^w_I is -b on the left half of I and a on the right."""
    sl = w.mesh.cell_slice(level, pos)
    half = (sl.stop - sl.start) // 2
    cl = w.mesh.cell_length
    m_left = float(w.values[sl.start : sl.start + half].sum() * cl)
    m_right = float(w.values[sl.start + half : sl.stop].sum() * cl)
    if m_left <= 0.0 or m_right <= 0.0:
        raise DegenerateWeightError("weighted Haar function needs positive mass on both halves")
    m = m_left + m_right
    return sl, half, math.sqrt(m_left / (m * m_right)), math.sqrt(m_right / (m * m_left))


def weighted_haar(w: StepFunction, where) -> StepFunction:
    """h^w_I, normalized in L^2(w) and of w-mean zero on I."""
    level, pos = _resolve(w.mesh, where)
    if level >= w.mesh.depth:
        raise ResolutionError("weighted Haar function of a cell is not representable")
    sl, half, a, b = _weighted_amplitudes(w, level, pos)
    vals = np.zeros(w.mesh.n_cells)
    vals[sl.start : sl.start + half] = -b
    vals[sl.start + half : sl.stop] = a
    return StepFunction(w.mesh, vals)


def weighted_decomposition(w: StepFunction, where) -> tuple[float, float]:
    """Coefficients (alpha, beta) with h_I = alpha h^w_I + beta 1_I/sqrt(|I|).

    Solving the two constant-value equations on the halves of I gives
    alpha = 2/(sqrt(|I|)(a+b)) and beta = (b-a)/(a+b) with a, b the weighted
    Haar amplitudes.  The bounds |alpha| <= sqrt(<w>_I) and
    |beta| <= |Delta_I w|/<w>_I follow.
    """
    level, pos = _resolve(w.mesh, where)
    if level >= w.mesh.depth:
        raise ResolutionError("decomposition below cell level")
    _, _, a, b = _weighted_amplitudes(w, level, pos)
    length = w.mesh.level_length(level)
    alpha = 2.0 / (math.sqrt(length) * (a + b))
    beta = (b - a) / (a + b)
    return (alpha, beta)
