"""Dyadic operators: maximal function, Haar multipliers, shifts, paraproducts,
commutators, the exact Hilbert transform of step functions, and operator-norm
estimation on weighted L^2.

Every coefficient-space operator here annihilates the root mean term: the
bi-infinite sums they model carry no mean term, so isometry statements are
exact on the mean-zero subspace of the truncated system.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularPointError
from .grid import sample_random_grid
from .signal import (
    HaarSpectrum,
    Mesh,
    StepFunction,
    _Primitive,
    _resolve,
    analyze,
    broadcast,
    means_pyramid,
    partial_sums,
    synthesize,
)


@dataclass
class SignSymbol:
    """A choice of signs sigma_I = +-1 per coefficient-tree interval."""

    mesh: Mesh
    levels: list[np.ndarray]

    def __post_init__(self):
        if len(self.levels) != self.mesh.depth:
            raise ValueError("sign symbol needs one array per coefficient level")
        self.levels = [np.asarray(a, dtype=float) for a in self.levels]
        for l, a in enumerate(self.levels):
            if a.shape != (1 << l,):
                raise ValueError(f"sign symbol level {l} needs {1 << l} signs, got shape {a.shape}")
            if not np.all(np.abs(a) == 1.0):
                raise ValueError("sign symbol values must be +-1")

    @classmethod
    def constant(cls, mesh: Mesh) -> "SignSymbol":
        return cls(mesh, [np.ones(1 << l) for l in range(mesh.depth)])

    @classmethod
    def random(cls, mesh: Mesh, rng) -> "SignSymbol":
        return cls(
            mesh,
            [rng.integers(0, 2, size=1 << l) * 2.0 - 1.0 for l in range(mesh.depth)],
        )


# -- maximal functions -------------------------------------------------------


def maximal_dyadic(f: StepFunction) -> StepFunction:
    """Dyadic maximal function over the mesh tree, cells included."""
    means = means_pyramid(StepFunction(f.mesh, np.abs(f.values)))
    return StepFunction(f.mesh, broadcast(means, np.maximum))


def maximal_over_grid(f: StepFunction, grid, points) -> np.ndarray:
    """sup over `grid` intervals containing each point of the average of |f|.

    Averages use the zero extension of f; intervals are scanned over all
    window generations of the supplied grid.
    """
    pts = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("maximal_over_grid needs finite points")
    primitive = _Primitive(StepFunction(f.mesh, np.abs(f.values)))
    best = np.zeros(pts.shape)
    for j in range(grid.j_min, grid.j_max + 1):
        length = grid.generation_length(j)
        off = grid.r * float(grid.shift(j))
        ks = np.floor((pts - off) / length)
        lefts = off + ks * length
        avg = (primitive(lefts + length) - primitive(lefts)) / length
        best = np.maximum(best, avg)
    return best


# -- Haar multipliers and shifts ---------------------------------------------


def martingale_transform(f: StepFunction, sigma: SignSymbol) -> StepFunction:
    return haar_shift(f, ShiftCoefficients.from_sign_symbol(sigma))


def sharp_truncation(f: StepFunction, sigma: SignSymbol) -> StepFunction:
    """T^sharp f(x) = sup over I' containing x of |sum_{I >= I'} sigma_I <f,h_I> h_I(x)|."""
    s = analyze(f)
    signed = HaarSpectrum(f.mesh, 0.0, [c * sg for c, sg in zip(s.levels, sigma.levels)])
    return StepFunction(f.mesh, broadcast([np.zeros(1), *map(np.abs, partial_sums(signed))], np.maximum))


def square_function(f: StepFunction) -> StepFunction:
    """S f = (sum_I |<f,h_I>|^2 / |I| 1_I)^{1/2} over the coefficient tree."""
    mesh = f.mesh
    levels = [c ** 2 / mesh.level_length(l) for l, c in enumerate(analyze(f).levels)]
    return StepFunction(mesh, np.sqrt(broadcast([*levels, np.zeros(mesh.n_cells)], np.add)))


def square_coefficient_norm(f: StepFunction, w: StepFunction) -> float:
    """The identity ||S f||_{L2(w)}^2 = sum_I |<f,h_I>|^2 <w>_I, coefficient side."""
    s = analyze(f)
    pw = means_pyramid(w)
    return math.sqrt(
        sum(float(np.dot(c ** 2, m)) for c, m in zip(s.levels, pw))
    )


def petermichl_shift(f: StepFunction) -> StepFunction:
    """Sha f = sum <f,h_I> 2^{-1/2}(h_{I_r} - h_{I_l}).

    The deepest input level has children below the mesh resolution and is
    annihilated by the window truncation.
    """
    return haar_shift(f, ShiftCoefficients.petermichl(f.mesh))


@dataclass
class ShiftCoefficients:
    """Coefficients c^L_{I,J} of a Haar shift of complexity (m, n).

    tables[l] has shape (2^l, 2^m, 2^n): for the L at level l and position q,
    entry (q, i, j) couples the i-th level-(l+m) descendant of L to the j-th
    level-(l+n) descendant.  The normalization |c| <= sqrt(|I||J|)/|L|
    becomes the scale-free bound 2^{-(m+n)/2}.  A mesh of depth max(m, n)
    holds no L with both descendant levels above the cells: no tables, and
    the shift is zero.
    """

    mesh: Mesh
    m: int
    n: int
    tables: list[np.ndarray]

    def __post_init__(self):
        depth = self.mesh.depth
        expected = depth - max(self.m, self.n)
        if expected < 0:
            raise ValueError("complexity too deep for this mesh")
        if len(self.tables) != expected:
            raise ValueError(f"need tables for L-levels 0..{expected - 1}")
        bound = 2.0 ** (-(self.m + self.n) / 2.0) * (1.0 + 1e-12)
        self.tables = [np.asarray(t, dtype=float) for t in self.tables]
        for l, t in enumerate(self.tables):
            if t.shape != (1 << l, 1 << self.m, 1 << self.n):
                raise ValueError(f"table {l} has shape {t.shape}")
            if np.max(np.abs(t)) > bound:
                raise ValueError("coefficient normalization |c| <= sqrt(|I||J|)/|L| violated")

    @classmethod
    def from_sign_symbol(cls, sigma: SignSymbol) -> "ShiftCoefficients":
        tables = [a.reshape(-1, 1, 1).copy() for a in sigma.levels]
        return cls(sigma.mesh, 0, 0, tables)

    @classmethod
    def petermichl(cls, mesh: Mesh) -> "ShiftCoefficients":
        """Sha: the image coefficient on a child I of L is 2^{-1/2} sigma(I)
        <f, h_L>, sigma = -1 on left children and +1 on right ones."""
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        tables = [np.tile([-inv_sqrt2, inv_sqrt2], (1 << l, 1, 1)) for l in range(mesh.depth - 1)]
        return cls(mesh, 0, 1, tables)

    @classmethod
    def random(cls, mesh: Mesh, m: int, n: int, rng) -> "ShiftCoefficients":
        bound = 2.0 ** (-(m + n) / 2.0)
        tables = [
            rng.uniform(-bound, bound, size=(1 << l, 1 << m, 1 << n))
            for l in range(mesh.depth - max(m, n))
        ]
        return cls(mesh, m, n, tables)

    def transpose(self) -> "ShiftCoefficients":
        return ShiftCoefficients(
            self.mesh, self.n, self.m, [t.transpose(0, 2, 1).copy() for t in self.tables]
        )


def haar_shift(f: StepFunction, coeffs: ShiftCoefficients) -> StepFunction:
    return StepFunction(f.mesh, LinearOperator(f.mesh, "haar", coeffs, "haar").apply(f.values))


# -- paraproducts and commutators --------------------------------------------


def paraproduct(b: StepFunction, f: StepFunction) -> StepFunction:
    """pi_b f = sum <f>_I <b,h_I> h_I."""
    return StepFunction(f.mesh, LinearOperator(f.mesh, "means", analyze(b).levels, "haar").apply(f.values))


def paraproduct_adjoint(b: StepFunction, f: StepFunction) -> StepFunction:
    """pi*_b f = sum <b,h_I> <f,h_I> 1_I / |I|."""
    return StepFunction(f.mesh, LinearOperator(f.mesh, "haar", analyze(b).levels, "means").apply(f.values))


def product_decomposition(b: StepFunction, f: StepFunction):
    """(pi_b f, pi*_b f, pi_f b, correction) with
    b*f = pi_b f + pi*_b f + pi_f b + correction  cell-wise, where the
    correction is the rank-one mean term <b>_root <f>_root 1_root forced by
    the truncation."""
    pb = paraproduct(b, f)
    pstar = paraproduct_adjoint(b, f)
    pf = paraproduct(f, b)
    mb = float(np.mean(b.values))
    mf = float(np.mean(f.values))
    correction = StepFunction(f.mesh, np.full(f.mesh.n_cells, mb * mf))
    return pb, pstar, pf, correction


def chung_decomposition(b: StepFunction, f: StepFunction):
    """The three commutator pieces ([pi_b,Sha]f, [pi*_b,Sha]f, pi_{Sha f}b - Sha(pi_f b)).

    Their sum equals [b,Sha]f exactly on the mesh: Sha annihilates constants
    and outputs mean-zero functions, so the product-decomposition mean terms
    cancel.
    """
    sha_f = petermichl_shift(f)
    term_a = paraproduct(b, sha_f) - petermichl_shift(paraproduct(b, f))
    term_b = paraproduct_adjoint(b, sha_f) - petermichl_shift(paraproduct_adjoint(b, f))
    term_c = paraproduct(sha_f, b) - petermichl_shift(paraproduct(f, b))
    return term_a, term_b, term_c


# -- exact Hilbert transform --------------------------------------------------


HILBERT_BLOCK_ELEMENTS = 1 << 20  # cap on one block of hilbert_exact's points x active-edges logs


def hilbert_exact(f: StepFunction, x_points=None) -> np.ndarray:
    """H f at the given points, exactly, for the zero-extended step function.

    H f(x) = (1/pi) sum_k f_k log(|x-a_k|/|x-b_k|) over the cells [a_k, b_k),
    telescoped over the cell edges: (1/pi) sum_k D_k log|x - e_k| with D_k
    the jump of f at edge e_k.  x_points defaults to the cell midpoints,
    which dodge the log singularities.  There x_i - e_k = (i - k + 1/2) h,
    so the sum is a Toeplitz product, evaluated by FFT in O(N log N) time and
    O(N) memory.  Other points take the dense points x active-edges sum, in
    blocks of points of at most HILBERT_BLOCK_ELEMENTS entries.
    Points falling on an edge where f jumps raise SingularPointError; edges
    with equal values on both sides contribute nothing and are safe.
    """
    jumps = np.diff(f.values, prepend=0.0, append=0.0)  # length N+1, at edges
    xs = None if x_points is None else np.asarray(x_points, dtype=float)
    if xs is None or np.array_equal(xs, f.mesh.cell_midpoints()):
        return _hilbert_at_midpoints(jumps, f.mesh.cell_length)
    active = jumps != 0.0
    edges, jumps = f.mesh.cell_edges()[active], jumps[active]
    if np.any(np.isin(xs, edges)):
        raise SingularPointError("evaluation point coincides with a jump of f")
    out = np.empty(xs.size)
    rows = max(1, HILBERT_BLOCK_ELEMENTS // max(1, edges.size))
    for i in range(0, xs.size, rows):
        out[i : i + rows] = np.log(np.abs(xs[i : i + rows, None] - edges)) @ jumps
    return out / math.pi


def _hilbert_at_midpoints(jumps: np.ndarray, h: float) -> np.ndarray:
    """(1/pi) sum_k D_k log|(i - k + 1/2) h| for the N cells i and N+1 edges k,
    as one linear convolution of the jumps with log|m + 1/2|, m = -N..N-1.
    The convolution has 3N terms, and its entries N..2N-1 alias nothing
    under a circular product of length 2N."""
    n = jumps.size - 1
    kernel = np.log(np.abs(np.arange(-n, n) + 0.5))
    conv = np.fft.irfft(np.fft.rfft(jumps, 2 * n) * np.fft.rfft(kernel), 2 * n)
    return (conv[n:] + math.log(h) * jumps.sum()) / math.pi


def hilbert_of_indicator(a: float, b: float, xs) -> np.ndarray:
    """Closed form H 1_{[a,b]}(x) = (1/pi) log(|x-a|/|x-b|)."""
    xs = np.asarray(xs, dtype=float)
    if np.any((xs == a) | (xs == b)):
        raise SingularPointError("evaluation point at an endpoint")
    return np.log(np.abs(xs - a) / np.abs(xs - b)) / math.pi


# -- Petermichl averaging ------------------------------------------------------


HILBERT_RECONSTRUCTION_FACTOR = 8.0 * math.log(2.0) / math.pi
CANONICAL_MARGIN_CAP = 8
# cap on the (generation x cell edge) work arrays of one shifted_grid_transform block
TRANSFORM_BLOCK_ELEMENTS = 1 << 20


def average_shift(
    f: StepFunction, n_samples: int, seed: int, margin: int = 6
) -> StepFunction:
    """Monte-Carlo reconstruction of the Hilbert transform from random shifts
    at one window margin: the `margin` entry of `average_shifts`."""
    return average_shifts(f, n_samples, seed, [margin])[margin]


def average_shifts(f: StepFunction, n_samples: int, seed: int, margins) -> dict:
    """Monte-Carlo reconstructions of the Hilbert transform from random
    shifts, one per window margin: {margin: StepFunction}.

    Averages (8 ln2 / pi) * Sha^{r,beta} applied to the mean-zero part of f
    over sampled grids: with probability-normalized scale sampling (density
    1/(r ln 2) on [1,2)) the expected shift kernel is (x-y)^{-1}/(8 ln 2), so
    the average converges to H of the zero-extended mean-zero part (constants
    map to zero for every sample).  Grids are drawn by `sample_random_grid`
    from the stream (seed, sample_index) on the canonical window of margin
    cap = max(margin, CANONICAL_MARGIN_CAP), and a margin selects the
    generations [j_root - margin, j_cell + margin] entering the sum, so
    widening the window adds terms on the same sampled grids.  Margins that
    share a cap therefore share one pass: each sampled grid is drawn once
    and each of its generations evaluated once, its terms added to every
    window holding it.  The results are averaged onto the mesh cells exactly.
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    mesh = f.mesh
    fz = StepFunction(mesh, f.values - f.values.mean())
    j_root, j_cell = mesh.root.j, mesh.root.j + mesh.depth
    groups = {}
    for margin in sorted(set(margins)):
        groups.setdefault(max(margin, CANONICAL_MARGIN_CAP), []).append(margin)
    out = {}
    for cap, group in groups.items():
        jc_lo, jc_hi = j_root - cap, j_cell + cap
        transform = _WindowTransforms(fz, [(j_root - m, j_cell + m) for m in group])
        # 2^-j for j = jc_hi down to jc_lo + 1; x_j is entry jc_hi - j of the running sums below
        scales = 2.0 ** -np.arange(jc_hi, jc_lo, -1)
        acc = np.zeros((len(group), mesh.n_cells))
        for idx in range(n_samples):
            grid = sample_random_grid(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)), jc_lo, jc_hi)
            # x_j = sum_{i>j} beta_i 2^-i, summed from the finest generation up
            shifts = np.cumsum(np.r_[0.0, np.array(grid.beta[:0:-1]) * scales])
            acc += transform(grid.r, shifts[jc_hi - transform.gens])
        for margin, values in zip(group, acc):
            out[margin] = StepFunction(mesh, (HILBERT_RECONSTRUCTION_FACTOR / n_samples) * values)
    return out


def shifted_grid_transform(f: StepFunction, r: float, shifts, j_lo: int, j_hi: int) -> StepFunction:
    """Sha^{r,x} of the zero-extended f, cell-averaged onto f's mesh.

    `shifts` maps each generation j in [j_lo, j_hi] to its real offset x_j
    (before scaling by r).  The primitive of the output at a cell edge e is
    sum_j d_I phi((e - left(I)) / |I|) over the generation-j interval I
    holding e, where d_I is the integral of f over the right half of I minus
    that over the left half and phi is the primitive of the unit-scale shift
    pattern, so only intervals holding an edge count and each is evaluated
    once.  An interval no longer than a cell holds a
    single edge, hence a single jump Delta of f, and d_I = Delta |I| min(t, 1-t)
    in closed form with t the edge's relative position; coarser intervals take
    d_I from three lookups of the primitive of f, at cells found without a
    search on the uniform edges.  On the aligned grid (r = 1, zero
    shifts, generations inside the mesh) this reproduces the in-tree
    Petermichl shift exactly: the deepest coefficient level cell-averages to
    zero, matching the window truncation.
    """
    offsets = np.array([shifts[j] for j in range(j_lo, j_hi + 1)], dtype=float)
    return StepFunction(f.mesh, _WindowTransforms(f, [(j_lo, j_hi)])(r, offsets)[0])


class _WindowTransforms:
    """`shifted_grid_transform` cell values of one signal for each generation
    window (j_lo, j_hi) in `windows`, one row each, on the sampled grid of
    each call (scale r, offsets x_j for j in `gens`).  The generations of all
    windows are evaluated once, in (generation x edge) blocks of at most
    TRANSFORM_BLOCK_ELEMENTS elements.  Each window adds its rows of a block
    to its running sum in one reduction, in generation order, so its result
    is bit for bit that of a call with it alone.

    The signal's padded primitive and jumps are built once, and every block
    of every call writes into the same block-sized work arrays, so that the
    heap does not shrink and regrow, refaulting their pages, once per sample.
    A call returns one of these arrays, overwritten by the next call.
    """

    def __init__(self, f: StepFunction, windows):
        mesh = f.mesh
        self.cell_length = mesh.cell_length
        self.primitive = _Primitive(f)
        self.edges = self.primitive.bounds[1:-1]
        self.jumps = np.diff(f.values, prepend=0.0, append=0.0)
        self.gens = np.arange(min(lo for lo, _ in windows), max(hi for _, hi in windows) + 1)
        self.scales = 2.0 ** -self.gens.astype(float)
        self.step = max(1, TRANSFORM_BLOCK_ELEMENTS // self.edges.size)
        shape = (min(self.step, self.gens.size), self.edges.size)
        self.t, self.ke, self.scratch = (np.empty(shape) for _ in range(3))
        # phi, then d: once phi has multiplied d, its last row is free to hold the running
        # sum a window carries from an earlier block, so that it is added before its rows
        self.phi_d = np.empty((2 * shape[0], shape[1]))
        # the gather index shares the scratch's memory: a block writes it on
        # the rows [:wide] after its last read of the scratch there, and uses
        # the scratch afterwards on the rows [wide:] only
        self.index = self.scratch.view(np.int64)
        # (first row, last row, window) by first row: a carry row may hold a row of an earlier-starting window
        self.spans = sorted((lo - self.gens[0], hi - self.gens[0], w) for w, (lo, hi) in enumerate(windows))
        self.p_edges = np.empty((len(windows), self.edges.size))
        self.out = np.empty((len(windows), mesh.n_cells))

    def __call__(self, r: float, offsets: np.ndarray) -> np.ndarray:
        edges, p_edges = self.edges, self.p_edges
        ells = r * self.scales
        offs = r * offsets
        p_edges.fill(0.0)
        for start in range(0, self.gens.size, self.step):
            ell = ells[start : start + self.step, None]
            off = offs[start : start + self.step, None]
            rows = ell.shape[0]
            t, ke, phi, s = (a[:rows] for a in (self.t, self.ke, self.phi_d, self.scratch))
            d_ext = self.phi_d[self.t.shape[0] - 1 : self.t.shape[0] + rows]
            d = d_ext[1:]
            np.subtract(edges, off, out=t)
            np.divide(t, ell, out=t)
            np.floor(t, out=ke)
            t -= ke
            # phi = max(min(t, 0.5 - t), t - 1)
            np.subtract(0.5, t, out=s)
            np.minimum(t, s, out=phi)
            np.subtract(t, 1.0, out=s)
            np.maximum(phi, s, out=phi)
            # lengths decrease down the rows: the first `wide` generations are coarser than a cell
            wide = int(np.count_nonzero(ell > self.cell_length))
            if wide:
                _interval_differences(self.primitive, off[:wide, 0], ell[:wide, 0], ke[:wide], d[:wide], self.index[:wide])
            # below the cell scale d = jumps * ell * min(t, 1 - t)
            np.subtract(1.0, t[wide:], out=s[wide:])
            np.minimum(t[wide:], s[wide:], out=s[wide:])
            np.multiply(self.jumps, ell[wide:], out=d[wide:])
            d[wide:] *= s[wide:]
            d *= phi
            # window w's rows in this block are d_ext[a + 1 : b + 1], its running sum goes in d_ext[a]
            for lo, hi, w in self.spans:
                a, b = max(lo - start, 0), min(hi - start + 1, rows)
                if a < b:
                    d_ext[a] = p_edges[w]
                    np.add.reduce(d_ext[a : b + 1], axis=0, out=p_edges[w])
        np.subtract(p_edges[:, 1:], p_edges[:, :-1], out=self.out)
        self.out /= self.cell_length
        return self.out


def _interval_differences(primitive, off, ell, ke, out, index):
    """d_I (right-half minus left-half integral of f) at the interval indices
    `ke`, one row per generation and nondecreasing along the row, written to
    `out`; `index` is an int64 work array of ke's shape.  Each distinct
    interval costs three lookups of the padded primitive of f."""
    lo = ke[:, 0]
    counts = (ke[:, -1] - lo).astype(np.int64) + 1
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    ks = np.arange(first[-1] + counts[-1]) + np.repeat(lo - first, counts)
    ells = np.repeat(ell, counts)
    lefts = np.repeat(off, counts) + ks * ells
    # one lookup at a time keeps the temporaries of the primitive m points long
    right = primitive(lefts + ells)
    middle = primitive(lefts + 0.5 * ells)
    d = right - 2.0 * middle + primitive(lefts)
    np.subtract(ke, lo[:, None], out=index, casting="unsafe")
    index += first[:, None]
    # every index lies in [0, m); mode="raise" would gather through a temporary copy of `out`
    np.take(d, index, out=out, mode="clip")


# -- sparse commutator operators ----------------------------------------------


def _deviation(chunks: np.ndarray) -> np.ndarray:
    """|b - <b>_I| over the cells of I: one interval's cells, or one row of
    cells per interval."""
    return np.abs(chunks - chunks.mean(axis=-1, keepdims=True))


def _by_level(members) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(level, pos) addresses grouped by tree level, coarsest first: each level
    with the indices of its members in `members` and their positions."""
    level, pos = np.array(members, dtype=np.int64).reshape(-1, 2).T
    index = [np.flatnonzero(level == l) for l in range(level.max(initial=-1) + 1)]
    return [(l, i, pos[i]) for l, i in enumerate(index) if i.size]


def mean_oscillation(b: StepFunction, where) -> float:
    """Omega(b; R) = <|b - <b>_R|>_R."""
    return float(np.mean(_deviation(b.values[b.mesh.cell_slice(*_resolve(b.mesh, where))])))


def oscillations(b: StepFunction) -> list[np.ndarray]:
    """Per tree level 0..J, the sum of |b - <b>_I| over the cells of each I:
    Omega(b; I) times the cell count of I."""
    return [_deviation(b.values.reshape(1 << level, -1)).sum(axis=1) for level in range(b.mesh.depth + 1)]


def _sparse_commutator(family, b: StepFunction, f: StepFunction, term) -> StepFunction:
    """sum_Q term(|b - <b>_Q|, |f| on Q) 1_Q, one pass per tree level over the
    rows of cells of that level's members, coarsest level first."""
    out, absf = np.zeros(b.mesh.n_cells), np.abs(f.values)
    for level, _, pos in _by_level(family.members):
        shape = (1 << level, -1)
        out.reshape(shape)[pos] += term(_deviation(b.values.reshape(shape)[pos]), absf.reshape(shape)[pos])
    return StepFunction(b.mesh, out)


def sparse_commutator(family, b: StepFunction, f: StepFunction) -> StepFunction:
    """T_{S,b} f = sum_Q |b - <b>_Q| <|f|>_Q 1_Q."""
    return _sparse_commutator(family, b, f, lambda dev, absf: dev * absf.mean(axis=1, keepdims=True))


def sparse_commutator_adjoint(family, b: StepFunction, f: StepFunction) -> StepFunction:
    """T*_{S,b} f = sum_Q <|b - <b>_Q| |f|>_Q 1_Q."""
    return _sparse_commutator(family, b, f, lambda dev, absf: (dev * absf).mean(axis=1, keepdims=True))


# -- operator handles and norm estimation --------------------------------------


@dataclass
class LinearOperator:
    """T g = A_target* D A_source g on cell-value arrays, or b T g - T(b g)
    with a pointwise `symbol` b.  A_"haar" takes <g,h_I> on levels 0..J-1
    (adjoint: Haar synthesis), A_"means" takes <g>_I on levels 0..J
    (adjoint: c -> sum c_I / |I| 1_I).  D is a `ShiftCoefficients` table or
    one array per level.  The adjoint `transposed`, built once per handle,
    swaps source and target, transposes a table and negates the symbol, as
    (bT - Tb)* = (-b)T* - T*(-b); the cell length cancels in each pairing,
    so it is the exact plain-L^2 adjoint."""

    mesh: Mesh
    source: str
    coeffs: ShiftCoefficients | list[np.ndarray]
    target: str
    symbol: np.ndarray | None = None

    @functools.cached_property
    def transposed(self) -> "LinearOperator":
        d = self.coeffs.transpose() if isinstance(self.coeffs, ShiftCoefficients) else self.coeffs
        return LinearOperator(self.mesh, self.target, d, self.source, None if self.symbol is None else -self.symbol)

    def apply(self, values: np.ndarray) -> np.ndarray:
        b = self.symbol
        return self._map(values) if b is None else b * self._map(values) - self._map(b * values)

    def adjoint(self, values: np.ndarray) -> np.ndarray:
        return self.transposed.apply(values)

    def _map(self, values: np.ndarray) -> np.ndarray:
        mesh, d = self.mesh, self.coeffs
        f = StepFunction(mesh, values)
        c = analyze(f).levels if self.source == "haar" else means_pyramid(f)
        if isinstance(d, ShiftCoefficients):
            out = [np.zeros(1 << l) for l in range(mesh.depth)]
            for l, table in enumerate(d.tables):
                src = c[l + d.m].reshape(1 << l, 1 << d.m)
                # with m = 0 the contraction is a plain product, which einsum computes about 1.5x slower
                out[l + d.n] = (table[:, 0] * src if d.m == 0 else np.einsum("qij,qi->qj", table, src)).ravel()
        else:
            out = [x * y for x, y in zip(d, c)]
        if self.target == "haar":
            return synthesize(HaarSpectrum(mesh, 0.0, out[: mesh.depth])).values
        out = [x / mesh.level_length(l) for l, x in enumerate(out)]
        return broadcast([*out, np.zeros(mesh.n_cells)][: mesh.depth + 1], np.add)


def positive_dyadic_operator(seq) -> LinearOperator:
    """T_0 f = sum_I (lambda_I / |I|) <f>_I 1_I for a tree-indexed sequence.

    Self-adjoint on plain L^2 since <T_0 f, g> = sum lambda_I <f>_I <g>_I.
    """
    return LinearOperator(seq.mesh, "means", seq.levels, "means")


def dense_matrix(op: LinearOperator) -> np.ndarray:
    return np.array([op.apply(col) for col in np.eye(op.mesh.n_cells)]).T


def operator_norm_weighted(
    op: LinearOperator,
    w: StepFunction | None = None,
    iters: int = 10 ** 4,
    tol: float = 1e-8,
    seed: int = 0,
) -> float:
    """||T||_{L^2(w)}: the two-weight norm with u = v = w (default w = 1)."""
    if w is None:
        w = StepFunction(op.mesh, np.ones(op.mesh.n_cells))
    return operator_norm_two_weight(op, w, w, iters, tol, seed)


def operator_norm_two_weight(
    op: LinearOperator,
    u: StepFunction,
    v: StepFunction,
    iters: int = 10 ** 4,
    tol: float = 1e-8,
    seed: int = 0,
) -> float:
    """||T||_{L^2(u) -> L^2(v)} by power iteration on T*T.

    The similarity g -> sqrt(v) T(g/sqrt(u)) turns the two-weight norm into
    a plain largest singular value (meshes are uniform, so the cell length
    drops out).  The iteration stops once sigma changes by at most tol
    relative between steps.
    """
    if iters < 1:
        raise ValueError("power iteration needs at least one iteration")
    su, sv = np.sqrt(u.values), np.sqrt(v.values)
    g = np.random.default_rng(seed).standard_normal(op.mesh.n_cells)
    g /= np.linalg.norm(g)
    sigma_prev = -1.0
    for _ in range(iters):
        a = sv * op.apply(g / su)
        sigma = float(np.linalg.norm(a))
        if sigma == 0.0:
            return 0.0
        back = op.adjoint(sv * a) / su
        nb = float(np.linalg.norm(back))
        if nb == 0.0:
            return sigma
        g = back / nb
        if abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
            return sigma
        sigma_prev = sigma
    raise ConvergenceError(
        f"power iteration did not converge to rel tol {tol} in {iters} iterations",
        last_value=sigma,
    )


def square_norm_weighted(w: StepFunction, iters: int = 10 ** 4, tol: float = 1e-10, seed: int = 0) -> float:
    """||S^D||_{L^2(w)} as the norm of a Haar multiplier.

    ||S f||^2_{L^2(w)} = sum |<f,h_I>|^2 <w>_I = ||M f||^2_{L^2} for the
    self-adjoint multiplier M f = sum sqrt(<w>_I) <f,h_I> h_I, so
    ||S^D||_{L^2(w)} = ||M||_{L^2(w) -> L^2}.
    """
    op = LinearOperator(w.mesh, "haar", [np.sqrt(m) for m in means_pyramid(w)], "haar")
    return operator_norm_two_weight(op, w, StepFunction(w.mesh, np.ones(w.mesh.n_cells)), iters, tol, seed)


def shift_complexity(name: str) -> tuple[int, int] | None:
    """(m, n) of the operator handle `shift(m,n)`; None for a handle of another family."""
    parsed = re.fullmatch(r"shift\( *([0-9]+) *, *([0-9]+) *\)", name)
    if parsed is None and name.startswith("shift("):
        raise ValueError(f"operator {name!r}: a shift handle is shift(m,n) with integers m, n >= 0")
    return None if parsed is None else (int(parsed[1]), int(parsed[2]))


def named_operator(
    name: str,
    mesh: Mesh,
    sigma: SignSymbol | None = None,
    b: StepFunction | None = None,
    family=None,
) -> LinearOperator:
    """CLI-facing operator handles; see the README table for the names.

    Shift tables and b's Haar coefficients are built once per handle."""
    if name in ("paraproduct", "paraproduct_adj", "commutator_sha") and b is None:
        raise ValueError(f"{name} needs a symbol b")
    if name in ("paraproduct", "paraproduct_adj"):
        op = LinearOperator(mesh, "means", analyze(b).levels, "haar")
        return op if name == "paraproduct" else op.transposed
    if name == "sparse":
        if family is None:
            raise ValueError("sparse needs a family")
        return positive_dyadic_operator(family.packing_sequence())
    if name == "martingale":
        coeffs = ShiftCoefficients.from_sign_symbol(
            SignSymbol.constant(mesh) if sigma is None else sigma
        )
    elif name in ("sha", "commutator_sha"):
        coeffs = ShiftCoefficients.petermichl(mesh)
    elif (complexity := shift_complexity(name)) is not None:
        coeffs = ShiftCoefficients.random(mesh, *complexity, np.random.default_rng(0))
    else:
        raise ValueError(f"unknown operator name {name!r}")
    return LinearOperator(mesh, "haar", coeffs, "haar", b.values if name == "commutator_sha" else None)
