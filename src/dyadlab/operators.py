"""Dyadic operators: maximal function, Haar multipliers, shifts, paraproducts,
commutators, the exact Hilbert transform of step functions, and operator-norm
estimation on weighted L^2.

Every coefficient-space operator here annihilates the root mean term: the
bi-infinite sums they model carry no mean term, so isometry statements are
exact on the mean-zero subspace of the truncated system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularPointError
from .signal import (
    HaarSpectrum,
    Mesh,
    StepFunction,
    _prefix_at,
    analyze,
    lp_norm,
    means_pyramid,
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
        for a in self.levels:
            if not np.all(np.abs(a) == 1.0):
                raise ValueError("sign symbol values must be +-1")

    @classmethod
    def constant(cls, mesh: Mesh, sign: int = 1) -> "SignSymbol":
        return cls(mesh, [np.full(1 << l, float(sign)) for l in range(mesh.depth)])

    @classmethod
    def random(cls, mesh: Mesh, rng) -> "SignSymbol":
        return cls(
            mesh,
            [rng.integers(0, 2, size=1 << l) * 2.0 - 1.0 for l in range(mesh.depth)],
        )


# -- maximal functions -------------------------------------------------------


def maximal_dyadic(f: StepFunction, w: StepFunction | None = None) -> StepFunction:
    """Weighted dyadic maximal function over the mesh tree, cells included."""
    absf = np.abs(f.values)
    if w is None:
        ratios = means_pyramid(StepFunction(f.mesh, absf))
    else:
        num = means_pyramid(StepFunction(f.mesh, absf * w.values))
        den = means_pyramid(w)
        ratios = [n / d for n, d in zip(num, den)]
    cur = ratios[0]
    for level in range(1, f.mesh.depth + 1):
        cur = np.maximum(np.repeat(cur, 2), ratios[level])
    return StepFunction(f.mesh, cur)


def maximal_over_grid(f: StepFunction, grid, points) -> np.ndarray:
    """sup over `grid` intervals containing each point of the average of |f|.

    Averages use the zero extension of f; intervals are scanned over all
    window generations of the supplied grid.
    """
    pts = np.asarray(points, dtype=float)
    edges = f.mesh.cell_edges()
    absf = np.abs(f.values)
    pref = StepFunction(f.mesh, absf).prefix_integrals()
    best = np.zeros(pts.shape)
    for j in range(grid.j_min, grid.j_max + 1):
        length = grid.generation_length(j)
        off = grid.r * float(grid.shift(j))
        ks = np.floor((pts - off) / length)
        lefts = off + ks * length
        avg = (
            _prefix_at(edges, pref, absf, lefts + length)
            - _prefix_at(edges, pref, absf, lefts)
        ) / length
        best = np.maximum(best, avg)
    return best


# -- Haar multipliers and shifts ---------------------------------------------


def martingale_transform(f: StepFunction, sigma: SignSymbol) -> StepFunction:
    s = analyze(f)
    out = HaarSpectrum(f.mesh, 0.0, [c * sg for c, sg in zip(s.levels, sigma.levels)])
    return synthesize(out)


def sharp_truncation(f: StepFunction, sigma: SignSymbol) -> StepFunction:
    """T^sharp f(x) = sup over I' containing x of |sum_{I >= I'} sigma_I <f,h_I> h_I(x)|."""
    mesh = f.mesh
    s = analyze(f)
    cur = np.zeros(1)
    best = np.zeros(1)
    for level in range(mesh.depth):
        amp = 1.0 / math.sqrt(mesh.level_length(level))
        coeff = s.levels[level] * sigma.levels[level]
        cur = np.repeat(cur, 2)
        cur[0::2] -= coeff * amp
        cur[1::2] += coeff * amp
        best = np.maximum(np.repeat(best, 2), np.abs(cur))
    reps = mesh.n_cells // best.size
    return StepFunction(mesh, np.repeat(best, reps))


def square_function(f: StepFunction) -> StepFunction:
    """S f = (sum_I |<f,h_I>|^2 / |I| 1_I)^{1/2} over the coefficient tree."""
    s = analyze(f)
    acc = np.zeros(f.mesh.n_cells)
    for level in range(f.mesh.depth):
        contrib = s.levels[level] ** 2 / f.mesh.level_length(level)
        acc += np.repeat(contrib, 1 << (f.mesh.depth - level))
    return StepFunction(f.mesh, np.sqrt(acc))


def square_coefficient_norm(f: StepFunction, w: StepFunction) -> float:
    """The identity ||S f||_{L2(w)}^2 = sum_I |<f,h_I>|^2 <w>_I, coefficient side."""
    s = analyze(f)
    pw = means_pyramid(w)
    return math.sqrt(
        sum(float(np.dot(c ** 2, m)) for c, m in zip(s.levels, pw))
    )


def petermichl_shift(f: StepFunction) -> StepFunction:
    """Sha f = sum <f,h_I> 2^{-1/2}(h_{I_r} - h_{I_l}).

    In coefficient space the image coefficient on a child I is
    2^{-1/2} sigma(I) <f, h_{parent(I)}>; the deepest input level has
    children below the mesh resolution and is annihilated by the window
    truncation.
    """
    s = analyze(f)
    out = _shift_levels(s.levels, f.mesh.depth)
    return synthesize(HaarSpectrum(f.mesh, 0.0, out))


def _shift_levels(levels, depth):
    out = [np.zeros(1 << l) for l in range(depth)]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for level in range(depth - 1):
        up = np.repeat(levels[level], 2) * inv_sqrt2
        up[0::2] *= -1.0
        out[level + 1] = up
    return out


def petermichl_adjoint(f: StepFunction) -> StepFunction:
    s = analyze(f)
    out = [np.zeros(1 << l) for l in range(f.mesh.depth)]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for level in range(f.mesh.depth - 1):
        fine = s.levels[level + 1]
        out[level] = (fine[1::2] - fine[0::2]) * inv_sqrt2
    return synthesize(HaarSpectrum(f.mesh, 0.0, out))


@dataclass
class ShiftCoefficients:
    """Coefficients c^L_{I,J} of a Haar shift of complexity (m, n).

    tables[l] has shape (2^l, 2^m, 2^n): for the L at level l and position q,
    entry (q, i, j) couples the i-th level-(l+m) descendant of L to the j-th
    level-(l+n) descendant.  The normalization |c| <= sqrt(|I||J|)/|L|
    becomes the scale-free bound 2^{-(m+n)/2}.
    """

    mesh: Mesh
    m: int
    n: int
    tables: list[np.ndarray]

    def __post_init__(self):
        depth = self.mesh.depth
        expected = depth - max(self.m, self.n)
        if expected <= 0:
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
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        tables = []
        for l in range(mesh.depth - 1):
            t = np.zeros((1 << l, 1, 2))
            t[:, 0, 0] = -inv_sqrt2
            t[:, 0, 1] = inv_sqrt2
            tables.append(t)
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
    s = analyze(f)
    depth = f.mesh.depth
    out = [np.zeros(1 << l) for l in range(depth)]
    for l, table in enumerate(coeffs.tables):
        src = s.levels[l + coeffs.m].reshape(1 << l, 1 << coeffs.m)
        out[l + coeffs.n] += np.einsum("qij,qi->qj", table, src).ravel()
    return synthesize(HaarSpectrum(f.mesh, 0.0, out))


# -- paraproducts and commutators --------------------------------------------


def paraproduct(b: StepFunction, f: StepFunction) -> StepFunction:
    """pi_b f = sum <f>_I <b,h_I> h_I."""
    sb = analyze(b)
    mf = means_pyramid(f)
    out = [sb.levels[l] * mf[l] for l in range(f.mesh.depth)]
    return synthesize(HaarSpectrum(f.mesh, 0.0, out))


def paraproduct_adjoint(b: StepFunction, f: StepFunction) -> StepFunction:
    """pi*_b f = sum <b,h_I> <f,h_I> 1_I / |I|."""
    sb, sf = analyze(b), analyze(f)
    mesh = f.mesh
    acc = np.zeros(mesh.n_cells)
    for level in range(mesh.depth):
        contrib = sb.levels[level] * sf.levels[level] / mesh.level_length(level)
        acc += np.repeat(contrib, 1 << (mesh.depth - level))
    return StepFunction(mesh, acc)


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


def commutator_shift(b: StepFunction, f: StepFunction) -> StepFunction:
    """[b, Sha] f = b (Sha f) - Sha(b f), computed directly."""
    return b * petermichl_shift(f) - petermichl_shift(b * f)


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


def hilbert_exact(f: StepFunction, x_points=None) -> np.ndarray:
    """H f at the given points, exactly, for the zero-extended step function.

    H f(x) = (1/pi) sum_k f_k log(|x-a_k|/|x-b_k|) over the cells [a_k, b_k),
    telescoped over the cell edges: (1/pi) sum_k D_k log|x - e_k| with D_k
    the jump of f at edge e_k.  x_points defaults to the cell midpoints,
    which dodge the log singularities.  There x_i - e_k = (i - k + 1/2) h,
    so the sum is a Toeplitz product, evaluated by FFT in O(N log N) time and
    O(N) memory.  Other points take the dense points x active-edges sum.
    Points falling on an edge where f jumps raise SingularPointError; edges
    with equal values on both sides contribute nothing and are safe.
    """
    jumps = np.diff(f.values, prepend=0.0, append=0.0)  # length N+1, at edges
    xs = None if x_points is None else np.asarray(x_points, dtype=float)
    if xs is None or np.array_equal(xs, f.mesh.cell_midpoints()):
        return _hilbert_at_midpoints(jumps, f.mesh.cell_length)
    edges = f.mesh.cell_edges()
    active = jumps != 0.0
    if np.any(np.isin(xs, edges[active])):
        raise SingularPointError("evaluation point coincides with a jump of f")
    logs = np.log(np.abs(xs[:, None] - edges[None, active]))
    return (logs @ jumps[active]) / math.pi


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
    map to zero for every sample).  Grids are drawn from the stream
    (seed, sample_index) on the canonical window of margin
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
        windows = [(j_root - m, j_cell + m) for m in group]
        acc = np.zeros((len(group), mesh.n_cells))
        for idx in range(n_samples):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
            bits = rng.integers(0, 2, size=jc_hi - jc_lo + 1)
            r = float(2.0 ** rng.random())
            shift = 0.0
            shifts = {}
            for j in range(jc_hi, jc_lo - 1, -1):
                shifts[j] = shift
                shift += float(bits[j - jc_lo]) * 2.0 ** -j
            acc += _window_transforms(fz, r, shifts, windows)
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
    in closed form with t the edge's relative position; coarser intervals
    take d_I from the primitive of f.  On the aligned grid (r = 1, zero
    shifts, generations inside the mesh) this reproduces the in-tree
    Petermichl shift exactly: the deepest coefficient level cell-averages to
    zero, matching the window truncation.
    """
    return StepFunction(f.mesh, _window_transforms(f, r, shifts, [(j_lo, j_hi)])[0])


def _window_transforms(f: StepFunction, r: float, shifts, windows) -> np.ndarray:
    """`shifted_grid_transform` cell values for each generation window
    (j_lo, j_hi) in `windows`, one row each.  The generations of all windows
    are evaluated once, in (generation x edge) blocks of at most
    TRANSFORM_BLOCK_ELEMENTS elements.  Each window adds up its generations'
    terms in groups of `step` counted from its own j_lo, in order, so its
    result is bit for bit that of a call with it alone."""
    mesh = f.mesh
    edges = mesh.cell_edges()
    pref = f.prefix_integrals()
    vals = f.values
    jumps = np.diff(vals, prepend=0.0, append=0.0)
    g_lo = min(lo for lo, _ in windows)
    gens = np.arange(g_lo, max(hi for _, hi in windows) + 1)
    ells = r * 2.0 ** -gens.astype(float)
    offs = r * np.array([shifts[int(j)] for j in gens], dtype=float)
    p_edges = np.zeros((len(windows), edges.size))
    block_sums = np.zeros_like(p_edges)
    step = max(1, TRANSFORM_BLOCK_ELEMENTS // edges.size)
    for start in range(0, gens.size, step):
        ell = ells[start : start + step, None]
        off = offs[start : start + step, None]
        t = (edges - off) / ell
        ke = np.floor(t)
        t -= ke
        phi = np.maximum(np.minimum(t, 0.5 - t), t - 1.0)
        # lengths decrease down the rows: the first `wide` generations are coarser than a cell
        wide = int(np.count_nonzero(ell > mesh.cell_length))
        d = np.empty_like(t)
        if wide:
            d[:wide] = _interval_differences(
                edges, pref, vals, off[:wide, 0], ell[:wide, 0], ke[:wide]
            )
        d[wide:] = jumps * ell[wide:] * np.minimum(t[wide:], 1.0 - t[wide:])
        d *= phi
        for j, row in zip(gens[start : start + step], d):
            for w, (lo, hi) in enumerate(windows):
                if lo <= j <= hi:
                    if (j - lo) % step:
                        block_sums[w] += row
                    else:
                        p_edges[w] += block_sums[w]
                        block_sums[w] = row
    return np.diff(p_edges + block_sums, axis=1) / mesh.cell_length


def _interval_differences(edges, pref, vals, off, ell, ke):
    """d_I (right-half minus left-half integral of f) at the interval indices
    `ke`, one row per generation and nondecreasing along the row; each
    distinct interval costs three lookups of the primitive of f."""
    lo = ke[:, 0]
    counts = (ke[:, -1] - lo).astype(np.int64) + 1
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    row = np.repeat(np.arange(counts.size), counts)
    ks = np.arange(first[-1] + counts[-1]) - first[row] + lo[row]
    lefts = off[row] + ks * ell[row]
    m = lefts.size
    points = np.concatenate([lefts + ell[row], lefts + 0.5 * ell[row], lefts])
    p = _prefix_at(edges, pref, vals, points)
    d = p[:m] - 2.0 * p[m : 2 * m] + p[2 * m :]
    return d[first[:, None] + (ke - lo[:, None]).astype(np.int64)]


# -- sparse commutator operators ----------------------------------------------


def mean_oscillation(b: StepFunction, where) -> float:
    """Omega(b; R) = <|b - <b>_R|>_R."""
    level, pos = b.mesh.position_of(where) if hasattr(where, "grid") else where
    sl = b.mesh.cell_slice(level, pos)
    chunk = b.values[sl]
    return float(np.mean(np.abs(chunk - chunk.mean())))


def sparse_commutator(family, b: StepFunction, f: StepFunction) -> StepFunction:
    """T_{S,b} f = sum_Q |b - <b>_Q| <|f|>_Q 1_Q."""
    out = np.zeros(b.mesh.n_cells)
    absf = np.abs(f.values)
    for level, pos in family.members:
        sl = b.mesh.cell_slice(level, pos)
        chunk = b.values[sl]
        out[sl] += np.abs(chunk - chunk.mean()) * absf[sl].mean()
    return StepFunction(b.mesh, out)


def sparse_commutator_adjoint(family, b: StepFunction, f: StepFunction) -> StepFunction:
    """T*_{S,b} f = sum_Q <|b - <b>_Q| |f|>_Q 1_Q."""
    out = np.zeros(b.mesh.n_cells)
    absf = np.abs(f.values)
    for level, pos in family.members:
        sl = b.mesh.cell_slice(level, pos)
        chunk = b.values[sl]
        out[sl] += float(np.mean(np.abs(chunk - chunk.mean()) * absf[sl]))
    return StepFunction(b.mesh, out)


# -- operator handles and norm estimation --------------------------------------


@dataclass
class LinearOperator:
    """A linear map on cell-value arrays with a known plain-L^2 adjoint."""

    mesh: Mesh
    apply: callable
    adjoint: callable
    name: str = ""


def positive_dyadic_operator(seq) -> LinearOperator:
    """T_0 f = sum_I (lambda_I / |I|) <f>_I 1_I for a tree-indexed sequence.

    Self-adjoint on plain L^2 since <T_0 f, g> = sum lambda_I <f>_I <g>_I.
    """
    mesh = seq.mesh
    weights_by_level = [seq.levels[l] / mesh.level_length(l) for l in range(mesh.depth + 1)]

    def apply(values):
        pyr = means_pyramid(StepFunction(mesh, values))
        acc = np.zeros(mesh.n_cells)
        for level in range(mesh.depth + 1):
            contrib = weights_by_level[level] * pyr[level]
            acc += np.repeat(contrib, 1 << (mesh.depth - level))
        return acc

    return LinearOperator(mesh, apply, apply, name="positive_dyadic")


def dense_matrix(op: LinearOperator) -> np.ndarray:
    n = op.mesh.n_cells
    cols = [op.apply(col) for col in np.eye(n)]
    return np.array(cols).T


def operator_norm_weighted(
    op: LinearOperator,
    w: StepFunction | None = None,
    p: float = 2.0,
    iters: int = 10 ** 4,
    tol: float = 1e-8,
    seed: int = 0,
    test_functions=None,
) -> float:
    """||T||_{L^p(w)} by power iteration (p=2) or a test-function lower bound.

    At p=2 the similarity g -> sqrt(w) T(g/sqrt(w)) turns the weighted norm
    into a plain largest singular value (meshes are uniform, so the cell
    length drops out).
    """
    if p == 2.0:
        s = np.ones(op.mesh.n_cells) if w is None else np.sqrt(w.values)
        fwd = lambda g: s * op.apply(g / s)
        adj = lambda g: op.adjoint(s * g) / s
        return _power_iteration(fwd, adj, op.mesh.n_cells, iters, tol, seed)
    if not test_functions:
        raise ValueError("p != 2 runs in lower-bound mode and needs test functions")
    best = 0.0
    for f in test_functions:
        denom = lp_norm(f, p, w)
        if denom == 0.0:
            continue
        best = max(best, lp_norm(StepFunction(op.mesh, op.apply(f.values)), p, w) / denom)
    return best


def operator_norm_two_weight(
    op: LinearOperator,
    u: StepFunction,
    v: StepFunction,
    iters: int = 10 ** 4,
    tol: float = 1e-8,
    seed: int = 0,
) -> float:
    """||T||_{L^2(u) -> L^2(v)} via the similarity g -> sqrt(v) T(g/sqrt(u))."""
    su, sv = np.sqrt(u.values), np.sqrt(v.values)
    fwd = lambda g: sv * op.apply(g / su)
    adj = lambda g: op.adjoint(sv * g) / su
    return _power_iteration(fwd, adj, op.mesh.n_cells, iters, tol, seed)


def _power_iteration(fwd, adj, n, iters, tol, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n)
    g /= np.linalg.norm(g)
    sigma_prev = -1.0
    for _ in range(iters):
        a = fwd(g)
        sigma = float(np.linalg.norm(a))
        if sigma == 0.0:
            return 0.0
        back = adj(a)
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
    """||S^D||_{L^2(w)} from the quadratic form sum |<f,h_I>|^2 <w>_I.

    The form operator K f = sum <w>_I <f,h_I> h_I is PSD, and the weighted
    norm squared is the top eigenvalue of (1/sqrt w) K (./sqrt w).
    """
    mesh = w.mesh
    pw = means_pyramid(w)
    sw = np.sqrt(w.values)

    def apply(g):
        s = analyze(StepFunction(mesh, g / sw))
        scaled = HaarSpectrum(mesh, 0.0, [c * m for c, m in zip(s.levels, pw)])
        return synthesize(scaled).values / sw

    lam = _power_iteration(apply, apply, mesh.n_cells, iters, tol, seed)
    return math.sqrt(lam)


def named_operator(
    name: str,
    mesh: Mesh,
    sigma: SignSymbol | None = None,
    b: StepFunction | None = None,
    family=None,
) -> LinearOperator:
    """CLI-facing operator handles; see the README table for the names."""
    if name == "martingale":
        if sigma is None:
            sigma = SignSymbol.constant(mesh)
        op = lambda g: martingale_transform(StepFunction(mesh, g), sigma).values
        return LinearOperator(mesh, op, op, name=name)
    if name == "sha":
        return LinearOperator(
            mesh,
            lambda g: petermichl_shift(StepFunction(mesh, g)).values,
            lambda g: petermichl_adjoint(StepFunction(mesh, g)).values,
            name=name,
        )
    if name.startswith("shift(") and name.endswith(")"):
        m, n = (int(t) for t in name[6:-1].split(","))
        rng = np.random.default_rng(0)
        coeffs = ShiftCoefficients.random(mesh, m, n, rng)
        return LinearOperator(
            mesh,
            lambda g: haar_shift(StepFunction(mesh, g), coeffs).values,
            lambda g: haar_shift(StepFunction(mesh, g), coeffs.transpose()).values,
            name=name,
        )
    if name == "paraproduct":
        if b is None:
            raise ValueError("paraproduct needs a symbol b")
        return LinearOperator(
            mesh,
            lambda g: paraproduct(b, StepFunction(mesh, g)).values,
            lambda g: paraproduct_adjoint(b, StepFunction(mesh, g)).values,
            name=name,
        )
    if name == "paraproduct_adj":
        if b is None:
            raise ValueError("paraproduct_adj needs a symbol b")
        return LinearOperator(
            mesh,
            lambda g: paraproduct_adjoint(b, StepFunction(mesh, g)).values,
            lambda g: paraproduct(b, StepFunction(mesh, g)).values,
            name=name,
        )
    if name == "commutator_sha":
        if b is None:
            raise ValueError("commutator_sha needs a symbol b")

        def fwd(g):
            return commutator_shift(b, StepFunction(mesh, g)).values

        def adj(g):
            f = StepFunction(mesh, g)
            return (petermichl_adjoint(b * f) - b * petermichl_adjoint(f)).values

        return LinearOperator(mesh, fwd, adj, name=name)
    if name == "sparse":
        if family is None:
            raise ValueError("sparse needs a family")
        from . import sparse as _sparse

        op = lambda g: _sparse.sparse_operator(family, StepFunction(mesh, g)).values
        return LinearOperator(mesh, op, op, name=name)
    raise ValueError(f"unknown operator name {name!r}")
