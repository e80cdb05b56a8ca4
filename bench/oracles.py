"""Oracles and output checks, computed apart from the program.

Nothing here imports dyadlab: every value the checks compare against is
recomputed from its definition with numpy alone.  Meshes are uniform with
N = 2^J cells on the root [0, 1) unless a function says otherwise; a tree
interval is (level, pos), level 0 the root and level J the cells.  A checker returns a list of failure
reasons, empty when the output passes.
"""

from __future__ import annotations

import json
import math

import numpy as np


# -- strict JSON ---------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


# -- dyadic tree helpers -------------------------------------------------------


def tree_means(values: np.ndarray) -> list[np.ndarray]:
    """Averages over the tree intervals, levels 0..J (level J: the cells)."""
    depth = values.size.bit_length() - 1
    return [values.reshape(1 << level, -1).mean(axis=1) for level in range(depth + 1)]


def haar_matrix(depth: int) -> np.ndarray:
    """Rows h_I = |I|^(-1/2) (1_right - 1_left), levels 0..J-1 in order,
    sampled on the N cells."""
    n = 1 << depth
    rows = []
    for level in range(depth):
        width = n >> level
        amp = 2.0 ** (level / 2)
        block = np.zeros((1 << level, n))
        for pos in range(1 << level):
            block[pos, pos * width : pos * width + width // 2] = -amp
            block[pos, pos * width + width // 2 : (pos + 1) * width] = amp
        rows.append(block)
    return np.vstack(rows)


def _level_offsets(depth: int) -> list[int]:
    return [(1 << level) - 1 for level in range(depth + 1)]


# -- Hilbert transform of a step function ----------------------------------------


def hilbert_at_midpoints(values: np.ndarray, left: float, right: float) -> np.ndarray:
    """(1/pi) sum_k D_k log|x - e_k| at the cell midpoints, D_k the jump of the
    zero-extended step function at edge e_k.  On a uniform mesh x_i - e_k =
    (i - k + 1/2) h, so the sum is a Toeplitz product, evaluated by FFT."""
    n = values.size
    h = (right - left) / n
    jumps = np.diff(values, prepend=0.0, append=0.0)  # N + 1 edges
    kernel = np.log(np.abs(np.arange(-n, n) + 0.5))  # index m = i - k + N
    size = 1 << (3 * n).bit_length()
    conv = np.fft.irfft(np.fft.rfft(jumps, size) * np.fft.rfft(kernel, size), size)
    return (conv[n : 2 * n] + math.log(h) * jumps.sum()) / math.pi


# -- weights and dense operators ---------------------------------------------------


def power_weight_cells(depth: int, alpha: float) -> np.ndarray:
    """Exact cell averages of x^alpha on [0, 1)."""
    n = 1 << depth
    edges = np.arange(n + 1) / n
    prim = edges ** (alpha + 1.0) / (alpha + 1.0)
    return np.diff(prim) * n


def log_cells(depth: int) -> np.ndarray:
    """Exact cell averages of log x on [0, 1)."""
    n = 1 << depth
    edges = np.arange(n + 1) / n
    prim = np.zeros(n + 1)
    prim[1:] = edges[1:] * np.log(edges[1:]) - edges[1:]
    return np.diff(prim) * n


def a2_tree_max(w: np.ndarray) -> float:
    """max over tree intervals of <w>_I <1/w>_I."""
    return max(
        float(np.max(a * b)) for a, b in zip(tree_means(w), tree_means(1.0 / w))
    )


def a2_endpoint_closed_form(depth: int) -> float:
    """[|x|]_A2 on the depth-J mesh of [0, 1): sum_{k < 2^J} 1/(2k+1)."""
    return float(np.sum(1.0 / (2.0 * np.arange(1 << depth) + 1.0)))


def dense_martingale(depth: int, signs: np.ndarray) -> np.ndarray:
    """T_sigma = sum sigma_I <., h_I> h_I; `signs` is the flat tree array."""
    H = haar_matrix(depth)
    h = 1.0 / (1 << depth)
    return H.T @ (signs[:, None] * H) * h


def dense_petermichl(depth: int) -> np.ndarray:
    """Sha = sum <., h_I> 2^(-1/2) (h_{I_right} - h_{I_left})."""
    H = haar_matrix(depth)
    h = 1.0 / (1 << depth)
    off = _level_offsets(depth)
    S = np.zeros((H.shape[0], H.shape[0]))
    for level in range(depth - 1):
        for pos in range(1 << level):
            parent = off[level] + pos
            S[off[level + 1] + 2 * pos, parent] = -1.0 / math.sqrt(2.0)
            S[off[level + 1] + 2 * pos + 1, parent] = 1.0 / math.sqrt(2.0)
    return H.T @ S @ H * h


def dense_paraproduct(depth: int, b: np.ndarray) -> np.ndarray:
    """pi_b = sum <.>_I <b, h_I> h_I."""
    H = haar_matrix(depth)
    n = 1 << depth
    h = 1.0 / n
    coeffs = H @ b * h
    average = np.zeros((H.shape[0], n))
    row = 0
    for level in range(depth):
        width = n >> level
        for pos in range(1 << level):
            average[row, pos * width : (pos + 1) * width] = 1.0 / width
            row += 1
    return H.T @ (coeffs[:, None] * average)


def weighted_norm(matrix: np.ndarray, w: np.ndarray) -> float:
    """||T||_{L2(w)}: the top singular value of w^(1/2) T w^(-1/2)."""
    s = np.sqrt(w)
    return float(np.linalg.norm(s[:, None] * matrix / s[None, :], 2))


# -- martingale transform and sparse operators ----------------------------------


def martingale_apply(values: np.ndarray, sign_levels) -> np.ndarray:
    """T_sigma f by Haar coefficients per level:
    <f, h_I> h_I = (<f>_{I_right} - <f>_{I_left}) / 2 * (+-1) on the halves."""
    n = values.size
    means = tree_means(values)
    out = np.zeros(n)
    for level, signs in enumerate(sign_levels):
        fine = means[level + 1]
        half_diff = 0.5 * (fine[1::2] - fine[0::2]) * signs
        width = n >> level
        block = np.repeat(half_diff, width).reshape(-1, width)
        block[:, : width // 2] *= -1.0
        out += block.ravel()
    return out


def sparse_average(values: np.ndarray, members) -> np.ndarray:
    """A_S f = sum_{Q in S} <f>_Q 1_Q."""
    n = values.size
    means = tree_means(values)
    out = np.zeros(n)
    for level, pos in members:
        width = n >> level
        out[pos * width : (pos + 1) * width] += means[level][pos]
    return out


def check_domination(lhs: np.ndarray, c0: float, rhs: np.ndarray) -> list[str]:
    """|T f| <= C0 A_S|f| cell by cell."""
    bad = np.flatnonzero(np.abs(lhs) > c0 * rhs * (1 + 1e-9) + 1e-12)
    return [f"pointwise domination fails at {bad.size} cells"] if bad.size else []


# -- checkers ----------------------------------------------------------------------


def check_average_hilbert(report: dict, margins, floor: float) -> list[str]:
    """Every correlation at or above `floor`; the L2 discrepancy against the
    reference margin falls as the margin widens."""
    rows = report["rows"]
    if sorted(r["margin"] for r in rows) != sorted(margins):
        return ["rows do not cover the requested margins"]
    out = []
    low = [r["correlation"] for r in rows if not r["correlation"] >= floor]
    if low:
        out.append(f"correlation {min(low):.4f} below {floor}")
    disc = [r["l2_discrepancy"] for r in sorted(rows, key=lambda r: r["margin"])]
    if any(not b < a for a, b in zip(disc, disc[1:])):
        out.append("l2_discrepancy does not fall as the margin widens")
    return out


def check_norms(report: dict, a2_oracle: dict, slope_max: float, rel: float = 1e-10) -> list[str]:
    """Every a2 equals the oracle's tree maximum; the slope stays under the
    upper edge of the sharp bound.  `a2_oracle` maps alpha to [w]_A2."""
    rows = report["rows"]
    out = []
    if sorted(r["param"] for r in rows) != sorted(a2_oracle):
        out.append("rows do not cover the requested alphas")
    for r in rows:
        want = a2_oracle.get(r["param"])
        if want is None or not abs(r["a2"] - want) <= rel * want:
            out.append(f"a2 at alpha={r['param']} is {r['a2']!r}, expected {want!r}")
    if not report["slope"] < slope_max:
        out.append(f"slope {report['slope']!r} not under {slope_max}")
    return out


def check_sparse_rows(report: dict, samples: int, c0_cap: float = 2.0 ** 16) -> list[str]:
    rows = report["rows"]
    out = []
    if len(rows) != samples:
        out.append(f"{len(rows)} rows for {samples} samples")
    for r in rows:
        if not (r["verified"] is True and r["eta"] >= 0.5 and r["c0_used"] <= c0_cap):
            out.append(f"run {r['run']} not certified: {r}")
    return out


def decode_family(text: str):
    """(depth, eta, members, certificate cell arrays) of a written family,
    members as (level, pos) under the root interval."""
    d = strict_json(text)
    members, certs = [], []
    for row in d["members"]:
        # `sparse-dominate` runs on sweep_mesh, whose root is the interval (0, 0)
        members.append((int(row["generation"]), int(row["index"])))
        cells = [np.arange(a, b) for a, b in row.get("certificate_cells", [])]
        certs.append(np.concatenate(cells) if cells else np.zeros(0, dtype=np.int64))
    return int(d["depth"]), d["eta"], members, certs


def check_family(depth: int, eta, members, certs) -> list[str]:
    """Certificates inside their members and pairwise disjoint, |E_Q| >=
    eta |Q|, and sum_{P subset Q} |P| <= |Q| / eta for every tree interval Q."""
    n = 1 << depth
    out = []
    if eta is None or not eta >= 0.5:
        return [f"claimed eta {eta!r} below 1/2"]
    if len(set(members)) != len(members):
        out.append("duplicate members")
    owner = np.full(n, -1)
    for i, ((level, pos), cells) in enumerate(zip(members, certs)):
        if not (0 <= level <= depth and 0 <= pos < (1 << level)):
            out.append(f"member {(level, pos)} off the tree")
            continue
        width = n >> level
        if cells.size and (cells.min() < pos * width or cells.max() >= (pos + 1) * width):
            out.append(f"certificate of {(level, pos)} leaves its member")
        if np.unique(cells).size != cells.size or np.any(owner[cells] >= 0):
            out.append(f"certificate of {(level, pos)} overlaps another")
        owner[cells] = i
        if cells.size < eta * width - 1e-9:
            out.append(f"certificate of {(level, pos)} below eta |Q|")
    # subtree sums of member lengths, in cells (exact integers)
    per_level = [np.zeros(1 << level, dtype=np.int64) for level in range(depth + 1)]
    for level, pos in members:
        if 0 <= level <= depth and 0 <= pos < (1 << level):
            per_level[level][pos] += n >> level
    sums = per_level[depth]
    for level in range(depth, -1, -1):
        if level < depth:
            sums = per_level[level] + sums.reshape(-1, 2).sum(axis=1)
        if np.any(sums > (n >> level) / eta * (1 + 1e-12)):
            out.append(f"Carleson sum above |Q|/eta at level {level}")
    return out


def check_sht(report: dict, n_points: int, lattice_exponent: int | None = None) -> list[str]:
    """Counts, orthonormality and cube-system invariants of an `sht` report;
    on the dyadic lattice of 2^m points the cube system is the dyadic tree."""
    q = {row["quantity"]: row["value"] for row in report["rows"]}
    out = []
    if q["n_points"] != n_points:
        out.append(f"n_points {q['n_points']} for {n_points} points")
    if q["basis_size"] + q["top_cubes"] != n_points:
        out.append("basis_size + top_cubes differs from the point count")
    if not q["gram_error"] <= 1e-10:
        out.append(f"gram_error {q['gram_error']!r}")
    if not (q["partition_ok"] is True and q["nested_ok"] is True):
        out.append("partition or nestedness fails")
    if not q["inner_ball_constant"] > 0:
        out.append("inner ball constant not positive")
    if lattice_exponent is not None:
        m = lattice_exponent
        if (q["levels"], q["basis_size"], q["top_cubes"]) != (m + 1, (1 << m) - 1, 1):
            out.append("lattice cube system is not the dyadic tree")
    return out
