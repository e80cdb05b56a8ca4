"""Weights, their characteristics, Carleson sequences, and Bellman lemmas.

Characteristic suprema run over the mesh's own dyadic tree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightError
from .signal import Mesh, StepFunction, _pair_sum, means_pyramid, pyramid, sibling_difference
from . import operators


class Weight(StepFunction):
    """A strictly positive step function."""

    def __post_init__(self):
        super().__post_init__()
        if np.min(self.values) <= 0.0:
            raise DegenerateWeightError("weight values must be strictly positive")

    def reciprocal(self) -> "Weight":
        return Weight(self.mesh, 1.0 / self.values)

    def dual(self, p: float) -> "Weight":
        """The dual weight w^{-1/(p-1)}."""
        return Weight(self.mesh, self.values ** (-1.0 / (p - 1.0)))


def power_weight(mesh: Mesh, alpha: float) -> Weight:
    """|x - x0|^alpha, x0 the root's left end, by its exact cell averages (alpha > -1)."""
    if alpha <= -1.0:
        raise DegenerateWeightError("power weight needs alpha > -1 for integrable cells")
    e = mesh.cell_edges() - mesh.root.left

    def prim(t):
        return np.sign(t) * np.abs(t) ** (alpha + 1.0) / (alpha + 1.0)

    avg = (prim(e[1:]) - prim(e[:-1])) / np.diff(e)
    return Weight(mesh, avg)


def log_symbol(mesh: Mesh) -> StepFunction:
    """log|x - x0|, x0 the root's left end, by exact cell averages; the canonical unbounded BMO symbol."""
    e = mesh.cell_edges() - mesh.root.left

    def prim(t):
        out = np.zeros_like(t)
        nz = t != 0.0
        out[nz] = t[nz] * np.log(np.abs(t[nz])) - t[nz]
        return out

    avg = (prim(e[1:]) - prim(e[:-1])) / np.diff(e)
    return StepFunction(mesh, avg)


# -- tree helpers ----------------------------------------------------------


def _tree_max_product(pyr_a, pyr_b, exponent_b=1.0):
    """max over tree intervals of  a_I * b_I^exponent_b, with argmax position."""
    best, arg = -math.inf, (0, 0)
    for level, (a, b) in enumerate(zip(pyr_a, pyr_b)):
        prod = a * b ** exponent_b
        pos = int(np.argmax(prod))
        if prod[pos] > best:
            best, arg = float(prod[pos]), (level, pos)
    return best, arg


def ap_characteristic(w: Weight, p: float) -> float:
    return ap_characteristic_report(w, p)["value"]


def ap_characteristic_report(w: Weight, p: float) -> dict:
    """sup over the mesh's dyadic intervals of <w>_I <w^{-1/(p-1)}>_I^{p-1},
    with the (level, position) of the interval attaining it."""
    if p <= 1:
        raise ValueError("A_p characteristic needs p > 1")
    best, arg = _tree_max_product(means_pyramid(w), means_pyramid(w.dual(p)), p - 1.0)
    return {"value": float(best), "argmax_interval": arg}


def a_infty_fujii_wilson(w: Weight) -> float:
    """Fujii-Wilson characteristic sup_I (1/w(I)) int_I M^D(w 1_I).

    For x in I the dyadic maximal function of w 1_I is the maximum of <w>_J
    over dyadic J with x in J subset I (larger J only dilute the average), so
    each level is handled with a running maximum down its subtrees.  One
    cell array carries it from the cells up: level l raises each block of
    cells to the mean of its level-l interval.
    """
    mesh = w.mesh
    pyr = means_pyramid(w)
    cl = mesh.cell_length
    best = 1.0
    running = pyr[mesh.depth]  # the pyramid's own copy of the cells
    for level in range(mesh.depth, -1, -1):
        blocks = running.reshape(1 << level, -1)
        np.maximum(blocks, pyr[level][:, None], out=blocks)
        integrals = blocks.sum(axis=1) * cl
        masses = pyr[level] * mesh.level_length(level)
        best = max(best, float(np.max(integrals / masses)))
    return best


def a_infty_classical(w: Weight) -> float:
    """Classical (exponential) A_infty characteristic sup_I <w>_I exp(-<log w>_I).

    Optional companion to the Fujii-Wilson characteristic; this is the one the
    sharp constant 8 in the oscillation-sum bound is calibrated against.
    """
    pw = means_pyramid(w)
    pl = means_pyramid(StepFunction(w.mesh, np.log(w.values)))
    return max(float(np.max(a * np.exp(-b))) for a, b in zip(pw, pl))


def rh_q(w: Weight, q: float) -> float:
    """Reverse Holder characteristic sup_I <w^q>_I^{1/q} / <w>_I."""
    if q <= 1:
        raise ValueError("RH_q needs q > 1")
    wq = StepFunction(w.mesh, w.values ** q)
    best, _ = _tree_max_product(
        [a ** (1.0 / q) for a in means_pyramid(wq)],
        [1.0 / a for a in means_pyramid(w)],
    )
    return best


def bmo_dyadic_norm(b: StepFunction) -> float:
    """sup_I (<|b - <b>_I|^2>_I)^{1/2} over the mesh tree."""
    pyr = means_pyramid(b)
    pyr2 = means_pyramid(StepFunction(b.mesh, b.values ** 2))
    best = 0.0
    for m, m2 in zip(pyr, pyr2):
        best = max(best, float(np.max(np.maximum(m2 - m ** 2, 0.0))))
    return math.sqrt(best)


def bmo_weighted_norm(b: StepFunction, mu: Weight) -> float:
    """Weighted oscillation norm sup_I (1/mu(I)) int_I |b - <b>_I|."""
    cl = b.mesh.cell_length
    return max(
        float(np.max(osc * cl / (mu.values.reshape(osc.size, -1).sum(axis=1) * cl)))
        for osc in operators.oscillations(b)
    )


# -- Carleson sequences ----------------------------------------------------


@dataclass
class CarlesonSequence:
    """Nonnegative values indexed by mesh tree intervals (levels 0..depth)."""

    mesh: Mesh
    levels: list[np.ndarray]

    def __post_init__(self):
        if len(self.levels) != self.mesh.depth + 1:
            raise ValueError("need one entry array per tree level, cells included")
        self.levels = [np.asarray(a, dtype=float) for a in self.levels]
        if any(np.min(a) < 0 for a in self.levels if a.size):
            raise ValueError("Carleson sequence entries must be nonnegative")

    @classmethod
    def zeros(cls, mesh: Mesh) -> "CarlesonSequence":
        return cls(mesh, [np.zeros(1 << level) for level in range(mesh.depth + 1)])

    def subtree_sums(self) -> list[np.ndarray]:
        sums = [None] * (self.mesh.depth + 1)
        sums[self.mesh.depth] = self.levels[self.mesh.depth].copy()
        for level in range(self.mesh.depth - 1, -1, -1):
            below = sums[level + 1]
            sums[level] = self.levels[level] + _pair_sum(below[0::2], below[1::2])
        return sums


def carleson_intensity(seq: CarlesonSequence, v: Weight | None = None) -> float:
    """sup_J sum_{I subset J} lambda_I / v(J); v omitted means Lebesgue measure."""
    mesh = seq.mesh
    sums = seq.subtree_sums()
    if v is None:
        masses = [np.full(1 << level, mesh.level_length(level)) for level in range(mesh.depth + 1)]
    else:
        masses = [m * mesh.level_length(level) for level, m in enumerate(means_pyramid(v))]
    return max(float(np.max(s / m)) for s, m in zip(sums, masses))


def _coefficient_sequence(mesh: Mesh, term) -> CarlesonSequence:
    """The sequence with entries term(level) on the coefficient levels
    0..J-1 and zero on the cells."""
    return CarlesonSequence(mesh, [*map(term, range(mesh.depth)), np.zeros(mesh.n_cells)])


def fkp_sequence(w: Weight) -> CarlesonSequence:
    """{ |Delta_I w / <w>_I|^2 |I| } on the coefficient levels."""
    mesh = w.mesh
    pyr = means_pyramid(w)
    return _coefficient_sequence(
        mesh, lambda l: (sibling_difference(pyr, l) / pyr[l]) ** 2 * mesh.level_length(l)
    )


def alpha_sequence(w: Weight, alpha: float) -> CarlesonSequence:
    """Beznosova's alpha-lemma sequence mu_I for an A_2 weight.

    For alpha >= 1/2 the intensity bound comes from factoring out
    (<w>_I <w^{-1}>_I)^{alpha - 1/4} <= [w]^{alpha - 1/4} and the alpha = 1/4
    case; the sequence itself is the same expression for every alpha > 0.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    mesh = w.mesh
    winv = w.reciprocal()
    pw, pi = means_pyramid(w), means_pyramid(winv)

    def term(level):
        pw0, pi0 = pw[level], pi[level]
        ratio2 = (sibling_difference(pw, level) / pw0) ** 2 + (sibling_difference(pi, level) / pi0) ** 2
        return (pw0 * pi0) ** alpha * mesh.level_length(level) * ratio2

    return _coefficient_sequence(mesh, term)


def ntv_alpha_sequence(u_inv: Weight, v: Weight) -> CarlesonSequence:
    """{ (|Delta_I v|/<v>_I) (|Delta_I u^{-1}|/<u^{-1}>_I) |I| }."""
    mesh = v.mesh
    pv, pu = means_pyramid(v), means_pyramid(u_inv)
    return _coefficient_sequence(
        mesh,
        lambda l: np.abs(sibling_difference(pv, l)) / pv[l] * np.abs(sibling_difference(pu, l)) / pu[l] * mesh.level_length(l),
    )


def little_lemma_map(seq: CarlesonSequence, w: Weight) -> CarlesonSequence:
    """{ lambda_I / <w^{-1}>_I }: w-Carleson with intensity at most 4x the unit one."""
    pyr = means_pyramid(w.reciprocal())
    return CarlesonSequence(seq.mesh, [a * (1.0 / m) for a, m in zip(seq.levels, pyr)])


def weighted_carleson_check(
    seq: CarlesonSequence, v: Weight | None, F: StepFunction
) -> tuple[float, float]:
    """Both sides of the weighted Carleson embedding for a nonnegative F.

    lhs = sum_I lambda_I inf_I F, rhs = intensity * int F v; the lemma says
    lhs <= rhs.
    """
    if np.min(F.values) < 0:
        raise ValueError("F must be nonnegative")
    mesh = seq.mesh
    mins = pyramid(F.values, np.min)
    lhs = sum(float(np.dot(lam, mn)) for lam, mn in zip(seq.levels, mins))
    A = carleson_intensity(seq, v)
    dens = np.ones(mesh.n_cells) if v is None else v.values
    rhs = A * float(np.sum(F.values * dens) * mesh.cell_length)
    return (lhs, rhs)


# -- Bellman function lemmas ------------------------------------------------

BELLMAN_DOMAIN_DOC = "{(u,v,l): u,v>0, uv>=1, 0<=l<=1}"


def in_bellman_domain(u, v, l):
    """Elementwise membership of (u, v, l) in the Bellman domain."""
    return (u > 0) & (v > 0) & (u * v >= 1.0) & (0.0 <= l) & (l <= 1.0)


def _bellman_value(u, v, l):
    return u - 1.0 / (v * (1.0 + l))


def bellman_B(u, v, l):
    """B(u,v,l) = u - 1/(v(1+l)) at a domain point or elementwise on arrays of them."""
    inside = in_bellman_domain(u, v, l)
    if not np.all(inside):
        first = np.argmin(inside)
        point = ",".join(str(np.broadcast_to(a, np.shape(inside)).flat[first]) for a in (u, v, l))
        raise ValueError(f"({point}) outside the Bellman domain {BELLMAN_DOMAIN_DOC}")
    return _bellman_value(u, v, l)


def _bellman_hessian(v, l):
    """Hessians of B in (u, v, l), shape (..., 3, 3); B is linear in u."""
    h = np.zeros(np.shape(v) + (3, 3))
    h[..., 1, 1] = -2.0 / (v ** 3 * (1.0 + l))
    h[..., 1, 2] = h[..., 2, 1] = -1.0 / (v ** 2 * (1.0 + l) ** 2)
    h[..., 2, 2] = -2.0 / (v * (1.0 + l) ** 3)
    return h


def _sample_domain(rng, n):
    u = np.exp(rng.uniform(-2.5, 2.5, n))
    s = np.exp(rng.uniform(0.0, 5.0, n))  # uv = s >= 1
    v = s / u
    l = rng.uniform(0.0, 1.0, n)
    return u, v, l


def bellman_verify(sample_count: int = 10 ** 4, seed: int = 0) -> dict:
    """Sample the Bellman function lemma conditions; returns violation counts.

    Checks, on random domain points and random admissible midpoint triples:
    the range 0 <= B <= u, the derivative bound dB/dl >= 1/(4v), negative
    semidefiniteness of the Hessian (closed form, with a finite-difference
    cross-check), and the dyadic convexity inequality with gain alpha/(4v).
    """
    rng = np.random.default_rng(seed)
    tol = 1e-12
    fd_step = 1e-5
    u, v, l = _sample_domain(rng, sample_count)
    B = bellman_B(u, v, l)
    H = _bellman_hessian(v, l)
    scale = np.maximum(1.0, np.abs(H).max(axis=(-2, -1)))
    # finite-difference guard on the Hessian algebra at a subsample
    fd = np.flatnonzero((fd_step < l[:50]) & (l[:50] < 1 - fd_step) & (v[:50] > 10 * fd_step))
    x0 = np.stack([u[fd], v[fd], l[fd]], axis=-1)
    fd_H = np.zeros_like(H[fd])
    for i, j, di, dj in itertools.product(range(3), range(3), (fd_step, -fd_step), (fd_step, -fd_step)):
        x = x0.copy()
        x[:, i] += di
        x[:, j] += dj
        fd_H[:, i, j] += np.sign(di * dj) * _bellman_value(*x.T)
    fd_H /= 4 * fd_step ** 2
    # dyadic convexity on admissible triples x - (x+ + x-)/2 = (0,0,alpha)
    up, vp, lp = _sample_domain(rng, sample_count)
    um, vm, lm = _sample_domain(rng, sample_count)
    lmid = 0.5 * (lp + lm)
    alpha = rng.uniform(0.0, 1.0 - lmid)
    xu, xv, xl = 0.5 * (up + um), 0.5 * (vp + vm), lmid + alpha
    admissible = in_bellman_domain(xu, xv, xl)
    # v > 0 and 1 + l > 0 at every triple, so the gain is finite outside the domain too
    gain = _bellman_value(xu, xv, xl) - 0.5 * (bellman_B(up, vp, lp) + bellman_B(um, vm, lm))
    report = {
        "samples": sample_count,
        "range_violations": int(np.count_nonzero(~((-tol <= B) & (B <= u + tol)))),
        "derivative_violations": int(np.count_nonzero(1.0 / (v * (1.0 + l) ** 2) < 1.0 / (4.0 * v) - tol)),
        "hessian_violations": int(np.count_nonzero(np.linalg.eigvalsh(H)[:, -1] > tol * scale)),
        "fd_hessian_max_error": float(np.max(np.abs(fd_H - H[fd]) / scale[fd, None, None], initial=0.0)),
        "convexity_violations": int(np.count_nonzero(admissible & (gain < alpha / (4.0 * xv) - tol))),
        "convexity_checked": int(np.count_nonzero(admissible)),
    }
    report["ok"] = report["fd_hessian_max_error"] < 1e-4 and not any(
        report[f"{check}_violations"] for check in ("range", "derivative", "hessian", "convexity")
    )
    return report


# -- two-weight NTV report ---------------------------------------------------


def ntv_conditions(u: Weight, v: Weight, norm_tol: float = 1e-8, norm_iters: int = 10 ** 4) -> dict:
    """Joint A2, the two Carleson testing conditions, and the positive operator norm.

    Reports  [u,v]_A2 = sup <u^{-1}>_I <v>_I,  the u^{-1}-intensity of
    {|I| |Delta_I u^{-1}|^2 <v>_I},  the v-intensity of
    {|I| |Delta_I v|^2 <u^{-1}>_I},  and a power-iteration estimate of
    ||T_0||_{L^2(u) -> L^2(v)}  for  T_0 f = sum (alpha_I/|I|) <f>_I 1_I.
    """
    if u.mesh != v.mesh:
        raise ValueError("u and v must share a mesh")
    mesh = u.mesh
    u_inv = u.reciprocal()
    pu, pv = means_pyramid(u_inv), means_pyramid(v)
    joint, _ = _tree_max_product(pu, pv)
    seq_ii = _coefficient_sequence(mesh, lambda l: mesh.level_length(l) * sibling_difference(pu, l) ** 2 * pv[l])
    seq_iii = _coefficient_sequence(mesh, lambda l: mesh.level_length(l) * sibling_difference(pv, l) ** 2 * pu[l])
    alpha_seq = ntv_alpha_sequence(u_inv, v)
    t0 = operators.positive_dyadic_operator(alpha_seq)
    norm = operators.operator_norm_two_weight(
        t0, u, v, tol=norm_tol, iters=norm_iters
    )
    return {
        "joint_a2": joint,
        "carleson_u_inv_intensity": carleson_intensity(seq_ii, u_inv),
        "carleson_v_intensity": carleson_intensity(seq_iii, v),
        "alpha_unit_intensity": carleson_intensity(alpha_seq),
        "t0_norm": norm,
        "mesh_depth": mesh.depth,
    }
