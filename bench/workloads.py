"""The four workloads: their CLI operations, work units and output checks.

An operation is one `dyadlab` CLI invocation.  A round is the fixed list of
operations a workload repeats.  The untimed checks of `once` call dyadlab
directly and compare against `oracles`, which does not import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import oracles

SAMPLES = 100
MARGINS = (3, 6)
# measured correlations of the zero-mean signals reach down to 0.978 over
# 40 seeds (the random walk spreads most); the mean-1 signal gives 0.72
CORRELATION_FLOOR = 0.95
NORM_DEPTH = 14
DEFAULT_ALPHAS = (0.3, 0.6, 0.9, 1.2, 1.5, 1.75, 2.0)
NORM_HANDLES = (
    "sha", "commutator_sha", "paraproduct", "shift(1,2)", "square", "sparse", "martingale", "maximal",
)
SLOPE_MAX = {"commutator_sha": 2.25}  # others: 1.15
DENSE_DEPTH = 9
DENSE_ALPHA = 1.5
SPARSE_DEPTH = 12
SPARSE_SAMPLES = 2
SPARSE_OPS = 3
LACEY_ORACLE_DEPTH = 10


@dataclass
class Op:
    label: str
    argv: list
    units: int  # work units of the operation
    check: Callable[[dict], list]  # report -> failure reasons


@dataclass
class Plan:
    warmup: list  # argv of the untimed warm-up operation
    ops: list  # one round
    once: Callable[[], list]  # untimed checks of the run -> failure reasons


def plan(workload: str, seed: int, paths: dict, out: str) -> Plan:
    return _PLANS[workload](seed, paths, out)


# -- hilbert-avg ----------------------------------------------------------------


def _hilbert_avg(seed, paths, out):
    def argv(name, cli_seed, samples=SAMPLES):
        csv, meta = paths[name]
        return ["average-hilbert", "--signal", csv, "--signal-meta", meta,
                "--samples", str(samples), "--margins", ",".join(map(str, MARGINS)),
                "--seed", str(cli_seed), "--out", out]

    def check(report):
        return oracles.check_average_hilbert(report, MARGINS, CORRELATION_FLOOR)

    units = SAMPLES * (len(MARGINS) + 1)  # the reference margin is computed too
    seeds = inputs.cli_seeds(seed, "hilbert-avg", len(inputs.SIGNAL_KINDS))
    ops = [Op(kind, argv(kind, s), units, check) for kind, s in zip(inputs.SIGNAL_KINDS, seeds)]
    ops.append(Op("offset", argv("offset", 0), units, check))

    def once():
        from dyadlab.operators import hilbert_exact
        from dyadlab.signal import StepFunction

        failures = []
        for name in (*inputs.SIGNAL_KINDS, "offset"):
            csv, meta = paths[name]
            f = StepFunction.from_csv(csv, meta)
            got = hilbert_exact(f, f.mesh.cell_midpoints())
            values = np.loadtxt(csv, delimiter=",", skiprows=1)[:, 1]
            want = oracles.hilbert_at_midpoints(values, 0.0, 1.0)
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            if not err <= 1e-10:
                failures.append(f"hilbert_exact on {name}: relative error {err:.3g}")
        return failures

    return Plan(argv("warmup", 0, samples=4), ops, once)


# -- norm-sweep -------------------------------------------------------------------


def _norm_sweep(seed, paths, out):
    a2 = {a: oracles.a2_tree_max(oracles.power_weight_cells(NORM_DEPTH, a)) for a in DEFAULT_ALPHAS}
    seeds = inputs.cli_seeds(seed, "norm-sweep", len(NORM_HANDLES))

    def op(handle, cli_seed):
        def check(report):
            return oracles.check_norms(report, a2, SLOPE_MAX.get(handle, 1.15))

        argv = ["norms", "--depth", str(NORM_DEPTH), "--operator", handle,
                "--seed", str(cli_seed), "--out", out]
        return Op(handle, argv, len(DEFAULT_ALPHAS), check)

    ops = [op(handle, s) for handle, s in zip(NORM_HANDLES, seeds)]

    def once():
        failures = []
        closed = oracles.a2_endpoint_closed_form(NORM_DEPTH)
        if not abs(oracles.a2_tree_max(oracles.power_weight_cells(NORM_DEPTH, 1.0)) - closed) <= 1e-12 * closed:
            failures.append("a2 oracle misses the closed form at alpha = 1")
        failures += _dense_norms(np.random.default_rng([seed, DENSE_DEPTH]))
        return failures

    warmup = ["norms", "--depth", "6", "--operator", "sha", "--alphas", "0.5,1.0",
              "--seed", "0", "--out", out]
    return Plan(warmup, ops, once)


def _dense_norms(rng) -> list:
    """operator_norm_weighted against the top singular value of the weighted
    dense matrix, for sha, martingale and paraproduct at depth 9."""
    from dyadlab.experiments import sweep_mesh
    from dyadlab.operators import SignSymbol, named_operator, operator_norm_weighted
    from dyadlab.signal import StepFunction
    from dyadlab.weights import Weight

    mesh = sweep_mesh(DENSE_DEPTH)
    w = oracles.power_weight_cells(DENSE_DEPTH, DENSE_ALPHA)
    b = oracles.log_cells(DENSE_DEPTH)
    sign_levels = [rng.integers(0, 2, size=1 << l) * 2.0 - 1.0 for l in range(DENSE_DEPTH)]
    dense = {
        "sha": oracles.dense_petermichl(DENSE_DEPTH),
        "martingale": oracles.dense_martingale(DENSE_DEPTH, np.concatenate(sign_levels)),
        "paraproduct": oracles.dense_paraproduct(DENSE_DEPTH, b),
    }
    failures = []
    for name, matrix in dense.items():
        op = named_operator(name, mesh, sigma=SignSymbol(mesh, sign_levels), b=StepFunction(mesh, b))
        got = operator_norm_weighted(op, Weight(mesh, w))
        want = oracles.weighted_norm(matrix, w)
        if not abs(got - want) <= 1e-6 * want:
            failures.append(f"{name}: power iteration {got!r}, dense {want!r}")
    return failures


# -- sparse-dom --------------------------------------------------------------------


def _sparse_dom(seed, paths, out):
    def check(report):
        failures = oracles.check_sparse_rows(report, SPARSE_SAMPLES)
        return failures + oracles.check_family(*oracles.decode_family(report["family"]))

    ops = [
        Op(f"run{i}", ["sparse-dominate", "--depth", str(SPARSE_DEPTH), "--samples",
                       str(SPARSE_SAMPLES), "--seed", str(s), "--out", out], SPARSE_SAMPLES, check)
        for i, s in enumerate(inputs.cli_seeds(seed, "sparse-dom", SPARSE_OPS))
    ]

    def once():
        from dyadlab.experiments import sweep_mesh
        from dyadlab.operators import SignSymbol
        from dyadlab.signal import StepFunction
        from dyadlab.sparse import lacey_dominate

        rng = np.random.default_rng([seed, LACEY_ORACLE_DEPTH])
        mesh = sweep_mesh(LACEY_ORACLE_DEPTH)
        f = rng.standard_normal(mesh.n_cells)
        sign_levels = [rng.integers(0, 2, size=1 << l) * 2.0 - 1.0 for l in range(mesh.depth)]
        family, c0 = lacey_dominate(StepFunction(mesh, f), SignSymbol(mesh, sign_levels))
        lhs = oracles.martingale_apply(f, sign_levels)
        rhs = oracles.sparse_average(np.abs(f), family.members)
        certs = [np.flatnonzero(family.certificates[m]) for m in family.members]
        return oracles.check_domination(lhs, c0, rhs) + oracles.check_family(
            mesh.depth, family.eta, family.members, certs
        )

    warmup = ["sparse-dominate", "--depth", "6", "--samples", "1", "--seed", "0", "--out", out]
    return Plan(warmup, ops, once)


# -- cloud-sht ------------------------------------------------------------------------


def _cloud_sht(seed, paths, out):
    def op(name, n, lattice_exponent=None):
        def check(report):
            return oracles.check_sht(report, n, lattice_exponent)

        return Op(name, ["sht", "--cloud", paths[name], "--out", out], n, check)

    m = inputs.LATTICE_EXPONENT
    ops = [
        op("uniform", inputs.PLANAR_POINTS),
        op("clustered", inputs.PLANAR_POINTS),
        op("lattice", 1 << m, m),
    ]
    return Plan(["sht", "--cloud", paths["warmup"], "--out", out], ops, lambda: [])


_PLANS = {
    "hilbert-avg": _hilbert_avg,
    "norm-sweep": _norm_sweep,
    "sparse-dom": _sparse_dom,
    "cloud-sht": _cloud_sht,
}
WORKLOADS = tuple(_PLANS)
