"""Batch experiments reproducing the quantitative weighted-norm phenomena.

Each experiment is deterministic given its config and seed, and emits fixed
CSV headers plus a JSON report wrapping the rows with the config hash,
package version, mesh depth, and grid window.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .errors import ConfigError
from .grid import MAX_GENERATION, GridParameters, standard_grid
from .operators import (
    CANONICAL_MARGIN_CAP,
    SignSymbol,
    average_shifts,
    hilbert_exact,
    maximal_dyadic,
    named_operator,
    operator_norm_weighted,
    sharp_truncation,
    shift_complexity,
    square_norm_weighted,
)
from .signal import MAX_DEPTH, MAX_SAMPLES, Mesh, StepFunction, analyze, lp_norm
from .sparse import SparseFamily, lacey_dominate
from .weights import (
    CarlesonSequence,
    Weight,
    a_infty_classical,
    a_infty_fujii_wilson,
    alpha_sequence,
    ap_characteristic,
    ap_characteristic_report,
    bellman_verify,
    bmo_dyadic_norm,
    carleson_intensity,
    fkp_sequence,
    little_lemma_map,
    log_symbol,
    ntv_conditions,
    power_weight,
)

DEFAULT_ALPHAS = (0.3, 0.6, 0.9, 1.2, 1.5, 1.75, 2.0)

CSV_HEADERS = {
    "norms": ["param", "a2", "norm", "ratio"],
    "average-hilbert": ["margin", "seed", "correlation", "l2_discrepancy"],
    "sparse-dominate": ["run", "c0_used", "eta", "members", "verified"],
    "carleson": ["check", "param", "value", "bound", "ok"],
    "bellman": ["check", "value"],
    "ntv": ["quantity", "value"],
    "sht": ["quantity", "value"],
    "haar": ["level", "pos", "coefficient"],
}


@dataclass
class ExperimentConfig:
    experiment: str
    depth: int = 10
    seed: int | None = 0
    operator: str = "sha"
    alphas: tuple = DEFAULT_ALPHAS
    samples: int = 400
    margins: tuple = (3, 6)
    seeds: tuple = (0,)
    norm_tol: float = 1e-8
    norm_iters: int = 10 ** 4
    signal: str | None = None
    signal_meta: str | None = None
    grid: str | None = None
    cloud: str | None = None
    delta: float = 0.5
    out: str | None = None
    fmt: str = "both"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        # a config file's values arrive unparsed: each must have the type its field is annotated with
        types = {"int": (int,), "float": (int, float), "str": (str,), "tuple": (tuple, list)}
        for field in fields(self):
            value, (kind, _, optional) = getattr(self, field.name), field.type.partition(" | ")
            if type(value) not in types[kind] and not (optional and value is None):
                raise ConfigError(f"{field.name} must be of type {field.type}")
        if any(type(m) is not int for m in (*self.margins, *self.seeds)):
            raise ConfigError("margins and seeds must be lists of integers")
        if not 0 < self.norm_tol < math.inf:
            raise ConfigError("norm_tol must be a finite number > 0")
        if self.norm_iters < 1:
            raise ConfigError("norm_iters must be at least 1")
        if not 0 <= self.samples <= MAX_SAMPLES:
            raise ConfigError(f"samples must be between 0 and {MAX_SAMPLES} (memory guard)")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"depth must be between 1 and {MAX_DEPTH} (memory guard)")
        if self.experiment == "norms" and self.depth < 2:
            # a depth-1 power sweep has no a2 spread to fit a slope to
            raise ConfigError("norms needs depth >= 2")
        if self.experiment == "norms" and max(shift_complexity(self.operator) or (0,)) >= self.depth:
            # a mesh of depth max(m, n) holds no shift coefficient: every norm would be 0
            raise ConfigError(f"operator {self.operator} needs max(m, n) < depth = {self.depth}")
        if not all(type(a) in (int, float) and a > -1.0 for a in self.alphas):
            raise ConfigError("alphas must be a list of power exponents > -1")
        if self.experiment == "norms" and len({float(a) for a in self.alphas}) < 2:
            raise ConfigError("norms needs at least two distinct alphas to fit a slope")
        if self.seed is None and self.experiment not in ("haar", "sht", "ntv"):
            raise ConfigError(f"experiment {self.experiment!r} requires a seed")
        if self.fmt not in ("csv", "json", "both"):
            raise ConfigError("format must be csv, json or both")

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        with open(path) as fh:
            text = fh.read()
        data = {}
        stripped = text.strip()
        if stripped.startswith("{"):
            data = json.loads(stripped)
        else:
            for line in stripped.splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                try:
                    data[key.strip()] = json.loads(value.strip())
                except json.JSONDecodeError:
                    data[key.strip()] = value.strip()
        data.update({k: v for k, v in overrides.items() if v is not None})
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for tup_key in ("alphas", "margins", "seeds"):
            if tup_key in data and isinstance(data[tup_key], list):
                data[tup_key] = tuple(data[tup_key])
        return cls(**data)


def sweep_mesh(depth: int) -> Mesh:
    grid = standard_grid(-2, depth + 4)
    return Mesh(grid.interval(0, 0), depth)


def tower_family(mesh: Mesh) -> SparseFamily:
    """The left-spine tower {[0, 2^-l)}: a 1/2-sparse family aligned with the
    power-weight singularity (certificates: right halves, plus the last cell)."""
    members = [(level, 0) for level in range(mesh.depth + 1)]
    owner = np.full(mesh.n_cells, -1)
    for level in range(mesh.depth):
        width = 1 << (mesh.depth - level)
        owner[width // 2 : width] = level
    owner[0] = mesh.depth
    return SparseFamily(mesh, members, owner)


@dataclass
class SweepReport:
    rows: list
    slope: float
    slope_stderr: float
    slope_band: tuple

    @classmethod
    def fit(cls, rows) -> "SweepReport":
        xs = np.log([r["a2"] for r in rows])
        ys = np.log([r["norm"] for r in rows])
        A = np.c_[xs, np.ones_like(xs)]
        coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
        slope = float(coef[0])
        dof = max(len(xs) - 2, 1)
        resid = ys - A @ coef
        s2 = float(resid @ resid) / dof
        sxx = float(np.sum((xs - xs.mean()) ** 2))
        stderr = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
        band = (slope - 1.96 * stderr, slope + 1.96 * stderr)
        return cls(sorted(rows, key=lambda r: r["a2"]), slope, stderr, band)


def _norm_for_operator(cfg: ExperimentConfig, mesh: Mesh, w: Weight, b, sigma):
    name = cfg.operator
    if name == "square":
        return square_norm_weighted(w, iters=cfg.norm_iters, tol=cfg.norm_tol), 1.0
    if name in ("maximal", "sharp"):
        # sublinear: certified lower bound on the near-extremal test function
        f = near_extremal_function(w)
        image = (
            maximal_dyadic(f) if name == "maximal" else sharp_truncation(f, sigma)
        )
        return lp_norm(image, 2, w) / lp_norm(f, 2, w), 1.0
    family = tower_family(mesh) if name == "sparse" else None
    op = named_operator(name, mesh, sigma=sigma, b=b, family=family)
    norm = operator_norm_weighted(
        op, w, iters=cfg.norm_iters, tol=cfg.norm_tol, seed=cfg.seed or 0
    )
    scale = bmo_dyadic_norm(b) if name in ("paraproduct", "paraproduct_adj", "commutator_sha") else 1.0
    return norm, scale


def near_extremal_function(w: Weight) -> StepFunction:
    """f = w^{-1} restricted to the characteristic's argmax interval."""
    rep = ap_characteristic_report(w, 2.0)
    level, pos = rep["argmax_interval"]
    vals = np.zeros(w.mesh.n_cells)
    sl = w.mesh.cell_slice(level, pos)
    vals[sl] = 1.0 / w.values[sl]
    return StepFunction(w.mesh, vals)


def weak_type_witness(w: Weight, f: StepFunction) -> float:
    """sup_lambda lambda * w{M^D f > lambda}^{1/2} / ||f||_{L2(w)}."""
    mesh = w.mesh
    g = maximal_dyadic(f).values
    denom = lp_norm(f, 2, w)
    order = np.argsort(g)
    wmass = w.values[order] * mesh.cell_length
    tail = np.cumsum(wmass[::-1])[::-1]
    # just below each distinct value of g, the superlevel set has the tail mass
    return float(np.max(g[order] * (1 - 1e-12) * np.sqrt(tail))) / denom


def run_norms(cfg: ExperimentConfig) -> dict:
    mesh = sweep_mesh(cfg.depth)
    b = log_symbol(mesh)
    rng = np.random.default_rng(cfg.seed)
    sigma = SignSymbol.random(mesh, rng)
    rows = []
    for alpha in cfg.alphas:
        w = power_weight(mesh, float(alpha))
        a2 = ap_characteristic(w, 2.0)
        norm, scale = _norm_for_operator(cfg, mesh, w, b, sigma)
        rows.append(
            {
                "param": float(alpha),
                "a2": a2,
                "norm": norm,
                "ratio": norm / (a2 * scale),
                "a_infty": a_infty_fujii_wilson(w),
                "a_infty_inv": a_infty_fujii_wilson(w.reciprocal()),
                "weak_witness": weak_type_witness(w, near_extremal_function(w))
                if cfg.operator == "maximal"
                else None,
            }
        )
    fit = SweepReport.fit(rows)
    return {
        "rows": fit.rows,
        "slope": fit.slope,
        "slope_stderr": fit.slope_stderr,
        "slope_band": fit.slope_band,
        "operator": cfg.operator,
    }


def default_bump(mesh: Mesh) -> StepFunction:
    """Mean-zero two-block bump on the central quarter of the root.

    Keeping the support small relative to the root keeps the sub-root shift
    average close to the full transform (the coarse scales it omits couple
    pairs of points at separations comparable to the support size).
    """
    left, right = mesh.root.left, mesh.root.right
    mid = 0.5 * (left + right)
    scale = 0.25 * (right - left)
    mids = mesh.cell_midpoints()
    vals = np.where((mids > mid - scale / 2) & (mids < mid), 1.0, 0.0) - np.where(
        (mids >= mid) & (mids < mid + scale / 2), 1.0, 0.0
    )
    return StepFunction(mesh, vals)


def run_average_hilbert(cfg: ExperimentConfig) -> dict:
    """Correlation against the exact transform of the mean-zero part (what
    the shift average reconstructs), and the window-truncation discrepancy:
    each margin is compared in L2 against the widest-window reconstruction
    on the same sampled grids (self-comparison)."""
    if cfg.signal:
        f = StepFunction.from_csv(cfg.signal, cfg.signal_meta)
    else:
        f = default_bump(sweep_mesh(cfg.depth))
    margins = [int(m) for m in cfg.margins]
    if any(2 * m < -f.mesh.depth for m in margins):
        # the window [j_root - m, j_cell + m] holds no generation
        raise ConfigError(f"margins must be at least -depth/2 = {-f.mesh.depth / 2:g}")
    ref_margin = max(max(margins) + 2, CANONICAL_MARGIN_CAP)
    # the grids are sampled on generations [j_root - ref, j_cell + ref]: 2.0**-j is a normal double for
    # |j| <= G = MAX_GENERATION, and an edge below 2**reach in magnitude is then at most 2**(G - reach)
    # lengths 2**-j
    root = f.mesh.root
    reach = max(0, math.ceil(math.log2(max(abs(root.left), abs(root.right)))))
    room = min(MAX_GENERATION + root.j, MAX_GENERATION - reach - root.j - f.mesh.depth)
    if ref_margin > room:
        raise ConfigError(f"margins must be at most {room - 2} on this mesh (the grid scales leave the doubles)")
    exact = hilbert_exact(StepFunction(f.mesh, f.values - f.values.mean()))
    rows = []
    for seed in cfg.seeds:
        stream = int(seed) + (cfg.seed or 0)
        approxes = average_shifts(f, cfg.samples, stream, [*margins, ref_margin])
        reference = approxes[ref_margin]
        for margin in margins:
            approx = approxes[margin]
            if np.ptp(approx.values) == 0.0 or np.ptp(exact) == 0.0:
                raise FloatingPointError(f"correlation undefined at margin {margin}: a transform is constant")
            corr = float(np.corrcoef(approx.values, exact)[0, 1])
            disc = lp_norm(StepFunction(f.mesh, approx.values - reference.values), 2)
            rows.append(
                {
                    "margin": margin,
                    "seed": int(seed),
                    "correlation": corr,
                    "l2_discrepancy": disc,
                }
            )
    return {
        "rows": rows,
        "samples": cfg.samples,
        "reference_margin": ref_margin,
        **mesh_fields(f.mesh),
    }


def run_sparse_dominate(cfg: ExperimentConfig) -> dict:
    mesh = sweep_mesh(cfg.depth)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    family_json = None
    for run in range(max(1, cfg.samples)):
        f = StepFunction(mesh, rng.standard_normal(mesh.n_cells))
        sigma = SignSymbol.random(mesh, rng)
        family, c0 = lacey_dominate(f, sigma)  # raises unless verify_sparse passes on the family
        rows.append(
            {
                "run": run,
                "c0_used": c0,
                "eta": family.eta,
                "members": len(family.members),
                "verified": True,
            }
        )
        if family_json is None:
            family_json = family.to_json()
    return {"rows": rows, "family": family_json}


def run_carleson(cfg: ExperimentConfig) -> dict:
    mesh = sweep_mesh(cfg.depth)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for alpha in cfg.alphas:
        w = power_weight(mesh, float(alpha))
        fkp = carleson_intensity(fkp_sequence(w))
        bound = 8.0 * math.log(max(a_infty_classical(w), 1.0 + 1e-15))
        rows.append(
            {"check": "fkp_log", "param": float(alpha), "value": fkp, "bound": bound, "ok": fkp <= bound * (1 + 1e-10)}
        )
        mu = carleson_intensity(alpha_sequence(w, 0.25))
        abound = 576.0 * ap_characteristic(w, 2.0) ** 0.25
        rows.append(
            {"check": "alpha_lemma", "param": float(alpha), "value": mu, "bound": abound, "ok": mu <= abound * (1 + 1e-10)}
        )
    for i in range(cfg.samples):
        seq = CarlesonSequence(
            mesh,
            [rng.uniform(0, 1, 1 << l) * (rng.random(1 << l) < 0.3) for l in range(mesh.depth + 1)],
        )
        w = Weight(mesh, np.exp(rng.uniform(-1.5, 1.5, mesh.n_cells)))
        lhs = carleson_intensity(little_lemma_map(seq, w), w)
        rhs = 4.0 * carleson_intensity(seq)
        rows.append(
            {"check": "little_lemma", "param": i, "value": lhs, "bound": rhs, "ok": lhs <= rhs * (1 + 1e-10)}
        )
    return {"rows": rows, "all_ok": all(r["ok"] for r in rows)}


def run_bellman(cfg: ExperimentConfig) -> dict:
    report = bellman_verify(max(cfg.samples, 10 ** 4), seed=cfg.seed or 0)
    rows = [{"check": k, "value": v} for k, v in report.items()]
    return {"rows": rows, "ok": report["ok"]}


def run_sht(cfg: ExperimentConfig) -> dict:
    from .sht import QuasiMetricCloud, build_cube_system, build_sht_haar, gram_error

    if not cfg.cloud:
        raise ConfigError("sht experiment needs a cloud CSV path")
    cloud = QuasiMetricCloud.from_csv(cfg.cloud)
    system = build_cube_system(cloud, cfg.delta)
    verification = system.verify()
    basis = build_sht_haar(system)
    rows = [
        {"quantity": "n_points", "value": cloud.n},
        {"quantity": "levels", "value": system.n_levels},
        {"quantity": "basis_size", "value": basis.coefficient_count()},
        {"quantity": "top_cubes", "value": basis.top_cubes},
        {"quantity": "dimension_identity", "value": basis.coefficient_count() + basis.top_cubes == cloud.n},
        {"quantity": "gram_error", "value": gram_error(basis)},
    ] + [{"quantity": k, "value": v} for k, v in verification.items()]
    return {"rows": rows}


def run_ntv(cfg: ExperimentConfig) -> dict:
    mesh = sweep_mesh(cfg.depth)
    rows = []
    for alpha in cfg.alphas:
        w = power_weight(mesh, float(alpha))
        rep = ntv_conditions(w, w, norm_tol=cfg.norm_tol, norm_iters=cfg.norm_iters)
        for key, value in rep.items():
            rows.append({"quantity": f"{key}[alpha={alpha:g}]", "value": value})
    return {"rows": rows}


def run_haar(cfg: ExperimentConfig) -> dict:
    if not cfg.signal or not cfg.signal_meta:
        raise ConfigError("haar experiment needs signal and signal_meta paths")
    grid = None
    if cfg.grid:
        with open(cfg.grid) as fh:
            grid = GridParameters.from_json(fh.read())
    f = StepFunction.from_csv(cfg.signal, cfg.signal_meta, grid=grid)
    s = analyze(f)
    rows = [{"level": -1, "pos": 0, "coefficient": s.mean}]
    for level, arr in enumerate(s.levels):
        for pos, c in enumerate(arr):
            rows.append({"level": level, "pos": pos, "coefficient": float(c)})
    return {"rows": rows, "mean": s.mean, **mesh_fields(f.mesh)}


RUNNERS = {
    "haar": run_haar,
    "norms": run_norms,
    "average-hilbert": run_average_hilbert,
    "sparse-dominate": run_sparse_dominate,
    "carleson": run_carleson,
    "bellman": run_bellman,
    "sht": run_sht,
    "ntv": run_ntv,
}
EXPERIMENTS = tuple(RUNNERS)


def mesh_fields(mesh: Mesh) -> dict:
    """The report's mesh depth and grid window."""
    return {"mesh_depth": mesh.depth, "grid_window": [mesh.grid.j_min, mesh.grid.j_max]}


def run(cfg: ExperimentConfig) -> dict:
    """Execute the configured experiment and assemble the report envelope.

    The mesh fields default to `sweep_mesh(cfg.depth)`; a runner that reads
    its mesh from a signal file reports that mesh instead."""
    result = RUNNERS[cfg.experiment](cfg)
    report = {
        "experiment": cfg.experiment,
        "config": asdict(cfg),
        "config_hash": cfg.config_hash(),
        "version": __version__,
        **mesh_fields(sweep_mesh(cfg.depth)),
    }
    report.update(result)
    return report


def strict_json(obj, **kwargs) -> str:
    """JSON text of `obj`; a NaN or infinity in it is a numeric failure,
    never written out as invalid JSON."""
    try:
        return json.dumps(obj, allow_nan=False, default=str, **kwargs)
    except ValueError as exc:
        raise FloatingPointError(f"non-finite value in the output: {exc}") from None


def rows_to_csv(experiment: str, rows) -> str:
    headers = CSV_HEADERS[experiment]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_csv_cell(row.get(h)) for h in headers])
    return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return value


def write_report(report: dict, cfg: ExperimentConfig) -> list:
    """Write CSV/JSON per the configured format; returns the paths written."""
    import pathlib

    if cfg.out is None:
        return []
    text = strict_json(report, indent=2)
    outdir = pathlib.Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.experiment.replace('-', '_')}_{report['config_hash']}"
    written = []
    if cfg.fmt in ("csv", "both"):
        path = outdir / f"{stem}.csv"
        path.write_text(rows_to_csv(cfg.experiment, report["rows"]))
        written.append(str(path))
    if cfg.fmt in ("json", "both"):
        path = outdir / f"{stem}.json"
        path.write_text(text)
        written.append(str(path))
    return written
