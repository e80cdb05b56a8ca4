"""Seeded input files for the benchmark workloads.

The same seed gives byte-identical files.  Regenerate the inputs of one seed
with

    python3 bench/inputs.py --seed 7 --out bench/work/inputs/seed7

Signals are depth-12 step functions on the root [0, 1) in the CLI's
`cell_index,value` CSV plus a JSON side file; every cell edge of every
signal, the two outer edges included, is a jump.  Clouds are `id,x,y[,mass]`
point lists and an `id_i,id_j,distance` edge list.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

SIGNAL_DEPTH = 12
WARMUP_SIGNAL_DEPTH = 6
# zero-mean signals drawn from the seed, in the order the workload runs them
SIGNAL_KINDS = ("white", "walk", "blocks", "bump")
# the mean-1 signal does not depend on the seed: its operations fail on the
# current program (see the FOUND line on run_average_hilbert in CHANGES.md),
# and a failing operation has to fail the same way on every seed
OFFSET_SIGNAL_SEED = 20181203
PLANAR_POINTS = 1024
LATTICE_EXPONENT = 8  # 2^8 = 256 points, 32640 edge rows
WARMUP_POINTS = 16


def _rng(seed: int, stream: str) -> np.random.Generator:
    key = [ord(c) for c in stream]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + key))


def zero_mean_signal(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    x = (np.arange(n) + 0.5) / n
    if kind == "white":
        v = rng.standard_normal(n)
    elif kind == "walk":
        v = np.cumsum(rng.standard_normal(n))
    elif kind == "blocks":
        v = np.repeat(rng.standard_normal(64), n // 64) + 0.1 * rng.standard_normal(n)
    elif kind == "bump":
        freq = rng.integers(2, 5)
        centre = rng.uniform(0.35, 0.65)
        v = np.sin(2 * np.pi * freq * x) * np.exp(-(((x - centre) / 0.15) ** 2))
        v = v + 0.05 * rng.standard_normal(n)
    else:
        raise ValueError(f"unknown signal kind {kind!r}")
    v = v - v.mean()
    return v / v.std()


def offset_signal(n: int) -> np.ndarray:
    """Zero-mean noise plus 1: a signal with mean 1."""
    v = np.random.default_rng(OFFSET_SIGNAL_SEED).standard_normal(n)
    return v - v.mean() + 1.0


def _check_all_jumps(values: np.ndarray) -> None:
    jumps = np.diff(values, prepend=0.0, append=0.0)
    if not np.all(jumps != 0.0):
        raise RuntimeError("generated signal has a cell edge without a jump")


def write_signal(stem: Path, values: np.ndarray, depth: int) -> tuple[str, str]:
    _check_all_jumps(values)
    csv_path, meta_path = stem.with_suffix(".csv"), stem.with_suffix(".json")
    lines = ["cell_index,value"] + [f"{i},{float(v)!r}" for i, v in enumerate(values)]
    csv_path.write_text("\n".join(lines) + "\n")
    meta = {"root_left": 0.0, "root_right": 1.0, "depth": depth}
    meta_path.write_text(json.dumps(meta))
    return str(csv_path), str(meta_path)


def planar_cloud(rng: np.random.Generator, n: int, clustered: bool):
    """(ids, xy, mass): uniform points in the unit square, or a mixture of
    eight Gaussian clusters carrying masses in [0.5, 2)."""
    if clustered:
        centres = rng.uniform(0.15, 0.85, size=(8, 2))
        xy = centres[rng.integers(0, 8, size=n)] + 0.05 * rng.standard_normal((n, 2))
        mass = rng.uniform(0.5, 2.0, size=n)
    else:
        xy = rng.random((n, 2))
        mass = None
    return rng.permutation(n), xy, mass


def write_points(path: Path, ids, xy, mass=None) -> str:
    header = "id,x,y" + (",mass" if mass is not None else "")
    lines = [header]
    for k in range(len(ids)):
        row = f"{int(ids[k])},{float(xy[k, 0])!r},{float(xy[k, 1])!r}"
        if mass is not None:
            row += f",{float(mass[k])!r}"
        lines.append(row)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def lattice_edges(rng: np.random.Generator, m: int):
    """Every pair of the 2^m-point dyadic lattice with the ultrametric
    0.9 * 2^(b - m), b the bit length of i xor j: the size exponent of the
    smallest dyadic block holding both points.  Point ids are a seeded
    permutation and the rows come in seeded order."""
    n = 1 << m
    i, j = np.triu_indices(n, k=1)
    block = np.zeros(i.size, dtype=np.int64)
    x = i ^ j
    while np.any(x):
        block += x > 0
        x >>= 1
    dist = 0.9 * 2.0 ** (block - m)
    ids = rng.permutation(n)
    order = rng.permutation(i.size)
    return ids[i[order]], ids[j[order]], dist[order]


def write_edges(path: Path, a, b, dist) -> str:
    lines = ["id_i,id_j,distance"]
    lines += [f"{int(p)},{int(q)},{float(d)!r}" for p, q, d in zip(a, b, dist)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write the input files of `workload` for `seed`; returns their paths by
    name.  Workloads without input files return an empty mapping."""
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict = {}
    if workload == "hilbert-avg":
        n = 1 << SIGNAL_DEPTH
        for kind in SIGNAL_KINDS:
            values = zero_mean_signal(kind, _rng(seed, kind), n)
            paths[kind] = write_signal(directory / f"signal_{kind}", values, SIGNAL_DEPTH)
        paths["offset"] = write_signal(directory / "signal_offset", offset_signal(n), SIGNAL_DEPTH)
        warm = zero_mean_signal("white", _rng(seed, "warmup"), 1 << WARMUP_SIGNAL_DEPTH)
        paths["warmup"] = write_signal(directory / "signal_warmup", warm, WARMUP_SIGNAL_DEPTH)
    elif workload == "cloud-sht":
        for name, clustered in (("uniform", False), ("clustered", True)):
            ids, xy, mass = planar_cloud(_rng(seed, name), PLANAR_POINTS, clustered)
            paths[name] = write_points(directory / f"cloud_{name}.csv", ids, xy, mass)
        a, b, dist = lattice_edges(_rng(seed, "lattice"), LATTICE_EXPONENT)
        paths["lattice"] = write_edges(directory / "cloud_lattice.csv", a, b, dist)
        ids, xy, _ = planar_cloud(_rng(seed, "warmup"), WARMUP_POINTS, False)
        paths["warmup"] = write_points(directory / "cloud_warmup.csv", ids, xy)
    return paths


def cli_seeds(seed: int, stream: str, count: int) -> list[int]:
    """CLI `--seed` values derived from the workload seed."""
    return [int(s) for s in _rng(seed, stream).integers(0, 2 ** 31, size=count)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the files")
    args = parser.parse_args(argv)
    for workload in ("hilbert-avg", "cloud-sht"):  # the workloads that read files
        for name, path in generate(workload, args.seed, Path(args.out)).items():
            print(workload, name, *(path if isinstance(path, tuple) else (path,)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
