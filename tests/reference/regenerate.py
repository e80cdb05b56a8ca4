"""Rewrite the reference reports in this directory.

Each `<stem>.json` is the full report that `dyadlab.experiments.run` returns
for the config below, the same report the CLI writes for those flags.
`tests/test_reference.py` reruns the config stored in each file and compares
its rows and family: exactly, but for the `average-hilbert` correlations and
the `norms` and `ntv` power-iteration estimates, which go through BLAS and are compared
to the relative tolerances in its `FLOAT_RTOL`, and its mesh depth and grid
window.  The `haar` and `sht` examples
read the files in `inputs/`, which `write_inputs` writes from a seed; their
configs give the paths relative to the repository root, where `main` runs them:

    PYTHONPATH=src python3 tests/reference/regenerate.py [stem ...]

Naming stems rewrites only those references (the inputs are always rewritten).

A change that rewrites a reference says in CHANGES.md which numbers moved,
and why.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

from dyadlab.experiments import ExperimentConfig, run, strict_json
from dyadlab.grid import GridParameters, standard_grid
from dyadlab.signal import Mesh, StepFunction

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
INPUTS_SEED = 3
CLOUD_POINTS = 128

REFERENCES = {
    # dyadlab average-hilbert --depth 10 --samples 200 --seed 1 --margins 3,6
    "average_hilbert_d10_s1": dict(experiment="average-hilbert", depth=10, samples=200, seed=1, margins=(3, 6)),
    # the README example: dyadlab sparse-dominate --depth 10 --samples 20 --seed 7
    "sparse_dominate_d10_s7": dict(experiment="sparse-dominate", depth=10, samples=20, seed=7),
    # one deep run: dyadlab sparse-dominate --depth 14 --samples 1 --seed 0
    "sparse_dominate_d14_s0": dict(experiment="sparse-dominate", depth=14, samples=1, seed=0),
    # the README examples: dyadlab norms --depth 12 --operator sha --alphas 0.3,0.9,1.5,2.0 --seed 0
    "norms_sha_d12_s0": dict(experiment="norms", depth=12, operator="sha", alphas=(0.3, 0.9, 1.5, 2.0), seed=0),
    # and dyadlab norms --depth 10 --operator commutator_sha --seed 0
    "norms_commutator_sha_d10_s0": dict(experiment="norms", depth=10, operator="commutator_sha", seed=0),
    # the README example: dyadlab carleson --depth 8 --samples 100 --seed 0
    "carleson_d8_s0": dict(experiment="carleson", depth=8, samples=100, seed=0),
    # the README example: dyadlab bellman --samples 10000 --seed 0
    "bellman_s0": dict(experiment="bellman", samples=10000, seed=0),
    # the README example: dyadlab ntv --depth 8 --alphas 0.5,1.0 --seed 0
    "ntv_d8_s0": dict(experiment="ntv", depth=8, alphas=(0.5, 1.0), seed=0),
    # the README example: dyadlab haar --signal sig.csv --signal-meta sig.json, on the standard grid
    "haar_standard": dict(
        experiment="haar",
        signal="tests/reference/inputs/haar_signal.csv",
        signal_meta="tests/reference/inputs/haar_standard.json",
    ),
    # and with --grid: the same values on an interval of a grid with r = 1.5 and random bits
    "haar_grid": dict(
        experiment="haar",
        signal="tests/reference/inputs/haar_signal.csv",
        signal_meta="tests/reference/inputs/haar_grid.json",
        grid="tests/reference/inputs/grid.json",
    ),
    # the README example: dyadlab sht --cloud cloud.csv --delta 0.5
    "sht_cloud": dict(experiment="sht", cloud="tests/reference/inputs/cloud.csv", delta=0.5),
}


def write_inputs(directory: Path):
    """The `haar` and `sht` examples' inputs, from INPUTS_SEED: the values of
    a depth-6 signal, a side file placing them on the standard interval
    [-4, 0), a grid file with r = 1.5 and random bits, a side file placing
    them on one of that grid's intervals, and a cloud of CLOUD_POINTS uniform
    points in the unit square with masses in [0.5, 2), in shuffled id order."""
    directory.mkdir(exist_ok=True)
    rng = np.random.default_rng(INPUTS_SEED)
    values = rng.standard_normal(1 << 6)
    grid = GridParameters(1.5, -3, 10, tuple(int(b) for b in rng.integers(0, 2, size=14)))
    (directory / "grid.json").write_text(grid.to_json() + "\n")
    roots = {"haar_standard.json": standard_grid(-3, 5).interval(-2, -1), "haar_grid.json": grid.interval(2, 3)}
    for meta, root in roots.items():  # both write the same values CSV
        StepFunction(Mesh(root, 6), values).to_csv(directory / "haar_signal.csv", directory / meta)
    ids, xy, mass = rng.permutation(CLOUD_POINTS), rng.random((CLOUD_POINTS, 2)), rng.uniform(0.5, 2.0, CLOUD_POINTS)
    rows = [f"{k},{x!r},{y!r},{m!r}\n" for k, (x, y), m in zip(ids.tolist(), xy.tolist(), mass.tolist())]
    (directory / "cloud.csv").write_text("id,x,y,mass\n" + "".join(rows))


def main(stems):
    """Rewrite the inputs and the references named in `stems` (default: all)."""
    os.chdir(HERE.parents[1])
    write_inputs(INPUTS)
    for stem in stems or REFERENCES:
        path = HERE / f"{stem}.json"
        path.write_text(strict_json(run(ExperimentConfig(**REFERENCES[stem])), indent=2) + "\n")
        print(path)


if __name__ == "__main__":
    main(sys.argv[1:])
