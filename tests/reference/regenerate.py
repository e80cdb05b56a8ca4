"""Rewrite the reference reports in this directory.

Each `<stem>.json` is the full report that `dyadlab.experiments.run` returns
for the config below, the same report the CLI writes for those flags.
`tests/test_reference.py` reruns the config stored in each file and compares
its rows and family: exactly, but for the `average-hilbert` correlations and
the `norms` and `ntv` power-iteration estimates, which go through BLAS and are compared
to the relative tolerances in its `FLOAT_RTOL`.  Run from the repository root:

    PYTHONPATH=src python3 tests/reference/regenerate.py

A change that rewrites a reference says in CHANGES.md which numbers moved,
and why.
"""

from __future__ import annotations

from pathlib import Path

from dyadlab.experiments import ExperimentConfig, run, strict_json

HERE = Path(__file__).resolve().parent

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
}


def main():
    for stem, fields in REFERENCES.items():
        path = HERE / f"{stem}.json"
        path.write_text(strict_json(run(ExperimentConfig(**fields)), indent=2) + "\n")
        print(path)


if __name__ == "__main__":
    main()
