"""Command line entry point: `dyadlab <experiment> [flags]`.

Exit codes: 0 ok, 2 config error, 3 numeric/convergence error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import ConfigError, DyadLabError
from .experiments import EXPERIMENTS, ExperimentConfig, run, strict_json, write_report


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a flag that does not parse is a config error, in strict JSON
        print(json.dumps({"error": "config", "message": message}), file=sys.stderr)
        raise SystemExit(2)


@functools.cache  # one parser per process: parsing leaves it unchanged, and building it costs milliseconds
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dyadlab",
        description="Numerical laboratory for dyadic harmonic analysis",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON or key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", dest="fmt", choices=["csv", "json", "both"], default=None)
        p.add_argument("--operator", default=None, help="norms: operator handle name")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--alphas", default=None, help="comma-separated power exponents")
        p.add_argument("--margins", default=None, help="comma-separated grid margins")
        p.add_argument("--signal", default=None, help="signal CSV path")
        p.add_argument("--signal-meta", dest="signal_meta", default=None)
        p.add_argument("--grid", default=None, help="grid parameters JSON (haar)")
        p.add_argument("--cloud", default=None, help="cloud CSV path (sht)")
        p.add_argument("--delta", type=float, default=None)
    return parser


def _overrides(args) -> dict:
    over = {k: v for k, v in vars(args).items() if k not in ("config", "experiment")}
    if args.alphas is not None:
        over["alphas"] = tuple(float(a) for a in args.alphas.split(","))
    if args.margins is not None:
        over["margins"] = tuple(int(m) for m in args.margins.split(","))
    return over


def _bind_list_values(argv) -> list[str]:
    """`--alphas -0.5,0.5` as `--alphas=-0.5,0.5`: argparse takes a token
    that starts with '-' and holds a comma for a flag, not a value."""
    out = []
    for token in argv:
        if out and out[-1] in ("--alphas", "--margins"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_bind_list_values(sys.argv[1:] if argv is None else argv))
    try:
        overrides = _overrides(args)
        if args.config:
            cfg = ExperimentConfig.from_file(
                args.config, experiment=args.experiment, **overrides
            )
        else:
            clean = {k: v for k, v in overrides.items() if v is not None}
            cfg = ExperimentConfig(experiment=args.experiment, **clean)
        report = run(cfg)
        written = write_report(report, cfg)
        summary = {
            "experiment": cfg.experiment,
            "config_hash": report["config_hash"],
            "written": written,
        }
        for key in ("slope", "ok", "all_ok"):
            if key in report:
                summary[key] = report[key]
        print(strict_json(summary))
        return 0
    except (ConfigError, ValueError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 4
    except (DyadLabError, ArithmeticError) as exc:
        print(json.dumps({"error": "numeric", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
