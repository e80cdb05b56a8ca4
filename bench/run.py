"""dyadlab benchmark: one run of one workload.

    python3 bench/run.py --workload norm-sweep --seed 3 --seconds 25 --trace 0

Generates the workload's inputs from the seed, runs one untimed warm-up
operation and the untimed once-per-run oracle checks, then repeats whole
rounds of CLI operations, each checked after it ends, for about `--seconds`
seconds, with the set-up probes spread over them.  Times are reported in
reference seconds (hostspeed.py).  The last line of standard output is one
JSON object: the end-to-end metrics with `--trace 0`, the per-layer metrics
of an outside-in trace with `--trace 1`.  Details go to
bench/work/results/<workload>-seed<n>-{e2e,trace}.json.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from common import BENCH, ROOT, THREAD_VARS, WORK, pin_threads, use_source_tree

SETUP_PROBES = 9
CALIBRATION_SPACING_S = 0.5
PROBE_TIMEOUT_S = 60
MB = 1e6


def run_cli(cli_main, argv):
    """(exit code, stdout, stderr) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a user would see a traceback and exit code 1
            code = 1
            err.write(f"uncaught {type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def failures_of(op, code, stdout, stderr):
    """Why an operation failed: exit code, non-strict JSON, or its checks."""
    import oracles

    if code != 0:
        return [f"exit code {code}: {stderr.strip()[:200]}"]
    try:
        summary = oracles.strict_json(stdout.strip().splitlines()[-1])
        path = next(p for p in summary["written"] if p.endswith(".json"))
        with open(path) as fh:
            report = oracles.strict_json(fh.read())
    except (ValueError, IndexError, KeyError, StopIteration) as exc:
        return [f"no strict JSON report: {exc}"]
    try:
        return op.check(report)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"report malformed: {type(exc).__name__}: {exc}"]


def run_rounds(cli_main, ops, seconds, tracer=None, probe=None):
    """Whole rounds of `ops`, each operation timed alone and checked after
    its timer stops, until the next round's midpoint would pass `seconds`
    of time inside operations.  Before an operation, times the host
    calibration (hostspeed.py) if CALIBRATION_SPACING_S of operations have
    passed since the last one, and once more at the end.  With `probe`, the
    SETUP_PROBES set-up probes are spread evenly over the run, each before
    an operation.  Returns (records, rounds, calibrations, probes); records
    are (round, label, seconds, units, failures)."""
    from hostspeed import calibrate

    records, calibrations, probes = [], [], []
    timed = 0.0  # seconds inside operations
    calibrated = -CALIBRATION_SPACING_S
    rounds = 0
    while True:
        for op in ops:
            if probe and len(probes) < SETUP_PROBES and timed >= len(probes) * seconds / SETUP_PROBES:
                probes.append(probe())
            if timed - calibrated >= CALIBRATION_SPACING_S:
                calibrations.append(calibrate())
                calibrated = timed
            with tracer.operation(len(records)) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                code, stdout, stderr = run_cli(cli_main, op.argv)
                elapsed = time.perf_counter() - t0
            timed += elapsed
            records.append((rounds, op.label, elapsed, op.units, failures_of(op, code, stdout, stderr)))
        rounds += 1
        if timed + 0.5 * timed / rounds >= seconds:
            break
    while probe and len(probes) < SETUP_PROBES:  # a run shorter than its probe spacing
        probes.append(probe())
    calibrations.append(calibrate())
    return records, rounds, calibrations, probes


def setup_probe(warmup_argv):
    """Returns a function that spawns one fresh interpreter, runs the warm-up
    in it and returns (seconds from spawn to its `ready` line, that line)."""

    def probe():
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), json.dumps(warmup_argv)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
        ) as proc:
            try:
                line = proc.stdout.readline().strip()
                seconds = time.perf_counter() - start
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                line += f" (no exit within {PROBE_TIMEOUT_S} s)"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        return seconds, line

    return probe


def op_median(records, times):
    """Median over rounds of each round's median operation time.  A round
    mixes operations of different lengths, so the median of all times can
    fall between two operations' clusters of times and move with their
    edges; a round's median moves with the whole round."""
    by_round = {}
    for r, t in zip(records, times):
        by_round.setdefault(r[0], []).append(t)
    return statistics.median(statistics.median(ts) for ts in by_round.values())


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description="dyadlab benchmark run")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)

    from dyadlab.cli import main as cli_main  # fails outside a full checkout

    import hostspeed
    import inputs
    import tracing

    tag = f"{args.workload}-seed{args.seed}"
    out_dir = WORK / "out" / args.workload
    paths = inputs.generate(args.workload, args.seed, WORK / "inputs" / tag)
    plan = workloads.plan(args.workload, args.seed, paths, str(out_dir))

    code, _, stderr = run_cli(cli_main, plan.warmup)
    problems = [f"warm-up: exit code {code}: {stderr.strip()[:200]}"] if code else []
    problems += [f"once: {r}" for r in plan.once()]

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    probe = None if args.trace or code else setup_probe(plan.warmup)
    records, rounds, calibrations, probes = run_rounds(cli_main, plan.ops, args.seconds, tracer, probe)
    problems += [f"set-up probe: {line!r}, not 'ready 0'" for _, line in probes if line != "ready 0"]

    # wall seconds to reference seconds (hostspeed.py)
    scale = 1.0 / hostspeed.slowdown(calibrations)
    wall = [r[2] for r in records]
    ref = [t * scale for t in wall]
    good_units = sum(r[3] for r in records if not r[4])
    failed = sum(1 for r in records if r[4])
    e2e = {
        "op_p50_s": (op_median(records, ref), "s"),
        "work_per_s": (good_units / sum(ref), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB"),
    }
    if probes:
        e2e["setup_s"] = (statistics.median(t for t, _ in probes) * scale, "s")
    if tracer:
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][2]}
                   for k, v in tracer.per_operation().items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": fingerprint(),
        "problems": problems,
        "rounds": rounds,
        "calibration_s": calibrations,
        "slowdown": 1.0 / scale,
        "setup_probes_wall_s": [t for t, _ in probes],
        "operations": [
            {"round": r, "label": label, "wall_s": w, "units": u, "failures": f}
            for r, label, w, u, f in records
        ],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "wall": {
            "op_p50_s": op_median(records, wall),
            "work_per_s": good_units / sum(wall),
            "setup_s": statistics.median(t for t, _ in probes) if probes else None,
        },
    }
    if tracer:
        detail["per_layer"] = metrics
        detail["traced_operations"] = tracer.ops
        detail["spans"] = tracer.spans
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    (results / f"{tag}-{kind}.json").write_text(json.dumps(detail))

    for label in sorted({r[1] for r in records if r[4]}):
        reasons = next(r[4] for r in records if r[1] == label and r[4])
        print(f"failed {label}: {'; '.join(reasons)}", file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args, names) -> int:
    """Every workload in turn, each in a fresh process.  Prints each run's
    result line, then one line that sums the counts and keys every metric
    by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        line = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(line.strip().splitlines()[-1])
        print(f"{name}: {json.dumps(result)}", flush=True)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    pin_threads()
    use_source_tree()
    raise SystemExit(main())
