"""Outside-in tracing of dyadlab's public functions.

`Tracer.install` replaces each traced function, in every dyadlab module
namespace that holds it, by a wrapper that records a span (name, start,
end, operation id, parent span).  Self time is a span's duration minus the
durations of its child spans.  Sizes marked "computed" are derived from the
arguments and results, not measured.  Nothing is recorded outside
`Tracer.operation`, so the benchmark's own checks stay out of the figures.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MB = 1e6

# (module, attribute path) -> span name; "Class.method" paths patch the class
TRACED = {
    ("signal", "analyze"): "signal.analyze",
    ("signal", "synthesize"): "signal.synthesize",
    ("signal", "means_pyramid"): "signal.means_pyramid",
    ("signal", "StepFunction.from_csv"): "signal.from_csv",
    ("weights", "ap_characteristic"): "weights.ap_characteristic",
    ("weights", "a_infty_fujii_wilson"): "weights.a_infty_fujii_wilson",
    ("weights", "power_weight"): "weights.power_weight",
    ("operators", "average_shift"): "operators.average_shift",
    ("operators", "shifted_grid_transform"): "operators.shifted_grid_transform",
    ("operators", "hilbert_exact"): "operators.hilbert_exact",
    ("operators", "operator_norm_weighted"): "operators.operator_norm_weighted",
    ("operators", "maximal_dyadic"): "operators.maximal_dyadic",
    ("operators", "sharp_truncation"): "operators.sharp_truncation",
    ("operators", "named_operator"): "operators.named_operator",
    ("sparse", "lacey_dominate"): "sparse.lacey_dominate",
    ("sparse", "verify_sparse"): "sparse.verify_sparse",
    ("sparse", "sparse_operator"): "sparse.sparse_operator",
    ("sht", "QuasiMetricCloud.from_csv"): "sht.from_csv",
    ("sht", "QuasiMetricCloud.validate"): "sht.validate",
    ("sht", "build_cube_system"): "sht.build_cube_system",
    ("sht", "CubeSystem.verify"): "sht.verify",
    ("sht", "build_sht_haar"): "sht.build_sht_haar",
    ("sht", "gram_matrix"): "sht.gram_matrix",
    ("experiments", "run"): "experiments.run",
    ("experiments", "write_report"): "experiments.write_report",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, op, parent index]
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.ops = 0
        self._stack: list[list] = []  # [span index, child time]
        self._op = None

    # -- recording ---------------------------------------------------------

    @contextmanager
    def operation(self, op_id: int):
        """Record the spans of one operation; the operation is their root."""
        self._op = op_id
        with self.span("op"):
            yield
        self._op = None
        self.ops += 1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._op, parent]
        self.spans.append(record)
        self._stack.append([index, 0.0])
        try:
            yield
        finally:
            end = time.perf_counter()
            record[2] = end
            _, child = self._stack.pop()
            duration = end - record[1]
            self.self_time[name] += duration - child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i, _ in self._stack)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions of the dyadlab modules already imported.

        The warm-up operation has imported every module the workload uses.
        Importing another one only for the tracer would move the heap layout,
        and with it the page faults of the program's large temporaries: on
        hilbert-avg, importing `sht` added 18 % to the minor faults of every
        operation."""
        for (module, path), name in TRACED.items():
            mod = sys.modules.get(f"dyadlab.{module}")
            if mod is None:
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name, raw))
                continue
            original = getattr(mod, path)
            wrapper = self._wrap(name, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").split(".")[0] != "dyadlab":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)

    def _wrap(self, name: str, fn):
        measure = _MEASURES.get(name)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if measure is not None:
                bound = signature.bind(*args, **kwargs).arguments
                measure(tracer, bound, result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def per_operation(self) -> dict:
        """Every per-layer metric, averaged over the traced operations."""
        ops = max(self.ops, 1)
        out = {}
        for metric, (kind, key, _unit) in PER_LAYER.items():
            if kind == "s":
                out[metric] = self.self_time.get(key, 0.0) / ops
            elif kind == "calls":
                out[metric] = self.calls.get(key, 0) / ops
            else:
                out[metric] = self.counts.get(key, 0.0) / ops
        return out


# -- computed sizes and counts ----------------------------------------------------


def _cells(tracer, args, result):
    first = next(iter(args.values()))
    tracer.counts["signal.cells"] += first.mesh.n_cells


def _grid_elements(tracer, args, result):
    gens = args["j_hi"] - args["j_lo"] + 1
    tracer.counts["operators.shifted_grid_transform.elements"] += gens * (args["f"].mesh.n_cells + 1)


def _hilbert_mb(tracer, args, result):
    import numpy as np

    f = args["f"]
    points = f.mesh.n_cells if args.get("x_points") is None else np.size(args["x_points"])
    active = np.count_nonzero(np.diff(f.values, prepend=0.0, append=0.0))
    tracer.counts["operators.hilbert_exact.mb"] += points * active * 8 / MB


def _stopping_cells(tracer, args, result):
    if tracer.inside("sparse.lacey_dominate"):
        tracer.counts["sparse.cells_scanned"] += args["f"].mesh.n_cells


def _members(tracer, args, result):
    tracer.counts["sparse.members"] += len(result[0].members)


def _basis_mb(tracer, args, result):
    tracer.counts["sht.basis_mb"] += len(result.functions) * result.system.cloud.n * 8 / MB


def _report_kb(tracer, args, result):
    tracer.counts["experiments.report_kb"] += sum(os.path.getsize(p) for p in result) / 1e3


def _count_power_steps(tracer, args, result):
    """Count the forward applies of the returned operator handle."""
    apply = result.apply

    def counted(values):
        tracer.counts["operators.power_steps"] += 1
        return apply(values)

    result.apply = counted


_MEASURES = {
    "signal.analyze": _cells,
    "signal.synthesize": _cells,
    "signal.means_pyramid": _cells,
    "operators.shifted_grid_transform": _grid_elements,
    "operators.hilbert_exact": _hilbert_mb,
    "operators.maximal_dyadic": _stopping_cells,
    "sparse.lacey_dominate": _members,
    "sht.build_sht_haar": _basis_mb,
    "experiments.write_report": _report_kb,
    "operators.named_operator": _count_power_steps,
}

_SPAN_METRICS = (
    ("signal.analyze", ("calls", "s")),
    ("signal.synthesize", ("calls", "s")),
    ("signal.means_pyramid", ("calls", "s")),
    ("signal.from_csv", ("s",)),
    ("weights.ap_characteristic", ("s",)),
    ("weights.a_infty_fujii_wilson", ("s",)),
    ("weights.power_weight", ("s",)),
    ("operators.average_shift", ("s",)),
    ("operators.shifted_grid_transform", ("calls", "s")),
    ("operators.hilbert_exact", ("s",)),
    ("operators.operator_norm_weighted", ("s",)),
    ("operators.maximal_dyadic", ("calls", "s")),
    ("operators.sharp_truncation", ("calls", "s")),
    ("sparse.lacey_dominate", ("s",)),
    ("sparse.verify_sparse", ("s",)),
    ("sparse.sparse_operator", ("s",)),
    ("sht.from_csv", ("s",)),
    ("sht.validate", ("s",)),
    ("sht.build_cube_system", ("s",)),
    ("sht.verify", ("s",)),
    ("sht.build_sht_haar", ("s",)),
    ("sht.gram_matrix", ("s",)),
    ("experiments.run", ("s",)),
    ("experiments.write_report", ("s",)),
)
_COUNTERS = (
    ("signal.cells", "count"),
    ("operators.shifted_grid_transform.elements", "count"),
    ("operators.hilbert_exact.mb", "MB"),
    ("operators.power_steps", "count"),
    ("sparse.members", "count"),
    ("sparse.cells_scanned", "count"),
    ("sht.basis_mb", "MB"),
    ("experiments.report_kb", "kB"),
)
# metric -> (kind, span or counter name, unit): "s" is self time and "calls"
# the call count of a span, "count" a counter; all are per operation
PER_LAYER = {
    f"{span}.{kind}": (kind, span, "s" if kind == "s" else "count")
    for span, kinds in _SPAN_METRICS
    for kind in kinds
}
PER_LAYER.update({name: ("count", name, unit) for name, unit in _COUNTERS})
