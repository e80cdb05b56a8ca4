"""The benchmark's tracer (`bench/tracing.py`) wraps dyadlab functions by
name and reads some of their arguments by name; a refactor that renames one
fails here, in the tier-1 suite, not only in a traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)  # standard library only: it imports no dyadlab module


def resolve(module: str, path: str):
    obj = importlib.import_module(f"dyadlab.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("module, path", sorted(tracing.TRACED))
def test_traced_name_resolves_to_a_callable(module, path):
    assert callable(resolve(module, path))


@pytest.mark.parametrize(
    "module, path, arguments",
    [
        ("operators", "maximal_dyadic", {"f"}),
        ("operators", "shifted_grid_transform", {"f", "j_lo", "j_hi"}),
        ("operators", "hilbert_exact", {"f", "x_points"}),
    ],
)
def test_measured_arguments_are_in_the_signature(module, path, arguments):
    # the tracer's _MEASURES bind each call's arguments and read these by name
    assert tracing.TRACED[(module, path)] in tracing._MEASURES
    assert arguments <= set(inspect.signature(resolve(module, path)).parameters)


def test_basis_size_is_measured_on_a_built_basis():
    # the tracer's sht.basis_mb reads the result's `functions` and `system.cloud.n`
    from dyadlab.sht import QuasiMetricCloud, build_cube_system, build_sht_haar

    basis = build_sht_haar(build_cube_system(QuasiMetricCloud.from_points([[0.0, 0.0], [0.3, 0.0], [0.0, 0.6]])))
    tracer = tracing.Tracer()
    tracing._MEASURES["sht.build_sht_haar"](tracer, {}, basis)
    assert tracer.counts["sht.basis_mb"] == 2 * 3 * 8 / tracing.MB


@pytest.mark.parametrize("name", ["martingale", "sha", "shift(1,2)", "paraproduct", "paraproduct_adj", "commutator_sha", "sparse"])
def test_power_steps_count_exactly_the_forward_applies(name):
    # the tracer's operators.power_steps wraps the handle's `apply`; an adjoint
    # that went through the wrapped `apply` would be counted as a step too
    import numpy as np

    from dyadlab.experiments import sweep_mesh, tower_family
    from dyadlab.operators import named_operator, operator_norm_weighted
    from dyadlab.signal import StepFunction

    mesh = sweep_mesh(6)
    b = StepFunction(mesh, np.random.default_rng(1).standard_normal(mesh.n_cells))
    op = named_operator(name, mesh, b=b, family=tower_family(mesh))
    calls = {"apply": 0, "adjoint": 0}
    for method in calls:
        inner = getattr(op, method)

        def spy(values, method=method, inner=inner):
            calls[method] += 1
            return inner(values)

        setattr(op, method, spy)
    tracer = tracing.Tracer()
    tracing._MEASURES["operators.named_operator"](tracer, {}, op)
    operator_norm_weighted(op, tol=1e-10)
    assert tracer.counts["operators.power_steps"] == calls["apply"] == calls["adjoint"] > 1
