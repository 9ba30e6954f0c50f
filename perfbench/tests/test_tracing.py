"""Spans nest, self times add up, and every per-layer metric is produced."""

import json
import types
from pathlib import Path

import tracing

DECLARED = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def span(name, parent, start, end, **attrs):
    return tracing.Span(name, parent, start, end, attrs)


def nested_spans():
    return [
        span("cli.main", -1, 0.0, 10.0),
        span("solver.trace_curve", 0, 1.0, 6.0, roots=2),
        span("solver.residual", 1, 1.5, 4.0),
        span("solver.mean_sq_step", 2, 2.0, 3.5, points=513, evals=513 * 128 * 128),
        span("solver.certify_curve", 0, 6.5, 9.0, points=2, escalated=1, nodes_max=256,
             peak_alloc_mb=12.5),
        span("solver.mean_sq_step", 4, 7.0, 8.0, points=1, evals=512 * 512),
        span("cli.main", -1, 20.0, 21.0),
        span("walk.run_ensemble", 6, 20.1, 20.9, walker_steps=400),
        span("correlations.sample_sign_arrays", 7, 20.2, 20.3, pairs=200),
        span("correlations.sample_sign_arrays", 7, 20.4, 20.5, pairs=200),
    ]


def test_self_times_are_nonnegative_and_add_up_to_the_traced_wall():
    spans = nested_spans()
    selfs = tracing.self_times(spans)
    assert min(selfs) >= 0.0
    m = tracing.with_overhead(tracing.layer_metrics(spans, 0.0), untraced_wall_s=10.5)
    layer_sum = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert abs(layer_sum - m["trace.wall_s"]) < 1e-12
    assert m["trace.wall_s"] == 11.0
    assert abs(m["trace.overhead_s"] - 0.5) < 1e-12


def test_layer_metrics_match_the_declared_per_layer_names():
    m = tracing.with_overhead(tracing.layer_metrics(nested_spans(), 0.0), 10.0)
    assert list(m) == [x["name"] for x in DECLARED["per_layer"]]
    assert all(isinstance(v, float) for v in m.values())


def test_layer_metrics_take_counts_where_the_work_happens():
    m = tracing.layer_metrics(nested_spans(), 0.0)
    assert m["solver.trace_s"] == 5.0
    assert m["solver.certify_s"] == 2.5
    assert m["solver.F_calls"] == 2
    assert m["solver.scan_points_per_root"] == 513 / 2
    assert m["solver.cert_evals_per_point"] == 512 * 512 / 2
    assert m["solver.cert_escalated"] == 1
    assert m["solver.cert_peak_alloc_mb"] == 12.5
    assert m["walk.steps_per_sign_call"] == 200
    assert abs(m["walk.ensemble_self_s"] - 0.6) < 1e-12
    assert m["correlations.sign_calls"] == 2


def test_installed_wrappers_record_spans_and_restore_the_module():
    calls = []

    def inner(rho, lam, quad=None):
        calls.append((rho, lam))
        return rho

    mod = types.SimpleNamespace(mean_sq_step=inner)

    def outer(x):
        return mod.mean_sq_step(x, 0.5)

    mod.main = outer
    targets = (("m", "main", "cli.main", None, False),
               ("m", "mean_sq_step", "solver.mean_sq_step", tracing._f_counts, False),
               ("m", "gone", "solver.gone", None, False))
    tracer = tracing.Tracer("run")
    original = tracing.TARGETS
    tracing.TARGETS = targets
    try:
        with tracing.installed(tracer, {"m": mod}):
            assert mod.main(2.0) == 2.0
    finally:
        tracing.TARGETS = original
    assert mod.main is outer and mod.mean_sq_step is inner
    assert [s.name for s in tracer.spans] == ["cli.main", "solver.mean_sq_step"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[1].attrs == {"points": 1, "evals": 128 * 128}
    assert tracer.missing == ["m.gone"]
