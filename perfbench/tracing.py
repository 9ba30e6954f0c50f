"""Spans around the public functions of each ``entwalk`` layer.

The traced run wraps module attributes from the outside; nothing under
``src/`` knows it is being traced.  A span records its name, parent,
start and end, plus a few counts taken from the call's arguments or
result, so that ratios are measured where the work happens.  Spans stay
in memory and are written out once, when the run ends.

Calls between layers go through module attributes (``solver.residual``
calls ``mean_sq_step`` through the solver module's globals, ``walk``
calls ``sample_sign_arrays`` through its own), so replacing the
attribute the caller looks up is enough to see every call.  Every
solver function that ``cli`` calls is wrapped, so ``cli.self_s`` holds
only the CLI's own work.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("cli", "solver", "geometry", "walk", "correlations")

#: Certification grids start at this many nodes per axis unless told otherwise.
DEFAULT_NODES = 128

_MB = float(1 << 20)


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one traced run; ``run_id`` ties them together."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, attrs=None, alloc: bool = False):
        """``fn`` recording one span per call; ``attrs`` derives counts."""
        spans = self.spans
        stack = self._open
        params = inspect.signature(fn).parameters
        names = list(params)
        defaults = {k: v.default for k, v in params.items() if v.default is not v.empty}
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, 0.0)
            stack.append(len(spans))
            spans.append(span)
            tracking = alloc and not tracemalloc.is_tracing()
            if tracking:
                tracemalloc.start()
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if tracking:
                    span.attrs["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / _MB
                    tracemalloc.stop()
            if attrs is not None:
                arguments = {**defaults, **dict(zip(names, args)), **kwargs}
                span.attrs.update(attrs(arguments, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {"run_id": self.run_id, "id": i, "parent": s.parent,
                       "name": s.name, "start": s.start, "end": s.end}
                row.update(s.attrs)
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# counts taken at the layer boundaries


def _nodes(quad) -> int:
    return DEFAULT_NODES if quad is None else int(quad.nodes_per_axis)


def _f_counts(a, result) -> dict:
    lam = np.asarray(a["lam"], dtype=float)
    lam = np.broadcast_to(lam, np.broadcast_shapes(np.shape(a["rho"]), lam.shape))
    n = _nodes(a.get("quad"))
    return {"points": int(lam.size), "evals": int(np.count_nonzero(lam > 0.0)) * n * n}


def _trace_counts(a, result) -> dict:
    return {"roots": len(result.points)}


def _certify_counts(a, result) -> dict:
    nodes = np.asarray(result.nodes)
    return {
        "points": int(nodes.size),
        "escalated": int(np.count_nonzero(nodes > _nodes(a.get("quad")))),
        "nodes_max": int(nodes.max()) if nodes.size else 0,
    }


def _distance_counts(a, result) -> dict:
    return {"distances": int(np.size(result))}


def _sign_counts(a, result) -> dict:
    return {"pairs": int(np.size(a["delta"]))}


def _mc_counts(a, result) -> dict:
    return {"samples": int(a["n_samples"])}


def _ensemble_counts(a, result) -> dict:
    return {"walker_steps": int(a["n_steps"]) * int(a["n_walkers"])}


#: (module, attribute, span name, counts, track allocations).  The span
#: name's prefix is the layer the time belongs to.
TARGETS = (
    ("cli", "main", "cli.main", None, False),
    ("solver", "extract_thresholds", "solver.extract_thresholds", None, False),
    ("solver", "certified_axis_crossing", "solver.certified_axis_crossing", None, False),
    ("solver", "axis_crossing", "solver.axis_crossing", None, False),
    ("solver", "trace_curve", "solver.trace_curve", _trace_counts, False),
    ("solver", "certify_curve", "solver.certify_curve", _certify_counts, True),
    ("solver", "mean_sq_step", "solver.mean_sq_step", _f_counts, False),
    ("solver", "closed_form_distances", "geometry.closed_form_distances",
     _distance_counts, False),
    ("walk", "mc_sq_separation", "walk.mc_sq_separation", _mc_counts, True),
    ("walk", "run_ensemble", "walk.run_ensemble", _ensemble_counts, False),
    ("walk", "sample_sign_arrays", "correlations.sample_sign_arrays",
     _sign_counts, False),
)


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict):
    """Replace every target attribute by its traced wrapper, then restore.

    ``modules`` maps the short module names used in ``TARGETS`` to the
    imported modules.  A target the program no longer has is listed in
    ``tracer.missing`` and its metrics read zero.
    """
    saved = []
    try:
        for mod_name, attr, name, attrs, alloc in TARGETS:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.missing.append(f"{mod_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, attrs, alloc))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, covered)]


def _ancestors(spans: list[Span], i: int):
    p = spans[i].parent
    while p >= 0:
        yield spans[p].name
        p = spans[p].parent


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], parallel_efficiency_2: float) -> dict[str, float]:
    """Every per-layer metric of a traced pass but the untraced comparison.

    Root spans are the harness's ``cli.main`` calls, so the layers' self
    times add up to ``trace.wall_s``.
    """
    selfs = self_times(spans)
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, t in zip(spans, selfs):
        m[f"{s.layer}.self_s"] = m.get(f"{s.layer}.self_s", 0.0) + t

    def outermost(names: set[str]) -> list[int]:
        return [i for i, s in enumerate(spans)
                if s.name in names and not names.intersection(_ancestors(spans, i))]

    def total(names: set[str]) -> float:
        return sum(spans[i].seconds for i in outermost(names))

    def attr(name: str, key: str, within: str | None = None) -> list:
        return [s.attrs.get(key, 0) for i, s in enumerate(spans)
                if s.name == name and (within is None or within in _ancestors(spans, i))]

    f_ms = [s.seconds * 1e3 for s in spans if s.name == "solver.mean_sq_step"]
    evals = sum(attr("solver.mean_sq_step", "evals"))
    f_time = total({"solver.mean_sq_step"})
    cert_nodes = attr("solver.certify_curve", "nodes_max")
    sign_s = total({"correlations.sample_sign_arrays"})
    sign_pairs = sum(attr("correlations.sample_sign_arrays", "pairs"))
    closed_s = total({"geometry.closed_form_distances"})
    ens_signs = attr("correlations.sample_sign_arrays", "pairs", within="walk.run_ensemble")
    ensembles = outermost({"walk.run_ensemble"})

    m.update({
        "solver.trace_s": total({"solver.trace_curve"}),
        "solver.certify_s": total({"solver.certify_curve"}),
        "solver.axis_s": total({"solver.certified_axis_crossing", "solver.axis_crossing"}),
        "solver.F_calls": float(len(f_ms)),
        "solver.F_points": float(sum(attr("solver.mean_sq_step", "points"))),
        "solver.integrand_evals": float(evals),
        "solver.integrand_evals_per_s": _ratio(evals, f_time),
        "solver.F_call_p50_ms": statistics.median(f_ms) if f_ms else 0.0,
        "solver.F_call_p90_ms": (statistics.quantiles(f_ms, n=10)[8]
                                 if len(f_ms) >= 2 else sum(f_ms)),
        "solver.scan_points_per_root": _ratio(
            sum(attr("solver.mean_sq_step", "points", within="solver.trace_curve")),
            sum(attr("solver.trace_curve", "roots"))),
        "solver.cert_escalated": float(sum(attr("solver.certify_curve", "escalated"))),
        "solver.cert_nodes_max": float(max(cert_nodes, default=0)),
        "solver.cert_evals_per_point": _ratio(
            sum(attr("solver.mean_sq_step", "evals", within="solver.certify_curve")),
            sum(attr("solver.certify_curve", "points"))),
        "solver.cert_peak_alloc_mb": max(attr("solver.certify_curve", "peak_alloc_mb"),
                                         default=0.0),
        "geometry.closed_form_calls": float(len(attr("geometry.closed_form_distances",
                                                     "distances"))),
        "geometry.closed_form_s": closed_s,
        "geometry.distances_per_s": _ratio(
            sum(attr("geometry.closed_form_distances", "distances")), closed_s),
        "walk.mc_s": total({"walk.mc_sq_separation"}),
        "walk.mc_peak_alloc_mb": max(attr("walk.mc_sq_separation", "peak_alloc_mb"),
                                     default=0.0),
        "walk.ensemble_s": sum(spans[i].seconds for i in ensembles),
        "walk.ensemble_self_s": sum(selfs[i] for i in ensembles),
        "walk.steps_per_sign_call": _ratio(sum(ens_signs), len(ens_signs)),
        "walk.parallel_efficiency_2": parallel_efficiency_2,
        "correlations.sign_calls": float(len(attr("correlations.sample_sign_arrays",
                                                  "pairs"))),
        "correlations.sign_pairs": float(sign_pairs),
        "correlations.sign_s": sign_s,
        "correlations.sign_pairs_per_s": _ratio(sign_pairs, sign_s),
    })
    m["trace.wall_s"] = sum(s.seconds for s in spans if s.parent < 0)
    return {k: float(v) for k, v in m.items()}


def with_overhead(metrics: dict[str, float], untraced_wall_s: float) -> dict[str, float]:
    """Add the untraced pass of the same run and the tracing overhead."""
    return {**metrics, "trace.untraced_wall_s": untraced_wall_s,
            "trace.overhead_s": metrics["trace.wall_s"] - untraced_wall_s}
