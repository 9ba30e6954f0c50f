"""One workload pass in a fresh process: import, build the inputs, run timed.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It prints ``ready`` once ``entwalk`` is imported and the inputs
are built, which is where the parent stops the set-up clock.  Then it
runs one pass over the workload's commands, traced or not, and writes
what it saw (times, exit codes, outputs, peak RSS and, when traced,
per-layer metrics) to the JSON file named by ``--result``; traced spans
go to ``spans.jsonl`` beside it.  One pass per process means a pass
pays what a fresh CLI invocation pays, and nothing cached in one pass
can speed up the next.

Before ``ready`` this module imports only what ``entwalk`` and numpy
load anyway, plus ``workloads``; the harness's other modules
(``hashlib``, ``resource``, ``tracing``) are imported after it, so that
set-up time is the program's own.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import entwalk
from entwalk import cli, solver, walk

import workloads

_MB = 1024.0  # ru_maxrss is in KiB on Linux


def run_command(argv: tuple[str, ...]) -> tuple[float, int, str]:
    """Time one ``cli.main`` call; returns (seconds, exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed operation, not a dead benchmark
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
    return seconds, code, buf.getvalue()


def run_pass(inputs: workloads.Inputs, traced: bool) -> dict:
    import hashlib

    commands, outputs = [], {}
    for cmd in inputs.commands:
        seconds, code, text = run_command(cmd.argv)
        digest = hashlib.sha256(text.encode()).hexdigest()
        outputs[digest] = text
        commands.append({"name": cmd.name, "seconds": seconds,
                         "exit_code": code, "sha256": digest})
    return {"traced": traced, "commands": commands, "outputs": outputs,
            "wall_s": sum(c["seconds"] for c in commands)}


def parallel_efficiency_2() -> float:
    """Ensemble throughput with two workers over one, on the simulate inputs.

    Probed only while ``run_ensemble`` still takes ``n_workers``; 0 means
    not probed.
    """
    if "n_workers" not in inspect.signature(walk.run_ensemble).parameters:
        return 0.0
    initial = walk.WalkState((0.0, 0.0), (workloads.WALK_R, 0.0), workloads.WALK_L)
    proto = walk.ProtocolSpec(walk.Protocol.PLUS, workloads.DEFAULT_P)
    seconds = {}
    for n in (1, 2):
        start = time.perf_counter()
        walk.run_ensemble(initial, proto, workloads.SIMULATE_STEPS,
                          workloads.SIMULATE_WALKERS, workloads.SIMULATE_EPSILON,
                          seed=0, n_workers=n)
        seconds[n] = time.perf_counter() - start
    return seconds[1] / seconds[2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(entwalk.__file__).resolve().parents:
        print(f"error: imported entwalk from {entwalk.__file__}, not {src}",
              file=sys.stderr)
        return 2
    inputs = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import resource

    if args.trace:
        import uuid

        import tracing

        tracer = tracing.Tracer(uuid.uuid4().hex)
        with tracing.installed(tracer, {"cli": cli, "solver": solver, "walk": walk}):
            result = run_pass(inputs, traced=True)
        efficiency = parallel_efficiency_2() if args.workload == "walk" else 0.0
        tracer.write(args.result.with_name("spans.jsonl"))
        result.update({
            "run_id": tracer.run_id,
            "span_count": len(tracer.spans),
            "missing_targets": tracer.missing,
            "layer_metrics": tracing.layer_metrics(tracer.spans, efficiency),
        })
    else:
        result = run_pass(inputs, traced=False)
    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _MB,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    })
    tmp = args.result.with_suffix(".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    tmp.replace(args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
