#!/usr/bin/env python3
"""Run one benchmark workload of ``entwalk`` and print its metrics.

    python3 perfbench/run.py --workload sphere --seed 0 --seconds 30 --trace 0

Every pass over a workload's commands runs in a fresh single-threaded
``worker.py`` process that imports ``entwalk`` from this checkout's
``src``, as a user's CLI invocation would.  Untraced, a run makes as many
whole passes as fit in ``--seconds`` (at least one); traced, it makes
one untraced and one traced pass.  The outputs are checked here, after
the workers have exited, so checks never count towards the timed region
or a worker's peak RSS.  A report goes to stdout line by line; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``, named as in ``BENCHMARK.json``.
``--workload all`` runs every workload in turn.

See ``perfbench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SRC = ROOT / "src"

#: Fewest launches ``setup_s`` is the fastest of.  Half of them are
#: set-up-only launches made before the passes; the workers that ran
#: passes and more set-up-only launches after them make up the rest, so
#: the samples span the run and not one stretch of the machine's speed.
SETUP_SAMPLES = 11
#: Every run, checks included, must end well inside three minutes.
RUN_DEADLINE_S = 170.0

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "wall_median_s": "s",
         "curve_s": "s", "threshold_s": "s", "mc_samples_per_s": "1/s",
         "walker_steps_per_s": "1/s", "failed_fraction": "ratio"}


class BenchError(RuntimeError):
    """The run could not produce a result."""


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it with the seconds until it printed ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=worker_env())
    try:
        line = proc.stdout.readline()
    except BaseException:
        _stop(proc)
        raise
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    if time.perf_counter() > deadline:
        _stop(proc)
        raise BenchError("set-up overran the run deadline")
    return proc, setup


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload overran the run deadline") from None
    finally:
        _stop(proc)
    if code != 0:
        raise BenchError(f"worker exited with {code}")


def measure(workload: str, seed: int, seconds: float, trace: int, run_dir: Path,
            deadline: float) -> tuple[list[dict], list[float]]:
    """The passes of one run, each from its own worker, and the set-up samples."""
    base = ["--workload", workload, "--seed", str(seed)]
    passes: list[dict] = []
    setups: list[float] = []

    def setup_only() -> None:
        proc, setup = launch([*base, "--setup-only"], deadline)
        _finish(proc, deadline)
        setups.append(setup)

    def run_pass(traced: bool) -> None:
        path = run_dir / f"pass{len(passes)}.json"
        proc, setup = launch([*base, "--trace", str(int(traced)), "--result", str(path)],
                             deadline)
        _finish(proc, deadline)
        setups.append(setup)
        passes.append(json.loads(path.read_text(encoding="utf-8")))

    for _ in range(SETUP_SAMPLES // 2):
        setup_only()
    if trace:
        run_pass(False)
        run_pass(True)
    else:
        timed = 0.0
        # Another pass only when one more of the same length still fits.
        while not passes or timed + passes[-1]["wall_s"] <= seconds:
            run_pass(False)
            timed += passes[-1]["wall_s"]
    while len(setups) < SETUP_SAMPLES:
        setup_only()
    return passes, setups


# ---------------------------------------------------------------------------
# checks


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "entwalk").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _reevaluator(inputs: workloads.Inputs):
    sys.path.insert(0, str(SRC))
    from entwalk import cli, geometry, solver

    kind = geometry.GeometryKind(inputs.geometry)
    problem = solver.CurvatureProblem(kind, cli.RunConfig(p=inputs.p).rhs_weight(kind))
    quad = solver.QuadratureSpec(checks.REEVAL_NODES)
    return lambda rho, lam: solver.residual(problem, rho, lam, quad)


def check_output(inputs: workloads.Inputs, name: str, code: int, text: str,
                 reevaluate) -> checks.Outcome:
    if name == "curve":
        return checks.check_curve(code, text, reevaluate)
    if name == "threshold":
        return checks.check_threshold(code, text)
    if name == "msd":
        return checks.check_msd(code, text)
    return checks.check_simulate(code, text, workloads.WALK_R, workloads.SIMULATE_STEPS)


def evaluate(inputs: workloads.Inputs, passes: list[dict], stored: dict[str, str],
             reevaluate) -> tuple[int, list[str]]:
    """Attempted operations and failure messages over every pass.

    ``stored`` maps command names to the digest an earlier run with the
    same inputs and source printed; it gains the digests first seen here.
    """
    attempted, failures = 0, []
    seen: dict[tuple[str, str, int], checks.Outcome] = {}
    for run in passes:
        for cmd in run["commands"]:
            key = (cmd["name"], cmd["sha256"], cmd["exit_code"])
            if key not in seen:
                seen[key] = check_output(inputs, cmd["name"], cmd["exit_code"],
                                         run["outputs"][cmd["sha256"]], reevaluate)
            outcome = seen[key]
            stored.setdefault(cmd["name"], cmd["sha256"])
            same = checks.check_digest(cmd["name"], cmd["sha256"], stored[cmd["name"]],
                                       outcome.attempted)
            attempted += outcome.attempted
            failures += same.failures or outcome.failures
    return attempted, failures


def _load_digests(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def _save_json(path: Path, data: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1), encoding="utf-8")
    tmp.replace(path)


# ---------------------------------------------------------------------------
# metrics


def _fastest(passes: list[dict], name: str) -> float:
    return min(c["seconds"] for run in passes if not run["traced"]
               for c in run["commands"] if c["name"] == name)


def _output(passes: list[dict], name: str) -> str:
    cmd = next(c for c in passes[0]["commands"] if c["name"] == name)
    return passes[0]["outputs"][cmd["sha256"]]


def end_to_end(inputs: workloads.Inputs, passes: list[dict], setups: list[float],
               attempted: int, failed: int) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the per-command ones reported with them.

    Times are those of the fastest untraced pass and the fastest launch:
    every pass and launch does the same work, so slower ones measure
    interference from the machine.
    """
    untraced = [run for run in passes if not run["traced"]]
    gated = {
        "wall_s": min(run["wall_s"] for run in untraced),
        "setup_s": min(setups),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in untraced),
    }
    extra = {"wall_median_s": statistics.median(run["wall_s"] for run in untraced)}
    if inputs.geometry:
        extra["curve_s"] = _fastest(passes, "curve")
        extra["threshold_s"] = _fastest(passes, "threshold")
    else:
        try:
            samples = checks.msd_samples(_output(passes, "msd"))
        except ValueError:  # a malformed table, already counted as failed
            samples = math.nan
        extra["mc_samples_per_s"] = samples / _fastest(passes, "msd")
        extra["walker_steps_per_s"] = (workloads.SIMULATE_WALKERS
                                       * workloads.SIMULATE_STEPS
                                       / _fastest(passes, "simulate"))
    extra["failed_fraction"] = failed / attempted
    return gated, extra


def machine(worker: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_DIR=str(ROOT / ".git"))
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, cwd=ROOT)
        commit = out.stdout.strip() or commit
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": worker["python"], "numpy": worker["numpy"],
            "git_commit": commit, "source_sha256": source_digest()}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    inputs = workloads.build(workload, seed)
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}-{uuid.uuid4().hex[:12]}"
    run_dir.mkdir(parents=True)
    passes, setups = measure(workload, seed, seconds, trace, run_dir, deadline)

    info = machine(passes[0])
    digest_path = OUT / "digests.json"
    digests = _load_digests(digest_path)
    key = " | ".join(" ".join(c.argv) for c in inputs.commands) + f" @ {info['source_sha256']}"
    stored = digests.setdefault(key, {})
    reevaluate = _reevaluator(inputs) if inputs.geometry else None
    attempted, failures = evaluate(inputs, passes, stored, reevaluate)
    _save_json(digest_path, digests)

    gated, extra = end_to_end(inputs, passes, setups, attempted, len(failures))
    reported = {}
    if inputs.geometry:
        try:
            reported = checks.gaps(_output(passes, "curve"), _output(passes, "threshold"))
        except (ValueError, KeyError, TypeError):
            reported = {"lambda_star_gap": math.nan, "ratio_sup_gap": math.nan}
    traced = next((run for run in passes if run["traced"]), {})
    per_layer = {}
    if traced:
        per_layer = tracing.with_overhead(traced["layer_metrics"], passes[0]["wall_s"])
    summary = {
        "workload": workload, "seed": seed, "p": inputs.p, "trace": trace,
        "run_id": traced.get("run_id", run_dir.name),
        "commands": [list(c.argv) for c in inputs.commands],
        "machine": info,
        "passes": [{k: v for k, v in run.items() if k != "outputs"} for run in passes],
        "setup_samples_s": setups,
        "end_to_end": {**gated, **extra},
        "reported_gaps": reported,
        "per_layer": per_layer,
        "missing_trace_targets": traced.get("missing_targets", []),
        "attempted": attempted,
        "failures": failures,
        "elapsed_s": time.perf_counter() - started,
    }
    _save_json(run_dir / "result.json", summary)
    return {"summary": summary, "metrics": per_layer if trace else gated,
            "attempted": attempted, "failed": len(failures)}


def report(run: dict, declared: dict) -> None:
    s = run["summary"]
    print(f"workload {s['workload']} seed={s['seed']} p={s['p']!r} trace={s['trace']} "
          f"run_id={s['run_id']}")
    print("machine " + " ".join(f"{k}={v}" for k, v in s["machine"].items()))
    for run_ in s["passes"]:
        times = " ".join(f"{c['name']}={c['seconds']:.4f}s" for c in run_["commands"])
        print(f"pass traced={int(run_['traced'])} peak_rss_mb={run_['peak_rss_mb']:.1f} "
              f"{times}")
    for name, value in s["end_to_end"].items():
        print(f"end_to_end {name} = {value:.6g} {UNITS[name]}")
    for name, value in s["reported_gaps"].items():
        print(f"reported {name} = {value:.3e} (known threshold-vs-curve gap, not gated)")
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name, value in s["per_layer"].items():
        print(f"per_layer {name} = {value:.6g} {units.get(name, '')}")
    for name in s["missing_trace_targets"]:
        print(f"not traced: {name} is missing")
    print(f"checks attempted={s['attempted']} failed={len(s['failures'])}")
    for msg in s["failures"]:
        print(f"FAIL {msg}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "entwalk" / "__init__.py").is_file():
        print(f"error: no entwalk sources under {SRC}", file=sys.stderr)
        return 2

    declared = _declared()
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for name in names:
            runs[name] = run_workload(name, args.seed, seconds, args.trace)
            report(runs[name], declared)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    unit_of = {m["name"]: m["unit"]
               for m in declared["end_to_end"] + declared["per_layer"]}
    metrics = {}
    for name, run in runs.items():
        prefix = f"{name}." if len(runs) > 1 else ""
        for metric, value in run["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit_of[metric]}
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
