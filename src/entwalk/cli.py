"""Command-line front end: reproducible experiments and verification.

Subcommands
-----------
``msd``
    Monte Carlo vs analytic mean-square separation for one step; CSV
    columns ``protocol,p,r,l,analytic,mc_mean,mc_stderr,n_samples,z_score``.
    Exit 0 when every ``|z| <= 3``, else 1.
``simulate``
    Multi-step ensemble; CSV columns ``step,mean_r2,meeting_fraction``.
``curve``
    Traced solution curve of the curvature equation, one root per grid
    ``lambda``; CSV columns ``lambda,rho,residual,branch_id,l_over_r,R_over_r``
    where ``residual`` is the root's residual re-evaluated on a grid twice
    as fine as the one it was solved on and ``branch_id`` is always 0.
``threshold``
    JSON report with endpoints, ratio bounds and the comparison against
    the reference value 0.64, read from the same certified curve.
    ``curve`` and ``threshold`` share one exit rule,
    ``CertifiedCurve.ok``: exit 1 if any root fails certification or a
    grid ``lambda`` below the axis crossing has no root.
``verify``
    Named self-checks spanning all layers; exit 0 only if all pass.  Each
    check's wall time goes to stderr.

Each subcommand takes ``--seed``, ``--out`` and ``--config`` plus only
the flags it reads (``_COMMANDS``); any other flag is a usage error.

Exit codes: 0 success, 1 check or certification failure, 2 usage or
configuration error.  A flat ``key=value`` config file can seed any
option, whichever subcommand reads it, so one file can serve several;
explicit command-line flags win.  The default seed is 0, so the default
run of every subcommand is reproducible; outputs are pure functions of
the configuration and are byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
import typing

import numpy as np

from . import geometry, solver, walk
from .correlations import TWO_PI, outcome_probability
from .geometry import GeometryKind
from .solver import CurvatureProblem, QuadratureSpec
from .walk import Protocol, ProtocolSpec, WalkState

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_PROTOCOLS = {p.value: p for p in Protocol}
_GEOMETRIES = {g.value: g for g in GeometryKind}


@dataclasses.dataclass
class RunConfig:
    """All knobs for one CLI invocation; unset fields take these defaults."""

    seed: int = 0
    protocol: str | None = None
    p: float = 1.0
    r: float = 1.0
    l: float = 0.5
    samples: int = 1_000_000
    steps: int = 100
    walkers: int = 1000
    epsilon: float | None = None
    geometry: str = "spherical"
    w: float | None = None
    quad_nodes: int = 128
    lambda_min: float | None = None
    lambda_max: float | None = None
    lambda_steps: int = solver.DEFAULT_LAMBDA_STEPS
    out: str | None = None

    @property
    def meeting_radius(self) -> float:
        # Default detection radius: a tenth of the step length.
        return 0.1 * self.l if self.epsilon is None else self.epsilon

    def geometry_kind(self) -> GeometryKind:
        try:
            return _GEOMETRIES[self.geometry]
        except KeyError:
            raise ValueError(f"unknown geometry: {self.geometry!r}") from None

    def protocol_spec(self, name: str) -> ProtocolSpec:
        try:
            kind = _PROTOCOLS[name]
        except KeyError:
            raise ValueError(f"unknown protocol: {name!r}") from None
        return ProtocolSpec(kind, self.p)

    def rhs_weight(self, kind: GeometryKind) -> float:
        """Explicit --w wins; otherwise pair the geometry's natural protocol."""
        if self.w is not None:
            return self.w
        proto = Protocol.PLUS if kind is GeometryKind.SPHERICAL else Protocol.MINUS
        return walk.weight(proto, self.p)

    def quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(self.quad_nodes)


def _field_parser(hint):
    """The scalar type of a field annotated ``T`` or ``T | None``."""
    return next((t for t in typing.get_args(hint) if t is not type(None)), hint)


_HINTS = typing.get_type_hints(RunConfig)
_FIELD_PARSERS = {
    f.name: _field_parser(_HINTS[f.name]) for f in dataclasses.fields(RunConfig)
}


def _load_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, raw in _load_config_file(args.config).items():
            if key not in _FIELD_PARSERS:
                raise ValueError(f"unknown config key: {key!r}")
            setattr(cfg, key, _FIELD_PARSERS[key](raw))
    for key in _FIELD_PARSERS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _write_text(cfg: RunConfig, text: str) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return repr(float(x))


def _z_score(value: float, expected: float, stderr: float) -> float:
    """``(value - expected) / stderr``, or nan when ``stderr`` is not positive.

    Checks pass on ``abs(z) <= bound`` and keep the worst ``z`` with
    ``np.maximum``, so a nan ``z`` fails them instead of being skipped.
    """
    return (value - expected) / stderr if stderr > 0.0 else math.nan


# ---------------------------------------------------------------------------
# subcommands


_MSD_PROTOCOLS = ("plus", "minus", "classical")


def cmd_msd(cfg: RunConfig) -> int:
    names = [cfg.protocol] if cfg.protocol else _MSD_PROTOCOLS
    rows = []
    worst = 0.0
    for name in names:
        # row k reads default_rng(seed) from draw 3 * samples * k on, so a
        # --protocol run prints the same row as the full table
        rng = np.random.default_rng(cfg.seed)
        rng.bit_generator.advance(
            walk.MC_DRAWS_PER_SAMPLE * cfg.samples * _MSD_PROTOCOLS.index(name)
        )
        proto = cfg.protocol_spec(name)
        analytic = walk.expected_sq_separation(cfg.r, cfg.l, proto)
        mean, stderr = walk.mc_sq_separation(cfg.r, cfg.l, proto, cfg.samples, rng)
        z = _z_score(mean, analytic, stderr)
        worst = np.maximum(worst, abs(z))
        values = (proto.effective_p, cfg.r, cfg.l, analytic, mean, stderr)
        rows.append([name, *map(_fmt, values), str(cfg.samples), _fmt(z)])
    header = "protocol,p,r,l,analytic,mc_mean,mc_stderr,n_samples,z_score"
    _write_text(cfg, _csv(header.split(","), rows))
    return EXIT_OK if worst <= 3.0 else EXIT_CHECK_FAILED


def cmd_simulate(cfg: RunConfig) -> int:
    proto = cfg.protocol_spec(cfg.protocol or "plus")
    initial = WalkState((0.0, 0.0), (cfg.r, 0.0), cfg.l)
    result = walk.run_ensemble(
        initial,
        proto,
        cfg.steps,
        cfg.walkers,
        cfg.meeting_radius,
        seed=cfg.seed,
    )
    rows = [
        [str(t), _fmt(result.mean_r2[t]), _fmt(result.meeting_fraction[t])]
        for t in range(cfg.steps + 1)
    ]
    _write_text(cfg, _csv(["step", "mean_r2", "meeting_fraction"], rows))
    return EXIT_OK


def cmd_curve(cfg: RunConfig) -> int:
    kind = cfg.geometry_kind()
    problem = CurvatureProblem(kind, cfg.rhs_weight(kind))
    axis, grid, cert = solver.certified_curve(
        problem, cfg.quadrature(), cfg.lambda_min, cfg.lambda_max, cfg.lambda_steps
    )

    points = list(cert.curve.points)
    residuals = list(cert.certified)
    # The curve meets the rho = 0 axis where F(0, lam) = w lam^2; append
    # that endpoint (within the grid's reach) so the file records it.
    if axis is not None and grid[0] <= axis[0]:
        lam_star, axis_cert, _ = axis
        points.append(solver.CurvePoint(lam=lam_star, rho=0.0, residual=axis_cert))
        residuals.append(axis_cert)

    images = solver.figure3_transform(solver.CurvatureCurve(tuple(points)))
    rows = []
    for pt, res, image in zip(points, residuals, images):
        # an axis point has no finite ratio image: blank cells
        ratio_cells = (
            ["", ""] if image is None
            else [_fmt(image.l_over_r), _fmt(image.R_over_r)]
        )
        # the curve is one graph rho(lam): every row is branch 0
        rows.append([_fmt(pt.lam), _fmt(pt.rho), _fmt(res), "0", *ratio_cells])
    header = ["lambda", "rho", "residual", "branch_id", "l_over_r", "R_over_r"]
    _write_text(cfg, _csv(header, rows))
    return EXIT_OK if cert.ok else EXIT_CHECK_FAILED


def cmd_threshold(cfg: RunConfig) -> int:
    kind = cfg.geometry_kind()
    problem = CurvatureProblem(kind, cfg.rhs_weight(kind))
    report = solver.extract_thresholds(
        problem, cfg.quadrature(), cfg.lambda_min, cfg.lambda_max, cfg.lambda_steps
    )
    ratio_inf, ratio_sup = report.ratio_extrema or (None, None)
    payload = {
        "geometry": report.geometry.value,
        "w": report.w,
        "lambda_star": report.lambda_star,
        "rho0": report.rho0,
        "ratio_inf": ratio_inf,
        "ratio_sup": ratio_sup,
        "nu_slope": report.nu_slope,
        "paper_value": report.paper_comparison.paper_value,
        "status": report.paper_comparison.status,
        # the curve is one graph rho(lam): one branch, id 0
        "branches": [] if report.ratio_extrema is None else [
            {"branch_id": 0, "ratio_inf": ratio_inf, "ratio_sup": ratio_sup}
        ],
    }
    _write_text(cfg, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# verification suite

_VERIFY_Z_BOUND = 4.0


def _check_normalization(cfg: RunConfig) -> tuple[bool, str]:
    rng = np.random.default_rng([cfg.seed, 1])
    a, b, offset = rng.uniform(0.0, TWO_PI, (3, 200))
    p = rng.uniform(0.0, 1.0, 200)
    # rows: the four sign pairs, then (+1, -1) with both axes rotated
    delta = a - b
    rotated = (a + offset) % TWO_PI - (b + offset) % TWO_PI
    mm, mp, pm, pp, pm_rotated = outcome_probability(
        np.array([[-1], [-1], [1], [1], [1]]),
        np.array([[-1], [1], [-1], [1], [-1]]),
        np.stack([delta, delta, delta, delta, rotated]),
        p,
    )
    worst = float(np.max(np.abs([
        mm + mp + pm + pp - 1.0,
        mm + mp - 0.5,
        pm + pp - 0.5,
        pm_rotated - pm,
    ])))
    return worst <= 1e-15, f"max deviation {worst:.2e} (bound 1e-15)"


#: Turns the direction check draws.
_VERIFY_DIRECTION_DRAWS = 100_000


def _check_direction(cfg: RunConfig) -> tuple[bool, str]:
    """The walk's table-and-rotation directions against libm's cos and sin."""
    u = np.random.default_rng([cfg.seed, 5]).random(_VERIFY_DIRECTION_DRAWS)
    c, s = walk._direction(u)
    worst = float(max(np.max(np.abs(c - np.cos(TWO_PI * u))),
                      np.max(np.abs(s - np.sin(TWO_PI * u)))))
    bound = 4 * np.finfo(float).eps
    return worst <= bound, (
        f"max deviation {worst:.2e} over {len(u)} turns (bound {bound:.2e})"
    )


def _check_msd(cfg: RunConfig) -> tuple[bool, str]:
    rng = np.random.default_rng([cfg.seed, 2])
    worst = 0.0
    for name in ("plus", "minus", "classical"):
        proto = cfg.protocol_spec(name)
        analytic = walk.expected_sq_separation(cfg.r, cfg.l, proto)
        mean, stderr = walk.mc_sq_separation(cfg.r, cfg.l, proto, cfg.samples, rng)
        worst = np.maximum(worst, abs(_z_score(mean, analytic, stderr)))
    return worst <= _VERIFY_Z_BOUND, (
        f"max |z| = {worst:.2f} (bound {_VERIFY_Z_BOUND})"
    )


#: Steps and walker pairs of the ensemble check.
_VERIFY_ENSEMBLE_STEPS = 100
_VERIFY_ENSEMBLE_WALKERS = 1000


def _check_ensemble(cfg: RunConfig) -> tuple[bool, str]:
    """Final-step ensemble mean against ``r^2 + t m2``, in exact standard errors.

    Steps are i.i.d. and isotropic with ``m2 = w l^2`` and ``m4 = (6 -+ 4 p) l^4
    = (4 w - 2) l^4``, so ``Var r_t^2 = 2 m2 r^2 t + m2^2 t (t - 2) + m4 t``.
    """
    t, n = _VERIFY_ENSEMBLE_STEPS, _VERIFY_ENSEMBLE_WALKERS
    initial = WalkState((0.0, 0.0), (cfg.r, 0.0), cfg.l)
    l2 = cfg.l * cfg.l
    worst = 0.0
    for name in _MSD_PROTOCOLS:
        proto = cfg.protocol_spec(name)
        res = walk.run_ensemble(initial, proto, t, n, 0.0, seed=cfg.seed)
        w = walk.weight(proto.kind, proto.effective_p)
        m2, m4 = w * l2, (4.0 * w - 2.0) * l2 * l2
        var = 2.0 * m2 * cfg.r * cfg.r * t + m2 * m2 * t * (t - 2) + m4 * t
        z = _z_score(res.mean_r2[t], cfg.r * cfg.r + t * m2, math.sqrt(var / n))
        worst = np.maximum(worst, abs(z))
    return worst <= _VERIFY_Z_BOUND, (
        f"step {t} max |z| = {worst:.2f} (bound {_VERIFY_Z_BOUND})"
    )


def _check_oracles(cfg: RunConfig) -> tuple[bool, str]:
    rng = np.random.default_rng([cfg.seed, 3])
    n = 2000
    details = []
    ok = True
    for kind, rho_hi, tol in (
        (GeometryKind.SPHERICAL, math.pi - 0.01, 1e-12),
        (GeometryKind.HYPERBOLIC, 5.0, 1e-9),
    ):
        rho = rng.uniform(0.01, rho_hi, n)
        lam = rng.uniform(0.001, 2.0, n)
        pa = rng.uniform(0.0, 2.0 * math.pi, n)
        pb = rng.uniform(0.0, 2.0 * math.pi, n)
        diff = np.max(
            np.abs(
                geometry.construction_distances(kind, rho, lam, pa, pb)
                - geometry.closed_form_distances(kind, rho, lam, pa, pb)
            )
        )
        ok = ok and diff <= tol
        details.append(f"{kind.value} {diff:.2e} (bound {tol:g})")
    return ok, "; ".join(details)


def _check_series(cfg: RunConfig) -> tuple[bool, str]:
    quad = cfg.quadrature()
    worst_lo, worst_hi = math.inf, 0.0
    for kind in GeometryKind:
        for rho in (0.5, 1.0, 1.5):
            coef = solver.small_lambda_series(kind, rho)
            resid = [
                solver.mean_sq_step(kind, rho, lam, quad)
                - rho * rho
                - coef * lam * lam
                for lam in (0.04, 0.02)
            ]
            if resid[1] == 0.0:
                return False, "quartic remainder vanished; cannot form ratio"
            ratio = resid[0] / resid[1]
            worst_lo = min(worst_lo, ratio)
            worst_hi = max(worst_hi, ratio)
    ok = 14.0 <= worst_lo and worst_hi <= 18.0
    return ok, f"quartic ratios in [{worst_lo:.2f}, {worst_hi:.2f}] (need [14, 18])"


#: Crease points of the spherical w = 1 curve (rho + 2 lam > pi).
_CREASE_POINTS = ((1.369, 0.890), (1.033, 1.325), (0.399, 1.705))


def _check_nested(cfg: RunConfig) -> tuple[bool, str]:
    """``F`` by nested tanh-sinh against the folded trapezoid ``_quad_mean``.

    Relative gap at random smooth points, where the 256-node trapezoid is
    spectral; absolute gap at crease points, where the 2048-node one is
    off by up to about 3e-9.
    """
    rng = np.random.default_rng([cfg.seed, 4])
    rho, lam = rng.uniform(0.0, 1.0, (2, 20))
    smooth = 0.0
    for kind, rho_s, lam_s in (  # rho + 2 lam < pi - 0.27 on the sphere
        (GeometryKind.SPHERICAL, 2.0 * rho, 0.01 + (math.pi / 2 - 0.15 - rho) * lam),
        (GeometryKind.HYPERBOLIC, 4.0 * rho, 0.01 + 2.0 * lam),
    ):
        nested = solver.mean_sq_step(kind, rho_s, lam_s, cfg.quadrature())
        ref = solver._quad_mean(kind, rho_s, lam_s, 256)
        smooth = max(smooth, float(np.max(np.abs(nested / ref - 1.0))))
    rho, lam = np.array(_CREASE_POINTS).T
    crease = float(np.max(np.abs(
        solver.mean_sq_step(GeometryKind.SPHERICAL, rho, lam, cfg.quadrature())
        - solver._quad_mean(GeometryKind.SPHERICAL, rho, lam, 2048))))
    return smooth <= 1e-13 and crease <= 1e-8, (
        f"smooth rel {smooth:.1e} (bound 1e-13), "
        f"crease vs 2048 nodes {crease:.1e} (bound 1e-08)"
    )


def _check_roots(cfg: RunConfig) -> tuple[bool, str]:
    quad = cfg.quadrature()
    worst = 0.0
    count = 0
    for kind, w, lam_hi in (
        (GeometryKind.SPHERICAL, 1.0, 0.5),
        (GeometryKind.HYPERBOLIC, 3.0, 1.5),
    ):
        problem = CurvatureProblem(kind, w)
        axis, _, cert = solver.certified_curve(problem, quad, 0.1, lam_hi, 3)
        count += len(cert.curve.points)
        if cert.certified.size:
            worst = max(worst, float(np.max(np.abs(cert.certified))))
        if axis is not None:
            count += 1
            worst = max(worst, abs(axis[1]))
    ok = count > 0 and worst <= solver.CERTIFICATION_TOL
    return ok, f"{count} roots, max certified residual {worst:.2e} (bound 1e-08)"


VERIFY_CHECKS = [
    ("outcome-normalization", _check_normalization),
    ("direction-vs-libm", _check_direction),
    ("msd-mc-vs-analytic", _check_msd),
    ("ensemble-mc-vs-analytic", _check_ensemble),
    ("closed-vs-construction", _check_oracles),
    ("quadrature-vs-series", _check_series),
    ("nested-vs-trapezoid", _check_nested),
    ("root-certification", _check_roots),
]


def cmd_verify(cfg: RunConfig) -> int:
    failures = 0
    lines = []
    for name, check in VERIFY_CHECKS:
        start = time.perf_counter()
        ok, detail = check(cfg)
        # timings vary run to run, so they stay off the byte-stable output
        print(f"{name}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
        failures += 0 if ok else 1
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    summary = "all checks passed" if failures == 0 else f"{failures} check(s) failed"
    text = "\n".join(lines + [summary]) + "\n"
    _write_text(cfg, text)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing


_FLAGS = {
    "--seed": dict(type=int, help="master seed (default 0)"),
    "--out": dict(type=str, help="output path (default stdout)"),
    "--config": dict(type=str, help="key=value config file"),
    "--quad-nodes": dict(type=int, help="about this many tanh-sinh nodes per "
                         "azimuth axis: m = n // 4 (default 128)"),
    "--protocol": dict(choices=sorted(_PROTOCOLS), help="step protocol"),
    "--p": dict(type=float, help="mixing parameter in [0, 1]"),
    "--r": dict(type=float, help="initial separation (default 1)"),
    "--l": dict(type=float, help="step length (default 0.5)"),
    "--geometry": dict(choices=sorted(_GEOMETRIES), help="surface geometry"),
    "--w": dict(type=float,
                help="explicit right-hand-side weight (default from protocol)"),
    "--lambda-min": dict(type=float, help="smallest scaled step in the curve grid"),
    "--lambda-max": dict(type=float, help="largest scaled step in the curve grid"),
    "--lambda-steps": dict(type=int,
                           help="number of curve grid points (default 32)"),
    "--samples": dict(type=int, help="Monte Carlo sample count (default 1000000)"),
    "--steps": dict(type=int, help="ensemble steps (default 100)"),
    "--walkers": dict(type=int, help="ensemble walkers (default 1000)"),
    "--epsilon": dict(type=float, help="meeting radius (default 0.1 * l)"),
}

_COMMON_FLAGS = ("--seed", "--out", "--config")
_CURVE_FLAGS = ("--geometry", "--p", "--w", "--quad-nodes",
                "--lambda-min", "--lambda-max", "--lambda-steps")

#: name: (handler, help, the flags it reads besides the common ones)
_COMMANDS = {
    "msd": (
        cmd_msd,
        "single-step mean-square separation: Monte Carlo vs analytic",
        ("--protocol", "--p", "--r", "--l", "--samples"),
    ),
    "simulate": (
        cmd_simulate,
        "multi-step two-walker ensemble trajectory statistics",
        ("--protocol", "--p", "--r", "--l", "--steps", "--walkers", "--epsilon"),
    ),
    "curve": (
        cmd_curve,
        "trace and certify the curvature-equation solution curve",
        _CURVE_FLAGS,
    ),
    "threshold": (
        cmd_threshold,
        "endpoint and ratio-bound report for one geometry",
        _CURVE_FLAGS,
    ),
    "verify": (
        cmd_verify,
        "run the named self-check suite",
        ("--p", "--r", "--l", "--samples", "--quad-nodes"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwalk",
        description="Correlated two-walker steps and their curved-surface models.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        for flag in _COMMON_FLAGS + flags:
            sub.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        return _COMMANDS[args.command][0](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
