"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

from entwalk.cli import main as cli_main
from entwalk.geometry import (
    GeometryKind,
    closed_form_distances,
    construction_distances,
)
from entwalk.solver import (
    CurvatureProblem,
    QuadratureSpec,
    axis_crossing,
    mean_sq_step,
    residual,
    small_lambda_series,
)
from entwalk.walk import Protocol, ProtocolSpec, mc_sq_separation, weight

from conftest import grid_weight

S = GeometryKind.SPHERICAL
H = GeometryKind.HYPERBOLIC


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_single_step_msd_reference_values():
    targets = [
        (Protocol.PLUS, 1.0, 1.25),
        (Protocol.MINUS, 1.0, 1.75),
        (Protocol.CLASSICAL, 1.0, 1.5),
    ]
    start = time.perf_counter()
    worst = 0.0
    for kind, p, target in targets:
        mean, stderr = mc_sq_separation(
            1.0, 0.5, ProtocolSpec(kind, p), 1_000_000,
            np.random.default_rng([1, kind.value.encode()[0]]),
        )
        worst = max(worst, abs(mean - target) / stderr)
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 and elapsed <= 10.0
    report(1, ok, f"max |z| = {worst:.2f} over 1e6 samples in {elapsed:.1f}s")


def test_criterion_2_werner_weights_from_grid_oracle():
    worst = 0.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        worst = max(worst, abs(grid_weight(+1, p) - (2.0 - p)))
        worst = max(worst, abs(grid_weight(-1, p) - (2.0 + p)))
    sum_rule = all(
        weight(Protocol.PLUS, p) + weight(Protocol.MINUS, p) == 4.0
        for p in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    bounds = all(
        1.0 < weight(Protocol.PLUS, p) < 2.0
        and 2.0 < weight(Protocol.MINUS, p) < 3.0
        for p in (0.25, 0.5, 0.75)
    )
    ok = worst <= 1e-6 and sum_rule and bounds
    report(2, ok, f"1024x1024 oracle max weight error {worst:.2e}; "
                  f"sum rule exact: {sum_rule}; open-interval bounds: {bounds}")


def test_criterion_3_closed_form_vs_construction():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    details = []
    ok = True
    for kind, rho_hi, tol in ((S, math.pi - 0.01, 1e-12), (H, 5.0, 1e-9)):
        rho = rng.uniform(0.01, rho_hi, 10_000)
        lam = rng.uniform(0.001, 2.0, 10_000)
        pa = rng.uniform(0.0, 2.0 * math.pi, 10_000)
        pb = rng.uniform(0.0, 2.0 * math.pi, 10_000)
        diff = float(np.max(np.abs(
            construction_distances(kind, rho, lam, pa, pb)
            - closed_form_distances(kind, rho, lam, pa, pb)
        )))
        ok = ok and diff <= tol
        details.append(f"{kind.value}: {diff:.2e} (tol {tol:g})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 5.0
    report(3, ok, "; ".join(details) + f"; {elapsed:.2f}s")


def test_criterion_4_quadrature_matches_quartic_series_tail():
    quad = QuadratureSpec(256)
    lo, hi = math.inf, 0.0
    for kind in (S, H):
        for rho in (0.5, 1.0, 1.5):
            coef = small_lambda_series(kind, rho)
            rem = [
                mean_sq_step(kind, rho, lam, quad) - rho * rho - coef * lam * lam
                for lam in (0.04, 0.02)
            ]
            ratio = rem[0] / rem[1]
            lo, hi = min(lo, ratio), max(hi, ratio)
    ok = 14.0 <= lo and hi <= 18.0
    report(4, ok, f"remainder ratios in [{lo:.2f}, {hi:.2f}] (need [14, 18])")


def test_criterion_5_endpoint_values():
    prob_s, prob_h = CurvatureProblem(S, 1.0), CurvatureProblem(H, 3.0)

    def intercept(kind, w):
        # scalar bisection on the series condition, independent of quadrature
        f = lambda x: small_lambda_series(kind, x) - w
        lo, hi = 1e-9, (math.pi - 1e-9) if kind is S else 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (f(lo) > 0) != (f(mid) > 0):
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-12:
                break
        return 0.5 * (lo + hi)

    rho0_s = intercept(S, 1.0)
    rho0_h = intercept(H, 3.0)
    star_128 = axis_crossing(prob_s, QuadratureSpec(128))
    star_256 = axis_crossing(prob_s, QuadratureSpec(256))
    cert = float(residual(prob_s, 0.0, star_128, QuadratureSpec(256)))
    checks = {
        "rho0_sph=pi/2": abs(rho0_s - math.pi / 2) <= 1e-4,
        "rho0_hyp=1.91501": abs(rho0_h - 1.91501) <= 1e-4,
        "lambda_star in (1.5, 2)": 1.5 < star_128 < 2.0,
        "lambda_star stable under doubling": abs(star_128 - star_256) <= 1e-6,
        "lambda_star certified": abs(cert) <= 1e-8,
    }
    ok = all(checks.values())
    report(5, ok, f"rho0=({rho0_s:.6f}, {rho0_h:.6f}), "
                  f"lambda*={star_128:.8f} (shift {abs(star_128-star_256):.1e}, "
                  f"residual {cert:.1e}); " +
                  ", ".join(k for k, v in checks.items() if not v))


def test_criterion_6_figure_reproduction(tmp_path):
    ok = True
    details = []
    for geometry in ("spherical", "hyperbolic"):
        curve_path = tmp_path / f"curve_{geometry}.csv"
        code = cli_main([
            "curve", "--geometry", geometry, "--p", "1.0",
            "--out", str(curve_path),
        ])
        lines = curve_path.read_text().strip().split("\n")[1:]
        residuals = [abs(float(row.split(",")[2])) for row in lines]
        n_points = len(lines)
        ok = ok and code == 0 and n_points > 1 and max(residuals) <= 1e-8
        details.append(f"{geometry}: {n_points} certified points, "
                       f"max residual {max(residuals):.1e}, exit {code}")

        thr_path = tmp_path / f"threshold_{geometry}.json"
        code = cli_main([
            "threshold", "--geometry", geometry, "--p", "1.0",
            "--out", str(thr_path),
        ])
        payload = json.loads(thr_path.read_text())
        has_fields = bool(
            payload["paper_value"] == 0.64
            and payload["status"] in ("consistent", "discrepant")
            and payload["branches"]
            and all("ratio_inf" in b for b in payload["branches"])
        )
        ok = ok and code == 0 and has_fields
        details.append(f"{geometry} report: status={payload['status']}, "
                       f"inf(l/r) per branch present: {has_fields}")
    report(6, ok, "; ".join(details))


def test_criterion_7_byte_identical_outputs(tmp_path):
    ok = True
    details = []
    sim_args = ["simulate", "--steps", "50", "--walkers", "600", "--seed", "11"]
    outputs = []
    for tag in ("a", "b", "c"):
        path = tmp_path / f"sim_{tag}.csv"
        assert cli_main(sim_args + ["--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    sim_ok = outputs[0] == outputs[1] == outputs[2]
    details.append(f"simulate identical across three reruns: {sim_ok}")

    msd_args = ["msd", "--samples", "100000", "--seed", "11"]
    msd_out = []
    for tag in ("a", "b"):
        path = tmp_path / f"msd_{tag}.csv"
        assert cli_main(msd_args + ["--out", str(path)]) == 0
        msd_out.append(path.read_bytes())
    msd_ok = msd_out[0] == msd_out[1]
    details.append(f"msd identical across reruns: {msd_ok}")
    ok = sim_ok and msd_ok
    report(7, ok, "; ".join(details))


def test_criterion_8_flat_limit_of_angle_averaged_law():
    target = 1.0 + 2.0 * 0.09  # r^2 + 2 l^2 at r=1, l=0.3
    ok = True
    details = []
    for kind in (S, H):
        errors = []
        for radius in (10.0, 20.0, 40.0):
            f = mean_sq_step(kind, 1.0 / radius, 0.3 / radius, QuadratureSpec(128))
            errors.append(abs(radius * radius * f - target))
        orders = [math.log2(errors[0] / errors[1]),
                  math.log2(errors[1] / errors[2])]
        kind_ok = min(orders) >= 1.9
        ok = ok and kind_ok
        details.append(f"{kind.value}: orders {orders[0]:.2f}, {orders[1]:.2f}")
    report(8, ok, "; ".join(details) + f" (target {target})")
