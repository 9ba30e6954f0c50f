"""Each correctness check passes a good output and fails a corrupted one."""

import json

import checks

CURVE_HEADER = ",".join(checks.CURVE_COLUMNS)


def curve_text(residuals, axis_residual=1e-12):
    rows = [f"{0.1 * (i + 1)!r},{1.5 - 0.1 * i!r},{r!r},0,1.0,1.0"
            for i, r in enumerate(residuals)]
    rows.append(f"2.5,0.0,{axis_residual!r},0,,")
    return "\n".join([CURVE_HEADER, *rows]) + "\n"


def no_error(rho, lam):
    return 0.0


def test_curve_passes_certified_rows():
    out = checks.check_curve(0, curve_text([1e-10, -3e-9, 5e-12]), no_error)
    assert (out.attempted, out.failed) == (4, 0)


def test_curve_fails_a_residual_of_1e_6():
    out = checks.check_curve(0, curve_text([1e-10, 1e-6, 5e-12]), no_error)
    assert out.failed == 1
    assert "residual" in out.failures[0]


def test_curve_fails_when_the_independent_reevaluation_disagrees():
    seen = []

    def off(rho, lam):
        seen.append(rho)
        return 1e-6

    out = checks.check_curve(0, curve_text([1e-10] * 5), off)
    assert len(seen) == 3  # first, middle and last rho > 0 rows
    assert out.failed == 3


def test_curve_fails_every_row_on_a_bad_exit_or_header():
    text = curve_text([1e-10, 1e-10])
    assert checks.check_curve(1, text, no_error).failed == 3
    broken = text.replace("R_over_r", "R_over_l")
    assert checks.check_curve(0, broken, no_error).failed == 3
    assert checks.check_curve(-1, "", no_error).failed == 1


def msd_text(zs):
    header = ",".join(checks.MSD_COLUMNS)
    rows = [f"plus,1.0,1.0,0.5,1.25,1.25,0.001,1000000,{z!r}" for z in zs]
    return "\n".join([header, *rows]) + "\n"


def test_msd_passes_small_z_and_fails_z_of_5():
    assert checks.check_msd(0, msd_text([0.3, -2.9, 1.0])).failed == 0
    out = checks.check_msd(1, msd_text([0.3, 5.0, 1.0]))
    assert (out.attempted, out.failed) == (3, 1)
    assert checks.check_msd(0, msd_text([-5.0, 0.1, 0.1])).failed == 1


def test_msd_fails_on_nonzero_exit_without_a_large_z():
    assert checks.check_msd(2, msd_text([0.3, 0.3, 0.3])).failed == 3


def simulate_text(mean0=1.0, fractions=(0.0, 0.1, 0.1, 0.2)):
    header = ",".join(checks.SIMULATE_COLUMNS)
    rows = [f"{t},{mean0 if t == 0 else 1.0 + 0.5 * t!r},{f!r}"
            for t, f in enumerate(fractions)]
    return "\n".join([header, *rows]) + "\n"


def test_simulate_passes_a_good_report():
    out = checks.check_simulate(0, simulate_text(), r=1.0, steps=3)
    assert (out.attempted, out.failed) == (1, 0)


def test_simulate_fails_corrupted_reports():
    assert checks.check_simulate(0, simulate_text(mean0=1.0001), 1.0, 3).failed == 1
    decreasing = simulate_text(fractions=(0.0, 0.2, 0.1, 0.3))
    assert checks.check_simulate(0, decreasing, 1.0, 3).failed == 1
    above_one = simulate_text(fractions=(0.0, 0.5, 1.0, 1.5))
    assert checks.check_simulate(0, above_one, 1.0, 3).failed == 1
    assert checks.check_simulate(0, simulate_text(), 1.0, 4).failed == 1
    assert checks.check_simulate(1, simulate_text(), 1.0, 3).failed == 1


def threshold_report():
    return {"geometry": "hyperbolic", "w": 3.0, "lambda_star": 4.3,
            "rho0": 1.9, "ratio_inf": 0.02, "ratio_sup": 4.0, "nu_slope": -0.1,
            "paper_value": 0.64, "status": "discrepant",
            "branches": [{"branch_id": 0, "ratio_inf": 0.02, "ratio_sup": 4.0}]}


def test_threshold_checks_the_documented_keys():
    good = json.dumps(threshold_report())
    assert checks.check_threshold(0, good).failed == 0
    assert checks.check_threshold(1, good).failed == 1
    assert checks.check_threshold(0, good[:-1]).failed == 1
    missing = threshold_report()
    del missing["rho0"]
    assert checks.check_threshold(0, json.dumps(missing)).failed == 1
    branch = threshold_report()
    branch["branches"][0]["extra"] = 1
    assert checks.check_threshold(0, json.dumps(branch)).failed == 1


def test_digest_mismatch_fails_every_operation():
    assert checks.check_digest("curve", "a", None, 5).failed == 0
    assert checks.check_digest("curve", "a", "a", 5).failed == 0
    assert checks.check_digest("curve", "a", "b", 5).failed == 5


def test_gaps_are_reported_as_numbers():
    curve = curve_text([1e-10, 1e-10])
    report = threshold_report()
    report["lambda_star"] = 2.5 + 1.2e-5
    report["ratio_sup"] = 1.0 + 8.9e-5
    gaps = checks.gaps(curve, json.dumps(report))
    assert abs(gaps["lambda_star_gap"] - 1.2e-5) < 1e-12
    assert abs(gaps["ratio_sup_gap"] - 8.9e-5) < 1e-12
