import dataclasses
import json
import math

import numpy as np
import pytest

import entwalk.walk
from entwalk.cli import VERIFY_CHECKS, RunConfig, _build_config, build_parser, main


def run_cli(argv):
    return main(argv)


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing newline
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


# ---------------------------------------------------------------------------
# msd


def test_msd_default_three_protocols(tmp_path):
    out = tmp_path / "msd.csv"
    assert run_cli(["msd", "--samples", "200000", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == [
        "protocol", "p", "r", "l", "analytic",
        "mc_mean", "mc_stderr", "n_samples", "z_score",
    ]
    table = {row[0]: row for row in rows}
    assert set(table) == {"plus", "minus", "classical"}
    assert float(table["plus"][4]) == 1.25
    assert float(table["minus"][4]) == 1.75
    assert float(table["classical"][4]) == 1.5
    assert float(table["classical"][1]) == 0.0  # classical samples with p = 0
    for row in rows:
        assert abs(float(row[8])) <= 3.0


def test_msd_minus_at_zero_mixing_equals_classical(tmp_path):
    out = tmp_path / "msd.csv"
    assert run_cli([
        "msd", "--protocol", "minus", "--p", "0", "--samples", "50000",
        "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0][4]) == 1.5  # r^2 + 2 l^2 at defaults


def test_msd_protocol_run_prints_its_row_of_the_full_table(tmp_path):
    args = ["msd", "--samples", "10000", "--seed", "3"]
    full = tmp_path / "full.csv"
    assert run_cli(args + ["--out", str(full)]) in (0, 1)
    lines = full.read_bytes().split(b"\n")
    for k, name in enumerate(("plus", "minus", "classical")):
        one = tmp_path / f"{name}.csv"
        assert run_cli(args + ["--protocol", name, "--out", str(one)]) in (0, 1)
        assert one.read_bytes().split(b"\n") == [lines[0], lines[1 + k], b""]


def test_msd_rejects_invalid_mixing():
    assert run_cli(["msd", "--p", "1.5"]) == 2


def test_msd_rejects_undersized_sample_count():
    assert run_cli(["msd", "--samples", "10"]) == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_rows_and_determinism(tmp_path):
    args = ["simulate", "--steps", "8", "--walkers", "300", "--seed", "5"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert run_cli(args + ["--out", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()
    header, rows = read_csv(out1)
    assert header == ["step", "mean_r2", "meeting_fraction"]
    assert [row[0] for row in rows] == [str(t) for t in range(9)]


def test_simulate_single_walker_zero_steps(tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli([
        "simulate", "--steps", "0", "--walkers", "1", "--r", "1.0",
        "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0] == ["0", "1.0", "0.0"]


@pytest.mark.parametrize("r", [0.7, 0.3])
def test_simulate_step_zero_is_the_initial_separation_squared(tmp_path, r):
    # every walker starts at distance r, so the mean is r*r, not a rounded sum
    out = tmp_path / "sim.csv"
    assert run_cli([
        "simulate", "--r", repr(r), "--steps", "1", "--walkers", "1000",
        "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    assert rows[0][1] == repr(r * r)


def test_simulate_first_step_matches_analytic(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli([
        "simulate", "--steps", "1", "--walkers", "20000", "--seed", "1",
        "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    # plus protocol at defaults: r'^2 = 1 + 0.25 = 1.25, sample sigma ~ 0.004
    assert abs(float(rows[1][1]) - 1.25) < 0.02


# ---------------------------------------------------------------------------
# curve


def test_curve_spherical_smooth_segment(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli([
        "curve", "--geometry", "spherical",
        "--lambda-min", "0.1", "--lambda-max", "0.6", "--lambda-steps", "6",
        "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["lambda", "rho", "residual", "branch_id", "l_over_r", "R_over_r"]
    body = [row for row in rows if row[4] != ""]
    assert len(body) >= 6
    for row in body:
        lam, rho, res = float(row[0]), float(row[1]), float(row[2])
        assert abs(res) <= 1e-8
        assert float(row[5]) * rho == pytest.approx(1.0, abs=1e-12)
        assert float(row[4]) == pytest.approx(lam / rho, rel=1e-12)
    # appended axis endpoint: rho = 0 with blank transform columns
    axis_rows = [row for row in rows if row[4] == ""]
    assert len(axis_rows) == 1
    assert float(axis_rows[0][1]) == 0.0
    assert 1.5 < float(axis_rows[0][0]) < 2.0


def test_curve_hyperbolic_intercept(tmp_path):
    out = tmp_path / "hyp.csv"
    code = run_cli([
        "curve", "--geometry", "hyperbolic",
        "--lambda-min", "0.05", "--lambda-max", "0.3", "--lambda-steps", "4",
        "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    first = rows[0]
    assert float(first[0]) == 0.05
    assert abs(float(first[1]) - 1.915) < 1e-2


def test_curve_rejects_bad_grid():
    assert run_cli([
        "curve", "--lambda-min", "0.5", "--lambda-max", "0.1",
    ]) == 2


# ---------------------------------------------------------------------------
# threshold


def test_threshold_spherical_report(tmp_path):
    out = tmp_path / "thr.json"
    code = run_cli([
        "threshold", "--geometry", "spherical",
        "--lambda-min", "0.05", "--lambda-max", "0.5", "--lambda-steps", "5",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["geometry"] == "spherical"
    assert payload["w"] == 1.0
    assert payload["rho0"] == pytest.approx(math.pi / 2, abs=1e-6)
    assert 1.5 < payload["lambda_star"] < 2.0
    assert payload["paper_value"] == 0.64
    assert payload["status"] in ("consistent", "discrepant")
    assert payload["branches"]
    for branch in payload["branches"]:
        assert branch["ratio_inf"] <= branch["ratio_sup"]
    assert payload["ratio_inf"] == min(b["ratio_inf"] for b in payload["branches"])


def test_threshold_hyperbolic_report(tmp_path):
    out = tmp_path / "thr.json"
    code = run_cli([
        "threshold", "--geometry", "hyperbolic",
        "--lambda-min", "0.05", "--lambda-max", "0.4", "--lambda-steps", "4",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["rho0"] == pytest.approx(1.91501, abs=1e-4)
    assert payload["nu_slope"] is not None
    assert payload["paper_value"] == 0.64


def threshold_report(tmp_path, name, *args):
    out = tmp_path / name
    assert run_cli(["threshold", *args, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_threshold_honours_a_lone_grid_bound(tmp_path):
    # the other end takes curve's default: 0.98 lambda* on top, 0.02 below
    steps = ["--lambda-steps", "4"]
    lone_min = threshold_report(tmp_path, "min.json", "--lambda-min", "0.3", *steps)
    top = repr(0.98 * lone_min["lambda_star"])
    assert lone_min == threshold_report(
        tmp_path, "min_top.json", "--lambda-min", "0.3", "--lambda-max", top, *steps
    )
    default = threshold_report(tmp_path, "default.json", *steps)
    assert lone_min["ratio_inf"] != default["ratio_inf"]

    lone_max = threshold_report(tmp_path, "max.json", "--lambda-max", "0.3", *steps)
    assert lone_max == threshold_report(
        tmp_path, "bottom_max.json", "--lambda-min", "0.02", "--lambda-max", "0.3",
        *steps,
    )
    assert lone_max["ratio_sup"] != default["ratio_sup"]

    cfg = tmp_path / "grid.cfg"
    cfg.write_text("lambda_min=0.3\n")
    assert threshold_report(tmp_path, "cfg.json", "--config", str(cfg), *steps) == (
        lone_min
    )
    assert run_cli(["threshold", "--lambda-steps", "1"]) == 2


def curve_and_threshold(tmp_path, *common):
    out = tmp_path / "curve.csv"
    assert run_cli(["curve", *common, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    return rows, threshold_report(tmp_path, "thr.json", *common)


def test_threshold_reads_the_curve_grid(tmp_path):
    # both commands read the same certified curve over the same grid
    rows, payload = curve_and_threshold(
        tmp_path, "--geometry", "hyperbolic", "--lambda-steps", "5"
    )
    (lam0, rho0), (lam1, rho1) = [(float(r[0]), float(r[1])) for r in rows[:2]]
    assert payload["nu_slope"] == (rho1 - rho0) / (lam1 - lam0)
    assert payload["ratio_inf"] == float(rows[0][4])
    axis_rows = [row for row in rows if row[4] == ""]
    assert payload["lambda_star"] == float(axis_rows[0][0])
    assert payload["ratio_sup"] == max(float(r[4]) for r in rows if r[4])


@pytest.mark.parametrize("geometry", ["spherical", "hyperbolic"])
def test_near_flat_weight_traces_the_default_grid(tmp_path, geometry):
    # p = 1e-5: lambda* = 0.0077 lies below the default lambda_min of 0.02
    rows, payload = curve_and_threshold(tmp_path, "--geometry", geometry, "--p", "1e-5")
    body = [r for r in rows if r[4]]
    axis_rows = [r for r in rows if not r[4]]
    assert len(body) == 32
    assert all(abs(float(r[2])) <= 1e-8 for r in rows)
    assert len(axis_rows) == 1 and float(axis_rows[0][1]) == 0.0
    assert payload["lambda_star"] == float(axis_rows[0][0])
    assert float(body[-1][0]) < payload["lambda_star"]


def test_threshold_extrema_are_the_certified_rows_through_escalation(tmp_path):
    # sphere defaults: points near the crease are re-solved on finer grids,
    # so extrema of uncertified traced points would differ in the 5th digit
    rows, payload = curve_and_threshold(tmp_path, "--geometry", "spherical")
    ratios = [float(r[4]) for r in rows if r[4]]
    assert payload["ratio_sup"] == max(ratios)
    assert payload["ratio_inf"] == min(ratios)
    assert payload["lambda_star"] == float([r for r in rows if not r[4]][0][0])


def test_coarse_rule_curve_certifies_or_fails_loudly(tmp_path):
    out = tmp_path / "curve.csv"
    common = ["curve", "--out", str(out), "--quad-nodes", "16"]
    # the axis crossing escalates to a certified lam* > 0: a full grid
    assert run_cli([*common, "--geometry", "spherical", "--p", "0.001"]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 33 and float(rows[-1][0]) > 0.0
    # the coarse guard misses grid roots below lam*: exit 1, not fewer rows,
    # and threshold, reading the same curve, exits by the same rule
    for command in ("curve", "threshold"):
        assert run_cli([command, "--out", str(out), "--quad-nodes", "16",
                        "--geometry", "hyperbolic", "--p", "0.01"]) == 1
    # grid lam above lam* have no root by design
    assert run_cli(
        ["curve", "--out", str(out), "--geometry", "spherical", "--lambda-max", "3.0"]
    ) == 0


# ---------------------------------------------------------------------------
# config file handling


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\np=0.5\nsamples=50000\nprotocol=minus\n")
    out = tmp_path / "msd.csv"
    assert run_cli([
        "msd", "--config", str(cfg), "--p", "0.25", "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1  # protocol pinned by the config file
    assert rows[0][0] == "minus"
    assert float(rows[0][1]) == 0.25  # flag beats config
    assert rows[0][7] == "50000"


_RAW_VALUES = {"int": ("7", 7), "float": ("0.25", 0.25), "str": ("abc", "abc")}


@pytest.mark.parametrize(
    "field", dataclasses.fields(RunConfig), ids=lambda f: f.name
)
def test_every_run_config_field_is_a_config_key(tmp_path, field):
    declared = field.type.split(" | ")[0]  # annotated "T" or "T | None"
    raw, expected = _RAW_VALUES[declared]
    path = tmp_path / "run.cfg"
    path.write_text(f"{field.name}={raw}\n")
    cfg = _build_config(build_parser().parse_args(["msd", "--config", str(path)]))
    value = getattr(cfg, field.name)
    assert type(value).__name__ == declared
    assert value == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--quad-nodes", "8"],
        ["msd", "--geometry", "hyperbolic"],
        ["curve", "--samples", "2000"],
        ["verify", "--protocol", "plus"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_inapplicable_flag_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_file_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    assert run_cli(["msd", "--config", str(cfg)]) == 2


def test_missing_config_file_is_usage_error(tmp_path):
    assert run_cli(["msd", "--config", str(tmp_path / "absent.cfg")]) == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_default_passes(tmp_path, capsys):
    assert run_cli(["verify"]) == 0
    captured = capsys.readouterr().out
    for name in (
        "outcome-normalization",
        "direction-vs-libm",
        "msd-mc-vs-analytic",
        "ensemble-mc-vs-analytic",
        "closed-vs-construction",
        "quadrature-vs-series",
        "nested-vs-trapezoid",
        "root-certification",
    ):
        assert f"PASS {name}" in captured
    assert "all checks passed" in captured


def test_verify_times_each_check_on_stderr(capsys):
    # wall times differ run to run, so they go to stderr and stdout keeps its bytes
    runs = []
    for _ in range(2):
        code = run_cli(["verify", "--samples", "50000"])
        runs.append((code, capsys.readouterr()))
    (code0, first), (code1, second) = runs
    assert code0 == code1 and first.out == second.out
    assert " s\n" not in first.out
    for captured in (first, second):
        lines = captured.err.splitlines()
        assert [line.split(": ")[0] for line in lines] == [n for n, _ in VERIFY_CHECKS]
        assert all(line.endswith(" s") for line in lines)


def test_verify_detects_a_direction_table_off_by_a_few_ulps(capsys, monkeypatch):
    # mutation test: a cosine table shifted by 1e-15 (4.5 eps) must fail
    cos_table, sin_table = entwalk.walk._turn_table()
    shifted = (cos_table + 1e-15, sin_table)
    monkeypatch.setattr(entwalk.walk, "_turn_table", lambda: shifted)
    assert run_cli(["verify", "--samples", "50000"]) == 1
    captured = capsys.readouterr().out
    assert "FAIL direction-vs-libm" in captured


def test_verify_detects_wrong_weight(capsys, monkeypatch):
    # mutation test: an incorrectly attractive weight must trip the MC check
    def wrong_weight(kind, p=1.0):
        if kind is entwalk.walk.Protocol.PLUS:
            return 2.0 + p
        if kind is entwalk.walk.Protocol.MINUS:
            return 2.0 - p
        return 2.0

    monkeypatch.setattr(entwalk.walk, "weight", wrong_weight)
    assert run_cli(["verify", "--samples", "50000"]) == 1
    captured = capsys.readouterr().out
    assert "FAIL msd-mc-vs-analytic" in captured
    assert "FAIL ensemble-mc-vs-analytic" in captured


def test_verify_under_resolved_quadrature_reports_by_name(capsys):
    # nodes = 16 is the smallest legal grid; the series check must still
    # be reported by name whether or not the resolution suffices
    code = run_cli(["verify", "--quad-nodes", "16", "--samples", "50000"])
    captured = capsys.readouterr().out
    assert "quadrature-vs-series" in captured
    assert code in (0, 1)


def test_verify_rejects_undersized_quadrature():
    assert run_cli(["verify", "--quad-nodes", "8"]) == 2


# ---------------------------------------------------------------------------
# output determinism


def test_msd_byte_identical_across_runs(tmp_path):
    args = ["msd", "--samples", "20000", "--seed", "9"]
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_outputs_use_lf_and_dot_decimal(tmp_path):
    out = tmp_path / "m.csv"
    run_cli(["msd", "--samples", "20000", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert b";" not in raw.split(b"\n")[1]
    assert b"." in raw.split(b"\n")[1]
