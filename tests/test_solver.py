import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwalk import solver
from entwalk.geometry import RHO_CAP, TWO_PI, GeometryKind, closed_form_distances
from entwalk.solver import (
    DEFAULT_LAMBDA_STEPS,
    CurvatureCurve,
    CurvatureProblem,
    CurvePoint,
    QuadratureSpec,
    axis_crossing,
    certified_axis_crossing,
    certify_curve,
    extract_thresholds,
    figure3_transform,
    make_lambda_grid,
    mean_sq_step,
    residual,
    small_lambda_series,
    trace_curve,
)
from entwalk.walk import Protocol, weight

S = GeometryKind.SPHERICAL
H = GeometryKind.HYPERBOLIC

SPH_W1 = CurvatureProblem(S, 1.0)
HYP_W3 = CurvatureProblem(H, 3.0)

# frozen at first build from the 1e-10 bisection of the scan (N = 128;
# the spherical value is bit-stable under quadrature doubling)
LAMBDA_STAR_SPH = 1.7400264102842904
RHO0_HYP = 1.9150080481349092


def test_quadrature_spec_validation():
    QuadratureSpec(16)
    with pytest.raises(ValueError):
        QuadratureSpec(14)
    with pytest.raises(ValueError):
        QuadratureSpec(33)


def test_problem_pairing_validation():
    CurvatureProblem(S, 1.0)
    CurvatureProblem(S, 2.0)
    CurvatureProblem(H, 2.5)
    with pytest.raises(ValueError):
        CurvatureProblem(S, 2.5)
    with pytest.raises(ValueError):
        CurvatureProblem(H, 1.5)


# ---------------------------------------------------------------------------
# mean squared step distance


@given(rho=st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_zero_step_is_exact(rho):
    assert mean_sq_step(S, rho, 0.0) == rho * rho
    assert residual(SPH_W1, rho, 0.0) == 0.0


def test_zero_zero_is_zero():
    assert mean_sq_step(S, 0.0, 0.0) == 0.0
    assert mean_sq_step(H, 0.0, 0.0) == 0.0


def test_quad_mean_agrees_with_manual_grid_average(monkeypatch):
    # n/2 even and odd; rho = 0, the antipode and a crease point
    # (rho + 2 lam > pi) as single points; a mixed-lam array split over
    # several point chunks.
    monkeypatch.setattr(solver, "_CHUNK_BUDGET", 64)
    singles = {
        S: ((1.3, 0.8), (0.0, 0.8), (math.pi, 0.8), (1.0, 1.2)),
        H: ((2.1, 0.8), (0.0, 0.8)),
    }
    mixed_rho = np.linspace(0.0, 2.5, 7)
    mixed_lam = np.linspace(0.05, 1.5, 7)

    def manual(geometry, rho, lam, phi):
        d = closed_form_distances(geometry, rho, lam, phi[:, None], phi[None, :])
        return float(np.mean(d * d))

    for n in (16, 18, 64, 130):
        phi = TWO_PI * np.arange(n) / n
        for geometry, points in singles.items():
            for rho, lam in points:
                got = solver._quad_mean(geometry, np.array([rho]), np.array([lam]), n)
                assert got[0] == pytest.approx(
                    manual(geometry, rho, lam, phi), rel=1e-13
                )
            expected = [
                manual(geometry, r, l, phi) for r, l in zip(mixed_rho, mixed_lam)
            ]
            got = solver._quad_mean(geometry, mixed_rho, mixed_lam, n)
            assert got == pytest.approx(expected, rel=1e-13)


def smooth_points(geometry, count, seed):
    """Random points where the folded trapezoid converges spectrally."""
    rng = np.random.default_rng(seed)
    if geometry is S:
        rho = rng.uniform(0.0, 2.0, count)
        lam = rng.uniform(0.01, 1.0, count) * (math.pi - 0.3 - rho) / 2.0
    else:
        rho = rng.uniform(0.0, 4.0, count)
        lam = rng.uniform(0.01, 2.0, count)
    return rho, lam


@pytest.mark.parametrize("geometry", [S, H])
def test_nested_matches_the_trapezoid_at_smooth_points(geometry):
    rho, lam = smooth_points(geometry, 40, 5)
    nested = mean_sq_step(geometry, rho, lam)
    trapezoid = solver._quad_mean(geometry, rho, lam, 256)
    assert np.max(np.abs(nested / trapezoid - 1.0)) <= 1e-13


# The folded trapezoid on 8192 nodes per axis at the crease points of the
# spherical w = 1 curve, frozen: computed without row blocking it needs
# about 290 MB.  Its own change from 4096 to 8192 nodes is up to 3.2e-10.
TRAPEZOID_8192_AT_CREASES = {
    (1.369, 0.890): 2.6660387236772616,
    (1.033, 1.325): 2.8217192760425,
    (0.399, 1.705): 3.0669243154086034,
}


@pytest.mark.parametrize("point", sorted(TRAPEZOID_8192_AT_CREASES))
def test_nested_matches_the_fine_trapezoid_at_crease_points(point):
    rho, lam = point
    assert rho + 2.0 * lam > math.pi
    nested = mean_sq_step(S, rho, lam)
    assert abs(nested - TRAPEZOID_8192_AT_CREASES[point]) <= 5e-11
    # converged: four times the nodes moves it by rounding only
    assert abs(nested - mean_sq_step(S, rho, lam, QuadratureSpec(512))) <= 1e-12


def test_nested_edge_cases():
    # A zero step is exact; so is pi^2 / 3 wherever both steps are quarter
    # turns from coincident or antipodal agents (cos d = cos alpha).
    rho = np.array([0.0, 1.0, math.pi])
    assert np.array_equal(mean_sq_step(S, rho, np.zeros(3)), rho * rho)
    assert np.array_equal(mean_sq_step(H, rho, np.zeros(3)), rho * rho)
    for r in (0.0, math.pi):
        assert mean_sq_step(S, r, math.pi / 2) == pytest.approx(
            math.pi**2 / 3, rel=1e-14
        )
    # rho = 0 on the hyperboloid, where the trapezoid is spectral
    got = mean_sq_step(H, 0.0, np.array([0.3, 1.7]))
    ref = solver._quad_mean(H, np.zeros(2), np.array([0.3, 1.7]), 256)
    assert np.max(np.abs(got - ref)) <= 1e-13
    # rho = pi, and cos phi* at -1 (rho + 2 lam = pi) or +1 (rho = 2 lam - pi),
    # exactly and 1e-9 to either side: each value is converged
    edges = [(math.pi, 0.8), (math.pi, 1e-3),
             (math.pi - 2.0, 1.0), (4.0 - math.pi, 2.0)]
    for r, l in edges:
        for shift in ((-1e-9, 0.0, 1e-9) if r < math.pi else (-1e-9, 0.0)):
            fine = mean_sq_step(S, r + shift, l, QuadratureSpec(512))
            assert abs(mean_sq_step(S, r + shift, l) - fine) <= 1e-12


def test_nested_chunking_changes_nothing(monkeypatch):
    # a single point split over outer-node blocks, and many points split
    # over point chunks, give the same values as one block
    rho, lam = np.array([1.369, 0.3, 2.0]), np.array([0.89, 0.4, 1.5])
    whole = mean_sq_step(S, rho, lam)
    monkeypatch.setattr(solver, "_CHUNK_BUDGET", 200)
    assert mean_sq_step(S, rho, lam) == pytest.approx(whole, rel=1e-15, abs=0.0)


def test_scalar_and_array_paths_agree():
    rho, lam = np.array([0.0, 1.2, 3.0]), np.array([0.7, 1.3, 0.0])
    for geometry in (S, H):
        arr = mean_sq_step(geometry, rho, lam)
        for r, l, a in zip(rho, lam, arr):
            value = mean_sq_step(geometry, r, l)
            assert isinstance(value, float)
            assert value == pytest.approx(a, rel=1e-15, abs=0.0)
    with pytest.raises(ValueError):
        mean_sq_step(S, 3.2, 0.1)
    with pytest.raises(ValueError):
        mean_sq_step(H, 1.0, -0.1)


def test_small_step_value_spherical():
    # second-order series: rho^2 + lam^2 (1 + rho cot rho), quartic tail ~ 2e-9
    value = mean_sq_step(S, 1.0, 0.01, QuadratureSpec(256))
    series = 1.0 + 1e-4 * (1.0 + 1.0 / math.tan(1.0))
    assert value == pytest.approx(series, abs=5e-9)
    assert value == pytest.approx(1.00016421, abs=5e-8)


def test_quadrature_spectrally_converged_on_smooth_points():
    rng = np.random.default_rng(3)
    for geometry, rho_hi in ((S, 1.0), (H, 3.0)):
        rho = rng.uniform(0.1, rho_hi, 6)
        lam = rng.uniform(0.01, 0.5, 6)
        f128 = mean_sq_step(geometry, rho, lam, QuadratureSpec(128))
        f256 = mean_sq_step(geometry, rho, lam, QuadratureSpec(256))
        assert np.max(np.abs(f128 - f256)) <= 1e-10


# ---------------------------------------------------------------------------
# small-step series


def test_series_coefficient_reference_points():
    assert small_lambda_series(S, math.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert small_lambda_series(S, 1e-6) == pytest.approx(2.0, abs=1e-9)
    assert small_lambda_series(H, 1e-6) == pytest.approx(2.0, abs=1e-9)
    assert small_lambda_series(S, 1.0) == pytest.approx(1.6421, abs=1e-4)
    assert small_lambda_series(H, 1.0) == pytest.approx(2.3130, abs=1e-4)
    with pytest.raises(ValueError):
        small_lambda_series(S, 0.0)
    with pytest.raises(ValueError):
        small_lambda_series(S, math.pi)


@pytest.mark.parametrize("geometry", [S, H])
@pytest.mark.parametrize("rho", [0.5, 1.0, 1.5])
def test_series_coefficient_confirmed_by_quadrature_fit(geometry, rho):
    # Richardson-extrapolate (F - rho^2)/lam^2 from lam = 0.04, 0.02, 0.01
    quad = QuadratureSpec(256)
    estimates = [
        (mean_sq_step(geometry, rho, lam, quad) - rho * rho) / lam**2
        for lam in (0.04, 0.02, 0.01)
    ]
    refined = (4.0 * estimates[1] - estimates[0]) / 3.0
    refined2 = (4.0 * estimates[2] - estimates[1]) / 3.0
    coef = small_lambda_series(geometry, rho)
    assert refined == pytest.approx(coef, abs=1e-6)
    assert refined2 == pytest.approx(coef, abs=1e-7)


@pytest.mark.parametrize("geometry", [S, H])
@pytest.mark.parametrize("rho", [0.5, 1.0, 1.5])
def test_quartic_remainder_scaling(geometry, rho):
    quad = QuadratureSpec(128)
    coef = small_lambda_series(geometry, rho)
    rem = [
        mean_sq_step(geometry, rho, lam, quad) - rho * rho - coef * lam * lam
        for lam in (0.04, 0.02)
    ]
    ratio = rem[0] / rem[1]
    assert 14.0 <= ratio <= 18.0


def test_flat_limit_series_anchor():
    # the lam^2 coefficient tends to the flat-space value 2 as rho -> 0
    for geometry in (S, H):
        coef = small_lambda_series(geometry, 1e-4)
        assert coef == pytest.approx(2.0, abs=1e-7)


# ---------------------------------------------------------------------------
# residuals


def test_residual_positive_below_right_angle_spherical():
    # for rho < pi/2 the quadratic term rho*cot(rho) is positive
    lam = 0.01
    for rho in (0.3, 0.8, 1.2):
        phi = residual(SPH_W1, rho, lam)
        predicted = lam * lam * (rho / math.tan(rho))
        assert phi > 0.0
        assert phi == pytest.approx(predicted, rel=0.05)


def test_residual_near_intercept_hyperbolic():
    assert abs(residual(HYP_W3, 1.915, 0.01)) <= 1e-6


# ---------------------------------------------------------------------------
# curve tracing


def test_trace_curve_grid_validation():
    with pytest.raises(ValueError):
        trace_curve(SPH_W1, [])
    with pytest.raises(ValueError):
        trace_curve(SPH_W1, [0.2, 0.2])
    with pytest.raises(ValueError):
        trace_curve(SPH_W1, [-0.1, 0.2])


def test_trace_spherical_small_step_endpoint():
    curve = trace_curve(SPH_W1, [0.02, 0.06, 0.1])
    assert curve.points
    first = curve.points[0]
    assert first.lam == 0.02
    assert abs(first.rho - math.pi / 2) < 1e-3
    assert all(abs(p.residual) < 1e-9 for p in curve.points)
    assert len({p.branch_id for p in curve.points}) == 1


def test_trace_hyperbolic_small_step_endpoint_and_slope():
    curve = trace_curve(HYP_W3, [0.05, 0.1, 0.15])
    pts = curve.points
    assert abs(pts[0].rho - 1.91501) < 1e-2
    slope = (pts[1].rho - pts[0].rho) / (pts[1].lam - pts[0].lam)
    assert abs(slope) < 0.05  # flat takeoff from the axis intercept


def test_trace_branch_linking_is_stable():
    curve = trace_curve(SPH_W1, np.linspace(0.1, 0.6, 6))
    assert [p.branch_id for p in curve.points] == [0] * 6
    rhos = [p.rho for p in curve.points]
    assert all(b < a for a, b in zip(rhos, rhos[1:]))  # monotone descent


@pytest.mark.parametrize(
    "geometry,weights", [(S, (1.0, 1.5, 1.95)), (H, (3.0, 2.5, 2.05))]
)
def test_one_root_per_lambda_below_the_axis_crossing(geometry, weights):
    # branch_id is a root's rank at its lam, so one graph rho(lam) needs
    # Phi to change sign once in rho below lam* and never above it
    quad = QuadratureSpec(32)
    hi = math.pi if geometry is S else RHO_CAP
    rho = np.linspace(0.0, hi, 257)
    lam = np.linspace(0.0, hi, 61)[1:]
    for w in weights:
        problem = CurvatureProblem(geometry, w)
        lam_star = axis_crossing(problem, quad)
        sign = np.sign(residual(problem, rho[None, :], lam[:, None], quad))
        changes = np.count_nonzero(
            (sign[:, :-1] == 0.0) | (sign[:, :-1] * sign[:, 1:] < 0.0), axis=1
        )
        assert np.all(changes[lam < 0.98 * lam_star] == 1)
        assert np.all(changes[lam > 1.02 * lam_star] == 0)


def dense_scan_roots(problem, grid):
    """Reference roots: a 512-panel sign scan of each lam row, bisected to 1e-10.

    Returned ordered by lam, then rho, as ``trace_curve`` lists them.
    """
    rho_hi = math.pi if problem.geometry is S else RHO_CAP
    rho = np.linspace(0.0, rho_hi, 513)
    vals = residual(problem, rho[None, :], grid[:, None])
    row, col = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    lam, a, b, fa = grid[row], rho[col], rho[col + 1], vals[row, col]
    while np.max(b - a, initial=0.0) > 1e-10:
        mid = 0.5 * (a + b)
        fm = residual(problem, mid, lam)
        left = fa * fm <= 0.0
        a, b = np.where(left, a, mid), np.where(left, mid, b)
        fa = np.where(left, fa, fm)
    return lam, 0.5 * (a + b)


@pytest.mark.parametrize("geometry,protocol", [(S, Protocol.PLUS), (H, Protocol.MINUS)])
@pytest.mark.parametrize(
    "p,lambda_min", [(0.8, None), (0.9, None), (1.0, None), (1.0, 0.86)]
)
def test_continued_roots_match_a_dense_scan(geometry, protocol, p, lambda_min):
    # lambda_min = 0.86 starts the grid far from the intercept (0, rho0)
    problem = CurvatureProblem(geometry, weight(protocol, p))
    lam_star = certified_axis_crossing(problem)[0]
    grid = make_lambda_grid(problem, lam_star, lambda_min, None, DEFAULT_LAMBDA_STEPS)
    curve = trace_curve(problem, grid)
    lam, rho = dense_scan_roots(problem, grid)
    assert [pt.lam for pt in curve.points] == lam.tolist()
    assert np.max(np.abs(np.array([pt.rho for pt in curve.points]) - rho)) <= 1e-9
    assert {pt.branch_id for pt in curve.points} == {0}


@pytest.mark.parametrize("geometry", [S, H])
def test_trace_is_empty_at_the_flat_weight(geometry):
    # w = 2: the series condition has no root rho0 and Phi never changes sign
    problem = CurvatureProblem(geometry, 2.0)
    assert solver._series_intercept(problem) is None
    assert axis_crossing(problem) is None
    grid = make_lambda_grid(problem, None, None, None, DEFAULT_LAMBDA_STEPS)
    assert trace_curve(problem, grid).points == ()


def test_guard_brackets_link_branches(monkeypatch):
    # synthetic Phi: a root on a guard node, a root moving with lam, and a
    # root that appears below both at lam = 0.3; branch ids are the roots'
    # ranks in rho at each lam
    on_node = np.linspace(0.0, math.pi, solver._GUARD_PANELS + 1)[20]

    def synthetic(problem, rho, lam, quad=QuadratureSpec()):
        late = np.where(np.asarray(lam) >= 0.3, 0.5, 4.0)
        return (rho - on_node) * (rho - 1.8 - lam) * (rho - late)

    monkeypatch.setattr(solver, "residual", synthetic)
    grid = np.linspace(0.1, 0.5, 5)
    pts = trace_curve(SPH_W1, grid).points
    by_lam = {lam: [(pt.rho, pt.branch_id) for pt in pts if pt.lam == lam]
              for lam in grid.tolist()}
    for lam, row in by_lam.items():
        assert [rho for rho, _ in row] == sorted(rho for rho, _ in row)
        assert [rho for rho, _ in row if rho == on_node] == [on_node]
        ids = [0, 1] if lam < 0.3 else [0, 1, 2]
        assert [bid for _, bid in row] == ids
        assert all(abs(synthetic(None, rho, lam)) <= 1e-9 for rho, _ in row)


@pytest.mark.parametrize("problem", [SPH_W1, HYP_W3])
def test_coarse_rule_escalates_to_the_default_curve(problem):
    axis, grid, coarse = solver.certified_curve(problem, QuadratureSpec(32))
    default_axis, default_grid, default = solver.certified_curve(problem)
    assert set(coarse.nodes.tolist()) <= {64, 128}  # every point escalates
    assert coarse.all_within()
    assert axis[0] == default_axis[0]
    assert grid.tolist() == default_grid.tolist()
    rho = np.array([pt.rho for pt in coarse.curve.points])
    ref = np.array([pt.rho for pt in default.curve.points])
    assert np.max(np.abs(rho / ref - 1.0)) <= 1e-8


def test_certified_residuals_smooth_region():
    curve = trace_curve(SPH_W1, [0.1, 0.3, 0.5])
    rho = np.array([p.rho for p in curve.points])
    lam = np.array([p.lam for p in curve.points])
    cert = residual(SPH_W1, rho, lam, QuadratureSpec(256))
    assert np.max(np.abs(cert)) <= 1e-10


def test_certify_curve_needs_no_escalation_at_the_crease():
    # rho + 2 lam > pi here: the trapezoid needed 2048 nodes to certify
    curve = trace_curve(SPH_W1, [1.0])
    assert curve.points[0].rho + 2.0 > math.pi
    certified = certify_curve(SPH_W1, curve)
    assert certified.nodes.tolist() == [128]
    assert certified.all_within(1e-8)
    pt = certified.curve.points[0]
    trapezoid = solver._quad_mean(S, np.array([pt.rho]), np.array([pt.lam]), 2048)
    assert abs(trapezoid[0] - pt.rho**2 - SPH_W1.w * pt.lam**2) <= 1e-8


# ---------------------------------------------------------------------------
# thresholds and endpoints


def test_axis_crossing_spherical_bracket_and_stability():
    coarse = residual(SPH_W1, 0.0, 1.5, QuadratureSpec(32))
    assert coarse > 0.0
    assert residual(SPH_W1, 0.0, 2.0, QuadratureSpec(32)) < 0.0
    star128 = axis_crossing(SPH_W1, QuadratureSpec(128))
    star256 = axis_crossing(SPH_W1, QuadratureSpec(256))
    assert 1.5 < star128 < 2.0
    assert abs(star128 - star256) <= 1e-6
    assert star128 == pytest.approx(LAMBDA_STAR_SPH, abs=1e-9)


@pytest.mark.parametrize("geometry,side", [(S, -1.0), (H, 1.0)])
@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6])
def test_axis_crossing_near_the_flat_weight(geometry, side, gap):
    # F(0, lam) = 2 lam^2 -+ lam^4 / 6 + O(lam^6): lam* = sqrt(6 |2 - w|) (1 + O(|2 - w|))
    result = certified_axis_crossing(CurvatureProblem(geometry, 2.0 + side * gap))
    assert result is not None
    lam_star, cert, _ = result
    assert abs(cert) <= 1e-8
    assert abs(lam_star / math.sqrt(6.0 * gap) - 1.0) <= gap


def test_certify_root_reports_the_rule_of_the_returned_root():
    # a re-solve on 2n that finds no root keeps the root solved on n
    done = solver._certify_root(lambda x, n: 1.0, lambda f, x, n: None, 0.5, 0.0, 32)
    assert done == (0.5, 0.0, 1.0, 32)


@pytest.mark.parametrize("geometry,w", [(S, 1.999), (H, 2.01)])
def test_coarse_axis_crossing_escalates_away_from_zero(geometry, w):
    # a widening bracket around the coarse lam* reaches lam = 0, where
    # Phi(0, 0) = 0; escalation must re-solve from axis_crossing instead
    problem = CurvatureProblem(geometry, w)
    coarse = certified_axis_crossing(problem, QuadratureSpec(16))[0]
    assert coarse > 0.0
    assert abs(coarse / certified_axis_crossing(problem)[0] - 1.0) <= 1e-6


def test_default_lambda_min_stays_below_a_small_axis_crossing():
    assert make_lambda_grid(SPH_W1, 1.74, None, None, 4)[0] == 0.02
    assert make_lambda_grid(SPH_W1, 0.01, None, None, 4)[0] == 0.005
    assert make_lambda_grid(HYP_W3, 0.06, None, None, 4)[0] == 0.03


def test_certified_axis_crossing_both_geometries():
    for problem in (SPH_W1, HYP_W3):
        result = certified_axis_crossing(problem)
        assert result is not None
        lam_star, cert, nodes = result
        assert abs(cert) <= 1e-8
        assert nodes >= 128
    assert certified_axis_crossing(SPH_W1)[0] == pytest.approx(
        LAMBDA_STAR_SPH, abs=1e-9
    )


def test_extract_thresholds_spherical():
    report = extract_thresholds(
        SPH_W1, lambda_min=0.05, lambda_max=0.6, lambda_steps=6
    )
    assert report.rho0 == pytest.approx(math.pi / 2, abs=1e-9)
    assert 1.5 < report.lambda_star < 2.0
    assert report.nu_slope is None
    assert report.paper_comparison.paper_value == 0.64
    assert report.paper_comparison.status in ("consistent", "discrepant")
    assert 0 in report.ratio_extrema
    lo, hi = report.ratio_extrema[0]
    assert 0.0 < lo <= hi


def test_extract_thresholds_hyperbolic():
    report = extract_thresholds(
        HYP_W3, lambda_min=0.05, lambda_max=0.3, lambda_steps=4
    )
    assert report.rho0 == pytest.approx(RHO0_HYP, abs=1e-9)
    assert report.rho0 == pytest.approx(1.91501, abs=1e-4)
    assert report.nu_slope is not None
    assert abs(report.nu_slope) < 0.05


@pytest.mark.parametrize("problem", [SPH_W1, HYP_W3])
def test_threshold_lambda_star_is_the_certified_axis_crossing(problem):
    report = extract_thresholds(
        problem, lambda_min=0.05, lambda_max=0.2, lambda_steps=3
    )
    assert report.lambda_star == certified_axis_crossing(problem)[0]


def test_rho0_root_is_consistent_with_series_condition():
    report = extract_thresholds(
        HYP_W3, lambda_min=0.05, lambda_max=0.2, lambda_steps=3
    )
    rho0 = report.rho0
    assert abs(rho0 / math.tanh(rho0) - 2.0) < 1e-9


def test_rho0_absent_at_flat_weight():
    # w = 2 pairs with the flat law; the series condition has no root
    report = extract_thresholds(
        CurvatureProblem(S, 2.0), lambda_min=0.05, lambda_max=0.2, lambda_steps=3
    )
    assert report.rho0 is None


# ---------------------------------------------------------------------------
# figure-3 transform


def test_figure3_pointwise_values():
    curve = CurvatureCurve(
        (
            CurvePoint(lam=0.5, rho=1.0, residual=0.0, branch_id=0),
            CurvePoint(lam=1.0, rho=0.5, residual=0.0, branch_id=0),
            CurvePoint(lam=1.7, rho=0.0, residual=0.0, branch_id=0),
        )
    )
    images = figure3_transform(curve)
    assert len(images) == len(curve.points)
    points = [image for image in images if image is not None]
    dropped = [pt for pt, image in zip(curve.points, images) if image is None]
    assert len(points) == 2
    assert points[0].l_over_r == pytest.approx(0.5)
    assert points[0].R_over_r == pytest.approx(1.0)
    assert points[1].l_over_r == pytest.approx(2.0)
    assert points[1].R_over_r == pytest.approx(2.0)
    assert len(dropped) == 1
    assert dropped[0].lam == 1.7


@given(
    lam=st.floats(min_value=1e-3, max_value=3.0),
    rho=st.floats(min_value=1e-3, max_value=3.0),
)
def test_figure3_algebraic_identity(lam, rho):
    curve = CurvatureCurve((CurvePoint(lam, rho, 0.0, 0),))
    pt = figure3_transform(curve)[0]
    assert pt.R_over_r * rho == pytest.approx(1.0, abs=1e-12)
    assert pt.R_over_r == pytest.approx(pt.l_over_r / lam, rel=1e-12)
