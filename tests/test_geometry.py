import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwalk.geometry import (
    CURVATURE,
    DegenerateConfigurationError,
    GeometryKind,
    arccosh_from_excess,
    closed_form_distances,
    construction_distances,
    _frame_vectors,
    _invert_cos,
    _invert_cosh,
)

from conftest import planar_two_step_distance

minkowski_dot = CURVATURE[GeometryKind.HYPERBOLIC].dot

S = GeometryKind.SPHERICAL
H = GeometryKind.HYPERBOLIC

azimuths = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)


def random_configs(seed, n, geometry):
    rng = np.random.default_rng(seed)
    rho_hi = math.pi - 0.01 if geometry is S else 5.0
    return (
        rng.uniform(0.01, rho_hi, n),
        rng.uniform(0.001, 2.0, n),
        rng.uniform(0.0, 2.0 * math.pi, n),
        rng.uniform(0.0, 2.0 * math.pi, n),
    )


# ---------------------------------------------------------------------------
# frames


def build_frames(rho, geometry):
    """``(point, e1, e2)`` of A's and of B's tangent frame at separation rho."""
    e_a, e_b, e1, e2a, e2b = _frame_vectors(np.asarray(float(rho)), geometry)
    return (e_a, e1, e2a), (e_b, e1, e2b)


def test_spherical_frames_orthogonality_at_right_angle():
    (pa, e1a, _), (pb, e1b, _) = build_frames(math.pi / 2, S)
    assert abs(np.dot(pa, pb)) < 1e-12
    assert abs(np.dot(e1a, pa)) < 1e-12
    assert abs(np.dot(e1b, pb)) < 1e-12
    assert np.allclose(e1a, e1b)


def test_hyperbolic_frames_distance_inner_product():
    (pa, _, _), (pb, _, _) = build_frames(1.0, H)
    assert abs(minkowski_dot(pa, pb) - math.cosh(1.0)) < 1e-12


@given(rho=st.floats(min_value=0.01, max_value=math.pi - 0.01))
def test_spherical_frame_gram_matrix(rho):
    for point, e1, e2 in build_frames(rho, S):
        basis = [e1, e2, point]
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                target = 1.0 if i == j else 0.0
                assert abs(np.dot(u, v) - target) < 1e-12


@given(rho=st.floats(min_value=0.01, max_value=19.0))
def test_hyperbolic_frame_gram_matrix(rho):
    # signature: point +1, tangents -1, mixed products vanish; the
    # cancellation in cosh^2 - sinh^2 scales the rounding floor by cosh(rho)
    tol = 1e-12 * (1.0 + math.cosh(rho))
    for point, e1, e2 in build_frames(rho, H):
        assert abs(minkowski_dot(point, point) - 1.0) < tol
        assert point[0] >= 1.0
        for t in (e1, e2):
            assert abs(minkowski_dot(t, t) + 1.0) < tol
            assert abs(minkowski_dot(t, point)) < tol
        assert abs(minkowski_dot(e1, e2)) < tol


def test_frames_degenerate_separations_raise():
    with pytest.raises(DegenerateConfigurationError):
        construction_distances(S, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateConfigurationError):
        construction_distances(S, math.pi, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateConfigurationError):
        construction_distances(H, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        construction_distances(S, 3.5, 0.0, 0.0, 0.0)  # beyond the spherical domain
    with pytest.raises(ValueError):
        construction_distances(H, 25.0, 0.0, 0.0, 0.0)  # beyond the working cap


# ---------------------------------------------------------------------------
# single-step distances: reference values


def both_routes(geometry, rho, lam, phi_a, phi_b):
    """One configuration's post-step separation by each route."""
    return (
        float(construction_distances(geometry, rho, lam, phi_a, phi_b)),
        float(closed_form_distances(geometry, rho, lam, phi_a, phi_b)),
    )


@pytest.mark.parametrize("geometry", [S, H])
def test_common_axis_step_preserves_separation(geometry):
    for d in both_routes(geometry, 0.8, 0.6, 0.0, 0.0):
        assert d == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("geometry", [S, H])
def test_zero_step_preserves_separation(geometry):
    for d in both_routes(geometry, 1.1, 0.0, 2.0, 5.0):
        assert d == pytest.approx(1.1, abs=1e-12)


def test_receding_along_common_geodesic_spherical():
    # opposite azimuths push the agents apart along the connecting geodesic
    for d in both_routes(S, 0.7, 0.2, 0.0, math.pi):
        assert d == pytest.approx(1.1, abs=1e-12)


def test_receding_along_common_geodesic_hyperbolic():
    for d in both_routes(H, 0.7, 0.2, 0.0, math.pi):
        assert d == pytest.approx(1.1, abs=1e-12)


def test_closed_form_smooth_at_zero_separation():
    assert float(closed_form_distances(S, 0.0, 0.4, 1.0, 1.0)) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(DegenerateConfigurationError):
        construction_distances(S, 0.0, 0.4, 1.0, 1.0)


# ---------------------------------------------------------------------------
# closed form vs construction


@pytest.mark.parametrize("geometry,tol", [(S, 1e-12), (H, 1e-9)])
def test_closed_form_matches_construction(geometry, tol):
    rho, lam, pa, pb = random_configs(101, 2000, geometry)
    diff = np.abs(
        construction_distances(geometry, rho, lam, pa, pb)
        - closed_form_distances(geometry, rho, lam, pa, pb)
    )
    assert np.max(diff) <= tol


@pytest.mark.parametrize("geometry,tol", [(S, 1e-12), (H, 1e-9)])
def test_agent_relabeling_symmetry(geometry, tol):
    # swapping the agents maps the azimuths to (pi - phi_b, pi - phi_a);
    # verified against the construction, not just the closed form
    rho, lam, pa, pb = random_configs(55, 1500, geometry)
    base = construction_distances(geometry, rho, lam, pa, pb)
    swapped = construction_distances(
        geometry, rho, lam, math.pi - pb, math.pi - pa
    )
    assert np.max(np.abs(base - swapped)) <= tol
    closed = closed_form_distances(geometry, rho, lam, math.pi - pb, math.pi - pa)
    assert np.max(np.abs(base - closed)) <= tol


@settings(max_examples=60, deadline=None)
@given(
    rho=st.floats(min_value=0.01, max_value=3.0),
    lam=st.floats(min_value=0.0, max_value=2.0),
    pa=azimuths,
    pb=azimuths,
)
def test_spherical_range_and_triangle_bound(rho, lam, pa, pb):
    d = float(closed_form_distances(S, rho, lam, pa, pb))
    assert 0.0 <= d <= math.pi
    assert d <= rho + 2.0 * lam + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    rho=st.floats(min_value=0.01, max_value=5.0),
    lam=st.floats(min_value=0.0, max_value=2.0),
    pa=azimuths,
    pb=azimuths,
)
def test_hyperbolic_range_and_triangle_bound(rho, lam, pa, pb):
    d = float(closed_form_distances(H, rho, lam, pa, pb))
    assert 0.0 <= d <= rho + 2.0 * lam + 1e-9


# ---------------------------------------------------------------------------
# flat limit


@pytest.mark.parametrize("geometry", [S, H])
def test_flat_limit_second_order_convergence(geometry):
    rng = np.random.default_rng(42)
    pa = rng.uniform(0.0, 2.0 * math.pi, 50)
    pb = rng.uniform(0.0, 2.0 * math.pi, 50)
    r, l = 1.0, 0.3
    flat = planar_two_step_distance(r, l, pa, pb)
    errors = []
    for radius in (10.0, 20.0, 40.0):
        curved = radius * closed_form_distances(
            geometry, r / radius, l / radius, pa, pb
        )
        errors.append(np.mean(np.abs(curved - flat)))
    order_1 = math.log2(errors[0] / errors[1])
    order_2 = math.log2(errors[1] / errors[2])
    assert order_1 >= 1.9
    assert order_2 >= 1.9


# ---------------------------------------------------------------------------
# numerics


def test_arccosh_from_excess_matches_mpmath():
    mpmath.mp.dps = 40
    for w in (1e-14, 1e-10, 1e-8, 1e-5, 1e-2, 1.0, 50.0):
        expected = float(mpmath.acosh(mpmath.mpf(1) + mpmath.mpf(w)))
        got = float(arccosh_from_excess(np.asarray(w)))
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-300)


def test_arccosh_from_excess_relative_accuracy_at_tiny_excess():
    # 2 asinh(sqrt(w / 2)) never forms 1 + w, so it stays exact at 60 digits
    mpmath.mp.dps = 60
    eps = np.finfo(float).eps
    for w in (1e-20, 1e-12, 1e-9):
        expected = 2 * mpmath.asinh(mpmath.sqrt(mpmath.mpf(w) / 2))
        got = mpmath.mpf(float(arccosh_from_excess(np.asarray(w))))
        assert abs(got / expected - 1) <= 1.11 * eps


def test_inverse_guards_raise_on_arrays_and_ignore_scale_within_slack():
    with pytest.raises(ValueError):
        _invert_cos(np.array([0.5, -0.2, 1.0 + 2e-12]))
    with pytest.raises(ValueError):
        _invert_cos(np.array([[0.1], [-1.0 - 2e-12]]))
    # the admissible deficit grows with the scale of the formula's terms
    x = np.array([1.0, 1.0 - 5e-12, 2.0])
    with pytest.raises(ValueError):
        _invert_cosh(x, np.array([1.0, 1.0, 1.0]))
    assert _invert_cosh(x, np.array([1.0, 10.0, 1.0]))[1] == 0.0
    assert _invert_cos(np.empty(0)).size == 0
    assert _invert_cosh(np.empty(0), np.empty(0)).size == 0


def test_inverse_guards_flag_numerical_bugs():
    with pytest.raises(ValueError):
        _invert_cos(np.array(1.5))
    with pytest.raises(ValueError):
        _invert_cos(np.array(-1.0 - 1e-9))
    with pytest.raises(ValueError):
        _invert_cosh(np.array(0.5), np.array(1.0))
    # within rounding slack: silently clipped
    assert _invert_cos(np.array(1.0 + 1e-13)) == 0.0
    assert _invert_cosh(np.array(1.0 - 1e-13), np.array(1.0)) == 0.0


def test_domain_caps_enforced():
    for geometry in (S, H):
        with pytest.raises(ValueError):
            closed_form_distances(geometry, -0.1, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            closed_form_distances(geometry, 0.1, -0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        closed_form_distances(S, 3.2, 0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        closed_form_distances(H, 21.0, 0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        closed_form_distances(H, 1.0, 21.0, 0.0, 0.0)
