"""Single geodesic steps on the unit sphere and the unit hyperboloid.

Everything is phrased in units of the curvature radius: ``rho`` is the
scaled separation, ``lam`` the scaled step length, and each agent's step
direction is set by an azimuth in its own tangent frame.

Two independent computation routes are provided:

* an explicit construction -- embed the two agents, build orthonormal
  tangent frames sharing their first vector, move each agent along the
  geodesic selected by its azimuth (a rotation about an axis through the
  sphere's center, or the hyperbolic flow ``e cosh(lam) + t sinh(lam)``),
  then read off the new geodesic separation from the inner product;
* the closed-form step law, written once in half-angle form
  (``_step_distance``), which also covers the degenerate ``rho = 0``
  configuration the construction refuses.  ``closed_form_distances``
  evaluates it at given azimuths and the solver's folded trapezoid on its
  quadrature nodes.

The hyperboloid lives in Minkowski 3-space with signature ``(+, -, -)``:
points satisfy ``<e, e> = 1`` on the upper sheet, unit tangents satisfy
``<t, t> = -1``, and ``cosh(distance) = <e_a, e_b>``.

Frame conventions are pinned so the two routes agree to machine
precision configuration by configuration, not merely on average: the
shared first tangent vector is normal to the plane of the connecting
geodesic, A's second tangent vector points along that geodesic toward B,
and B's points away from A.
"""

from __future__ import annotations

import enum
import math

import numpy as np

TWO_PI = 2.0 * math.pi

#: Working cap for hyperbolic scaled separations and step lengths; far
#: beyond it the curvature radius is tiny compared to the step and the
#: model is physically uninteresting, while cosh() values stay well away
#: from overflow below it.
RHO_CAP = 20.0

#: Tolerated overshoot of inverse-trig arguments due to rounding; larger
#: excursions indicate a genuine numerical bug and raise.
ARG_SLACK = 1e-12

_MINKOWSKI_FLIP = np.array([1.0, -1.0, -1.0])


class GeometryKind(enum.Enum):
    SPHERICAL = "spherical"
    HYPERBOLIC = "hyperbolic"


class DegenerateConfigurationError(ValueError):
    """Separation at which the tangent frames are undefined."""


def minkowski_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner product with signature (+, -, -) over the last axis."""
    return (
        x[..., 0] * y[..., 0] - x[..., 1] * y[..., 1] - x[..., 2] * y[..., 2]
    )


def arccosh_from_excess(w: np.ndarray) -> np.ndarray:
    """``arccosh(1 + w)`` for ``w >= 0``, to full relative accuracy at tiny ``w``.

    Never forming ``1 + w`` keeps small distances, squared downstream, exact."""
    return np.log1p(w + np.sqrt(w * (2.0 + w)))


def _extent(x) -> tuple:
    """``(min, max)`` of a float or an array (``(inf, -inf)`` when empty)."""
    if isinstance(x, float):
        return x, x
    return np.min(x, initial=math.inf), np.max(x, initial=-math.inf)


def _check_domain(geometry: GeometryKind, rho, lam) -> None:
    """Raise unless ``rho`` and ``lam`` (floats or arrays) lie in the domain."""
    rho_lo, rho_hi = _extent(rho)
    lam_lo, lam_hi = _extent(lam)
    if rho_lo < 0.0 or lam_lo < 0.0:
        raise ValueError("rho and lam must be nonnegative")
    if geometry is GeometryKind.SPHERICAL:
        if rho_hi > math.pi:
            raise ValueError("spherical separations cannot exceed pi")
    elif rho_hi > RHO_CAP or lam_hi > RHO_CAP:
        raise ValueError(f"hyperbolic rho and lam are capped at {RHO_CAP}")


def _check_nondegenerate(rho: np.ndarray, geometry: GeometryKind) -> None:
    if np.any(rho <= 0.0):
        raise DegenerateConfigurationError(
            "coincident agents: tangent frames are undefined at rho = 0"
        )
    if geometry is GeometryKind.SPHERICAL and np.any(rho >= math.pi):
        raise DegenerateConfigurationError(
            "antipodal agents: tangent frames are undefined at rho = pi"
        )


def _embedded_pair(
    rho: np.ndarray, geometry: GeometryKind
) -> tuple[np.ndarray, np.ndarray]:
    """Place the agents symmetrically about the x-axis at separation rho."""
    half = 0.5 * np.asarray(rho, dtype=float)
    zeros = np.zeros_like(half)
    if geometry is GeometryKind.SPHERICAL:
        e_a = np.stack([np.cos(half), np.sin(half), zeros], axis=-1)
        e_b = np.stack([np.cos(half), -np.sin(half), zeros], axis=-1)
    else:
        e_a = np.stack([np.cosh(half), np.sinh(half), zeros], axis=-1)
        e_b = np.stack([np.cosh(half), -np.sinh(half), zeros], axis=-1)
    return e_a, e_b


def _frame_vectors(
    rho: np.ndarray, geometry: GeometryKind
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Embedded points plus (e1, e2a, e2b); rho must be non-degenerate."""
    e_a, e_b = _embedded_pair(rho, geometry)
    if geometry is GeometryKind.SPHERICAL:
        raw = np.cross(e_b, e_a)
        norm = np.linalg.norm(raw, axis=-1, keepdims=True)
        e1 = raw / norm
        e2a = np.cross(e_a, e1)
        e2b = np.cross(e_b, e1)
    else:
        raw = _MINKOWSKI_FLIP * np.cross(e_a, e_b)
        norm = np.sqrt(-minkowski_dot(raw, raw))[..., None]
        e1 = raw / norm
        e2a = _MINKOWSKI_FLIP * np.cross(e1, e_a)
        e2b = _MINKOWSKI_FLIP * np.cross(e1, e_b)
    return e_a, e_b, e1, e2a, e2b


def _rotate_about(v: np.ndarray, axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of ``v`` about the unit vector ``axis``."""
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    axial = np.sum(axis * v, axis=-1, keepdims=True)
    return v * c + np.cross(axis, v) * s + axis * axial * (1.0 - c)


def _invert_cos(x: np.ndarray) -> np.ndarray:
    excess = np.max(np.abs(x), initial=0.0) - 1.0
    if excess > ARG_SLACK:
        raise ValueError(
            "cosine of a distance strayed outside [-1, 1] beyond rounding "
            f"slack (max excess {excess:.3e}); numerical bug"
        )
    return np.arccos(np.clip(x, -1.0, 1.0))


def _invert_cosh(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    # Rounding in the formula scales with its dominant term, so the
    # admissible undershoot of 1 does too.  ``scale >= 1``, so a minimum
    # within ``ARG_SLACK`` of 1 passes without the per-element test.
    if np.min(x, initial=1.0) < 1.0 - ARG_SLACK:
        under = np.max(1.0 - x - ARG_SLACK * (1.0 + scale), initial=0.0)
        if under > 0.0:
            raise ValueError(
                "cosh of a distance dipped below 1 beyond rounding slack "
                f"(max deficit {under:.3e} past the slack); numerical bug"
            )
    return arccosh_from_excess(np.maximum(x - 1.0, 0.0))


def construction_distances(
    geometry: GeometryKind,
    rho: np.ndarray,
    lam: np.ndarray,
    phi_a: np.ndarray,
    phi_b: np.ndarray,
) -> np.ndarray:
    """Vectorized frame-and-rotation route to the post-step separation."""
    rho, lam, phi_a, phi_b = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (rho, lam, phi_a, phi_b))
    )
    _check_domain(geometry, rho, lam)
    _check_nondegenerate(rho, geometry)
    e_a, e_b, e1, e2a, e2b = _frame_vectors(rho, geometry)
    cos_a = np.cos(phi_a)[..., None]
    sin_a = np.sin(phi_a)[..., None]
    cos_b = np.cos(phi_b)[..., None]
    sin_b = np.sin(phi_b)[..., None]
    if geometry is GeometryKind.SPHERICAL:
        axis_a = e1 * cos_a + e2a * sin_a
        axis_b = e1 * cos_b + e2b * sin_b
        moved_a = _rotate_about(e_a, axis_a, lam)
        moved_b = _rotate_about(e_b, axis_b, lam)
        return _invert_cos(np.sum(moved_a * moved_b, axis=-1))
    tangent_a = e1 * sin_a - e2a * cos_a
    tangent_b = e1 * sin_b - e2b * cos_b
    ch = np.cosh(lam)[..., None]
    sh = np.sinh(lam)[..., None]
    moved_a = e_a * ch + tangent_a * sh
    moved_b = e_b * ch + tangent_b * sh
    scale = np.cosh(rho) * np.cosh(lam) ** 2
    return _invert_cosh(minkowski_dot(moved_a, moved_b), scale)


def _step_distance(
    geometry: GeometryKind,
    rho: np.ndarray,
    lam: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Post-step separation by the half-angle step law (broadcasting).

        cos d = C - G [(C + 1) u^2 + (C - 1) v^2] + X u v
        u = sin((phi_a - phi_b) / 2),  v = sin((phi_a + phi_b) / 2)

    with ``C = cos rho``, ``G = sin^2 lam``, ``X = 2 sin rho cos lam sin lam``
    on the sphere, and ``C = cosh rho``, ``G = -sinh^2 lam``,
    ``X = -2 sinh rho cosh lam sinh lam`` (giving ``cosh d``) on the
    hyperboloid.  In this form distance 0 and the antipode come out exact;
    a sum of cosine products can land an ulp off at ``d = pi``, which
    arccos turns into an error of ~1e-8 in ``d``.
    """
    if geometry is GeometryKind.SPHERICAL:
        c, s, cl, sl = np.cos(rho), np.sin(rho), np.cos(lam), np.sin(lam)
        g, cross = sl * sl, 2.0 * s * cl * sl
    else:
        c, s, cl, sl = np.cosh(rho), np.sinh(rho), np.cosh(lam), np.sinh(lam)
        g, cross = -(sl * sl), -2.0 * s * cl * sl
    x = c - g * ((c + 1.0) * u * u + (c - 1.0) * v * v) + cross * u * v
    if geometry is GeometryKind.SPHERICAL:
        return _invert_cos(x)
    return _invert_cosh(x, c * cl * cl)


def closed_form_distances(
    geometry: GeometryKind,
    rho: np.ndarray,
    lam: np.ndarray,
    phi_a: np.ndarray,
    phi_b: np.ndarray,
) -> np.ndarray:
    """Vectorized closed-form step law (``_step_distance``); smooth at ``rho = 0``."""
    rho, lam, phi_a, phi_b = (
        np.asarray(a, dtype=float) for a in (rho, lam, phi_a, phi_b)
    )
    _check_domain(geometry, rho, lam)
    u = np.sin(0.5 * (phi_a - phi_b))
    v = np.sin(0.5 * (phi_a + phi_b))
    return _step_distance(geometry, rho, lam, u, v)
