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
* the closed-form trigonometric step law, the smooth limit of which also
  covers the degenerate ``rho = 0`` configuration the construction
  refuses.

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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Frame:
    """Embedded point with its two tangent basis vectors."""

    point: np.ndarray
    e1: np.ndarray
    e2: np.ndarray


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


def build_frames(rho: float, geometry: GeometryKind) -> tuple[Frame, Frame]:
    """Tangent frames for two agents at scaled separation ``rho``.

    The first tangent vector is common to both frames and normal to the
    plane of the connecting geodesic; the second vectors complete each
    frame (A's pointing toward B, B's pointing away from A).

    Raises :class:`DegenerateConfigurationError` at ``rho = 0`` and, on
    the sphere, at ``rho = pi``.
    """
    rho_arr = np.asarray(float(rho))
    _check_domain(geometry, rho_arr, np.asarray(0.0))
    _check_nondegenerate(rho_arr, geometry)
    e_a, e_b, e1, e2a, e2b = _frame_vectors(rho_arr, geometry)
    return Frame(e_a, e1, e2a), Frame(e_b, e1, e2b)


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


def closed_form_distances(
    geometry: GeometryKind,
    rho: np.ndarray,
    lam: np.ndarray,
    phi_a: np.ndarray,
    phi_b: np.ndarray,
) -> np.ndarray:
    """Vectorized closed-form step law; smooth at ``rho = 0``."""
    rho = np.asarray(rho, dtype=float)
    lam = np.asarray(lam, dtype=float)
    phi_a = np.asarray(phi_a, dtype=float)
    phi_b = np.asarray(phi_b, dtype=float)
    _check_domain(geometry, rho, lam)
    if geometry is GeometryKind.SPHERICAL:
        # Half-angle form: at the antipode (d = pi) it gives cos d = -1
        # exactly.  A sum of cosine products can land an ulp off there,
        # which arccos turns into an error of ~1e-8 in d.
        sl = np.sin(lam)
        cl = np.cos(lam)
        cr = np.cos(rho)
        u = np.sin(0.5 * (phi_a - phi_b))
        v = np.sin(0.5 * (phi_a + phi_b))
        x = (
            cr
            - sl * sl * ((cr + 1.0) * u * u + (cr - 1.0) * v * v)
            + 2.0 * np.sin(rho) * cl * sl * u * v
        )
        return _invert_cos(x)
    cos_a = np.cos(phi_a)
    cos_b = np.cos(phi_b)
    sin_ab = np.sin(phi_a) * np.sin(phi_b)
    sl = np.sinh(lam)
    cl = np.cosh(lam)
    x = (
        np.cosh(rho) * (cl * cl - cos_a * cos_b * sl * sl)
        - np.sinh(rho) * (cos_b - cos_a) * cl * sl
        - sin_ab * sl * sl
    )
    return _invert_cosh(x, np.cosh(rho) * cl * cl)

