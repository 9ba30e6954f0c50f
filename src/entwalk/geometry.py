"""Single geodesic steps on the unit sphere and the unit hyperboloid.

Everything is phrased in units of the curvature radius: ``rho`` is the
scaled separation, ``lam`` the scaled step length, and each agent's step
direction is set by an azimuth in its own tangent frame.  The two
surfaces differ only in the sign ``k`` of their curvature.  One frozen
record per geometry, ``CURVATURE[kind]``, holds what that sign decides
(``Curvature``); only the inverse of the distance law (``arccos`` or
``arccosh``) and the sphere's crease split stay per geometry.

Two independent computation routes are provided:

* an explicit construction -- embed the two agents, build orthonormal
  tangent frames sharing their first vector, move each agent along the
  geodesic its azimuth selects, one flow for both surfaces:
  ``e cn(lam) + (e1 sin(phi) - e2 cos(phi)) sn(lam)``; then read off the
  new separation from ``cn(d) = <a', b'>_J``;
* the closed-form step law, written once in half-angle form
  (``_step_distance``), which also covers the degenerate ``rho = 0``
  configuration the construction refuses.  ``closed_form_distances``
  evaluates it at given azimuths and the solver's folded trapezoid on its
  quadrature nodes.

Points satisfy ``<e, e>_J = 1`` and unit tangents ``<t, t>_J = k``, with
``J = (1, 1, 1)`` on the sphere and the Minkowski signature ``(1, -1, -1)``
on the hyperboloid's upper sheet.

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


class GeometryKind(enum.Enum):
    SPHERICAL = "spherical"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True, eq=False)
class Curvature:
    """What the sign ``k`` of the curvature decides for one geometry.

    Besides ``sn``, ``cn``, ``tn`` and the metric ``J``: the domain caps,
    whether ``rho_max`` is an antipode, the solver's root-scan cap, the
    ``lam`` grid floor and the ``[lo, hi]`` range of paired weights.
    """

    k: float
    sn: np.ufunc
    cn: np.ufunc
    tn: np.ufunc
    metric: np.ndarray
    rho_max: float
    lam_max: float
    antipodal: bool
    scan_max: float
    lam_floor: float
    weights: tuple[float, float]

    def dot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Inner product ``<x, y>_J`` over the last axis."""
        return np.sum(self.metric * x * y, axis=-1)


CURVATURE = {
    GeometryKind.SPHERICAL: Curvature(
        k=1.0, sn=np.sin, cn=np.cos, tn=np.tan, metric=np.array([1.0, 1.0, 1.0]),
        rho_max=math.pi, lam_max=math.inf, antipodal=True,
        scan_max=math.pi, lam_floor=0.02, weights=(1.0, 2.0),
    ),
    GeometryKind.HYPERBOLIC: Curvature(
        k=-1.0, sn=np.sinh, cn=np.cosh, tn=np.tanh, metric=np.array([1.0, -1.0, -1.0]),
        rho_max=RHO_CAP, lam_max=RHO_CAP, antipodal=False,
        scan_max=10.0, lam_floor=0.05, weights=(2.0, 3.0),
    ),
}


class DegenerateConfigurationError(ValueError):
    """Separation at which the tangent frames are undefined."""


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
    c = CURVATURE[geometry]
    rho_lo, rho_hi = _extent(rho)
    lam_lo, lam_hi = _extent(lam)
    if rho_lo < 0.0 or lam_lo < 0.0:
        raise ValueError("rho and lam must be nonnegative")
    if rho_hi > c.rho_max or lam_hi > c.lam_max:
        raise ValueError(
            f"{geometry.value} rho is capped at {c.rho_max:g} and lam at {c.lam_max:g}"
        )


def _check_nondegenerate(rho: np.ndarray, geometry: GeometryKind) -> None:
    c = CURVATURE[geometry]
    if np.any(rho <= 0.0) or (c.antipodal and np.any(rho >= c.rho_max)):
        raise DegenerateConfigurationError(
            "coincident or antipodal agents: tangent frames are undefined"
        )


def _frame_vectors(
    rho: np.ndarray, geometry: GeometryKind
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Embedded points plus (e1, e2a, e2b); rho must be non-degenerate.

    ``e1 = -k J(e_a x e_b) / sqrt(k <raw, raw>_J)`` and ``e2 = -k J(e1 x e)``.
    """
    c = CURVATURE[geometry]
    half = 0.5 * np.asarray(rho, dtype=float)
    zeros = np.zeros_like(half)
    e_a = np.stack([c.cn(half), c.sn(half), zeros], axis=-1)
    e_b = np.stack([c.cn(half), -c.sn(half), zeros], axis=-1)
    flip = -c.k * c.metric
    raw = flip * np.cross(e_a, e_b)
    e1 = raw / np.sqrt(c.k * c.dot(raw, raw))[..., None]
    return e_a, e_b, e1, flip * np.cross(e1, e_a), flip * np.cross(e1, e_b)


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


def _invert(c: Curvature, x: np.ndarray, scale) -> np.ndarray:
    """The distance whose ``cn`` is ``x``; ``scale`` sizes arccosh's slack."""
    return _invert_cos(x) if c.k > 0.0 else _invert_cosh(x, scale)


def construction_distances(
    geometry: GeometryKind,
    rho: np.ndarray,
    lam: np.ndarray,
    phi_a: np.ndarray,
    phi_b: np.ndarray,
) -> np.ndarray:
    """Vectorized frame-and-flow route to the post-step separation."""
    rho, lam, phi_a, phi_b = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (rho, lam, phi_a, phi_b))
    )
    _check_domain(geometry, rho, lam)
    _check_nondegenerate(rho, geometry)
    c = CURVATURE[geometry]
    e_a, e_b, e1, e2a, e2b = _frame_vectors(rho, geometry)
    cl = c.cn(lam)[..., None]
    sl = c.sn(lam)[..., None]
    moved = [
        e * cl + (e1 * np.sin(phi)[..., None] - e2 * np.cos(phi)[..., None]) * sl
        for e, e2, phi in ((e_a, e2a, phi_a), (e_b, e2b, phi_b))
    ]
    return _invert(c, c.dot(*moved), c.cn(rho) * c.cn(lam) ** 2)


def _step_distance(
    geometry: GeometryKind,
    rho: np.ndarray,
    lam: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Post-step separation by the half-angle step law (broadcasting).

        cn d = C - G [(C + 1) u^2 + (C - 1) v^2] + X u v
        u = sin((phi_a - phi_b) / 2),  v = sin((phi_a + phi_b) / 2)

    with ``C = cn rho``, ``G = k sn^2 lam`` and ``X = 2 k sn rho cn lam
    sn lam``.  In this form distance 0 and the antipode come out exact;
    a sum of cosine products can land an ulp off at ``d = pi``, which
    arccos turns into an error of ~1e-8 in ``d``.
    """
    c = CURVATURE[geometry]
    cr, s, cl, sl = c.cn(rho), c.sn(rho), c.cn(lam), c.sn(lam)
    g, cross = c.k * (sl * sl), c.k * 2.0 * s * cl * sl
    x = cr - g * ((cr + 1.0) * u * u + (cr - 1.0) * v * v) + cross * u * v
    return _invert(c, x, cr * cl * cl)


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
