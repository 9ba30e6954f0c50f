"""Implicit curvature-radius equations for the correlated walk.

The curved single-step law replaces correlated signs by geometry: both
agents move a scaled step ``lam`` in independent uniformly random tangent
azimuths, and the angle-averaged squared separation

    F(rho, lam) = < distance(rho, lam, phi_a, phi_b)^2 >

is matched against the planar law ``rho^2 + w lam^2``.  ``w`` is the
protocol weight from :mod:`entwalk.walk`: the sphere pairs with the
attractive rule (``w = 2 - p``), the hyperboloid with the repulsive one
(``w = 2 + p``).

``F`` is evaluated by nested tanh-sinh quadrature (``_nested_mean``):
the outer integral runs over B's step azimuth, the inner one over A's
step taken from B's new position.  On the sphere the squared distance
has a crease where A's step can reach B's antipode; the outer integral
is split there, and the double-exponential node clustering at the ends
of each piece keeps the rule's accuracy at the crease.  The folded
periodic trapezoid ``_quad_mean`` stays as an independent second route.
Certification re-evaluates each root's residual on twice the nodes and,
should that fail, re-solves it on doubled grids.

Solution points of

    Phi(rho, lam) = F(rho, lam) - rho^2 - w lam^2 = 0

form one graph ``rho(lam)``: below the axis crossing ``Phi`` changes sign
exactly once in ``rho`` at each ``lam``.  A coarse guard scan over ``rho``
brackets that root; a ``lam`` whose scan changes sign more or less than
once has no point.  Every root, the axis crossing and the intercept
included, is solved inside a sign-change bracket by ``_illinois`` (Dowell
& Jarratt); an escalating point is re-solved over its ``lam``'s whole
``rho`` range.  ``curve`` and ``threshold`` both read ``certified_curve``
and exit by its one verdict, ``CertifiedCurve.ok``.

The small-step expansion ``F = rho^2 + lam^2 (1 + rho cot(rho)) + O(lam^4)``
(``coth`` on the hyperboloid) serves as an independent analytic oracle;
the test suite re-derives it from quadrature fits before trusting it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CURVATURE,
    GeometryKind,
    _check_domain,
    _invert_cos,
    _step_distance,
    arccosh_from_excess,
)

DEFAULT_BISECT_TOL = 1e-10
_ILLINOIS_MAX_ITER = 80
CERTIFICATION_TOL = 1e-8

#: The paper's threshold on ``l / r``; ``threshold`` compares the infimum with it.
PAPER_RATIO = 0.64

#: Escalation cap for per-point certification refinement.
MAX_CERTIFY_NODES = 2048

#: Default traced lam grid: this many points from the geometry's lower
#: end, ``Curvature.lam_floor``, up to 98% of the axis crossing.
DEFAULT_LAMBDA_STEPS = 32

#: ``rho`` panels per ``lam`` of the guard scan; each panel ``Phi`` changes
#: sign across holds one root of ``trace_curve``.
_GUARD_PANELS = 64

# Quadrature temporaries hold at most this many float64 elements (64 KiB),
# under glibc's default mmap threshold of 128 KiB: temporaries that size or
# larger are mapped and page-faulted afresh on every call.
_CHUNK_BUDGET = 1 << 13


@dataclass(frozen=True)
class QuadratureSpec:
    """About ``nodes_per_axis`` nodes per azimuth axis: ``F`` uses the
    ``2m + 1``-node tanh-sinh rule, ``m = nodes_per_axis // 4``, on each piece."""

    nodes_per_axis: int = 128

    def __post_init__(self) -> None:
        n = self.nodes_per_axis
        if not (isinstance(n, (int, np.integer)) and n >= 16 and n % 2 == 0):
            raise ValueError(
                f"nodes_per_axis must be an even integer >= 16, got {n!r}"
            )
        object.__setattr__(self, "nodes_per_axis", int(n))


@dataclass(frozen=True)
class CurvatureProblem:
    """Geometry plus the mean-square step-law weight on the right-hand side."""

    geometry: GeometryKind
    w: float

    def __post_init__(self) -> None:
        lo, hi = CURVATURE[self.geometry].weights
        if not (lo <= self.w <= hi):
            raise ValueError(
                f"{self.geometry.value} problems pair with weights in "
                f"[{lo}, {hi}], got {self.w}"
            )


@dataclass(frozen=True)
class CurvePoint:
    lam: float
    rho: float
    residual: float


@dataclass(frozen=True)
class CurvatureCurve:
    """Traced solution points of one curvature problem."""

    points: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class CertifiedCurve:
    """A traced curve after per-point refinement, with certification data.

    ``certified[i]`` is the residual of ``curve.points[i]`` re-evaluated
    on twice the nodes the point was solved on; ``nodes[i]`` is that
    solving resolution, ``QuadratureSpec.nodes_per_axis``.  ``ok`` is true
    when every point certifies; from ``certified_curve`` it also needs a
    certified axis crossing and a point at every grid ``lam`` below it.
    """

    curve: CurvatureCurve
    certified: np.ndarray
    nodes: np.ndarray
    ok: bool


@dataclass(frozen=True)
class ThresholdReport:
    """Endpoints and ratio bounds extracted from the certified curve.

    ``ratio_extrema`` is ``(inf, sup)`` of ``lam / rho`` over the rows
    ``curve`` prints; ``nu_slope`` is the slope between the two
    smallest-``lam`` hyperbolic points, so it depends on the grid.  Fields
    are ``None`` when no root exists in the scan range.  ``status`` compares
    the infimum with ``PAPER_RATIO``; ``ok`` is the curve's verdict,
    ``CertifiedCurve.ok``.
    """

    geometry: GeometryKind
    w: float
    lambda_star: float | None
    rho0: float | None
    ratio_extrema: tuple[float, float] | None
    nu_slope: float | None
    status: str
    ok: bool


@dataclass(frozen=True)
class Figure3Point:
    l_over_r: float
    R_over_r: float


def _quad_mean(
    geometry: GeometryKind, rho: np.ndarray, lam: np.ndarray, n: int
) -> np.ndarray:
    """Folded periodic trapezoid of ``F`` on the n x n azimuth grid.

    In the sum and difference indices ``s = i + j``, ``t = i - j`` (mod n)
    the half-angles of ``geometry._step_distance`` are ``u = sin(pi t / n)``
    and ``v = +-sin(pi s / n)``.  The two signs are the nodes ``(i, j)`` and
    ``(i + n/2, j + n/2)``; only ``0 <= s, t <= n/2`` with ``s = t (mod 2)``
    is evaluated, each node weighted by the size of its orbit.  Spectral
    where the integrand is smooth, algebraic at the spherical crease: the
    independent reference route.
    """
    half = n // 2
    out = np.zeros(rho.size)
    for parity in (0, 1):
        k = np.arange(parity, half + 1, 2)
        u = np.sin(math.pi * k / n)
        weight = np.where((k == 0) | (k == half), 1.0, 2.0)
        pts = max(1, _CHUNK_BUDGET // (k.size * k.size))
        for lo in range(0, rho.size, pts):
            sel = slice(lo, lo + pts)
            r, l = rho[sel, None, None], lam[sel, None, None]
            # s runs along axis 1, t along axis 2
            d_plus = _step_distance(geometry, r, l, u, u[:, None])
            d_minus = _step_distance(geometry, r, l, u, -u[:, None])
            sq = d_plus * d_plus + d_minus * d_minus
            out[sel] += np.einsum("kst,s,t->k", sq, weight, weight)
    return out / (n * n)


@functools.cache
def _tanh_sinh(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes ``t``, weights and ``1 - cos(pi t)`` of tanh-sinh on [0, 1].

    ``t = (1 + x) / 2``, ``x = tanh(pi/2 sinh(kh))``, ``k = -m .. m``, ``h = 3.2 / m``.
    """
    kh = (3.2 / m) * np.arange(-m, m + 1)
    u = 0.5 * math.pi * np.sinh(kh)
    t = 1.0 / (1.0 + np.exp(-2.0 * u))
    w = (0.8 / m) * math.pi * np.cosh(kh) / np.cosh(u) ** 2
    rule = (t, w, 2.0 * np.sin(0.5 * math.pi * t) ** 2)
    for a in rule:  # cached and shared by every caller
        a.flags.writeable = False
    return rule


def _nested_mean(
    geometry: GeometryKind, rho: np.ndarray, lam: np.ndarray, m: int
) -> np.ndarray:
    """``F`` for ``lam > 0`` by nested tanh-sinh quadrature, ``2m + 1`` nodes a piece.

        F = (1/pi) int_0^pi h(theta(phi)) dphi,  h = (1/pi) int_0^pi d^2 dalpha
        cos theta = cos rho cos lam + sin rho sin lam cos phi
        cos d = cos lam cos theta + sin lam sin theta cos alpha

    (``cosh``, ``sinh`` and minus signs on the hyperboloid, both laws kept
    in excess form there).  One row per outer node holds ``cos d = P + Q
    (1 - cos alpha)`` (``cosh d - 1`` on the hyperboloid).  On the sphere
    ``h`` kinks at ``theta = pi - lam``, ``cos phi* = -cos lam (1 + cos rho)
    / (sin rho sin lam)``; where that lies in (-1, 1) the outer integral is
    split there.  The node clustering at the ends of each piece resolves
    the kink and the inner near-cone at ``alpha = pi``.
    """
    spherical = geometry is GeometryKind.SPHERICAL
    c = CURVATURE[geometry]
    t, w, v = _tanh_sinh(m)
    pts = max(1, _CHUNK_BUDGET // (2 * t.size))
    if rho.size > pts:
        return np.concatenate(
            [_nested_mean(geometry, rho[i : i + pts], lam[i : i + pts], m)
             for i in range(0, rho.size, pts)]
        )
    owner = np.arange(rho.size)
    lo = np.zeros(rho.size)
    span = np.full(rho.size, math.pi)
    sr, sl = c.sn(rho), c.sn(lam)
    if spherical:
        num, den = -np.cos(lam) * (1.0 + np.cos(rho)), sr * sl  # cos phi*
        split = np.flatnonzero(np.abs(num) < den)
        phi_star = np.arccos(num[split] / den[split])
        span[split] = phi_star
        owner = np.concatenate([owner, split])
        lo = np.concatenate([lo, phi_star])
        span = np.concatenate([span, math.pi - phi_star])

    # one row per outer node
    phi = (lo[:, None] + span[:, None] * t).ravel()
    row_w = (span[:, None] * (w / math.pi)).ravel()
    owner = np.repeat(owner, t.size)
    half_sq = np.sin(0.5 * phi) ** 2
    slope, sin_l = (sr * sl)[owner], sl[owner]
    if spherical:
        # (1 - cos theta) / 2 and (1 + cos theta) / 2, sums of squares
        a = (np.sin(0.5 * (rho - lam)) ** 2)[owner] + slope * half_sq
        b = (np.cos(0.5 * (rho + lam)) ** 2)[owner] + slope * (1.0 - half_sq)
        q = -2.0 * sin_l * np.sqrt(a * b)
        p = np.cos(lam)[owner] * (b - a) - q
    else:
        # cosh theta - 1
        excess = 2.0 * ((np.sinh(0.5 * (rho - lam)) ** 2)[owner] + slope * half_sq)
        p = 2.0 * np.sinh(0.5 * (arccosh_from_excess(excess) - lam[owner])) ** 2
        q = sin_l * np.sqrt(excess * (2.0 + excess))

    h = np.empty(phi.size)
    rows = max(1, _CHUNK_BUDGET // t.size)
    for i in range(0, phi.size, rows):
        x = np.multiply.outer(q[i : i + rows], v)
        x += p[i : i + rows, None]
        d = _invert_cos(x) if spherical else arccosh_from_excess(x)
        d *= d
        h[i : i + rows] = d @ w
    return np.bincount(owner, weights=row_w * h, minlength=rho.size)


def mean_sq_step(
    geometry: GeometryKind,
    rho,
    lam,
    quad: QuadratureSpec = QuadratureSpec(),
):
    """Angle-averaged squared step distance ``F(rho, lam)``.

    ``rho`` and ``lam`` are floats or broadcastable arrays; ``F`` comes from
    ``_nested_mean`` with ``m = nodes_per_axis // 4``.  A zero step gives
    ``rho**2`` exactly.
    """
    m = quad.nodes_per_axis // 4
    if np.ndim(rho) == 0 and np.ndim(lam) == 0:
        rho, lam = float(rho), float(lam)
        _check_domain(geometry, rho, lam)
        if lam == 0.0:
            return rho * rho
        return float(_nested_mean(geometry, np.array([rho]), np.array([lam]), m)[0])

    rho_b, lam_b = np.broadcast_arrays(
        np.asarray(rho, dtype=float), np.asarray(lam, dtype=float)
    )
    _check_domain(geometry, rho_b, lam_b)
    out = rho_b * rho_b
    moving = lam_b > 0.0
    out[moving] = _nested_mean(geometry, rho_b[moving], lam_b[moving], m)
    return out


def small_lambda_series(geometry: GeometryKind, rho):
    """Coefficient of ``lam**2`` in ``F``: ``1 + rho / tn(rho)`` (cot or coth)."""
    c = CURVATURE[geometry]
    rho_in = np.asarray(rho, dtype=float)
    if np.any(rho_in <= 0.0):
        raise ValueError("series coefficient requires rho > 0")
    if c.antipodal and np.any(rho_in >= c.rho_max):
        raise ValueError("the series coefficient is singular at the antipode")
    coef = 1.0 + rho_in / c.tn(rho_in)
    if rho_in.ndim == 0:
        return float(coef)
    return coef


def residual(
    problem: CurvatureProblem,
    rho,
    lam,
    quad: QuadratureSpec = QuadratureSpec(),
):
    """``Phi = F(rho, lam) - rho^2 - w lam^2``; zero at solution points."""
    f = mean_sq_step(problem.geometry, rho, lam, quad)
    if isinstance(f, float):
        rho, lam = float(rho), float(lam)
    else:
        rho, lam = np.asarray(rho, dtype=float), np.asarray(lam, dtype=float)
    return f - (rho * rho + problem.w * lam * lam)


def _illinois(f, a, b, fa, fb) -> float:
    """Bracketed scalar root by the Illinois variant of regula falsi.

    Stops once the bracket is ``DEFAULT_BISECT_TOL`` wide, relative to the
    root where that is below 1, so ``1 / rho`` keeps its digits at small
    ``rho``.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    for _ in range(_ILLINOIS_MAX_ITER):
        x = b - fb * (b - a) / (fb - fa)
        # keep strictly inside; fall back to bisection steps if stuck
        if not (min(a, b) < x < max(a, b)):
            x = 0.5 * (a + b)
        tol = DEFAULT_BISECT_TOL * min(1.0, abs(x))
        fx = float(f(x))
        if fx == 0.0 or abs(b - a) <= tol:
            return x
        if (fx > 0) == (fb > 0):
            b, fb = x, fx
            fa *= 0.5
        else:
            a, fa = b, fb
            b, fb = x, fx
        if abs(b - a) <= tol:
            return 0.5 * (a + b)
    return 0.5 * (a + b)


def make_lambda_grid(
    problem: CurvatureProblem,
    lambda_star: float | None,
    lambda_min: float | None,
    lambda_max: float | None,
    steps: int,
) -> np.ndarray:
    """The ``lam`` grid that ``curve`` and ``threshold`` trace.

    ``steps`` evenly spaced values from ``lambda_min`` to ``lambda_max``.
    Either bound may be ``None`` on its own: ``lambda_min`` then
    defaults to 0.02 on the sphere and 0.05 on the hyperboloid, or to
    half the axis crossing ``lambda_star`` where that is smaller, and
    ``lambda_max`` to 98% of ``lambda_star``, or to half the scan range
    when there is no crossing.
    """
    if lambda_min is None:
        lambda_min = CURVATURE[problem.geometry].lam_floor
        if lambda_star is not None:
            lambda_min = min(lambda_min, 0.5 * lambda_star)
    if lambda_max is None:
        if lambda_star is not None:
            lambda_max = 0.98 * lambda_star
        else:
            lambda_max = CURVATURE[problem.geometry].scan_max / 2.0
    if not lambda_max > lambda_min:
        raise ValueError("lambda grid is empty: need lambda_max > lambda_min")
    if steps < 2:
        raise ValueError("lambda_steps must be at least 2")
    return np.linspace(lambda_min, lambda_max, steps)


def trace_curve(
    problem: CurvatureProblem,
    lambda_grid,
    quad: QuadratureSpec = QuadratureSpec(),
) -> CurvatureCurve:
    """Solution points ``rho(lam)`` over a strictly increasing ``lambda_grid``.

    The guard evaluates the residual on ``_GUARD_PANELS`` ``rho`` panels at
    every grid value in one call.  A panel across which it changes sign,
    or whose lower node it vanishes at, holds a root.  A ``lam`` with
    exactly one such panel gets one point, solved by ``_illinois`` from
    the row's values at the panel ends; any other ``lam`` gets none.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda_grid must be a nonempty 1-D sequence")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("lambda_grid must be strictly increasing")
    if np.any(grid <= 0.0):
        raise ValueError("lambda_grid values must be positive")

    nodes = np.linspace(0.0, CURVATURE[problem.geometry].rho_max, _GUARD_PANELS + 1)
    guard = residual(problem, nodes[None, :], grid[:, None], quad)
    found: list[tuple[float, float]] = []
    for lam, row in zip(grid.tolist(), guard):
        sign = np.sign(row)
        cross = np.flatnonzero((sign[:-1] == 0.0) | (sign[:-1] * sign[1:] < 0.0))
        if cross.size == 1:
            i = cross[0]
            phi = functools.partial(residual, problem, lam=lam, quad=quad)
            rho = _illinois(phi, nodes[i], nodes[i + 1], row[i], row[i + 1])
            found.append((lam, rho))

    if not found:
        return CurvatureCurve(())
    lam_arr, rho_arr = (np.array(col) for col in zip(*found))
    res = residual(problem, rho_arr, lam_arr, quad)
    return CurvatureCurve(
        tuple(
            CurvePoint(lam=lam, rho=float(rho), residual=float(r))
            for (lam, rho), r in zip(found, res)
        )
    )


def _certify_root(phi, solve, x: float, res: float | None, n: int):
    """Certify one root ``x`` of ``phi``, escalating where needed.

    ``phi(x, n)`` is the residual on ``QuadratureSpec(n)``; ``x`` was solved
    on ``n``, with residual ``res``.  The root certifies when its residual
    on ``2n`` is within ``CERTIFICATION_TOL``; otherwise ``solve(f, 2n)``,
    ``f`` the residual on ``2n``, re-solves it there and it is checked
    again, up to ``MAX_CERTIFY_NODES`` or until ``solve`` returns None.
    Returns ``(x, res, cert, n)``, ``n`` the rule ``x`` was solved on.
    """
    while True:
        cert = float(phi(x, 2 * n))
        if abs(cert) <= CERTIFICATION_TOL or n >= MAX_CERTIFY_NODES:
            return x, res, cert, n
        refined = solve(lambda y: phi(y, 2 * n), 2 * n)
        if refined is None:
            return x, res, cert, n
        x, n = refined, 2 * n
        res = float(phi(x, n))


def certify_curve(
    problem: CurvatureProblem,
    curve: CurvatureCurve,
    quad: QuadratureSpec = QuadratureSpec(),
) -> CertifiedCurve:
    """Certify every traced point by ``_certify_root``, from ``quad`` up.

    An escalating point is re-solved by ``_illinois`` over its ``lam``'s
    whole range ``[0, rho_max]``, which holds its only root below the axis
    crossing; the re-solve finds none when ``Phi`` has one sign at both
    ends.  ``ok`` is true when every point certifies.
    """
    hi = CURVATURE[problem.geometry].rho_max

    def resolve(f, n):
        fa, fb = f(0.0), f(hi)
        if fa and fb and (fa > 0.0) == (fb > 0.0):
            return None
        return _illinois(f, 0.0, hi, fa, fb)

    done = [
        _certify_root(
            lambda x, n, lam=pt.lam: residual(problem, x, lam, QuadratureSpec(n)),
            resolve, pt.rho, pt.residual, quad.nodes_per_axis,
        )
        for pt in curve.points
    ]
    certified = np.array([cert for _, _, cert, _ in done])
    return CertifiedCurve(
        curve=CurvatureCurve(tuple(
            CurvePoint(lam=pt.lam, rho=rho, residual=res)
            for pt, (rho, res, _, _) in zip(curve.points, done)
        )),
        certified=certified,
        nodes=np.array([n for *_, n in done], dtype=int),
        ok=bool(np.all(np.abs(certified) <= CERTIFICATION_TOL)),
    )


def axis_crossing(
    problem: CurvatureProblem, quad: QuadratureSpec = QuadratureSpec()
) -> float | None:
    """First positive root of ``F(0, lam) = w lam^2``: the curve meets ``rho = 0``.

    As ``F(0, lam) = 2 lam^2 -+ lam^4 / 6 + O(lam^6)``, ``Phi(0, lam)`` has
    the sign of ``2 - w`` below the crossing.  The bracket starts at
    ``lam = 0.05``, shrinks by 1.5 until ``Phi`` has that sign, then grows
    by 1.5 up to ``Curvature.scan_max`` until the sign flips; ``_illinois``
    solves inside it.  None at ``w = 2`` and when the sign never flips.
    """
    below = 2.0 - problem.w
    if below == 0.0:
        return None

    def phi(lam):
        return residual(problem, 0.0, lam, quad)

    lo, f_lo = 0.05, phi(0.05)
    while (f_lo > 0.0) != (below > 0.0):
        lo /= 1.5
        if lo < DEFAULT_BISECT_TOL:
            return None
        f_lo = phi(lo)
    cap = CURVATURE[problem.geometry].scan_max
    hi, f_hi = lo, f_lo
    while f_hi != 0.0 and (f_hi > 0.0) == (below > 0.0):
        if hi >= cap:
            return None
        lo, f_lo = hi, f_hi
        hi = min(1.5 * hi, cap)
        f_hi = phi(hi)
    return _illinois(phi, lo, hi, f_lo, f_hi)


def certified_axis_crossing(
    problem: CurvatureProblem, quad: QuadratureSpec = QuadratureSpec()
) -> tuple[float, float, int] | None:
    """Axis crossing refined until it certifies: ``(lam_star, cert, nodes)``."""
    lam_star = axis_crossing(problem, quad)
    if lam_star is None:
        return None
    # escalation re-solves from axis_crossing's own bracket: a bracket
    # reaching lam = 0 would find Phi(0, 0) = 0 there
    lam_star, _, cert, n = _certify_root(
        lambda x, n: residual(problem, 0.0, x, QuadratureSpec(n)),
        lambda f, n: axis_crossing(problem, QuadratureSpec(n)),
        lam_star, None, quad.nodes_per_axis,
    )
    return lam_star, cert, n


def _series_intercept(problem: CurvatureProblem) -> float | None:
    """Root of ``small_lambda_series(rho) = w``: the ``lam -> 0`` intercept.

    The series is monotone in ``rho``, so one ``_illinois`` bracket holds
    the root; None when its ends do not differ in sign (as at ``w = 2``).
    The bracket ends at ``Curvature.scan_max``, short of the sphere's
    antipode, where ``rho cot(rho)`` diverges.
    """
    c = CURVATURE[problem.geometry]
    hi = min(c.scan_max, c.rho_max * (1.0 - 1e-12))

    def g(rho):
        return small_lambda_series(problem.geometry, rho) - problem.w

    f_lo, f_hi = g(1e-9), g(hi)
    if f_lo * f_hi >= 0.0:
        return None
    return _illinois(g, 1e-9, hi, f_lo, f_hi)


def certified_curve(
    problem: CurvatureProblem,
    quad: QuadratureSpec = QuadratureSpec(),
    lambda_min: float | None = None,
    lambda_max: float | None = None,
    steps: int = DEFAULT_LAMBDA_STEPS,
) -> tuple[tuple[float, float, int] | None, np.ndarray, CertifiedCurve]:
    """The one certified curve behind ``curve``, ``threshold`` and ``verify``.

    Returns ``(certified_axis_crossing or None, make_lambda_grid grid,
    the traced curve passed through certify_curve)``.  The curve's ``ok``
    is the verdict both commands exit by: every point and the axis
    crossing certify, and every grid ``lam`` below the axis crossing has
    its point.
    """
    axis = certified_axis_crossing(problem, quad)
    grid = make_lambda_grid(
        problem, axis[0] if axis else None, lambda_min, lambda_max, steps
    )
    cert = certify_curve(problem, trace_curve(problem, grid, quad), quad)
    if axis is not None:
        lam_star, axis_cert, _ = axis
        solved = {pt.lam for pt in cert.curve.points}
        covered = all(lam in solved for lam in grid.tolist() if lam < lam_star)
        ok = cert.ok and covered and abs(axis_cert) <= CERTIFICATION_TOL
        cert = dataclasses.replace(cert, ok=ok)
    return axis, grid, cert


def extract_thresholds(
    problem: CurvatureProblem,
    quad: QuadratureSpec = QuadratureSpec(),
    lambda_min: float | None = None,
    lambda_max: float | None = None,
    lambda_steps: int = DEFAULT_LAMBDA_STEPS,
) -> ThresholdReport:
    """Endpoints, ratio bounds and the ``PAPER_RATIO`` comparison for one problem.

    ``lambda_star`` is the certified axis crossing (``curve``'s axis row),
    ``rho0`` the small-step intercept from the series condition, and the
    ``lam / rho`` extrema are taken over ``certified_curve``'s points, the
    rows ``curve`` prints.  The status is ``consistent`` when the infimum
    lies within +/-0.02 of ``PAPER_RATIO``, else ``discrepant``.
    """
    axis, _, cert = certified_curve(problem, quad, lambda_min, lambda_max, lambda_steps)
    curve = cert.curve

    ratios = [image.l_over_r for image in figure3_transform(curve) if image is not None]
    ratio_extrema = (min(ratios), max(ratios)) if ratios else None

    nu_slope = None
    lowest = curve.points[:2]
    if problem.geometry is GeometryKind.HYPERBOLIC and len(lowest) == 2:
        nu_slope = (lowest[1].rho - lowest[0].rho) / (lowest[1].lam - lowest[0].lam)

    close = ratio_extrema is not None and abs(ratio_extrema[0] - PAPER_RATIO) <= 0.02
    return ThresholdReport(
        problem.geometry, problem.w, axis[0] if axis is not None else None,
        _series_intercept(problem), ratio_extrema, nu_slope,
        "consistent" if close else "discrepant", cert.ok,
    )


def figure3_transform(curve: CurvatureCurve) -> tuple[Figure3Point | None, ...]:
    """Map traced points ``(lam, rho)`` to ``(l/r, R/r) = (lam/rho, 1/rho)``.

    The result lines up with ``curve.points``.  Points on the ``rho = 0``
    axis have no finite image and map to ``None``.
    """
    return tuple(
        Figure3Point(l_over_r=pt.lam / pt.rho, R_over_r=1.0 / pt.rho)
        if pt.rho > 0.0
        else None
        for pt in curve.points
    )
