"""Implicit curvature-radius equations for the correlated walk.

The curved single-step law replaces correlated signs by geometry: both
agents move a scaled step ``lam`` in independent uniformly random tangent
azimuths, and the angle-averaged squared separation

    F(rho, lam) = < distance(rho, lam, phi_a, phi_b)^2 >

is matched against the planar law ``rho^2 + w lam^2``.  ``w`` is the
protocol weight from :mod:`entwalk.walk`: the sphere pairs with the
attractive rule (``w = 2 - p``), the hyperboloid with the repulsive one
(``w = 2 + p``).

``F`` is evaluated by tensor-product periodic trapezoidal quadrature over
the two azimuths.  The integrand is invariant under
``(phi_a, phi_b) -> (-phi_a, -phi_b)`` and
``(phi_a, phi_b) -> (pi - phi_b, pi - phi_a)``, so the n x n rule is summed
over the about ``n^2 / 4`` nodes of a fundamental domain, each weighted by
the size of its orbit: the same rule on fewer evaluations, equal to the
full sum up to rounding.  That rule is spectrally accurate wherever the
integrand is smooth; on the sphere the squared geodesic distance develops
a crease along configurations whose step geodesics wrap past the antipode
(``rho + 2 lam > pi``), which slows convergence there.  Root finding
therefore supports per-point escalation: a root located on one grid can
be re-solved on successively doubled grids until its residual under yet
another doubling meets the certification tolerance.

Solution points of

    Phi(rho, lam) = F(rho, lam) - rho^2 - w lam^2 = 0

are traced along ``lam`` by predictor-corrector continuation (Allgower &
Georg) from the small-step intercept ``(0, rho0)``, with a coarse guard
scan that adds every root continuation misses as a new branch.  The
axis crossing and the intercept come from a uniform sign scan plus
bisection.  ``curve`` and ``threshold`` both read ``certified_curve``.

The small-step expansion ``F = rho^2 + lam^2 (1 + rho cot(rho)) + O(lam^4)``
(``coth`` on the hyperboloid) serves as an independent analytic oracle;
the test suite re-derives it from quadrature fits before trusting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    RHO_CAP,
    GeometryKind,
    _check_domain,
    _invert_cos,
    _invert_cosh,
)

DEFAULT_SCAN_PANELS = 512
DEFAULT_BISECT_TOL = 1e-10
CERTIFICATION_TOL = 1e-8

#: Escalation cap for per-point certification refinement.
MAX_CERTIFY_NODES = 2048

#: Upper ends of the threshold scans for the axis crossing of F(0, lam).
_LAMBDA_SCAN_MAX = {
    GeometryKind.SPHERICAL: math.pi,
    GeometryKind.HYPERBOLIC: 10.0,
}

#: Default traced lam grid: this many points from the geometry's lower
#: end up to 98% of the axis crossing.
DEFAULT_LAMBDA_STEPS = 32
_LAMBDA_GRID_MIN = {
    GeometryKind.SPHERICAL: 0.02,
    GeometryKind.HYPERBOLIC: 0.05,
}

_RHO_MAX = {
    GeometryKind.SPHERICAL: math.pi,
    GeometryKind.HYPERBOLIC: RHO_CAP,
}

#: Coarse ``rho`` panels per ``lam`` of the guard scan behind continuation.
_GUARD_PANELS = 64

# Quadrature temporaries are kept near this many float64 elements (1 MB):
# large enough that per-call overhead stays small, small enough that a
# whole guard scan or a 4096-node check streams through cache.
_CHUNK_BUDGET = 1 << 17


@dataclass(frozen=True)
class QuadratureSpec:
    """Nodes per azimuth axis for the periodic trapezoidal rule."""

    nodes_per_axis: int = 128

    def __post_init__(self) -> None:
        n = self.nodes_per_axis
        if not (isinstance(n, (int, np.integer)) and n >= 16 and n % 2 == 0):
            raise ValueError(
                f"nodes_per_axis must be an even integer >= 16, got {n!r}"
            )
        object.__setattr__(self, "nodes_per_axis", int(n))

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(2 * self.nodes_per_axis)


@dataclass(frozen=True)
class CurvatureProblem:
    """Geometry plus the mean-square step-law weight on the right-hand side."""

    geometry: GeometryKind
    w: float

    def __post_init__(self) -> None:
        if self.geometry is GeometryKind.SPHERICAL:
            lo, hi = 1.0, 2.0
        else:
            lo, hi = 2.0, 3.0
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
    branch_id: int


@dataclass(frozen=True)
class CurvatureCurve:
    """Traced solution points of one curvature problem."""

    points: tuple[CurvePoint, ...]

    def branches(self) -> dict[int, list[CurvePoint]]:
        out: dict[int, list[CurvePoint]] = {}
        for pt in self.points:
            out.setdefault(pt.branch_id, []).append(pt)
        for pts in out.values():
            pts.sort(key=lambda p: (p.lam, p.rho))
        return out


@dataclass(frozen=True)
class CertifiedCurve:
    """A traced curve after per-point refinement, with certification data.

    ``certified[i]`` is the residual of ``curve.points[i]`` re-evaluated
    under a grid twice as fine as the one the point was solved on;
    ``nodes[i]`` is that solving grid's nodes-per-axis.
    """

    curve: CurvatureCurve
    certified: np.ndarray
    nodes: np.ndarray

    def all_within(self, tol: float = CERTIFICATION_TOL) -> bool:
        return bool(np.all(np.abs(self.certified) <= tol))


@dataclass(frozen=True)
class PaperComparison:
    """Outcome of comparing a computed ratio bound with the reference 0.64."""

    status: str
    paper_value: float
    computed_inf_ratio: float | None


@dataclass(frozen=True)
class ThresholdReport:
    """Endpoints and ratio bounds extracted from the certified curve.

    ``ratio_extrema`` maps branch id to ``(inf, sup)`` of ``lam / rho``
    over the branch's certified grid points with ``rho > 0``, the points
    ``curve`` prints; ``nu_slope`` is the slope between the two
    smallest-``lam`` certified points of the hyperbolic branch, so it
    depends on the grid (reported, not asserted).  Fields are ``None``
    when no root exists in the scan range.
    """

    geometry: GeometryKind
    w: float
    lambda_star: float | None
    rho0: float | None
    ratio_extrema: dict[int, tuple[float, float]]
    nu_slope: float | None
    paper_comparison: PaperComparison


@dataclass(frozen=True)
class Figure3Point:
    l_over_r: float
    R_over_r: float
    branch_id: int


def _quad_mean(
    geometry: GeometryKind, rho: np.ndarray, lam: np.ndarray, n: int
) -> np.ndarray:
    """Trapezoid mean of the squared step law over the n x n azimuth grid.

    In the sum and difference indices ``s = i + j``, ``t = i - j`` (mod n)
    the step law reads

        cos d = cos rho - G (cos rho + 1) u_t^2 - G (cos rho - 1) u_s^2 +- R u_s u_t

    with ``u_k = sin(pi k / n)``, ``G = sin(lam)^2`` and
    ``R = 2 sin(rho) cos(lam) sin(lam)`` (``cosh``/``sinh`` throughout on
    the hyperboloid, where ``G = -sinh(lam)^2``).  The two signs are the
    two grid nodes ``(i, j)`` and ``(i + n/2, j + n/2)`` that share
    ``(s, t)``.  Flipping the sign of ``s`` or of ``t`` leaves that pair
    of values unchanged, so only ``0 <= s, t <= n/2`` with
    ``s = t (mod 2)`` is evaluated, each node weighted by the size of its
    orbit: about ``n^2 / 4`` nodes instead of ``n^2``.  Every grid node is
    the image of an evaluated one, so the range checks see every value
    the full grid holds.  Written in ``u^2`` rather than cosines, nodes at
    distance 0 or (at ``rho = pi``) at the antipode come out exact.
    """
    spherical = geometry is GeometryKind.SPHERICAL
    if spherical:
        cr, sr, cl, sl = np.cos(rho), np.sin(rho), np.cos(lam), np.sin(lam)
        g = sl * sl
    else:
        cr, sr, cl, sl = np.cosh(rho), np.sinh(rho), np.cosh(lam), np.sinh(lam)
        g = -(sl * sl)
        scale = cr * cl * cl
    along_t = g * (cr + 1.0)
    along_s = g * (cr - 1.0)
    cross = 2.0 * sr * cl * sl

    half = n // 2
    out = np.zeros(rho.size)
    for parity in (0, 1):
        k = np.arange(parity, half + 1, 2)
        u = np.sin(math.pi * k / n)
        u2 = u * u
        weight = np.where((k == 0) | (k == half), 1.0, 2.0)
        pts = max(1, _CHUNK_BUDGET // (k.size * k.size))
        rows = max(1, _CHUNK_BUDGET // (pts * k.size))
        for lo in range(0, rho.size, pts):
            sel = slice(lo, lo + pts)
            # s runs along axis 1, t along axis 2
            from_t = (cr[sel, None] - along_t[sel, None] * u2)[:, None, :]
            from_s = along_s[sel, None] * u2
            cross_s = cross[sel, None] * u
            for r0 in range(0, k.size, rows):
                blk = slice(r0, r0 + rows)
                base = from_t - from_s[:, blk, None]
                mixed = cross_s[:, blk, None] * u
                if spherical:
                    d_plus = _invert_cos(base + mixed)
                    d_minus = _invert_cos(base - mixed)
                else:
                    sc = scale[sel, None, None]
                    d_plus = _invert_cosh(base + mixed, sc)
                    d_minus = _invert_cosh(base - mixed, sc)
                sq = d_plus * d_plus + d_minus * d_minus
                out[sel] += np.einsum("kst,s,t->k", sq, weight[blk], weight)
    return out / (n * n)


def mean_sq_step(
    geometry: GeometryKind,
    rho,
    lam,
    quad: QuadratureSpec = QuadratureSpec(),
):
    """Angle-averaged squared step distance ``F(rho, lam)``.

    ``rho`` and ``lam`` may be scalars or broadcastable arrays; the
    average runs over both azimuths on a uniform periodic grid.  A zero
    step returns ``rho**2`` exactly.
    """
    rho_in = np.asarray(rho, dtype=float)
    lam_in = np.asarray(lam, dtype=float)
    scalar = rho_in.ndim == 0 and lam_in.ndim == 0
    rho_b, lam_b = np.broadcast_arrays(rho_in, lam_in)
    _check_domain(geometry, rho_b, lam_b)

    flat_rho = rho_b.ravel()
    flat_lam = lam_b.ravel()
    out = np.empty(flat_rho.shape)

    moving = flat_lam > 0.0
    out[~moving] = flat_rho[~moving] ** 2

    idx = np.nonzero(moving)[0]
    if idx.size:
        n = quad.nodes_per_axis
        out[idx] = _quad_mean(geometry, flat_rho[idx], flat_lam[idx], n)

    if scalar:
        return float(out[0])
    return out.reshape(rho_b.shape)


def small_lambda_series(geometry: GeometryKind, rho):
    """Coefficient of ``lam**2`` in ``F``: ``1 + rho*cot(rho)`` or the coth twin."""
    rho_in = np.asarray(rho, dtype=float)
    if np.any(rho_in <= 0.0):
        raise ValueError("series coefficient requires rho > 0")
    if geometry is GeometryKind.SPHERICAL:
        if np.any(rho_in >= math.pi):
            raise ValueError("spherical series coefficient requires rho < pi")
        coef = 1.0 + rho_in / np.tan(rho_in)
    else:
        coef = 1.0 + rho_in / np.tanh(rho_in)
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
    rho_arr = np.asarray(rho, dtype=float)
    lam_arr = np.asarray(lam, dtype=float)
    f = mean_sq_step(problem.geometry, rho_arr, lam_arr, quad)
    return f - (rho_arr**2 + problem.w * lam_arr**2)


def _find_roots(f, lo: float, hi: float, exclude_lo: bool = False) -> list[float]:
    """All sign-change roots of vectorized ``f`` on [lo, hi].

    Scans ``DEFAULT_SCAN_PANELS`` uniform panels, then drives each bracket
    to width ``DEFAULT_BISECT_TOL`` by bisection (vectorized across
    brackets).  Exact zeros on panel edges are returned as-is;
    ``exclude_lo`` drops an exact zero at the left endpoint (used where
    that zero is a known trivial solution).
    """
    xs = np.linspace(lo, hi, DEFAULT_SCAN_PANELS + 1)
    fs = np.asarray(f(xs), dtype=float)

    roots = [float(x) for x, v in zip(xs, fs) if v == 0.0]
    if exclude_lo and roots and roots[0] == lo and fs[0] == 0.0:
        roots = roots[1:]

    bracket = fs[:-1] * fs[1:] < 0.0
    b_lo = xs[:-1][bracket]
    b_hi = xs[1:][bracket]
    f_lo = fs[:-1][bracket]
    if b_lo.size:
        lo_arr = b_lo.copy()
        hi_arr = b_hi.copy()
        flo = f_lo.copy()
        width = (hi - lo) / DEFAULT_SCAN_PANELS
        max_iter = max(1, int(math.ceil(math.log2(width / DEFAULT_BISECT_TOL))) + 2)
        for _ in range(max_iter):
            mid = 0.5 * (lo_arr + hi_arr)
            fm = np.asarray(f(mid), dtype=float)
            take_left = flo * fm <= 0.0
            hi_arr = np.where(take_left, mid, hi_arr)
            lo_arr = np.where(take_left, lo_arr, mid)
            flo = np.where(take_left, flo, fm)
            if np.all(hi_arr - lo_arr <= DEFAULT_BISECT_TOL):
                break
        roots.extend((0.5 * (lo_arr + hi_arr)).tolist())
    return sorted(roots)


def _illinois(f, a, b, fa, fb, max_iter=80) -> float:
    """Bracketed scalar root by the Illinois variant of regula falsi."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    for _ in range(max_iter):
        x = b - fb * (b - a) / (fb - fa)
        # keep strictly inside; fall back to bisection steps if stuck
        if not (min(a, b) < x < max(a, b)):
            x = 0.5 * (a + b)
        fx = float(f(x))
        if fx == 0.0 or abs(b - a) <= DEFAULT_BISECT_TOL:
            return x
        if (fx > 0) == (fb > 0):
            b, fb = x, fx
            fa *= 0.5
        else:
            a, fa = b, fb
            b, fb = x, fx
        if abs(b - a) <= DEFAULT_BISECT_TOL:
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
    defaults to 0.02 on the sphere and 0.05 on the hyperboloid, and
    ``lambda_max`` to 98% of the axis crossing ``lambda_star``, or to
    half the scan range when there is no crossing.
    """
    if lambda_min is None:
        lambda_min = _LAMBDA_GRID_MIN[problem.geometry]
    if lambda_max is None:
        if lambda_star is not None:
            lambda_max = 0.98 * lambda_star
        else:
            lambda_max = _LAMBDA_SCAN_MAX[problem.geometry] / 2.0
    if not lambda_max > lambda_min:
        raise ValueError("lambda grid is empty: need lambda_max > lambda_min")
    if steps < 2:
        raise ValueError("lambda_steps must be at least 2")
    return np.linspace(lambda_min, lambda_max, steps)


def _predict(tail: list[tuple[float, float]], lam: float) -> tuple[float, float]:
    """Predicted ``rho`` at ``lam`` and the half-width of its first bracket.

    Linear extrapolation from a branch's last two points ``(lam, rho)``
    (constant from one, as ``rho'(0) = 0`` at the intercept).  The half-width
    is the predicted change or the squared step, whichever is larger.
    """
    last_lam, last_rho = tail[-1]
    guess = last_rho
    if len(tail) == 2:
        prev_lam, prev_rho = tail[0]
        guess += (last_rho - prev_rho) * (lam - last_lam) / (last_lam - prev_lam)
    return guess, max(abs(guess - last_rho), (lam - last_lam) ** 2)


def trace_curve(
    problem: CurvatureProblem,
    lambda_grid,
    quad: QuadratureSpec = QuadratureSpec(),
) -> CurvatureCurve:
    """Solution points ``rho(lam)`` over a strictly increasing ``lambda_grid``.

    The branch through the intercept starts at ``(0, rho0)``; each next
    point is ``_predict``-ed and corrected by ``_refine_scalar_root`` to
    ``DEFAULT_BISECT_TOL``.  A branch ends where the corrector finds no
    sign change or lands on another branch's root.  The guard evaluates
    the residual on ``_GUARD_PANELS`` ``rho`` panels at every grid value
    in one call; each sign change holding no continued root is solved and
    starts a new branch.  Points of one ``lam`` are listed by rising ``rho``.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda_grid must be a nonempty 1-D sequence")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("lambda_grid must be strictly increasing")
    if np.any(grid <= 0.0):
        raise ValueError("lambda_grid values must be positive")
    rho_hi = _RHO_MAX[problem.geometry]
    if problem.geometry is GeometryKind.HYPERBOLIC and np.any(grid > RHO_CAP):
        raise ValueError(f"hyperbolic lam values are capped at {RHO_CAP}")

    nodes = np.linspace(0.0, rho_hi, _GUARD_PANELS + 1)
    guard = residual(problem, nodes[None, :], grid[:, None], quad)
    rho0 = _series_intercept(problem)
    tails: dict[int, list[tuple[float, float]]] = {}
    if rho0 is not None:
        tails[0] = [(0.0, rho0)]
    next_id = len(tails)
    found: list[tuple[float, float, int]] = []
    for lam, row in zip(grid.tolist(), guard):

        def phi(x, lam=lam):
            return residual(problem, x, lam, quad)

        roots: dict[int, float] = {}
        for bid, tail in list(tails.items()):
            guess, half = _predict(tail, lam)
            root = _refine_scalar_root(phi, min(max(guess, 0.0), rho_hi), rho_hi, half)
            if root is None or any(
                abs(root - r) <= 2.0 * DEFAULT_BISECT_TOL for r in roots.values()
            ):
                del tails[bid]
                continue
            roots[bid] = root
            tails[bid] = [tail[-1], (lam, root)]
        for i in np.flatnonzero(row[:-1] * row[1:] <= 0.0):
            a, b = nodes[i], nodes[i + 1]
            if any(
                a - DEFAULT_BISECT_TOL <= r <= b + DEFAULT_BISECT_TOL
                for r in roots.values()
            ):
                continue
            root = _illinois(phi, a, b, row[i], row[i + 1])
            roots[next_id] = root
            tails[next_id] = [(lam, root)]
            next_id += 1
        for bid, root in sorted(roots.items(), key=lambda item: item[1]):
            found.append((lam, root, bid))

    if not found:
        return CurvatureCurve(())
    lam_arr, rho_arr, _ = (np.array(col) for col in zip(*found))
    res = residual(problem, rho_arr, lam_arr, quad)
    return CurvatureCurve(
        tuple(
            CurvePoint(lam=lam, rho=float(rho), residual=float(r), branch_id=bid)
            for (lam, rho, bid), r in zip(found, res)
        )
    )


def _refine_scalar_root(
    f, x0: float, hi_cap: float, half: float | None = None
) -> float | None:
    """Root of ``f`` near ``x0`` in ``[0, hi_cap]`` by a widening bracket.

    The bracket reaches ``half`` (default ``1e-4 max(1, |x0|)``) to each
    side of ``x0`` and widens eightfold, up to eight times, until ``f``
    changes sign across it; ``_illinois`` then solves inside it.  Returns
    None when no bracket is found (a finer objective may have lost the
    root, e.g. at a tangency, or the branch may have ended).
    """
    if half is None:
        half = 1e-4 * max(1.0, abs(x0))
    for _ in range(8):
        a = max(0.0, x0 - half)
        b = min(hi_cap, x0 + half)
        fa = float(f(a))
        fb = float(f(b))
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if (fa > 0) != (fb > 0):
            return _illinois(f, a, b, fa, fb)
        half *= 8.0
        if a == 0.0 and b == hi_cap:
            break
    return None


def _certify_root(phi, x: float, res: float | None, hi: float, n: int):
    """Certify one root ``x`` of ``phi`` in ``[0, hi]``, escalating where needed.

    ``phi(x, n)`` is the residual at ``x`` on ``n`` nodes per axis; ``x``
    was solved on ``n`` nodes, where its residual is ``res``.  The root
    certifies when its residual on twice as many nodes is within
    ``CERTIFICATION_TOL``.  Otherwise it is re-solved on the doubled grid
    and checked again, up to ``MAX_CERTIFY_NODES`` nodes per axis or until
    the finer residual has no sign change near ``x``.  Returns
    ``(x, res, cert, n)``: the root, its residual on the ``n`` nodes it
    was last solved on, and its residual on ``2n``.
    """
    while True:
        cert = float(phi(x, 2 * n))
        if abs(cert) <= CERTIFICATION_TOL or n >= MAX_CERTIFY_NODES:
            return x, res, cert, n
        n *= 2
        refined = _refine_scalar_root(lambda y: phi(y, n), x, hi)
        if refined is None:
            return x, res, cert, n
        x = refined
        res = float(phi(x, n))


def certify_curve(
    problem: CurvatureProblem,
    curve: CurvatureCurve,
    quad: QuadratureSpec = QuadratureSpec(),
) -> CertifiedCurve:
    """Certify every traced point, escalating quadrature where needed.

    Each point is checked by re-evaluating its residual on a grid twice
    as fine as the grid it was solved on.  Points that fail are re-solved
    on the doubled grid and re-checked, doubling up to
    ``MAX_CERTIFY_NODES`` nodes per axis; this handles the crease the
    spherical integrand develops where step geodesics wrap past the
    antipode, which degrades the trapezoidal rule from spectral accuracy
    to a fixed algebraic order locally.
    """
    rho_hi = _RHO_MAX[problem.geometry]
    out_points: list[CurvePoint] = []
    certified: list[float] = []
    nodes_used: list[int] = []
    for pt in curve.points:

        def phi(x, n, lam=pt.lam):
            return residual(problem, float(x), lam, QuadratureSpec(n))

        rho, res, cert, n = _certify_root(
            phi, pt.rho, pt.residual, rho_hi, quad.nodes_per_axis
        )
        out_points.append(
            CurvePoint(lam=pt.lam, rho=rho, residual=res, branch_id=pt.branch_id)
        )
        certified.append(cert)
        nodes_used.append(n)
    return CertifiedCurve(
        curve=CurvatureCurve(tuple(out_points)),
        certified=np.array(certified),
        nodes=np.array(nodes_used, dtype=int),
    )


def axis_crossing(
    problem: CurvatureProblem, quad: QuadratureSpec = QuadratureSpec()
) -> float | None:
    """Smallest positive root of ``F(0, lam) = w lam^2``, if any.

    This is where the solution curve meets the ``rho = 0`` axis; the
    closed-form step law is smooth there even though the frame
    construction degenerates.
    """
    lam_hi = _LAMBDA_SCAN_MAX[problem.geometry]

    def g(lam_vec):
        lam_vec = np.asarray(lam_vec, dtype=float)
        return residual(problem, np.zeros_like(lam_vec), lam_vec, quad)

    roots = _find_roots(g, 0.0, lam_hi, exclude_lo=True)
    return roots[0] if roots else None


def certified_axis_crossing(
    problem: CurvatureProblem, quad: QuadratureSpec = QuadratureSpec()
) -> tuple[float, float, int] | None:
    """Axis crossing refined until it certifies: ``(lam_star, cert, nodes)``."""
    lam_star = axis_crossing(problem, quad)
    if lam_star is None:
        return None

    def phi(x, n):
        return residual(problem, 0.0, float(x), QuadratureSpec(n))

    lam_star, _, cert, n = _certify_root(
        phi, lam_star, None, _LAMBDA_SCAN_MAX[problem.geometry], quad.nodes_per_axis
    )
    return lam_star, cert, n


def _series_intercept(problem: CurvatureProblem) -> float | None:
    """Root of ``small_lambda_series(rho) = w``: the ``lam -> 0`` intercept."""
    geometry = problem.geometry
    if geometry is GeometryKind.SPHERICAL:
        lo, hi = 1e-9, math.pi * (1.0 - 1e-12)
    else:
        lo, hi = 1e-9, _LAMBDA_SCAN_MAX[geometry]

    def h(rho_vec):
        return (
            small_lambda_series(geometry, np.asarray(rho_vec, dtype=float))
            - problem.w
        )

    roots = _find_roots(h, lo, hi, exclude_lo=True)
    return roots[0] if roots else None


def certified_curve(
    problem: CurvatureProblem,
    quad: QuadratureSpec = QuadratureSpec(),
    lambda_min: float | None = None,
    lambda_max: float | None = None,
    steps: int = DEFAULT_LAMBDA_STEPS,
) -> tuple[tuple[float, float, int] | None, np.ndarray, CertifiedCurve]:
    """The one certified curve behind ``curve``, ``threshold`` and ``verify``.

    Returns ``(axis, grid, certified)``: the ``certified_axis_crossing``
    (or None), the ``make_lambda_grid`` grid built on it, and the curve
    traced over that grid and passed through ``certify_curve``.
    """
    axis = certified_axis_crossing(problem, quad)
    grid = make_lambda_grid(
        problem, axis[0] if axis else None, lambda_min, lambda_max, steps
    )
    return axis, grid, certify_curve(problem, trace_curve(problem, grid, quad), quad)


def extract_thresholds(
    problem: CurvatureProblem,
    quad: QuadratureSpec = QuadratureSpec(),
    lambda_min: float | None = None,
    lambda_max: float | None = None,
    lambda_steps: int = DEFAULT_LAMBDA_STEPS,
) -> ThresholdReport:
    """Endpoints, ratio bounds and the 0.64 comparison for one problem.

    ``lambda_star`` is the certified axis crossing of ``F(0, lam) = w lam^2``
    (the value ``curve`` appends as its axis row); ``rho0`` the small-step
    intercept from the series condition.  Ratio extrema of ``lam / rho``
    are taken per branch over ``certified_curve``'s points, the rows
    ``curve`` prints for the same bounds.  The
    comparison status is ``consistent`` when some branch's infimum of
    ``lam / rho`` falls within +/-0.02 of the reference value 0.64, else
    ``discrepant``; the report is emitted either way.
    """
    axis, _, cert = certified_curve(
        problem, quad, lambda_min, lambda_max, lambda_steps
    )
    lambda_star = axis[0] if axis is not None else None
    rho0 = _series_intercept(problem)
    curve = cert.curve

    ratios: dict[int, list[float]] = {}
    for image in figure3_transform(curve):
        if image is not None:
            ratios.setdefault(image.branch_id, []).append(image.l_over_r)
    ratio_extrema = {bid: (min(r), max(r)) for bid, r in ratios.items()}

    nu_slope = None
    if problem.geometry is GeometryKind.HYPERBOLIC and curve.points:
        branches = curve.branches()
        first_bid = min(branches, key=lambda b: branches[b][0].lam)
        pts = branches[first_bid]
        if len(pts) >= 2:
            p0, p1 = pts[0], pts[1]
            nu_slope = (p1.rho - p0.rho) / (p1.lam - p0.lam)

    paper_value = 0.64
    computed = None
    if ratio_extrema:
        computed = min(
            (inf for inf, _ in ratio_extrema.values()),
            key=lambda v: abs(v - paper_value),
        )
    status = (
        "consistent"
        if computed is not None and abs(computed - paper_value) <= 0.02
        else "discrepant"
    )
    return ThresholdReport(
        geometry=problem.geometry,
        w=problem.w,
        lambda_star=lambda_star,
        rho0=rho0,
        ratio_extrema=ratio_extrema,
        nu_slope=nu_slope,
        paper_comparison=PaperComparison(
            status=status, paper_value=paper_value, computed_inf_ratio=computed
        ),
    )


def figure3_transform(curve: CurvatureCurve) -> tuple[Figure3Point | None, ...]:
    """Map traced points ``(lam, rho)`` to ``(l/r, R/r) = (lam/rho, 1/rho)``.

    The result lines up with ``curve.points``.  Points on the ``rho = 0``
    axis have no finite image and map to ``None``.
    """
    return tuple(
        Figure3Point(
            l_over_r=pt.lam / pt.rho, R_over_r=1.0 / pt.rho, branch_id=pt.branch_id
        )
        if pt.rho > 0.0
        else None
        for pt in curve.points
    )
