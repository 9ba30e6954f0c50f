"""Shared test oracles and helpers."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def grid_mean_sq_separation(
    b_coeff: int, p: float, r: float = 1.0, l: float = 1.0, n: int = 1024
) -> float:
    """Brute-force single-step mean of ``r'^2`` on a deterministic grid.

    Averages the squared post-step separation over an ``n x n`` uniform
    grid of direction pairs, summing all four sign pairs weighted by
    their joint probability ``(1 - p*sa*sb*cos(delta)) / 4``.  The
    integrand is a low-degree trigonometric polynomial in each angle, so
    the uniform grid rule integrates it exactly (to rounding).

    ``b_coeff`` is the sign with which agent B's term enters the
    separation change: +1 for the attractive rule (B moves opposite its
    sign), -1 for the repulsive rule.
    """
    th = TWO_PI * np.arange(n) / n
    ca, sa = np.cos(th)[:, None], np.sin(th)[:, None]
    cb, sb = np.cos(th)[None, :], np.sin(th)[None, :]
    cos_delta = ca * cb + sa * sb
    total = 0.0
    for sig_a in (-1, 1):
        for sig_b in (-1, 1):
            prob = 0.25 * (1.0 - p * sig_a * sig_b * cos_delta)
            dx = l * (sig_a * ca + b_coeff * sig_b * cb)
            dy = l * (sig_a * sa + b_coeff * sig_b * sb)
            total += np.mean(prob * ((r + dx) ** 2 + dy**2))
    return float(total)


def grid_weight(b_coeff: int, p: float, n: int = 1024) -> float:
    """Implied step-law weight from the grid oracle at r = l = 1."""
    return grid_mean_sq_separation(b_coeff, p, r=1.0, l=1.0, n=n) - 1.0


def planar_two_step_distance(r, l, phi_a, phi_b):
    """Flat-space post-step separation ``|r x + l u_a - l u_b|``.

    Independent oracle for the zero-curvature limit of the curved step
    laws; ``u`` is the unit vector at the given azimuth, with A's azimuth
    measured in the same frame convention as the curved construction.
    """
    dx = r + l * (np.cos(phi_a) - np.cos(phi_b))
    dy = l * (np.sin(phi_a) - np.sin(phi_b))
    return np.hypot(dx, dy)


class ScriptedRng:
    """Generator stand-in replaying scripted ``random`` draws at the requested size.

    Each scripted value, a scalar or an array, is broadcast to the size
    of the draw that consumes it, and kept in ``randoms``.  The walk
    reads its turns and coupling uniforms through ``random``.  The
    draws are read-only views, so a kernel that writes into one fails.
    """

    def __init__(self, randoms=()):
        self._script = list(randoms)
        self.randoms = []

    def random(self, size):
        value = np.broadcast_to(self._script.pop(0), size)
        assert np.all((0.0 <= value) & (value < 1.0))
        self.randoms.append(value)
        return value


class RecordingRng:
    """A seeded generator that keeps every array its ``random`` returns."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.randoms = []

    def random(self, size):
        draw = self._rng.random(size)
        self.randoms.append(draw)
        return draw
