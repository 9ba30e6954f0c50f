"""Joint sign statistics for paired measurements along planar axes.

The joint distribution over the four sign outcomes depends on the two
measurement directions only through the angle between them.  A mixing
parameter ``p`` interpolates between perfect anti-correlation along a
common axis (``p = 1``) and independent fair signs (``p = 0``):

    P(sigma_a, sigma_b) = (1 - p * sigma_a * sigma_b * cos(delta)) / 4

with ``delta`` the angle between the two axes.  ``sigma_a`` is a fair
sign, and ``sigma_b = -sigma_a`` with probability ``(1 + p cos(delta)) / 2``;
``entwalk.walk`` samples steps from that factorization.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def outcome_probability(
    sigma_a: np.ndarray,
    sigma_b: np.ndarray,
    delta: np.ndarray,
    p: np.ndarray,
) -> np.ndarray:
    """Probability of the signs ``(sigma_a, sigma_b)`` for axes ``delta`` apart.

    Broadcasts over its arguments.  The four probabilities for fixed
    axes sum to 1 and each single-side marginal is exactly 1/2 for any
    mixing parameter.
    """
    sigma_a, sigma_b, p = (np.asarray(a) for a in (sigma_a, sigma_b, p))
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
    if not np.all((np.abs(sigma_a) == 1) & (np.abs(sigma_b) == 1)):
        raise ValueError(f"signs must be +1 or -1, got ({sigma_a}, {sigma_b})")
    return 0.25 * (1.0 - p * sigma_a * sigma_b * np.cos(delta))

