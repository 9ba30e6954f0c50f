import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from entwalk.correlations import TWO_PI, outcome_probability, sign_pairs
from entwalk.walk import Protocol, ProtocolSpec, _direction, _separation_deltas

from conftest import RecordingRng, ScriptedRng

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)
mixings = st.floats(min_value=0.0, max_value=1.0)

# the four joint outcomes, in the order (-,-), (-,+), (+,-), (+,+)
SIGMA_A = np.array([-1, -1, 1, 1])
SIGMA_B = np.array([-1, 1, -1, 1])


def test_direction_unit_vector_norm():
    # equal axes and equal classical signs: the two agents' moves add up
    # to 2 l exactly when each is l along a unit direction
    turn = np.array([0.0, 1.0, 2.5, 6.2]) / TWO_PI
    rng = ScriptedRng(randoms=[turn, turn, 0.3, 0.9])
    dx, dy = _separation_deltas(4, 0.5, ProtocolSpec(Protocol.CLASSICAL), rng)
    assert np.hypot(dx, dy) == pytest.approx(np.ones(4), abs=1e-12)


def test_sign_pair_validation():
    outcome_probability(1, -1, 0.0, 1.0)
    with pytest.raises(ValueError):
        outcome_probability(2, 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        outcome_probability(1, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        outcome_probability(SIGMA_A, np.array([-1, 1, 0, 1]), 0.0, 1.0)


def test_werner_parameter_validation():
    outcome_probability(1, -1, 0.0, 0.0)
    outcome_probability(1, -1, 0.0, 1.0)
    with pytest.raises(ValueError):
        outcome_probability(1, -1, 0.0, 1.5)
    with pytest.raises(ValueError):
        outcome_probability(1, -1, 0.0, -0.1)
    with pytest.raises(ValueError):
        outcome_probability(1, -1, 0.0, np.array([0.5, math.nan]))


def test_probability_perfect_anticorrelation_common_axis():
    assert outcome_probability(1, 1, 0.0, 1.0) == 0.0
    assert outcome_probability(1, -1, 0.0, 1.0) == 0.5


def test_probability_orthogonal_axes_quarter():
    delta = 0.3 - (0.3 + math.pi / 2)
    p = np.array([[0.0], [0.37], [1.0]])
    prob = outcome_probability(SIGMA_A, SIGMA_B, delta, p)
    assert prob.shape == (3, 4)
    assert prob == pytest.approx(np.full((3, 4), 0.25), abs=1e-15)


def test_probability_direct_substitution():
    # opposite signs, axes pi/3 apart, fully correlated
    prob = outcome_probability(1, -1, math.pi / 3 - 0.0, 1.0)
    assert prob == pytest.approx(0.375, abs=1e-15)


@given(a=angles, b=angles, p=mixings)
def test_normalization_and_marginals(a, b, p):
    mm, mp, pm, pp = outcome_probability(SIGMA_A, SIGMA_B, a - b, p)
    assert abs(mm + mp + pm + pp - 1.0) <= 1e-15
    for pair in ((mm, mp), (pm, pp), (mm, pm), (mp, pp)):
        assert abs(sum(pair) - 0.5) <= 1e-15
    assert all(0.0 <= v <= 1.0 for v in (mm, mp, pm, pp))


@given(a=angles, b=angles, p=mixings, offset=st.floats(-10.0, 10.0))
def test_rotational_invariance(a, b, p, offset):
    base = outcome_probability(1, -1, a - b, p)
    shifted = outcome_probability(
        1, -1, (a + offset) % TWO_PI - (b + offset) % TWO_PI, p
    )
    assert abs(base - shifted) <= 1e-15


def test_sampler_common_axis_always_anticorrelated():
    rng = np.random.default_rng(1)
    sa, sb = sign_pairs(np.cos(np.zeros(500)), 1.0, rng)
    assert np.all(sb == -sa)


def test_sampler_uncorrelated_at_zero_mixing():
    rng = np.random.default_rng(2)
    n = 200_000
    sa, sb = sign_pairs(np.cos(np.full(n, 0.4)), 0.0, rng)
    # all four joint outcomes equally likely: check mean and correlation
    assert abs(np.mean(sa)) < 3.0 / math.sqrt(n)
    assert abs(np.mean(sb)) < 3.0 / math.sqrt(n)
    assert abs(np.mean(sa * sb)) < 3.0 / math.sqrt(n)


def test_sampler_anticorrelation_frequency_pi_third():
    # P(sigma_b = -sigma_a) = (1 + cos(pi/3)) / 2 = 0.75 at full mixing
    rng = np.random.default_rng(3)
    n = 1_000_000
    sa, sb = sign_pairs(np.cos(np.full(n, math.pi / 3)), 1.0, rng)
    freq = np.mean(sa != sb)
    stderr = math.sqrt(0.75 * 0.25 / n)
    assert abs(freq - 0.75) < 3.0 * stderr


def test_sampler_matches_distribution_chi_square():
    rng = np.random.default_rng(4)
    for _ in range(3):
        delta = rng.uniform(0.0, 2.0 * math.pi)
        p = rng.uniform(0.0, 1.0)
        n = 1_000_000
        sa, sb = sign_pairs(np.cos(np.full(n, delta)), p, rng)
        observed = np.array(
            [
                np.sum((sa == x) & (sb == y))
                for x in (-1, 1)
                for y in (-1, 1)
            ]
        )
        expected = np.array(
            [
                n * 0.25 * (1.0 - p * x * y * math.cos(delta))
                for x in (-1, 1)
                for y in (-1, 1)
            ]
        )
        result = scipy.stats.chisquare(observed, expected)
        assert result.pvalue > 0.01


def _recorded_turns(seed, n):
    """The two turn blocks one classical ``n``-step kernel call draws."""
    rng = RecordingRng(seed)
    _separation_deltas(n, 1.0, ProtocolSpec(Protocol.CLASSICAL), rng)
    # four blocks in turn: A's turns, B's turns, sigma_a's and sigma_b's uniforms
    assert [draw.shape for draw in rng.randoms] == [(n,)] * 4
    return rng.randoms[:2]


def test_sample_direction_moments():
    n = 1_000_000
    for u in _recorded_turns(5, n):
        assert np.all((0.0 <= u) & (u < 1.0))
        # var(u) = 1/12 and var(u^2) = 4/45 under the uniform law
        assert abs(np.mean(u) - 0.5) < 3.0 * math.sqrt(1.0 / 12.0 / n)
        assert abs(np.mean(u * u) - 1.0 / 3.0) < 3.0 * math.sqrt(4.0 / 45.0 / n)
        cos_vals = _direction(u)[0]
        # var(cos) = 1/2 and var(cos^2) = 1/8 under the uniform law
        assert abs(np.mean(cos_vals)) < 3.0 * math.sqrt(0.5 / n)
        assert abs(np.mean(cos_vals**2) - 0.5) < 3.0 * math.sqrt(0.125 / n)


def test_sample_direction_kolmogorov_smirnov():
    n = 100_000
    for u in _recorded_turns(8, n):
        critical = 1.628 / math.sqrt(n)  # 1% critical value
        assert scipy.stats.kstest(u, "uniform").statistic < critical
        # cos(2 pi u) follows the arcsine law on [-1, 1]
        cos_vals = _direction(u)[0]
        stat = scipy.stats.kstest(cos_vals, "arcsine", args=(-1.0, 2.0)).statistic
        assert stat < critical


@settings(max_examples=25)
@given(a=angles, b=angles, p=mixings, seed=st.integers(0, 2**32 - 1))
def test_sampler_signs_are_valid(a, b, p, seed):
    rng = np.random.default_rng(seed)
    sa, sb = sign_pairs(np.cos(np.full(16, a - b)), p, rng)
    assert np.all(np.isin(sa, (-1, 1))) and np.all(np.isin(sb, (-1, 1)))
