import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entwalk.geometry import TWO_PI
from entwalk.walk import (
    Protocol,
    ProtocolSpec,
    _direction,
    _separation_deltas,
    opposite_probability,
    outcome_probability,
)

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
    rng = ScriptedRng(randoms=[turn, turn, 0.9])
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


@example(a=1.0, b=0.0, p=1e-320)
@example(a=0.3, b=2.0, p=5e-324)
@given(a=angles, b=angles, p=mixings | st.floats(0.0, 1e-300))
def test_outcome_probability_is_the_quarter_law_to_the_bit(a, b, p):
    # verify's outcome-normalization line prints deviations of this form
    law = outcome_probability(SIGMA_A, SIGMA_B, a - b, p)
    direct = 0.25 * (1.0 - p * SIGMA_A * SIGMA_B * np.cos(a - b))
    assert law.tobytes() == direct.tobytes()


@given(a=angles, b=angles, p=mixings, offset=st.floats(-10.0, 10.0))
def test_rotational_invariance(a, b, p, offset):
    base = outcome_probability(1, -1, a - b, p)
    shifted = outcome_probability(
        1, -1, (a + offset) % TWO_PI - (b + offset) % TWO_PI, p
    )
    assert abs(base - shifted) <= 1e-15


def _couplings(rng, n, p, kind=Protocol.PLUS, l=0.5):
    """``cos delta`` and ``q = sigma_a sigma_b`` of one ``n``-step kernel call.

    The kernel's step is ``l (n_a - s q n_b)`` with ``s = b_step_sign``,
    so ``q = -s (step / l - n_a) . n_b``, read off the step and the
    directions of the turns that ``rng`` handed out.
    """
    proto = ProtocolSpec(kind, p)
    dx, dy = _separation_deltas(n, l, proto, rng)
    (ca, sa), (cb, sb) = (_direction(u) for u in rng.randoms[:2])
    q = -proto.b_step_sign * ((dx / l - ca) * cb + (dy / l - sa) * sb)
    assert np.max(np.abs(np.abs(q) - 1.0)) <= 1e-12
    return ca * cb + sa * sb, np.rint(q)


@pytest.mark.parametrize("kind", list(Protocol))
def test_kernel_switches_at_the_law_value(kind):
    # q = -1 exactly when the coupling uniform lies below
    # opposite_probability of the same turns: one ulp below it gives -1,
    # the value itself +1
    turns_a = np.array([0.0, 0.1, 0.3, 0.45, 0.7, 0.123456789, 0.9])
    turns_b = (turns_a + [0.05, 0.2, 0.25, 0.4, 0.49, 0.0137, 0.77]) % 1.0
    (ca, sa), (cb, sb) = _direction(turns_a), _direction(turns_b)
    for p in (0.0, 1e-300, 0.3, 0.77, 1.0):
        t = opposite_probability(ca * cb + sa * sb, ProtocolSpec(kind, p).effective_p)
        for coupling, q in ((np.nextafter(t, 0.0), -1.0), (t, 1.0)):
            rng = ScriptedRng(randoms=[turns_a, turns_b, coupling])
            assert np.all(_couplings(rng, len(turns_a), p, kind)[1] == q)


def test_sampler_common_axis_always_anticorrelated():
    turns = np.random.default_rng(1).random((2, 500))
    rng = ScriptedRng(randoms=[turns[0], turns[0], turns[1]])
    _, q = _couplings(rng, 500, 1.0)
    assert np.all(q == -1.0)


def test_sampler_uncorrelated_at_zero_mixing():
    n = 200_000
    cos_delta, q = _couplings(RecordingRng(2), n, 0.0)
    # q is a fair sign whatever the angle: check its mean and its
    # correlation with cos delta, whose variance is 1/2
    assert abs(np.mean(q)) < 3.0 / math.sqrt(n)
    assert abs(np.mean(q * cos_delta)) < 3.0 * math.sqrt(0.5 / n)


def test_sampler_anticorrelation_frequency_pi_third():
    # P(q = -1) = (1 + cos(pi/3)) / 2 = 0.75 at full mixing
    n = 1_000_000
    turns = np.random.default_rng(3).random((2, n))
    rng = ScriptedRng(randoms=[turns[0], (turns[0] + 1.0 / 6.0) % 1.0, turns[1]])
    _, q = _couplings(rng, n, 1.0)
    freq = np.mean(q == -1.0)
    stderr = math.sqrt(0.75 * 0.25 / n)
    assert abs(freq - 0.75) < 3.0 * stderr


def test_sampler_matches_distribution_chi_square():
    # q = -1 with probability (1 + p cos delta) / 2, so each of 8 bins of
    # the angle delta expects the sum of that over its steps; conditional
    # on the bin counts, the 16 cells have 8 degrees of freedom
    rng = np.random.default_rng(4)
    n, edges = 1_000_000, np.linspace(0.0, math.pi, 9)
    for seed, kind in enumerate(Protocol):
        proto = ProtocolSpec(kind, rng.uniform(0.0, 1.0))
        cos_delta, q = _couplings(RecordingRng([4, seed]), n, proto.p, kind)
        bins = np.digitize(np.arccos(np.clip(cos_delta, -1.0, 1.0)), edges[1:-1])
        p_anti = 0.5 * (1.0 + proto.effective_p * cos_delta)
        observed = np.concatenate([np.bincount(bins, weights=q == s, minlength=8)
                                   for s in (-1.0, 1.0)])
        expected = np.concatenate([np.bincount(bins, weights=w, minlength=8)
                                   for w in (p_anti, 1.0 - p_anti)])
        result = scipy.stats.chisquare(observed, expected, ddof=7)
        assert result.pvalue > 0.01


def _recorded_turns(seed, n):
    """The two turn blocks one classical ``n``-step kernel call draws."""
    rng = RecordingRng(seed)
    _separation_deltas(n, 1.0, ProtocolSpec(Protocol.CLASSICAL), rng)
    # three blocks in turn: A's turns, B's turns, the coupling uniforms
    assert [draw.shape for draw in rng.randoms] == [(n,)] * 3
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
@given(a=angles, b=angles, p=mixings, seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(list(Protocol)))
def test_sampler_signs_are_valid(a, b, p, seed, kind):
    coupling = np.random.default_rng(seed).random(16)
    rng = ScriptedRng(randoms=[a / TWO_PI % 1.0, b / TWO_PI % 1.0, coupling])
    _, q = _couplings(rng, 16, p, kind)  # asserts |q| = 1
    assert np.all(np.isin(q, (-1.0, 1.0)))
