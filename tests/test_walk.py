import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwalk.walk import (
    _MC_CHUNK,
    Protocol,
    ProtocolSpec,
    WalkState,
    _direction,
    _separation_deltas,
    expected_sq_separation,
    mc_sq_separation,
    run_ensemble,
    weight,
)

from conftest import ScriptedRng, grid_weight

mixings = st.floats(min_value=0.0, max_value=1.0)


# ---------------------------------------------------------------------------
# analytic weights, gated by the brute-force grid oracle


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_weights_confirmed_by_grid_oracle(p):
    # attractive rule: B's sign enters the separation change with +1
    assert abs(grid_weight(+1, p, n=512) - weight(Protocol.PLUS, p)) < 1e-9
    assert abs(grid_weight(-1, p, n=512) - weight(Protocol.MINUS, p)) < 1e-9


@given(p=mixings)
def test_weight_duality_and_bounds(p):
    w_plus = weight(Protocol.PLUS, p)
    w_minus = weight(Protocol.MINUS, p)
    assert w_plus + w_minus == 4.0
    assert 1.0 <= w_plus <= 2.0
    assert 2.0 <= w_minus <= 3.0
    assert weight(Protocol.CLASSICAL, p) == 2.0


@given(p=mixings)
def test_msd_ordering(p):
    base = expected_sq_separation(1.3, 0.4, ProtocolSpec(Protocol.CLASSICAL))
    plus = expected_sq_separation(1.3, 0.4, ProtocolSpec(Protocol.PLUS, p))
    minus = expected_sq_separation(1.3, 0.4, ProtocolSpec(Protocol.MINUS, p))
    assert plus <= base <= minus
    if p >= 1e-12:  # strictness drowns in rounding below this
        assert plus < base < minus


def test_expected_sq_separation_reference_values():
    assert expected_sq_separation(1.0, 0.5, ProtocolSpec(Protocol.PLUS, 1.0)) == 1.25
    assert expected_sq_separation(1.0, 0.5, ProtocolSpec(Protocol.MINUS, 1.0)) == 1.75
    assert expected_sq_separation(1.0, 0.5, ProtocolSpec(Protocol.CLASSICAL)) == 1.5
    assert expected_sq_separation(1.0, 1.0, ProtocolSpec(Protocol.PLUS, 0.0)) == 3.0
    assert expected_sq_separation(1.0, 1.0, ProtocolSpec(Protocol.PLUS, 0.5)) == 2.5


def test_partial_mixing_value_matches_grid_oracle():
    oracle = grid_weight(+1, 0.5, n=512) + 1.0  # mean r'^2 at r = l = 1
    assert abs(oracle - 2.5) < 1e-9
    analytic = expected_sq_separation(1.0, 1.0, ProtocolSpec(Protocol.PLUS, 0.5))
    assert abs(oracle - analytic) < 1e-9


def test_protocol_validation():
    with pytest.raises(ValueError):
        ProtocolSpec(Protocol.PLUS, 1.5)
    with pytest.raises(ValueError):
        ProtocolSpec("plus", 1.0)
    assert ProtocolSpec(Protocol.CLASSICAL, 0.9).effective_p == 0.0


def test_walk_state_validation():
    with pytest.raises(ValueError):
        WalkState((0.0, 0.0), (1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        WalkState((0.0, 0.0, 0.0), (1.0, 0.0), 1.0)
    assert WalkState((0.0, 0.0), (3.0, 4.0), 1.0).separation == 5.0


# ---------------------------------------------------------------------------
# single steps


def test_step_plus_common_axis_cancels():
    # scripted draws: both directions equal, perfectly anti-correlated
    # signs; sigma_a is +1 for the first step and -1 for the second
    turn = 0.9 / (2.0 * math.pi)
    rng = ScriptedRng(randoms=[turn, turn, np.array([0.3, 0.7]), 0.2])
    dx, dy = _separation_deltas(2, 0.5, ProtocolSpec(Protocol.PLUS, 1.0), (rng,) * 4)
    assert np.all(np.abs(dx) <= 1e-12)
    assert np.all(np.abs(dy) <= 1e-12)


def test_step_minus_common_axis_doubles():
    turn = 0.9 / (2.0 * math.pi)
    rng = ScriptedRng(randoms=[turn, turn, np.array([0.3, 0.7]), 0.2])
    dx, dy = _separation_deltas(2, 0.5, ProtocolSpec(Protocol.MINUS, 1.0), (rng,) * 4)
    sigma_a = np.array([1.0, -1.0])
    assert dx == pytest.approx(2 * 0.5 * sigma_a * math.cos(0.9), abs=1e-12)
    assert dy == pytest.approx(2 * 0.5 * sigma_a * math.sin(0.9), abs=1e-12)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(list(Protocol)),
    p=mixings,
)
def test_step_triangle_inequality(seed, kind, p):
    rng = np.random.default_rng(seed)
    sep = rng.normal(size=2)
    dx, dy = _separation_deltas(64, 0.7, ProtocolSpec(kind, p), (rng,) * 4)
    r_prime = np.hypot(sep[0] + dx, sep[1] + dy)
    assert np.all(np.abs(r_prime - np.hypot(*sep)) <= 2 * 0.7 + 1e-12)


def test_direction_kernel_matches_libm():
    eps = np.finfo(float).eps
    u = np.random.default_rng(31).random(1_000_000)
    c, s = _direction(u)
    assert np.max(np.abs(c - np.cos(2.0 * math.pi * u))) <= 4 * eps
    assert np.max(np.abs(s - np.sin(2.0 * math.pi * u))) <= 4 * eps
    assert np.max(np.abs(c * c + s * s - 1.0)) <= 4 * eps
    # a second route: against 60-digit values, where 2 pi u is not rounded
    with mpmath.workdps(60):
        for ui, ci, si in zip(u[:2000], c[:2000], s[:2000]):
            angle = 2 * mpmath.pi * mpmath.mpf(float(ui))
            assert abs(mpmath.cos(angle) - ci) <= eps
            assert abs(mpmath.sin(angle) - si) <= eps
    c, s = _direction(np.array([0.0, 0.25, 0.5, 0.75]))
    assert np.array_equal(c, [1.0, 0.0, -1.0, 0.0])
    assert np.array_equal(s, [0.0, 1.0, 0.0, -1.0])
    assert not np.any(np.signbit(c[[1, 3]]))  # +0 at the quarter turns
    assert not np.any(np.signbit(s[[0, 2]]))  # +0, as sin is there
    # near the x axis, where 2 pi u itself is the sine to the last digit;
    # the last turn reads the table's end, k = 1024
    u = np.array([1e-300, 1e-12, 1.0 - 2.0**-53])
    c, s = _direction(u)
    assert np.array_equal(c, [1.0, 1.0, 1.0])
    assert s == pytest.approx([2.0 * math.pi * 1e-300, 2.0 * math.pi * 1e-12,
                               -2.0 * math.pi * 2.0**-53], rel=2 * eps, abs=0.0)


def test_step_from_coincident_start():
    rng = np.random.default_rng(11)
    for kind in Protocol:
        dx, dy = _separation_deltas(1000, 0.5, ProtocolSpec(kind, 1.0), (rng,) * 4)
        assert np.all(np.hypot(dx, dy) <= 2 * 0.5 + 1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def test_mc_rejects_tiny_sample_counts():
    with pytest.raises(ValueError):
        mc_sq_separation(1.0, 0.5, ProtocolSpec(Protocol.PLUS), 999,
                         np.random.default_rng(0))


def _unchunked_reference(r, l, proto, n, rng):
    """One array draw of all four blocks from one generator, sines by ``np.sin``."""
    ang_a = rng.uniform(0.0, 2.0 * math.pi, n)
    ang_b = rng.uniform(0.0, 2.0 * math.pi, n)
    sigma_a = np.where(rng.random(n) < 0.5, 1, -1)
    p_anti = 0.5 * (1.0 + proto.effective_p * np.cos(ang_a - ang_b))
    sigma_b = np.where(rng.random(n) < p_anti, -sigma_a, sigma_a)
    coeff_b = -proto.b_step_sign
    dx = l * (sigma_a * np.cos(ang_a) + coeff_b * sigma_b * np.cos(ang_b))
    dy = l * (sigma_a * np.sin(ang_a) + coeff_b * sigma_b * np.sin(ang_b))
    r2 = (r + dx) ** 2 + dy**2
    return float(np.mean(r2)), float(np.std(r2, ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("kind", list(Protocol))
def test_mc_streams_the_draws_of_one_unchunked_call(kind):
    # three full blocks and a ragged one; the generators first hand out a
    # 32-bit integer, so half a 64-bit draw stays buffered across the call
    n = 3 * _MC_CHUNK + 17
    proto = ProtocolSpec(kind, 0.6)
    rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
    rng.integers(0, 10, dtype=np.int32)
    ref_rng.integers(0, 10, dtype=np.int32)
    mean, stderr = mc_sq_separation(1.3, 0.7, proto, n, rng)
    ref_mean, ref_stderr = _unchunked_reference(1.3, 0.7, proto, n, ref_rng)
    assert abs(mean / ref_mean - 1.0) <= 1e-13
    assert abs(stderr / ref_stderr - 1.0) <= 1e-13
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_mc_memory_does_not_grow_with_samples():
    proto = ProtocolSpec(Protocol.PLUS, 1.0)
    peaks = []
    for n in (250_000, 4_000_000):
        tracemalloc.start()
        try:
            mc_sq_separation(1.0, 0.5, proto, n, np.random.default_rng(2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_mc_rejects_generators_it_cannot_offset():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError):
        mc_sq_separation(1.0, 0.5, ProtocolSpec(Protocol.PLUS), 1000, rng)


@pytest.mark.parametrize(
    "kind,p,r,l,target",
    [
        (Protocol.PLUS, 1.0, 1.0, 0.5, 1.25),
        (Protocol.MINUS, 1.0, 0.0, 1.0, 3.0),
        (Protocol.PLUS, 0.3, 2.0, 1.0, 4.0 + 1.7),
    ],
)
def test_mc_matches_analytic_law(kind, p, r, l, target):
    mean, stderr = mc_sq_separation(
        r, l, ProtocolSpec(kind, p), 1_000_000, np.random.default_rng(17)
    )
    assert abs(mean - target) < 3.0 * stderr
    assert abs(target - expected_sq_separation(r, l, ProtocolSpec(kind, p))) < 1e-12


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("kind", list(Protocol))
def test_mc_sweep_all_protocols_and_mixings(kind, p):
    proto = ProtocolSpec(kind, p)
    mean, stderr = mc_sq_separation(
        1.0, 0.5, proto, 1_000_000, np.random.default_rng([23, int(100 * p)])
    )
    assert abs(mean - expected_sq_separation(1.0, 0.5, proto)) < 3.0 * stderr


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_single_step_matches_analytic():
    proto = ProtocolSpec(Protocol.PLUS, 1.0)
    res = run_ensemble(WalkState((0, 0), (1.0, 0), 0.5), proto, 1, 200_000, 0.05,
                       seed=3)
    target = expected_sq_separation(1.0, 0.5, proto)
    # stderr of the mean of r'^2 is below 2e-3 at this size
    assert abs(res.mean_r2[1] - target) < 0.006


@pytest.mark.parametrize("kind", list(Protocol))
def test_ensemble_spread_matches_the_exact_law(kind):
    # increments are i.i.d. and isotropic with m2 = E L^2 = w l^2 and
    # m4 = E L^4 = (6 -+ 4p) l^4 (minus for plus, plus for minus), so
    # Var r_t^2 = 2 m2 r0^2 t + m2^2 t (t - 2) + m4 t
    r0, l, n = 1.0, 0.5, 20_000
    proto = ProtocolSpec(kind, 1.0)
    p = proto.effective_p
    m2 = weight(kind, p) * l * l
    m4 = (6.0 + {Protocol.PLUS: -4.0, Protocol.MINUS: 4.0}.get(kind, 0.0) * p) * l**4
    res = run_ensemble(WalkState((0, 0), (r0, 0), l), proto, 100, n, 0.0, seed=0)
    for t in (1, 10, 100):
        sigma = math.sqrt(2 * m2 * r0 * r0 * t + m2 * m2 * t * (t - 2) + m4 * t)
        assert abs(res.mean_r2[t] - (r0 * r0 + t * m2)) <= 4.0 * sigma / math.sqrt(n)
        assert abs(res.stderr_r2[t] * math.sqrt(n) / sigma - 1.0) <= 0.05


def test_ensemble_zero_steps_returns_initial_row():
    res = run_ensemble(WalkState((0, 0), (1.0, 0), 0.5),
                       ProtocolSpec(Protocol.PLUS), 0, 1, 0.05, seed=3)
    assert res.mean_r2.shape == (1,)
    assert res.mean_r2[0] == 1.0
    assert res.stderr_r2[0] == 0.0
    assert res.meeting_fraction[0] == 0.0


def test_ensemble_zero_meeting_radius_never_meets():
    res = run_ensemble(WalkState((0, 0), (1.0, 0), 0.5),
                       ProtocolSpec(Protocol.CLASSICAL), 50, 400, 0.0, seed=5)
    assert np.all(res.meeting_fraction == 0.0)


def test_ensemble_translation_invariance():
    proto = ProtocolSpec(Protocol.PLUS, 1.0)
    shift = np.array([13.0, -8.0])
    base = run_ensemble(WalkState((0, 0), (2.5, 0), 0.5), proto, 50, 500, 0.25,
                        seed=9)
    moved = run_ensemble(WalkState(shift, shift + (2.5, 0), 0.5), proto, 50, 500,
                         0.25, seed=9)
    assert np.array_equal(base.mean_r2, moved.mean_r2)
    assert np.array_equal(base.meeting_fraction, moved.meeting_fraction)


def test_ensemble_deterministic_across_reruns():
    proto = ProtocolSpec(Protocol.MINUS, 0.7)
    runs = [
        run_ensemble(WalkState((0, 0), (1.5, 0), 0.5), proto, 60, 700, 0.1,
                     seed=21)
        for _ in range(3)
    ]
    for other in runs[1:]:
        assert np.array_equal(runs[0].mean_r2, other.mean_r2)
        assert np.array_equal(runs[0].meeting_fraction, other.meeting_fraction)


def test_ensemble_follows_the_chunk_seeded_stream_layout():
    # 300 walkers and 300 steps span two walker chunks (256 + 44) and two
    # step blocks (256 + 44); the reference draws each chunk's blocks from
    # default_rng([seed, chunk]) and runs one sum over all of its steps
    seed, eps, l = 13, 0.3, 0.5
    proto = ProtocolSpec(Protocol.PLUS, 0.8)
    res = run_ensemble(WalkState((0, 0), (1.2, 0.4), l), proto, 300, 300, eps,
                       seed=seed)
    r2_total = np.zeros(301)
    met_total = np.zeros(301, dtype=np.int64)
    r2_walkers = []
    for chunk, walkers in enumerate((256, 44)):
        rng = np.random.default_rng([seed, chunk])
        blocks = [_separation_deltas(k * walkers, l, proto, (rng,) * 4)
                  for k in (256, 44)]
        dx = np.vstack([bx.reshape(-1, walkers) for bx, _ in blocks])
        dy = np.vstack([by.reshape(-1, walkers) for _, by in blocks])
        x = np.cumsum(np.vstack([np.full(walkers, -1.2), dx]), axis=0)
        y = np.cumsum(np.vstack([np.full(walkers, -0.4), dy]), axis=0)
        r2 = x * x + y * y
        r2_total += np.sum(r2, axis=1)
        r2_walkers.append(r2)
        met_total += np.count_nonzero(
            np.logical_or.accumulate(r2 <= eps * eps, axis=0), axis=1
        )
    expected = r2_total / 300
    expected[0] = 1.2 * 1.2 + 0.4 * 0.4  # step 0 is |sep0|^2, not a rounded mean
    assert np.array_equal(res.mean_r2, expected)
    assert np.array_equal(res.meeting_fraction, met_total / 300)
    stderr = np.std(np.hstack(r2_walkers), axis=1, ddof=1) / math.sqrt(300)
    assert res.stderr_r2[0] == 0.0
    assert np.allclose(res.stderr_r2[1:], stderr[1:], rtol=1e-10, atol=0.0)


def test_ensemble_memory_does_not_grow_with_steps():
    state = WalkState((0, 0), (1.0, 0), 0.5)
    proto = ProtocolSpec(Protocol.PLUS, 1.0)
    peaks = []
    for n_steps in (2_000, 20_000):
        tracemalloc.start()
        try:
            run_ensemble(state, proto, n_steps, 300, 0.05, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


def test_ensemble_attractive_meets_at_least_as_often_as_classical():
    # separation 5 steps, detection radius 0.1 steps, 200 steps
    l = 0.5
    kwargs = dict(n_steps=200, n_walkers=10_000, meeting_radius=0.1 * l, seed=7)
    meet_plus = run_ensemble(
        WalkState((0, 0), (5 * l, 0), l), ProtocolSpec(Protocol.PLUS, 1.0), **kwargs
    ).meeting_fraction[-1]
    meet_classical = run_ensemble(
        WalkState((0, 0), (5 * l, 0), l), ProtocolSpec(Protocol.CLASSICAL), **kwargs
    ).meeting_fraction[-1]
    assert meet_plus >= meet_classical


def test_ensemble_meeting_fraction_monotone():
    res = run_ensemble(WalkState((0, 0), (1.0, 0), 0.5),
                       ProtocolSpec(Protocol.PLUS, 1.0), 80, 400, 0.2, seed=2)
    assert np.all(np.diff(res.meeting_fraction) >= 0.0)


def test_ensemble_validation():
    state = WalkState((0, 0), (1.0, 0), 0.5)
    proto = ProtocolSpec(Protocol.PLUS)
    with pytest.raises(ValueError):
        run_ensemble(state, proto, -1, 10, 0.1, seed=0)
    with pytest.raises(ValueError):
        run_ensemble(state, proto, 10, 0, 0.1, seed=0)
    with pytest.raises(ValueError):
        run_ensemble(state, proto, 10, 10, -0.1, seed=0)
