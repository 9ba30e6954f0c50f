import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwalk.walk import (
    _MC_CHUNK,
    MC_DRAWS_PER_SAMPLE,
    Protocol,
    ProtocolSpec,
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


def test_run_ensemble_validates_scales():
    proto = ProtocolSpec(Protocol.PLUS)
    with pytest.raises(ValueError, match="separation must be finite and nonnegative"):
        run_ensemble(-1.0, 0.5, proto, 2, 2, 0.05, seed=0)
    with pytest.raises(ValueError, match="step length must be finite and positive"):
        run_ensemble(1.0, 0.0, proto, 2, 2, 0.05, seed=0)


# ---------------------------------------------------------------------------
# single steps


def test_step_plus_common_axis_cancels():
    # scripted draws: both directions equal, so at full mixing the signs
    # are anti-correlated whatever the coupling uniform
    turn = 0.9 / (2.0 * math.pi)
    rng = ScriptedRng(randoms=[turn, turn, np.array([0.2, 0.9])])
    dx, dy = _separation_deltas(2, 0.5, ProtocolSpec(Protocol.PLUS, 1.0), rng)
    assert np.all(np.abs(dx) <= 1e-12)
    assert np.all(np.abs(dy) <= 1e-12)


def test_step_minus_common_axis_doubles():
    # the second step's common axis is half a turn from the first's
    turns = 0.9 / (2.0 * math.pi) + np.array([0.0, 0.5])
    rng = ScriptedRng(randoms=[turns, turns, 0.2])
    dx, dy = _separation_deltas(2, 0.5, ProtocolSpec(Protocol.MINUS, 1.0), rng)
    sign = np.array([1.0, -1.0])
    assert dx == pytest.approx(2 * 0.5 * sign * math.cos(0.9), abs=1e-12)
    assert dy == pytest.approx(2 * 0.5 * sign * math.sin(0.9), abs=1e-12)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(list(Protocol)),
    p=mixings,
)
def test_step_triangle_inequality(seed, kind, p):
    rng = np.random.default_rng(seed)
    sep = rng.normal(size=2)
    dx, dy = _separation_deltas(64, 0.7, ProtocolSpec(kind, p), rng)
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
        dx, dy = _separation_deltas(1000, 0.5, ProtocolSpec(kind, 1.0), rng)
        assert np.all(np.hypot(dx, dy) <= 2 * 0.5 + 1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def test_mc_rejects_tiny_sample_counts():
    with pytest.raises(ValueError):
        mc_sq_separation(1.0, 0.5, ProtocolSpec(Protocol.PLUS), 999,
                         np.random.default_rng(0))


def _reference_deltas(n, l, proto, rng):
    """``n`` steps from three blocks of ``rng``: A's turns, B's turns, the coupling.

    The step is ``l (n_a - s q n_b)``, ``s = b_step_sign``, with
    ``q = sigma_a sigma_b = -1`` with probability ``(1 + p cos delta) / 2``.
    Directions by ``np.cos``/``np.sin``, ``q`` by ``np.where``.
    """
    ang_a = 2.0 * math.pi * rng.random(n)
    ang_b = 2.0 * math.pi * rng.random(n)
    p_anti = 0.5 * (1.0 + proto.effective_p * np.cos(ang_a - ang_b))
    q = np.where(rng.random(n) < p_anti, -1, 1)
    coeff_b = -proto.b_step_sign * q
    dx = l * (np.cos(ang_a) + coeff_b * np.cos(ang_b))
    dy = l * (np.sin(ang_a) + coeff_b * np.sin(ang_b))
    return dx, dy


def _piecewise_reference(r, l, proto, n, rng):
    """Mean and stderr of ``r'^2`` over pieces of ``_MC_CHUNK`` steps, in order."""
    pieces = [_reference_deltas(min(_MC_CHUNK, n - lo), l, proto, rng)
              for lo in range(0, n, _MC_CHUNK)]
    dx, dy = (np.concatenate(d) for d in zip(*pieces))
    r2 = (r + dx) ** 2 + dy**2
    return float(np.mean(r2)), float(np.std(r2, ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("kind", list(Protocol))
def test_mc_draws_each_piece_in_order(kind):
    # three full pieces and a ragged one; the generators first hand out a
    # 32-bit integer, so half a 64-bit draw stays buffered across the call
    n = 3 * _MC_CHUNK + 17
    proto = ProtocolSpec(kind, 0.6)
    rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
    rng.integers(0, 10, dtype=np.int32)
    ref_rng.integers(0, 10, dtype=np.int32)
    mean, stderr = mc_sq_separation(1.3, 0.7, proto, n, rng)
    ref_mean, ref_stderr = _piecewise_reference(1.3, 0.7, proto, n, ref_rng)
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


def test_mc_reads_any_bit_generator_in_order():
    # MT19937 has no advance; the walk needs none
    n = 2 * _MC_CHUNK + 5
    proto = ProtocolSpec(Protocol.MINUS, 0.4)
    rng = np.random.Generator(np.random.MT19937(3))
    ref_rng = np.random.Generator(np.random.MT19937(3))
    mean, stderr = mc_sq_separation(0.8, 0.5, proto, n, rng)
    ref_mean, ref_stderr = _piecewise_reference(0.8, 0.5, proto, n, ref_rng)
    assert abs(mean / ref_mean - 1.0) <= 1e-13
    assert abs(stderr / ref_stderr - 1.0) <= 1e-13
    skipped = np.random.Generator(np.random.MT19937(3))
    skipped.random(MC_DRAWS_PER_SAMPLE * n)
    state, expected = (g.bit_generator.state["state"] for g in (rng, skipped))
    assert state["pos"] == expected["pos"]
    assert np.array_equal(state["key"], expected["key"])


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
    res = run_ensemble(1.0, 0.5, proto, 1, 200_000, 0.05, seed=3)
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
    res = run_ensemble(r0, l, proto, 100, n, 0.0, seed=0)
    for t in (1, 10, 100):
        sigma = math.sqrt(2 * m2 * r0 * r0 * t + m2 * m2 * t * (t - 2) + m4 * t)
        assert abs(res.mean_r2[t] - (r0 * r0 + t * m2)) <= 4.0 * sigma / math.sqrt(n)
        assert abs(res.stderr_r2[t] * math.sqrt(n) / sigma - 1.0) <= 0.05


def radial_chain_meeting(kind, p, r0, l, eps, n_steps, h=0.02, r_max=12.0, nodes=64):
    """``meeting_fraction`` by the Markov chain of ``R = |X_t|`` on ``h``-wide bins.

    Increments are i.i.d. and isotropic, of length ``L = 2 l cos(theta / 2)``
    with ``theta`` of density ``(1 -+ p cos theta) / pi`` on ``[0, pi]``
    (minus for plus, plus for minus, ``p = 0`` for classical), so from
    ``R`` the next radius is at most ``x`` with probability
    ``E_theta[arccos((R^2 + L^2 - x^2) / (2 R L)) / pi]`` (Gauss-Legendre
    in ``theta``).  Bin 0 is the absorbing ``[0, eps]``; the others step
    from their centres, the first step from ``r0`` itself.  Mass beyond
    ``r_max`` is dropped: from there the disk is at least 12 steps away.
    """
    sign = {Protocol.PLUS: -1.0, Protocol.MINUS: 1.0}.get(kind, 0.0)
    x, gauss = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * math.pi * (x + 1.0)
    density = 0.5 * gauss * (1.0 + sign * p * np.cos(theta))
    step = 2.0 * l * np.cos(0.5 * theta)
    edges = eps + h * np.arange(round((r_max - eps) / h) + 1)

    def row(r):
        cos_turn = (r * r + step * step - edges[:, None] ** 2) / (2.0 * r * step)
        cdf = np.arccos(np.clip(cos_turn, -1.0, 1.0)) @ density / math.pi
        return np.diff(cdf, prepend=0.0)

    kernel = np.array([row(r) for r in edges[:-1] + 0.5 * h])
    kernel = np.vstack([np.eye(1, edges.size), kernel])
    mass = row(r0)
    met = [0.0, mass[0]]
    for _ in range(n_steps - 1):
        mass = mass @ kernel
        met.append(mass[0])
    return np.array(met)


@pytest.mark.parametrize("kind", list(Protocol))
def test_meeting_fraction_matches_the_radial_chain(kind):
    r0, l, eps, n = 1.0, 0.5, 0.05, 10_000
    proto = ProtocolSpec(kind, 1.0)
    chain = radial_chain_meeting(kind, proto.effective_p, r0, l, eps, 50)
    res = run_ensemble(r0, l, proto, 50, n, eps, seed=0)
    assert chain[0] == res.meeting_fraction[0] == 0.0
    for t in (10, 50):
        stderr = math.sqrt(chain[t] * (1.0 - chain[t]) / n)
        assert abs(res.meeting_fraction[t] - chain[t]) <= 4.0 * stderr


def test_ensemble_zero_steps_returns_initial_row():
    res = run_ensemble(1.0, 0.5, ProtocolSpec(Protocol.PLUS), 0, 1, 0.05, seed=3)
    assert res.mean_r2.shape == (1,)
    assert res.mean_r2[0] == 1.0
    assert res.stderr_r2[0] == 0.0
    assert res.meeting_fraction[0] == 0.0


def test_ensemble_zero_meeting_radius_never_meets():
    res = run_ensemble(1.0, 0.5, ProtocolSpec(Protocol.CLASSICAL), 50, 400, 0.0,
                       seed=5)
    assert np.all(res.meeting_fraction == 0.0)


def test_ensemble_deterministic_across_reruns():
    proto = ProtocolSpec(Protocol.MINUS, 0.7)
    runs = [run_ensemble(1.5, 0.5, proto, 60, 700, 0.1, seed=21) for _ in range(3)]
    for other in runs[1:]:
        assert np.array_equal(runs[0].mean_r2, other.mean_r2)
        assert np.array_equal(runs[0].meeting_fraction, other.meeting_fraction)


def _ensemble_reference(seed, chunk, sep0, l, proto, n_steps, walkers, deltas):
    """Per-step ``r^2`` of one walker chunk, ``(n_steps + 1, walkers)``.

    ``default_rng([seed, chunk])`` is drawn in pieces of
    ``_MC_CHUNK // walkers`` whole steps, each piece ``deltas`` on its own
    three blocks; the positions are one running sum over all steps.
    """
    rng = np.random.default_rng([seed, chunk])
    piece = _MC_CHUNK // walkers
    pieces = [deltas(min(piece, n_steps - lo) * walkers, l, proto, rng)
              for lo in range(0, n_steps, piece)]
    dx, dy = (np.concatenate(d).reshape(-1, walkers) for d in zip(*pieces))
    x = np.cumsum(np.vstack([np.full(walkers, sep0[0]), dx]), axis=0)
    y = np.cumsum(np.vstack([np.full(walkers, sep0[1]), dy]), axis=0)
    return x * x + y * y


def test_ensemble_follows_the_chunk_seeded_stream_layout():
    # 300 walkers span two walker chunks (256 + 44); 300 steps are 18
    # pieces of 16 steps and a ragged 12 in the first, 3 pieces of 93
    # and a ragged 21 in the second
    seed, eps, l = 13, 0.3, 0.5
    proto = ProtocolSpec(Protocol.PLUS, 0.8)
    res = run_ensemble(1.2, l, proto, 300, 300, eps, seed=seed)
    # libm's directions agree to rounding; the kernel's own ones exactly
    for deltas, rtol in ((_reference_deltas, 1e-13), (_separation_deltas, 0.0)):
        chunks = [
            _ensemble_reference(seed, chunk, (-1.2, 0.0), l, proto, 300,
                                walkers, deltas)
            for chunk, walkers in enumerate((256, 44))
        ]
        r2 = np.hstack(chunks)
        met = np.logical_or.accumulate(r2 <= eps * eps, axis=0)
        expected = sum(np.sum(c, axis=1) for c in chunks) / 300
        expected[0] = 1.2 * 1.2  # step 0 is r^2, not a rounded mean
        assert np.array_equal(res.meeting_fraction, np.count_nonzero(met, axis=1) / 300)
        assert np.allclose(res.mean_r2, expected, rtol=rtol, atol=0.0)
        stderr = np.std(r2, axis=1, ddof=1) / math.sqrt(300)
        assert res.stderr_r2[0] == 0.0
        assert np.allclose(res.stderr_r2[1:], stderr[1:], rtol=1e-10, atol=0.0)


def test_ensemble_memory_does_not_grow_with_steps():
    # only the per-step arrays are O(steps): from 2 000 to 20 000 steps
    # the peak grows by at most the size of the result's arrays
    proto = ProtocolSpec(Protocol.PLUS, 1.0)
    peaks = []
    for n_steps in (2_000, 20_000):
        tracemalloc.start()
        try:
            res = run_ensemble(1.0, 0.5, proto, n_steps, 300, 0.05, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    result_bytes = sum(a.nbytes for a in (res.mean_r2, res.stderr_r2,
                                          res.meeting_fraction))
    print(peaks, peaks[1] - peaks[0], result_bytes)
    assert peaks[1] - peaks[0] <= result_bytes


def test_ensemble_attractive_meets_at_least_as_often_as_classical():
    # separation 5 steps, detection radius 0.1 steps, 200 steps
    l = 0.5
    kwargs = dict(n_steps=200, n_walkers=10_000, meeting_radius=0.1 * l, seed=7)
    meet_plus = run_ensemble(
        5 * l, l, ProtocolSpec(Protocol.PLUS, 1.0), **kwargs).meeting_fraction[-1]
    meet_classical = run_ensemble(
        5 * l, l, ProtocolSpec(Protocol.CLASSICAL), **kwargs).meeting_fraction[-1]
    assert meet_plus >= meet_classical


def test_ensemble_meeting_fraction_monotone():
    res = run_ensemble(1.0, 0.5, ProtocolSpec(Protocol.PLUS, 1.0), 80, 400, 0.2, seed=2)
    assert np.all(np.diff(res.meeting_fraction) >= 0.0)


def test_ensemble_validation():
    proto = ProtocolSpec(Protocol.PLUS)
    with pytest.raises(ValueError):
        run_ensemble(1.0, 0.5, proto, -1, 10, 0.1, seed=0)
    with pytest.raises(ValueError):
        run_ensemble(1.0, 0.5, proto, 10, 0, 0.1, seed=0)
    with pytest.raises(ValueError):
        run_ensemble(1.0, 0.5, proto, 10, 10, -0.1, seed=0)


def test_ensemble_rejects_an_overflowing_spread():
    # r^2 = 1e154 is finite, but the walkers' summed r^4 is not: 2e308
    proto = ProtocolSpec(Protocol.PLUS)
    with pytest.raises(ValueError, match="spread overflows"):
        run_ensemble(1e77, 0.5, proto, 2, 2, 0.05, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_ensemble(1e77, 0.5, proto, 2, 1, 0.05, seed=0)
    assert np.all(np.isfinite(res.mean_r2))
