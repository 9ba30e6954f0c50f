"""Two-agent correlated random walk on the infinite plane.

Each simultaneous step draws two independent uniform directions and a
correlated sign pair; agent A moves along ``sigma_a * n_a`` while agent B
moves along ``-sigma_b * n_b`` ("plus" rule, effective attraction) or
``+sigma_b * n_b`` ("minus" rule, effective repulsion).  The classical
reference walk uses independent fair signs.

The analytic mean-square separation after one step is
``r'^2 = r^2 + w * l^2`` with

    w(plus, p)      = 2 - p
    w(minus, p)     = 2 + p
    w(classical)    = 2

so ``w(plus) + w(minus) = 4`` for every mixing parameter.  These closed
forms are gated in the test suite by a brute-force direction-grid oracle
before anything downstream trusts them.

One kernel, ``_separation_deltas``, draws ``n`` steps from one
generator as three blocks of ``n`` uniforms in turn: A's turns, B's
turns, then the coupling uniforms.  Each direction comes from a table
and a rotation (``_direction``) and the coupling reads the directions'
dot product, so a step spends no transcendental.

Every walk reads its generator in pieces of at most ``_MC_CHUNK``
walker-steps, each piece one kernel call, so memory stays bounded
whatever the sample, step and walker counts.  An ensemble splits its walkers into
fixed chunks of ``_WALKER_CHUNK``: walkers ``[256 c, 256 c + 256)``
draw from one substream, ``default_rng([seed, c])``, in pieces of whole
steps.  Both sizes are constants of the stream layout, so results are a
pure function of the seed and parameters.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .correlations import TWO_PI

# The stream layout: walkers per ensemble substream, and walker-steps
# per kernel call.  Changing either changes walk outputs.  glibc trims
# the heap's free top whenever it frees a chunk of 64 KiB or more, and
# the direction kernel's temporaries leave more than its 128 KiB trim
# threshold there, so 8192-element pieces fault their pages back in on
# every piece; 32 KiB ones are reused in place.
_WALKER_CHUNK = 256
_MC_CHUNK = 1 << 12

#: Uniforms one step reads: A's turn, B's turn, the coupling.  An
#: ``n``-sample ``mc_sq_separation`` call advances its generator by
#: ``MC_DRAWS_PER_SAMPLE * n`` draws.
MC_DRAWS_PER_SAMPLE = 3

_MIN_MC_SAMPLES = 1000


class Protocol(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"
    CLASSICAL = "classical"


@dataclass(frozen=True)
class ProtocolSpec:
    """Walk protocol: step-sign rule plus the mixing parameter.

    ``p`` is ignored for the classical protocol, whose signs are
    independent fair coins (equivalent to sampling with ``p = 0``).
    """

    kind: Protocol
    p: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, Protocol):
            raise ValueError(f"unknown protocol kind: {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"mixing parameter must lie in [0, 1], got {self.p}")

    @property
    def effective_p(self) -> float:
        """Mixing parameter actually used when sampling signs."""
        return 0.0 if self.kind is Protocol.CLASSICAL else float(self.p)

    @property
    def b_step_sign(self) -> float:
        """Sign of agent B's move along ``sigma_b * n_b`` (-1 under the plus rule)."""
        return 1.0 if self.kind is Protocol.MINUS else -1.0


def weight(kind: Protocol, p: float = 1.0) -> float:
    """Mean-square step-law weight ``w`` with ``r'^2 = r^2 + w l^2``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
    if kind is Protocol.PLUS:
        return 2.0 - p
    if kind is Protocol.MINUS:
        return 2.0 + p
    if kind is Protocol.CLASSICAL:
        return 2.0
    raise ValueError(f"unknown protocol kind: {kind!r}")


@dataclass(frozen=True)
class WalkState:
    """Positions of the two agents and the common step length."""

    pos_a: np.ndarray
    pos_b: np.ndarray
    step_length: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos_a", np.asarray(self.pos_a, dtype=float))
        object.__setattr__(self, "pos_b", np.asarray(self.pos_b, dtype=float))
        if self.pos_a.shape != (2,) or self.pos_b.shape != (2,):
            raise ValueError("positions must be 2-D points")
        _check_scales(self.separation, self.step_length)

    @property
    def separation(self) -> float:
        return float(np.hypot(*(self.pos_a - self.pos_b)))


def _check_scales(r: float, l: float) -> None:
    """Raise unless ``r`` is finite and nonnegative and ``l`` finite and positive."""
    if not 0.0 <= r < math.inf:
        raise ValueError(f"separation must be finite and nonnegative, got {r}")
    if not 0.0 < l < math.inf:
        raise ValueError(f"step length must be finite and positive, got {l}")


def expected_sq_separation(r: float, l: float, proto: ProtocolSpec) -> float:
    """Analytic mean-square separation after one step from separation ``r``."""
    _check_scales(r, l)
    return r * r + weight(proto.kind, proto.effective_p) * l * l


# The direction kernel's table: ``_TURNS`` turns per revolution.
_TURNS = 1024
_TURN_ANGLE = TWO_PI / _TURNS


@functools.cache
def _turn_table() -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(cos, sin)`` of ``2 pi k / 1024`` for ``k = 0 .. 1024``.

    One quarter is taken from whichever of ``sin`` and ``cos`` has its
    argument below ``pi / 4``; the rest is that quarter mirrored, so
    multiples of a quarter turn are exactly ``+-1`` and ``0``.  Built on
    first use, so that commands which take no walk step (``curve``,
    ``threshold``) pay for it neither in time nor in peak memory.
    """
    j = np.arange(_TURNS // 4 + 1)
    rest = _TURNS // 4 - j
    quarter = np.where(j <= rest, np.sin(j * _TURN_ANGLE), np.cos(rest * _TURN_ANGLE))
    rise, fall = quarter[1:], quarter[-2::-1]
    sine = np.concatenate([quarter, fall, -rise, -fall, rise])  # five quarters
    sine.flags.writeable = False
    return sine[_TURNS // 4 :], sine[: _TURNS + 1]


def _direction(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(cos 2 pi u, sin 2 pi u)`` for turn fractions ``u`` in ``[0, 1)``.

    Tang's table-driven reduction (ACM TOMS 15, 1989), with no
    transcendental call.  ``1024 u``, ``k = rint(1024 u)`` and their
    difference are exact, so only the remainder angle
    ``delta = (1024 u - k) 2 pi / 1024`` rounds.  As ``|delta| <= pi / 1024``,
    ``cos delta - 1 = -delta^2/2 + delta^4/24`` and
    ``sin delta = delta - delta^3/6 + delta^5/120`` drop terms below
    1.2e-18.  The table's ``(cos, sin)`` at turn ``k`` is rotated by
    ``delta``, the small corrections summed before the table value is
    added.  Both parts lie within 4 eps of ``np.cos``/``np.sin(2 pi u)``
    (3.25 eps over 1e7 draws), quarter turns give exactly ``+-1`` and
    ``+0``, and near the axis the sine keeps its relative accuracy.
    """
    x = u * _TURNS
    k = np.rint(x)
    x -= k
    x *= _TURN_ANGLE  # delta
    i = k.astype(np.intp)
    d2 = np.multiply(x, x, out=k)
    cm1 = d2 * (1.0 / 24.0)  # cos(delta) - 1
    cm1 -= 0.5
    cm1 *= d2
    sd = d2 * (1.0 / 120.0)  # sin(delta)
    sd -= 1.0 / 6.0
    sd *= d2
    sd *= x
    sd += x
    cos_table, sin_table = _turn_table()
    ck, sk = cos_table[i], sin_table[i]
    c = np.multiply(ck, cm1, out=d2)
    c -= np.multiply(sk, sd, out=x)
    c += ck
    s = np.multiply(sk, cm1, out=cm1)
    s += np.multiply(ck, sd, out=sd)
    s += sk
    return c, s


def _separation_deltas(
    n: int, l: float, proto: ProtocolSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step change of the separation vector for ``n`` independent steps.

    Reads three blocks of ``n`` uniforms from ``rng`` in turn: A's turns,
    B's turns, then the coupling uniforms.  The step
    ``l (sigma_a n_a - s sigma_b n_b)``, ``s = b_step_sign``, is
    ``l (n_a - s q n_b)`` with ``sigma_a`` folded into the directions: a fair
    sign keeps the pair uniform and their angle ``delta``.  ``q = sigma_a
    sigma_b`` is -1 with probability ``(1 + p cos delta) / 2``.  The step
    is written into the direction arrays, never into a drawn one.
    """
    ca, sa = _direction(rng.random(n))
    cb, sb = _direction(rng.random(n))
    anti = ca * cb  # P(q = -1) from cos delta, the directions' dot product
    anti += sa * sb
    anti *= 0.5 * proto.effective_p
    anti += 0.5
    sl = proto.b_step_sign * l
    # bool arithmetic rather than np.where, which branches per element
    gb = np.multiply(rng.random(n) < anti, 2.0 * sl, out=anti)  # -s q l
    gb -= sl
    cb *= gb
    ca *= l
    ca += cb
    sb *= gb
    sa *= l
    sa += sb
    return ca, sa


def mc_sq_separation(
    r: float,
    l: float,
    proto: ProtocolSpec,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of ``r'^2`` over single steps.

    The samples are the steps of kernel calls of at most ``_MC_CHUNK``
    steps on ``rng``; piece means and sums of squared deviations are
    merged by the Chan-Golub-LeVeque update.  On return ``rng`` stands
    ``MC_DRAWS_PER_SAMPLE * n_samples`` draws further on.  Raises
    ``ValueError`` when ``r'^2`` or its spread overflows.
    """
    if n_samples < _MIN_MC_SAMPLES:
        raise ValueError(
            f"n_samples must be at least {_MIN_MC_SAMPLES}, got {n_samples}"
        )
    _check_scales(r, l)
    n = int(n_samples)
    count, mean, m2 = 0, 0.0, 0.0
    # an overflow is reported once, below, rather than warned per piece
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _MC_CHUNK):
            dx, dy = _separation_deltas(min(_MC_CHUNK, n - lo), l, proto, rng)
            r2 = (r + dx) ** 2 + dy**2
            k = len(r2)
            piece_mean = float(np.mean(r2))
            delta = piece_mean - mean
            total = count + k
            mean += delta * (k / total)
            m2 += (float(np.sum((r2 - piece_mean) ** 2))
                   + delta * delta * count * k / total)
            count = total
    if not (math.isfinite(mean) and math.isfinite(m2)):
        raise ValueError(f"r'^2 or its spread overflows at r = {r}, l = {l}")
    return mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)


@dataclass(frozen=True)
class EnsembleResult:
    """Per-step statistics of ``run_ensemble``; arrays have length ``n_steps + 1``.

    ``stderr_r2[t]`` is the standard error of ``mean_r2[t]`` over the
    walkers (0 at step 0, NaN with a single walker).
    ``meeting_fraction[t]`` is the fraction of walker pairs whose
    separation dropped to ``meeting_radius`` or below at or before step
    ``t`` (step 0 is the initial configuration).
    """

    mean_r2: np.ndarray
    stderr_r2: np.ndarray
    meeting_fraction: np.ndarray


def _add_chunk_stats(
    totals: tuple[np.ndarray, np.ndarray, np.ndarray],
    rng: np.random.Generator,
    n_walkers: int,
    sep0: np.ndarray,
    l: float,
    proto: ProtocolSpec,
    meeting_radius: float,
) -> None:
    """Add one walker chunk's per-step sums to ``totals``.

    ``totals`` holds the running per-step sums of ``r^2``, of ``r^4`` and
    of "met by now"; their length is ``n_steps + 1``.  Each piece of
    ``k`` whole steps is one ``_separation_deltas(k * n_walkers)`` call
    on ``rng``, step-major as ``(k, n_walkers)``.  The carried position
    is added to a piece's first row before the running sum, so positions
    are the plain running sum of all steps.
    """
    r2_total, r4_total, met_total = totals
    n_steps = len(r2_total) - 1
    x, y = (np.full(n_walkers, c) for c in sep0)
    eps2 = meeting_radius * meeting_radius
    met = x * x + y * y <= eps2
    met_total[0] += np.count_nonzero(met)  # run_ensemble writes step 0's r^2 itself
    piece = max(1, _MC_CHUNK // n_walkers)
    for lo in range(0, n_steps, piece):
        k = min(piece, n_steps - lo)
        dx, dy = (d.reshape(k, n_walkers)
                  for d in _separation_deltas(k * n_walkers, l, proto, rng))
        dx[0] += x
        dy[0] += y
        for d in (dx, dy):  # positions: cumsum's additions, in place
            if k <= _MC_CHUNK // _WALKER_CHUNK:  # a call per row beats one per column
                for j in range(1, k):
                    d[j] += d[j - 1]
            else:
                np.add.accumulate(d, axis=0, out=d)
        x, y = dx[-1].copy(), dy[-1].copy()
        dx *= dx
        dy *= dy
        dx += dy  # r^2
        hit = dx <= eps2
        hit[0] |= met
        met = hit.any(axis=0)
        rows = slice(lo + 1, lo + k + 1)
        r2_total[rows] += dx.sum(axis=1)
        dx *= dx  # r^4
        r4_total[rows] += dx.sum(axis=1)
        # each walker counts from its first hit row on
        met_total[rows] += np.bincount(hit.argmax(axis=0)[met], minlength=k).cumsum()


def run_ensemble(
    initial: WalkState,
    proto: ProtocolSpec,
    n_steps: int,
    n_walkers: int,
    meeting_radius: float,
    seed: int,
) -> EnsembleResult:
    """Evolve ``n_walkers`` independent pairs for ``n_steps`` steps.

    Walkers ``[256 c, 256 c + 256)`` draw from ``default_rng([seed, c])``,
    and chunk sums are added in chunk order, so the output is a pure
    function of the arguments.  Raises ``ValueError`` if the squared
    meeting radius overflows, or if ``r^2`` or its spread can: the walkers'
    summed ``r^4`` at the reach.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    if n_walkers < 1:
        raise ValueError(f"n_walkers must be at least 1, got {n_walkers}")
    if not 0.0 <= meeting_radius < math.inf:
        raise ValueError(f"meeting radius must be finite and >= 0: {meeting_radius}")
    if not math.isfinite(meeting_radius * meeting_radius):
        raise ValueError(f"meeting radius = {meeting_radius} overflows when squared")
    # every separation stays within |sep0| + 2 l n_steps of the origin
    reach = initial.separation + 2.0 * initial.step_length * n_steps
    if not math.isfinite(n_walkers * reach * reach * reach * reach):
        raise ValueError(f"r^2 or its spread overflows at reach {reach}")

    sep0 = initial.pos_a - initial.pos_b
    # per-step sums of r^2, r^4 and "met by now"; counts below 2^53 are exact
    r2_total, r4_total, met_total = np.zeros((3, n_steps + 1))
    for chunk, lo in enumerate(range(0, n_walkers, _WALKER_CHUNK)):
        rng = np.random.default_rng([seed, chunk])
        _add_chunk_stats((r2_total, r4_total, met_total), rng,
                         min(_WALKER_CHUNK, n_walkers - lo), sep0,
                         initial.step_length, proto, meeting_radius)
    mean_r2 = r2_total / n_walkers
    if n_walkers > 1:  # in place: n (n - 1) stderr^2 = sum r^4 - mean * sum r^2
        r4_total -= np.multiply(r2_total, mean_r2, out=r2_total)
        stderr_r2 = np.maximum(r4_total, 0.0, out=r4_total)
        stderr_r2 /= n_walkers * (n_walkers - 1.0)
        np.sqrt(stderr_r2, out=stderr_r2)
    else:
        stderr_r2 = np.full(n_steps + 1, math.nan)
    # every walker starts at sep0: write |sep0|^2 itself, not a rounded mean
    x0, y0 = sep0
    mean_r2[0] = x0 * x0 + y0 * y0
    stderr_r2[0] = 0.0
    met_total /= n_walkers
    return EnsembleResult(mean_r2, stderr_r2, met_total)
