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

Ensembles split the walkers into fixed chunks of ``_WALKER_CHUNK``:
walkers ``[256 c, 256 c + 256)`` draw from one substream,
``default_rng([seed, c])``, and consume it in blocks of ``_STEP_BLOCK``
steps, each block one step-major array draw.  Both sizes are constants
of the stream layout, so results are a pure function of the seed and
parameters, and memory per chunk stays bounded whatever the step and
walker counts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .correlations import TWO_PI, sample_sign_arrays

# The ensemble's stream layout: walkers per substream and steps per
# array draw.  Changing either changes every ensemble output.
_WALKER_CHUNK = 256
_STEP_BLOCK = 256

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
        if not (self.step_length > 0.0):
            raise ValueError(f"step length must be positive, got {self.step_length}")

    @property
    def separation(self) -> float:
        return float(np.hypot(*(self.pos_a - self.pos_b)))


def expected_sq_separation(r: float, l: float, proto: ProtocolSpec) -> float:
    """Analytic mean-square separation after one step from separation ``r``."""
    if r < 0.0:
        raise ValueError(f"separation must be nonnegative, got {r}")
    if not l > 0.0:
        raise ValueError(f"step length must be positive, got {l}")
    return r * r + weight(proto.kind, proto.effective_p) * l * l


def _separation_deltas(
    n: int, l: float, proto: ProtocolSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step change of the separation vector for ``n`` independent steps.

    Draw order (the determinism contract): angles for A, angles for B,
    then the two sign blocks consumed by ``sample_sign_arrays``.
    """
    ang_a = rng.uniform(0.0, TWO_PI, n)
    ang_b = rng.uniform(0.0, TWO_PI, n)
    sigma_a, sigma_b = sample_sign_arrays(ang_a - ang_b, proto.effective_p, rng)
    # separation = pos_a - pos_b changes by l*(sigma_a n_a - b_step_sign * sigma_b n_b)
    coeff_b = -proto.b_step_sign
    dx = l * (sigma_a * np.cos(ang_a) + coeff_b * sigma_b * np.cos(ang_b))
    dy = l * (sigma_a * np.sin(ang_a) + coeff_b * sigma_b * np.sin(ang_b))
    return dx, dy


def mc_sq_separation(
    r: float,
    l: float,
    proto: ProtocolSpec,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of ``r'^2`` over single steps."""
    if n_samples < _MIN_MC_SAMPLES:
        raise ValueError(
            f"n_samples must be at least {_MIN_MC_SAMPLES}, got {n_samples}"
        )
    if r < 0.0:
        raise ValueError(f"separation must be nonnegative, got {r}")
    if not l > 0.0:
        raise ValueError(f"step length must be positive, got {l}")
    dx, dy = _separation_deltas(int(n_samples), l, proto, rng)
    r2 = (r + dx) ** 2 + dy**2
    mean = float(np.mean(r2))
    stderr = float(np.std(r2, ddof=1) / math.sqrt(n_samples))
    return mean, stderr


@dataclass(frozen=True)
class EnsembleResult:
    """Per-step ensemble statistics; arrays have length ``n_steps + 1``.

    ``meeting_fraction[t]`` is the fraction of walker pairs whose
    separation dropped to ``meeting_radius`` or below at or before step
    ``t`` (step 0 is the initial configuration).
    """

    mean_r2: np.ndarray
    meeting_fraction: np.ndarray
    n_steps: int
    n_walkers: int
    meeting_radius: float
    seed: int


def _chunk_stats(
    rng: np.random.Generator,
    n_walkers: int,
    sep0: np.ndarray,
    l: float,
    proto: ProtocolSpec,
    n_steps: int,
    meeting_radius: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step sums of ``r^2`` and of "met by now" over one walker chunk.

    Each block of ``k`` steps is one ``_separation_deltas(k * n_walkers)``
    draw read step-major as ``(k, n_walkers)``.  The carried position is
    added to the block's first row before the running sum, so positions
    are the plain running sum of all steps, whatever the block size.
    """
    x = np.full(n_walkers, sep0[0])
    y = np.full(n_walkers, sep0[1])
    r = np.hypot(x, y)
    met = r <= meeting_radius
    r2_sum = np.empty(n_steps + 1)
    met_count = np.empty(n_steps + 1, dtype=np.int64)
    r2_sum[0] = np.sum(r * r)
    met_count[0] = np.count_nonzero(met)
    for t in range(0, n_steps, _STEP_BLOCK):
        k = min(_STEP_BLOCK, n_steps - t)
        dx, dy = _separation_deltas(k * n_walkers, l, proto, rng)
        dx = dx.reshape(k, n_walkers)
        dy = dy.reshape(k, n_walkers)
        dx[0] += x
        dy[0] += y
        sx = np.cumsum(dx, axis=0)
        sy = np.cumsum(dy, axis=0)
        r = np.hypot(sx, sy)
        hit = r <= meeting_radius
        hit[0] |= met
        hit = np.logical_or.accumulate(hit, axis=0)
        r2_sum[t + 1 : t + k + 1] = np.sum(r * r, axis=1)
        met_count[t + 1 : t + k + 1] = np.count_nonzero(hit, axis=1)
        x, y, met = sx[-1], sy[-1], hit[-1]
    return r2_sum, met_count


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
    function of the arguments.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    if n_walkers < 1:
        raise ValueError(f"n_walkers must be at least 1, got {n_walkers}")
    if meeting_radius < 0.0:
        raise ValueError(f"meeting radius must be nonnegative, got {meeting_radius}")

    sep0 = initial.pos_a - initial.pos_b
    r2_total = np.zeros(n_steps + 1)
    met_total = np.zeros(n_steps + 1, dtype=np.int64)
    for chunk, lo in enumerate(range(0, n_walkers, _WALKER_CHUNK)):
        r2_sum, met_count = _chunk_stats(
            np.random.default_rng([seed, chunk]),
            min(_WALKER_CHUNK, n_walkers - lo),
            sep0,
            initial.step_length,
            proto,
            n_steps,
            meeting_radius,
        )
        r2_total += r2_sum
        met_total += met_count
    mean_r2 = r2_total / n_walkers
    # every walker starts at sep0: write |sep0|^2 itself, not a rounded mean
    x0, y0 = sep0
    mean_r2[0] = x0 * x0 + y0 * y0
    return EnsembleResult(
        mean_r2=mean_r2,
        meeting_fraction=met_total / n_walkers,
        n_steps=n_steps,
        n_walkers=n_walkers,
        meeting_radius=meeting_radius,
        seed=seed,
    )
