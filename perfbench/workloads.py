"""The benchmark's workloads: from a workload name and seed to CLI inputs.

A workload run is a fixed list of ``entwalk`` command lines.  The walk
workload passes its seed straight to ``--seed``.  The curve workloads
draw no random numbers, so the seed picks their mixing parameter ``p``
instead: seed 0 is the paper's ``p = 1`` and any other seed draws ``p``
from ``[0.8, 1.0]``, so that a claim can be re-checked on inputs nobody
tuned against.  ``sphere`` is the exception and runs ``p = 1`` whatever
the seed: how many points escalate at the crease depends on ``p``, so
its integrand evaluations vary from 844M to 1035M over that range, a
spread between seeds that no run-to-run bound can absorb.  On ``hyper``
they stay within 1%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Mixing parameter at seed 0: the CLI default and the paper's value.
DEFAULT_P = 1.0
#: Range ``p`` is drawn from on ``hyper`` at a nonzero seed.
P_RANGE = (0.8, 1.0)

#: Initial separation ``r`` and step ``l`` of the walk workload, and the
#: ``msd`` sample count per protocol: the CLI's defaults, passed
#: explicitly so that the checks and metrics never depend on them.
WALK_R = 1.0
WALK_L = 0.5
MSD_SAMPLES = 1_000_000
#: ``simulate`` inputs of the walk workload.
SIMULATE_STEPS = 200
SIMULATE_WALKERS = 10_000
SIMULATE_EPSILON = 0.05

GEOMETRY = {"sphere": "spherical", "hyper": "hyperbolic"}
NAMES = ("sphere", "hyper", "walk")


@dataclass(frozen=True)
class Command:
    """One timed CLI call: ``name`` is the subcommand, ``argv`` its arguments."""

    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    p: float
    commands: tuple[Command, ...]

    @property
    def geometry(self) -> str | None:
        return GEOMETRY.get(self.workload)


def build(workload: str, seed: int) -> Inputs:
    """The command lines of one workload run."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    p = DEFAULT_P
    if workload == "hyper" and seed != 0:
        p = random.Random(seed).uniform(*P_RANGE)
    if workload in GEOMETRY:
        common = ("--geometry", GEOMETRY[workload], "--p", repr(p))
        commands = (
            Command("curve", ("curve", *common)),
            Command("threshold", ("threshold", *common)),
        )
    else:
        walk = ("--p", repr(p), "--r", repr(WALK_R), "--l", repr(WALK_L),
                "--seed", str(seed))
        commands = (
            Command("msd", ("msd", "--samples", str(MSD_SAMPLES), *walk)),
            Command(
                "simulate",
                (
                    "simulate",
                    "--protocol", "plus",
                    "--steps", str(SIMULATE_STEPS),
                    "--walkers", str(SIMULATE_WALKERS),
                    "--epsilon", repr(SIMULATE_EPSILON),
                    *walk,
                ),
            ),
        )
    return Inputs(workload, seed, p, commands)
