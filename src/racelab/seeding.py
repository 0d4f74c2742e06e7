"""Deterministic RNG streams derived from (master seed, phase, counters).

Every random draw in the pipeline comes from a generator built here. A
stream is a pure function of the master seed, a named phase, and integer
counters (iteration, update index, car index, ...). No generator object
is ever carried across an iteration boundary, so resuming a run from a
checkpoint only needs the counters to reproduce the exact draw sequence.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]

# Stable phase ids; append only, never renumber.
_PHASES = {
    "track": 0,
    "init": 1,
    "demo": 2,
    "bet": 3,
    "rollout": 4,
    "disc": 5,
    "sac": 6,
    "eval": 7,
    "policy": 8,
    "bc": 10,
}


def stream(seed, phase, *counters):
    """Generator for (seed, phase, counters); same args, same sequence."""
    key = (_PHASES[phase],) + tuple(int(c) for c in counters)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))
