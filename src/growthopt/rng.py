"""Seeded, counter-based random number generation.

All randomness in the package flows through Philox generators so that every
experiment is bit-reproducible from a recorded integer seed.  Independent
streams (one per Monte Carlo path) are derived from (seed, stream) key pairs,
which Philox guarantees to be non-overlapping.
"""

from __future__ import annotations

import operator

import numpy as np


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Philox generator keyed by (seed, stream).

    Both must be integers in [0, 2**64), Python or numpy; a float is
    refused rather than truncated, so stream 1.7 never runs as stream 1,
    and so is a bool, so seed True never runs as seed 1.
    """
    key = []
    for name, val in (("seed", seed), ("stream", stream)):
        try:
            # operator.index reads True as 1, numpy's True_ not at all
            key.append(-1 if isinstance(val, bool) else operator.index(val))
        except TypeError:
            key.append(-1)  # not an integer: refused below
        if not 0 <= key[-1] < 2**64:
            raise ValueError(f"{name} must be an integer in [0, 2**64), "
                             f"got {val!r}")
    key = np.array(key, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
