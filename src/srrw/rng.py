"""Splittable random streams.

All randomness flows through SFC64 generators keyed by an integer seed plus
a path of integer identifiers: ``SeedSequence([seed, len(path), *path])``
hashes the key into the generator's state.  SFC64 carries a 64-bit counter,
so two distinct states do not run into each other for at least 2^64 draws,
and distinct paths give statistically independent streams.  Trial t of a
Monte Carlo run can use ``stream(seed, tag, t)`` and produce the same
numbers no matter how trials are scheduled across threads.  SFC64 is chosen
for speed; nothing here needs a counter-based generator's random access.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the stream identified by ``(seed, *path)``."""
    # The path length folds into the key: SeedSequence zero-pads its entropy
    # pool, so (tag,) and (tag, 0) would otherwise collide.
    entropy = ([int(seed) & _MASK, len(path)]
               + [int(p) & _MASK for p in path])
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


def as_generator(seed_or_rng) -> np.random.Generator:
    """Pass through an existing Generator, or derive one from an integer
    seed."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(seed_or_rng)
