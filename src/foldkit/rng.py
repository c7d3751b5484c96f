"""Deterministic random number generation.

All stochastic operations draw from numpy's Philox bit generator, a
counter-based RNG whose stream depends only on its key. Sub-streams are
derived with SeedSequence spawn keys, so composite operations (e.g.
sequence-then-structure co-corruption) can hand independent generators to
their parts and reproduce each part in isolation from the same seed.
"""

from __future__ import annotations

import hashlib

import numpy as np


def make_rng(seed: int, stream: int | None = None) -> np.random.Generator:
    """Generator keyed by (seed, stream); same arguments, same bit stream."""
    if stream is None:
        seq = np.random.SeedSequence(seed)
    else:
        seq = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))


def path_seed(base_seed: int, path: str) -> int:
    """Per-file seed: stable hash of the path folded into the user seed.

    Lets directory jobs process files in any order or thread count while
    each file sees the same stream.
    """
    digest = hashlib.sha256(path.encode("utf-8")).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "little")) & (2**64 - 1)
