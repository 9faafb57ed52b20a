"""Deterministic RNG derivation.

Every source of randomness in the package is a generator derived by
rng_for() from a key tuple of integers and strings, never from mutable
global state, so any computation can be replayed bit-for-bit from its key
alone. The code that owns a unit of replay derives its one generator
(a training batch, a validation or evaluation pass, a noisy simulation, a
synthetic user) and the functions it calls draw from the generator they
are given.
Strings are folded in through blake2b; Python's built-in hash() is salted
per process and must not be used here.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _fold(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    if isinstance(part, str):
        digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")


def seed_key(*parts) -> tuple[int, ...]:
    """Stable integer key for an RNG, from mixed int/str parts."""
    if not parts:
        raise ValueError("at least one seed part required")
    return tuple(_fold(p) for p in parts)


def rng_for(*parts) -> np.random.Generator:
    """Fresh generator deterministically derived from the given parts."""
    return np.random.default_rng(seed_key(*parts))


class SeedStream:
    """Counter-based stream of independent generators under one key.

    Each call to next_rng() yields a generator derived from
    (key..., call_index), so consumers that draw in a fixed order (e.g.
    successive dropout layers in one forward pass) are reproducible without
    sharing generator state.
    """

    def __init__(self, *parts):
        self._key = seed_key(*parts)
        self._calls = 0

    def next_rng(self) -> np.random.Generator:
        self._calls += 1
        return np.random.default_rng(self._key + (self._calls,))
