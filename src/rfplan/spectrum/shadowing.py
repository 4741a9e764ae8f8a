"""Per-link shadowing draws, seeded exactly like default_rng([seed, s, e]).

numpy's SeedSequence (NEP 19, after O'Neill's PCG seed_seq, HMC-CS-2014-0905)
is a fixed hash in uint32 arithmetic: mix the entropy words into a 4-word
pool, then expand the pool into the 8 words that seed PCG64. Running that
hash as array operations over every sensor x emitter link replaces one
SeedSequence per link; numpy's own PCG64 seeding and standard_normal draw
still run per link, so nothing of PCG64 or the normal sampler is restated
here. normal(loc, scale) is loc + scale * standard_normal() in numpy's
distributions.c, so the whole matrix of draws is scaled once as
0.0 + sigma * z, which rounds the same; numpy's own check of the scale is
then skipped, and shadowing_draws refuses a negative or non-finite sigma
itself.

This module imports numpy.random, which costs several ms; simulate.py loads
it only for a scenario with shadowing.
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from ..errors import DomainError

# numpy/random/bit_generator.pyx
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


class _HashMix:
    """SeedSequence's hashmix; its hash constant is multiplied on every call."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(_XSHIFT))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


def _entropy_words(seed: int, n_sensors: int, n_emitters: int) -> list[np.ndarray]:
    """The uint32 words of [seed, s, e] for every link, zero-padded to the pool.

    SeedSequence splits each non-negative int into 32-bit words, least
    significant first (0 is the one word [0]); the pool hashes a missing
    word exactly like a 0 word, so padding with zeros changes nothing.
    """
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    sensors, emitters = np.meshgrid(
        np.arange(n_sensors, dtype=np.uint32), np.arange(n_emitters, dtype=np.uint32),
        indexing="ij",
    )
    words = [np.full(sensors.shape, w, dtype=np.uint32) for w in seed_words]
    words += [sensors, emitters]
    words += [np.zeros(sensors.shape, dtype=np.uint32)] * (_POOL_SIZE - len(words))
    return words


def _pcg64_seeds(seed: int, n_sensors: int, n_emitters: int) -> np.ndarray:
    """SeedSequence([seed, s, e]).generate_state(4, np.uint64) for every link.

    Shape (n_sensors, n_emitters, 4). Seeds up to 2^64 - 1 give at most 4
    entropy words, so only the pool-to-pool half of mix_entropy runs.
    """
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in _entropy_words(seed, n_sensors, n_emitters)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    hashmix = _HashMix(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)]
    # word pairs read as little-endian uint64, as generate_state does
    return np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)


class _SeedFeed(ISeedSequence):
    """One seed for every link's PCG64: each generate_state call hands over the
    next link's precomputed generate_state(4, np.uint64) words, row by row."""

    def __init__(self, seeds: Iterable[np.ndarray]):
        self._words = iter(seeds)  # lazy: a list of every row view costs memory

    def generate_state(self, n_words, dtype=np.uint32):
        try:
            return next(self._words)
        except StopIteration:
            raise RuntimeError("PCG64 asked the seed feed for more states than links") from None

    def close(self) -> None:
        if next(self._words, None) is not None:
            raise RuntimeError("PCG64 asked the seed feed for fewer states than links")


def _standard_normals(seeds: Iterable[np.ndarray], n_links: int) -> np.ndarray:
    """Generator(PCG64(words)).standard_normal() for each link's words in seeds.

    Each link gets its own PCG64 and Generator over one shared feed. numpy's
    PCG64 asks its seed for state exactly once, so link k takes the k-th
    words; had numpy asked more or less often, the draws would shift between
    links, and the feed raises instead when it runs out early or is left over.
    """
    feed = _SeedFeed(seeds)
    z = np.array([Generator(PCG64(feed)).standard_normal() for _ in range(n_links)])
    feed.close()
    return z


def shadowing_draws(seed: int, sigma: float, n_sensors: int, n_emitters: int) -> np.ndarray:
    """draws[s, e] == default_rng([seed, s, e]).normal(0.0, sigma), bit for bit.

    Shape (n_sensors, n_emitters); all zeros, with nothing drawn, when
    sigma is 0. Each link draws standard_normal() and the whole matrix is
    scaled once as 0.0 + sigma * z, which is numpy's normal(loc, scale).
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise DomainError(f"sigma must be a non-negative finite number, got {sigma}")
    if sigma == 0.0:
        return np.zeros((n_sensors, n_emitters))
    seeds = _pcg64_seeds(seed, n_sensors, n_emitters).reshape(-1, 4)
    z = _standard_normals(seeds, len(seeds))
    with np.errstate(over="ignore"):  # an inf draw, as numpy's normal gives it
        return (0.0 + float(sigma) * z).reshape(n_sensors, n_emitters)
