"""Splittable counter-based randomness.

Every stochastic decision in the simulator draws from a substream addressed by
(master seed, item key, round, purpose). Streams are independent of iteration
order and of which other items participate, so per-item simulation can run in
any order or in parallel and still reproduce bit-identically.

The generator is the SplitMix64 finaliser chained over the address components;
uniforms come from the top 53 bits.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53_INV = float(2.0**-53)

# Purpose tags; values are part of the reproducibility contract.
ARM_R1 = 1
SALE_R1 = 2
ATTACH_DELAY = 3
PURCHASE_R1 = 4
ARM_R2 = 5
SALE_R2 = 6
PURCHASE_R2 = 7
BOOTSTRAP = 8


def item_key(item_id: str) -> int:
    """Stable 64-bit key for an item id (independent of process hash seeds)."""
    digest = hashlib.blake2s(item_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


_blake2s_8 = functools.partial(hashlib.blake2s, digest_size=8)


def item_keys(item_ids: np.ndarray) -> np.ndarray:
    """``item_key`` for an ``S`` array of UTF-8 ids: the digests are joined and read
    as one buffer. Hashing and digesting run through ``map`` over C callables, so
    no Python frame runs per id.
    """
    digests = b"".join(map(hashlib.blake2s.digest, map(_blake2s_8, item_ids)))
    return np.frombuffer(digests, dtype="<u8").astype(np.uint64)


def _mix(z: np.ndarray) -> np.ndarray:
    # uint64 wrap-around is the point; silence numpy's scalar overflow warning
    with np.errstate(over="ignore"):
        z = z + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def stream_words(seed: int, keys: np.ndarray | int, *tags: int) -> np.ndarray:
    """One 64-bit word per key for the substream addressed by (seed, key, *tags)."""
    h = _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return extend_words(_mix(h ^ np.asarray(keys, dtype=np.uint64)), *tags)


def extend_words(words: np.ndarray, *tags: int) -> np.ndarray:
    """Address further tags below already-mixed words.

    ``extend_words(stream_words(s, k, *a), *b) == stream_words(s, k, *a, *b)``,
    so a caller drawing many sibling substreams mixes their shared prefix once.
    """
    z = words
    for t in tags:
        z = _mix(z ^ np.uint64(t & 0xFFFFFFFFFFFFFFFF))
    return z


def words_to_uniforms(words: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) draws from the top 53 bits of each word."""
    return (words >> np.uint64(11)).astype(np.float64) * _U53_INV


def uniforms(seed: int, keys: np.ndarray | int, *tags: int) -> np.ndarray:
    """Uniform [0, 1) draws, one per key, for the addressed substream."""
    return words_to_uniforms(stream_words(seed, keys, *tags))
