"""Splittable counter-based randomness.

Every stochastic draw in the package comes from a substream addressed by
(master seed, key, purpose): a catalog attribute, a trial's arm, sale and
purchase-time draws, a bootstrap replicate or a cross-validation fold. A
catalog row's key is ``item_key`` of its id; a bootstrap row's or a CV row's
is its row number. Streams are independent of iteration order and of which
other items participate, so per-item simulation can run in any order or in
parallel and still reproduce bit-identically, and the first m rows of an
M-row catalog are the m-row catalog.

The generator is the SplitMix64 finaliser chained over the address components;
uniforms come from the top 53 bits.
"""

from __future__ import annotations

import hashlib

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53_INV = float(2.0**-53)

# Purpose tags; values are part of the reproducibility contract. Tags 1-7
# address a trial's or a rollout's draws and 9-17 a catalog's attributes, each
# below (seed, item key); 8 addresses a bootstrap replicate and 18 the CV fold
# order, below (seed, row number).
ARM_R1 = 1
SALE_R1 = 2
ATTACH_DELAY = 3
PURCHASE_R1 = 4
ARM_R2 = 5
SALE_R2 = 6
PURCHASE_R2 = 7
BOOTSTRAP = 8
CATALOG_PRICE = 9  # the radius of the (price, LTV) Box-Muller pair
CATALOG_CONDITION = 10
CATALOG_AGE = 11
CATALOG_LIKES = 12
CATALOG_DEMAND = 13  # the radius of demand's Box-Muller pair
CATALOG_SEASON = 14
CATALOG_LTV = 15  # the angle of the (price, LTV) pair
CATALOG_KEY_TS = 16
CATALOG_DEMAND_ANGLE = 17
FOLDS = 18


def item_key(item_id: str) -> int:
    """Stable 64-bit key for an item id (independent of process hash seeds)."""
    digest = hashlib.blake2s(item_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


_BLAKE2S_8 = hashlib.blake2s(digest_size=8)
# ``item_keys`` hashes this many ids at a time, so its Python objects (one
# ``bytes`` id and one digest per id) do not grow with the catalog.
_HASH_BLOCK_IDS = 4096


def item_keys(item_ids: np.ndarray) -> np.ndarray:
    """``item_key`` for an ``S`` array (or list) of UTF-8 ids.

    Each id is hashed by a ``copy`` of one empty 8-byte blake2s state, which
    skips the parameter set-up of a fresh hash object, from the ``bytes`` that
    ``tolist`` gives (iterating the array would box one ``np.bytes_`` per id).
    The digests of each block of ``_HASH_BLOCK_IDS`` ids are joined and read as
    little-endian words into one preallocated array.
    """
    ids = np.asarray(item_ids, dtype="S")
    keys = np.empty(len(ids), dtype=np.uint64)
    copy = _BLAKE2S_8.copy
    for lo in range(0, len(ids), _HASH_BLOCK_IDS):
        digests = []
        for item_id in ids[lo:lo + _HASH_BLOCK_IDS].tolist():
            h = copy()
            h.update(item_id)
            digests.append(h.digest())
        keys[lo:lo + len(digests)] = np.frombuffer(b"".join(digests), "<u8")
    return keys


def _mix(z: np.ndarray) -> np.ndarray:
    # uint64 wrap-around is the point; silence numpy's scalar overflow warning
    with np.errstate(over="ignore"):
        z = z + _GOLDEN  # a new value, so the rest may run in place
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        return z


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
