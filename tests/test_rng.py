import numpy as np

from seqcoupon import rng


class TestItemKeys:
    def test_batch_matches_scalar_key(self):
        """As an ``S`` array and as a list of ``bytes``: multi-byte UTF-8, ids of
        many lengths, and trailing spaces, which ``S`` keeps (it drops NULs).
        Three whole hashing blocks and a remainder, with an empty and a
        multi-byte id on each side of every block edge."""
        block = rng._HASH_BLOCK_IDS
        ids = ["it0000001", "sl0000042", "", "商品-7", "café", "x" * 200] + [
            f"{prefix}{i}{' ' * (i % 3)}"
            for i in range(block + 7) for prefix in ("it", "商品-", "ß" * (i % 9))
        ]
        assert 3 * block < len(ids) < 4 * block
        for edge in (block, 2 * block, 3 * block):
            ids[edge - 2:edge + 2] = ["", "商品-α", "", "ß€"]
        encoded = [i.encode() for i in ids]
        keys = rng.item_keys(np.array(encoded))
        assert keys.dtype == np.uint64 and keys.shape == (len(ids),)
        assert keys.tolist() == [rng.item_key(i) for i in ids]
        assert rng.item_keys(encoded).tolist() == keys.tolist()

    def test_empty_and_writable(self):
        keys = rng.item_keys(np.array([], dtype="S1"))
        assert keys.dtype == np.uint64 and keys.shape == (0,)
        keys = rng.item_keys(np.array([b"a", b"b"]))
        keys[0] = 0  # a fresh array, not a view of the digest buffer
        assert int(keys[1]) == rng.item_key("b")


class TestMixing:
    def test_the_mixer_is_splitmix64(self):
        """``_mix(z)`` is SplitMix64's output for state ``z``; from state 0 the
        generator's reference stream starts with these two words."""
        golden = int(rng._GOLDEN)
        words = rng._mix(np.array([0, golden], dtype=np.uint64))
        assert [hex(w) for w in words.tolist()] == ["0xe220a8397b1dcdaf", "0x6e789e6aa1b965f4"]
        assert int(rng._mix(np.uint64(0))) == 0xE220A8397B1DCDAF

    def test_a_prefix_is_not_written_by_its_extensions(self):
        keys = np.arange(50, dtype=np.uint64)
        prefix = rng.stream_words(3, keys)
        kept = prefix.copy()
        words = rng.extend_words(prefix, rng.CATALOG_PRICE)
        assert np.array_equal(prefix, kept) and np.array_equal(keys, np.arange(50))
        assert np.array_equal(words, rng.stream_words(3, keys, rng.CATALOG_PRICE))

    def test_purpose_tags_are_distinct(self):
        tags = {name: value for name, value in vars(rng).items()
                if name.isupper() and not name.startswith("_") and isinstance(value, int)}
        assert sorted(tags.values()) == list(range(1, len(tags) + 1)), tags
