import numpy as np

from seqcoupon import rng


class TestItemKeys:
    def test_batch_matches_scalar_key(self):
        ids = ["it0000001", "sl0000042", "", "商品-7", "café", "x" * 200]
        keys = rng.item_keys(np.array([i.encode() for i in ids]))
        assert keys.dtype == np.uint64 and keys.shape == (len(ids),)
        assert [int(k) for k in keys] == [rng.item_key(i) for i in ids]

    def test_empty_and_writable(self):
        keys = rng.item_keys(np.array([], dtype="S1"))
        assert keys.dtype == np.uint64 and keys.shape == (0,)
        keys = rng.item_keys(np.array([b"a", b"b"]))
        keys[0] = 0  # a fresh array, not a view of the digest buffer
        assert int(keys[1]) == rng.item_key("b")
