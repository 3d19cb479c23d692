"""rank1_array correctness against a naive prefix-popcount oracle."""

import numpy as np
import pytest

from quasidict.bitrank import RankBitVector
from quasidict.bits import pack

from conftest import words_to_bool


def naive_prefix_counts(bits):
    """Oracle: cumulative popcount, the rank at i is prefix[i]."""
    return np.concatenate([[0], np.cumsum(np.asarray(bits, dtype=np.int64))])


def test_empty_vector():
    v = RankBitVector.build(np.zeros(0, dtype=np.uint8))
    assert len(v) == 0
    assert v.n_ones == 0


def test_small_literal():
    v = RankBitVector.build([1, 0, 1, 1, 0])
    assert v.n_ones == 3
    assert v.rank1_array(np.arange(5)).tolist() == [0, 1, 1, 2, 3]
    assert v.get_array(np.arange(5)).tolist() == [True, False, True, True, False]


def test_all_ones_all_zeros():
    assert RankBitVector.build([1, 1, 1, 1]).n_ones == 4
    assert RankBitVector.build([0, 0, 0, 0]).n_ones == 0


def test_rank_matches_oracle_on_random_arrays():
    rng = np.random.default_rng(42)
    # sizes straddle the word and block boundaries on purpose
    sizes = [1, 2, 63, 64, 65, 511, 512, 513, 1000, 4096, 10_000]
    for trial in range(40):
        n = int(rng.choice(sizes))
        density = rng.uniform(0.02, 0.98)
        bits = rng.random(n) < density
        v = RankBitVector.build(bits)
        prefix = naive_prefix_counts(bits)
        assert (v.rank1_array(np.arange(n)) == prefix[:-1]).all()
        assert v.n_ones == prefix[-1]


def test_rank_properties():
    rng = np.random.default_rng(3)
    bits = rng.random(3000) < 0.5
    v = RankBitVector.build(bits)
    prefix = naive_prefix_counts(bits)
    assert v.n_ones == int(bits.sum())
    # monotone, and rank(i+1) - rank(i) == bit(i)
    ranks = v.rank1_array(np.arange(len(bits)))
    full = np.concatenate([ranks, [v.n_ones]])
    steps = np.diff(full)
    assert (steps == bits.astype(np.int64)).all()
    assert (full == prefix).all()


def test_overhead_budget():
    v = RankBitVector.build(np.ones(100_000, dtype=np.uint8))
    # serialized footprint: packed words plus one rank sample per block
    assert (len(v.words) + len(v.samples) - 1) * 64 <= 100_000 * 1.25 + 1024


def test_pack_roundtrip():
    """At width 1, bits.pack takes bool or 0/1 entries alike and words_to_bool reads them back."""
    rng = np.random.default_rng(11)
    bits = rng.random(777) < 0.3
    words = pack(bits, 1)
    assert words.tolist() == pack(bits.astype(np.uint64), 1).tolist()
    back = words_to_bool(words, 777)
    assert (back == bits).all()


def test_serialize_roundtrip():
    rng = np.random.default_rng(13)
    for n in (0, 1, 64, 513, 2000):
        bits = rng.random(n) < 0.5
        v = RankBitVector.build(bits)
        blob = v.serialize()
        w, end = RankBitVector.deserialize(blob)
        assert end == len(blob)
        assert w.n_bits == v.n_bits
        assert (w.words == v.words).all()
        assert w.n_ones == v.n_ones
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                RankBitVector.deserialize(blob[:cut])


def test_unaligned_tail_is_masked():
    # from_words path: stray bits above n_bits must not leak into ranks
    words = np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    v = RankBitVector(words, 10)
    assert v.n_ones == 10
    assert v.rank1_array(np.array([9])).tolist() == [9]
