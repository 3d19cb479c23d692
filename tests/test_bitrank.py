"""rank1 correctness against a naive prefix-popcount oracle."""

import numpy as np
import pytest

from quasidict.bitrank import RankBitVector
from quasidict.bits import pack_bool_to_words

from conftest import words_to_bool


def naive_prefix_counts(bits):
    """Oracle: cumulative popcount, rank1(i) == prefix[i]."""
    return np.concatenate([[0], np.cumsum(np.asarray(bits, dtype=np.int64))])


def test_empty_vector():
    v = RankBitVector.build(np.zeros(0, dtype=np.uint8))
    assert len(v) == 0
    assert v.rank1(0) == 0


def test_small_literal():
    v = RankBitVector.build([1, 0, 1, 1, 0])
    assert v.rank1(5) == 3
    assert [v.get(i) for i in range(5)] == [1, 0, 1, 1, 0]


def test_all_ones_all_zeros():
    assert RankBitVector.build([1, 1, 1, 1]).rank1(4) == 4
    assert RankBitVector.build([0, 0, 0, 0]).rank1(4) == 0


def test_rank_rejects_out_of_range():
    v = RankBitVector.build([1, 0, 1])
    with pytest.raises(ValueError):
        v.rank1(4)
    with pytest.raises(ValueError):
        v.rank1(-1)


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
        positions = np.arange(n + 1)
        got = np.array([v.rank1(int(i)) for i in positions])
        assert (got == prefix).all()


def test_rank_array_matches_scalar():
    rng = np.random.default_rng(7)
    bits = rng.random(5000) < 0.4
    v = RankBitVector.build(bits)
    pos = rng.integers(0, 5000, size=2000)
    batch = v.rank1_array(pos)
    scalar = np.array([v.rank1(int(i)) for i in pos])
    assert (batch == scalar).all()


def test_rank_properties():
    rng = np.random.default_rng(3)
    bits = rng.random(3000) < 0.5
    v = RankBitVector.build(bits)
    prefix = naive_prefix_counts(bits)
    assert v.rank1(len(bits)) == int(bits.sum())
    # monotone, and rank1(i+1) - rank1(i) == bit(i)
    ranks = v.rank1_array(np.arange(len(bits)))
    full = np.concatenate([ranks, [v.rank1(len(bits))]])
    steps = np.diff(full)
    assert (steps == bits.astype(np.int64)).all()
    assert (full == prefix).all()


def test_overhead_budget():
    v = RankBitVector.build(np.ones(100_000, dtype=np.uint8))
    # serialized footprint: packed words plus one rank sample per block
    assert (len(v.words) + len(v.samples) - 1) * 64 <= 100_000 * 1.25 + 1024


def test_pack_roundtrip():
    rng = np.random.default_rng(11)
    bits = rng.random(777) < 0.3
    words = pack_bool_to_words(bits)
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
        assert w.rank1(n) == v.rank1(n)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                RankBitVector.deserialize(blob[:cut])


def test_unaligned_tail_is_masked():
    # from_words path: stray bits above n_bits must not leak into ranks
    words = np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    v = RankBitVector(words, 10)
    assert v.rank1(10) == 10
    assert v.n_ones == 10
