"""Property tests on arbitrary inputs: rank against a prefix-sum oracle,
perfect-hash bijectivity and the slots construction writes, the fingerprint
packer against its reader, the scalar wrappers against the array path and
against a plain-int reference walk of the structure, index save/load and
damaged index buffers, and the k-mer scan, solid-k-mer counting, counter
stats and linker postings against brute-force string oracles."""

import math
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasidict.bitrank import RankBitVector
from quasidict.bits import (
    MASK64,
    MIX_MULT_1,
    MIX_MULT_2,
    SEED_STREAM_INCREMENT,
    derive_seed,
    words_to_bool,
)
from quasidict.core import (
    _FINGERPRINT_TAG,
    QuasiDictionary,
    _fp_mask,
    _pack_entries,
    fingerprint,
    fingerprint_array,
)
from quasidict.counter import CountStats, build_counter_index, count_read
from quasidict.kcount import COUNT_CAP, count_solid, solid_table
from quasidict.kmer import MAX_K, iter_kmers, scan_kmers
from quasidict.linker import build_linker_index
from quasidict.mphf import FALLBACK_CUTOFF, NOT_FOUND, Mphf
from quasidict.seqio import ReadRecord

MAX_U64 = 2**64 - 1
u64 = st.integers(0, MAX_U64)


def mix64_reference(x):
    """splitmix64 finalizer on Python ints."""
    x ^= x >> 30
    x = (x * MIX_MULT_1) & MASK64
    x ^= x >> 27
    x = (x * MIX_MULT_2) & MASK64
    return x ^ (x >> 31)


def lookup_reference(m, key):
    """Level-by-level walk of an Mphf with Python ints and a bool copy of each level."""
    for bv, seed, off in zip(m.levels, m.seeds, m.offsets):
        bits = words_to_bool(bv.words, bv.n_bits)
        pos = mix64_reference(key ^ seed) % bv.n_bits
        if bits[pos]:
            return off + int(bits[:pos].sum())
    fallback = m.fallback_keys.tolist()
    return m.fallback_base + fallback.index(key) if key in fallback else NOT_FOUND


@st.composite
def bit_arrays(draw):
    """Bool arrays whose lengths straddle word (64) and block (512) boundaries."""
    n = max(0, draw(st.sampled_from([0, 64, 512, 1024, 1536])) + draw(st.integers(-2, 2)))
    if draw(st.booleans()):
        return draw(arrays(np.bool_, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(n) < draw(st.floats(0.0, 1.0))


@settings(deadline=None, max_examples=150)
@given(bit_arrays())
def test_rank_and_get_match_prefix_oracle(bits):
    v = RankBitVector.build(bits)
    prefix = np.concatenate([[0], np.cumsum(bits, dtype=np.int64)])
    pos = np.arange(len(bits))
    assert (v.rank1_array(pos) == prefix[:-1]).all()
    assert (v.get_array(pos) == bits).all()
    assert v.rank1(len(bits)) == prefix[-1] == v.n_ones
    for i in {0, len(bits) // 2, len(bits) - 1} if len(bits) else ():
        assert v.rank1(i) == prefix[i]
        assert v.get(i) == int(bits[i])


@settings(deadline=None, max_examples=100)
@given(st.lists(u64, unique=True, max_size=300), st.booleans())
@example(keylist=[], with_extremes=False)
@example(keylist=[9, 3, 7, 1], with_extremes=False)  # FALLBACK_CUTOFF keys, all in the fallback
@example(keylist=list(range(1000, 0, -7)), with_extremes=False)  # levels and 2 fallback keys
def test_mphf_is_a_bijection(keylist, with_extremes):
    if with_extremes:
        keylist = list(dict.fromkeys([*keylist, 0, MAX_U64]))
    keys = np.array(keylist, dtype=np.uint64)  # in drawn order, not sorted
    slots = np.full(len(keys), -7, dtype=np.int64)
    m = Mphf.construct(keys, slots=slots)
    assert sorted(m.lookup_array(keys).tolist()) == list(range(len(keys)))
    # construction writes the slot every key looks up to
    assert slots.tolist() == m.lookup_array(keys).tolist()
    assert m.serialize() == Mphf.construct(keys).serialize()
    if len(keys) <= FALLBACK_CUTOFF:
        assert m.levels == [] and len(m.fallback_keys) == len(keys)


@pytest.mark.parametrize("f", range(1, 65))
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_pack_entries_is_inverse_of_stored_fingerprints(f, data):
    aligned = 64 // math.gcd(64, f)  # fewest entries whose N*f bits fill whole words
    n = data.draw(st.integers(1, 300))
    values = data.draw(arrays(np.uint64, max(n, aligned + 1), elements=st.integers(0, (1 << f) - 1)))
    # one entry, N*f on a word boundary, one entry past it, and a drawn count
    for m in (1, aligned, aligned + 1, n):
        words = _pack_entries(values[:m], f)
        assert len(words) == (m * f + 63) // 64
        qd = QuasiDictionary(None, words, m, f, k=31, seed=0)
        assert qd._stored_fingerprints(np.arange(m)).tolist() == values[:m].tolist()


@settings(deadline=None, max_examples=60)
@given(
    st.lists(u64, unique=True, min_size=1, max_size=200),
    st.lists(u64, max_size=20),
    st.integers(1, 64),
    st.integers(1, 32),
)
def test_scalar_wrappers_equal_array_path_and_reference(keys, probes, f, k):
    slots = np.empty(len(keys), dtype=np.int64)
    qd = QuasiDictionary.create(np.array(keys, dtype=np.uint64), f=f, k=k, slots=slots)
    assert qd.serialize() == QuasiDictionary.create(np.array(keys, dtype=np.uint64), f=f, k=k).serialize()
    assert slots.tolist() == qd.query_array(np.array(keys, dtype=np.uint64)).tolist()
    batch = keys + probes
    arr = np.array(batch, dtype=np.uint64)
    lookups = [qd.mphf.lookup(x) for x in batch]
    assert lookups == qd.mphf.lookup_array(arr).tolist()
    assert lookups == [lookup_reference(qd.mphf, x) for x in batch]
    assert [qd.query(x) for x in batch] == qd.query_array(arr).tolist()
    fps = [fingerprint(x, f, k) for x in batch]
    assert fps == fingerprint_array(arr, f, k).tolist()
    if f != 2 * k:
        fp_seed = mix64_reference(qd.seed ^ _FINGERPRINT_TAG)
        assert fps == [mix64_reference(x ^ fp_seed) & _fp_mask(f) for x in batch]


@pytest.mark.parametrize("f", range(1, 65))
@settings(deadline=None, max_examples=5)
@given(st.lists(u64, unique=True, max_size=200), st.lists(u64, max_size=20))
def test_save_load_round_trip(f, keys, probes):
    qd = QuasiDictionary.create(np.array(keys, dtype=np.uint64), f=f)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.qd")
        qd.save(path)
        back = QuasiDictionary.load(path)
    batch = np.array(keys + probes, dtype=np.uint64)
    assert back.serialize() == qd.serialize()
    assert back.query_array(batch).tolist() == qd.query_array(batch).tolist()


@settings(deadline=None, max_examples=300)
@given(st.lists(u64, unique=True, max_size=100), st.integers(1, 64), st.data())
def test_damaged_index_loads_and_answers_or_raises_value_error(keys, f, data):
    buf = QuasiDictionary.create(np.array(keys, dtype=np.uint64), f=f).serialize()
    cut = data.draw(st.integers(0, len(buf) - 1), label="cut")
    bit = data.draw(st.integers(0, 8 * len(buf) - 1), label="bit")
    flipped = bytearray(buf)
    flipped[bit // 8] ^= 1 << (bit % 8)
    probes = np.array(keys + [0, MAX_U64], dtype=np.uint64)
    for damaged in (buf[:cut], bytes(flipped)):
        try:
            qd = QuasiDictionary.deserialize(damaged)
        except ValueError:
            continue
        assert len(qd.query_array(probes)) == len(probes)


@settings(deadline=None)
@given(u64, st.integers(0, 100))
def test_seed_stream_matches_reference(master, index):
    expected = mix64_reference((master + (index + 1) * SEED_STREAM_INCREMENT) & MASK64)
    assert derive_seed(master, index) == expected


def window_oracle(seq, k):
    """(start, canonical code) of every all-ACGT window, case-insensitive, via strings."""
    digits, complement = str.maketrans("ACGT", "0123"), str.maketrans("ACGT", "TGCA")
    out = []
    for i in range(len(seq) - k + 1):
        w = seq[i : i + k]
        if set(w) <= set("ACGTacgt"):
            w = w.upper()
            rc = w[::-1].translate(complement)
            out.append((i, min(int(w.translate(digits), 4), int(rc.translate(digits), 4))))
    return out


def kmer_occurrences(seqs, k):
    """Canonical code of every all-ACGT window of every read."""
    return [code for s in seqs for _, code in window_oracle(s, k)]


# N, gap, IUPAC ambiguity codes, latin-1 letters (0xff too) and characters outside latin-1
NOISE = "N-RYSWKMBDHVnrysé\u00ffΩ中\U0001f600"
noisy_reads = st.lists(
    st.text("ACGTacgt", max_size=45) | st.text(NOISE, min_size=1, max_size=3), max_size=6
).map("".join)


@settings(deadline=None, max_examples=300)
@given(noisy_reads, st.integers(1, MAX_K))
@example(seq="", k=1)
@example(seq="ACGTACGTAC", k=MAX_K)  # shorter than k
@example(seq="T" * MAX_K + "GN" + "a" * MAX_K, k=MAX_K)  # extreme codes on both strands
def test_scan_kmers_matches_string_oracle(seq, k):
    positions, codes = scan_kmers(seq, k)
    assert positions.dtype == np.int64 and codes.dtype == np.uint64
    want = window_oracle(seq, k)
    assert list(zip(positions.tolist(), codes.tolist())) == want
    assert list(iter_kmers(seq, k)) == want


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(0, 40), max_size=800), st.integers(1, COUNT_CAP))
def test_solid_table_matches_counter(codes, t):
    table = solid_table(np.array(codes, dtype=np.uint64), k=31, t=t)
    want = sorted((c, min(n, COUNT_CAP)) for c, n in Counter(codes).items() if n >= t)
    assert list(zip(table.codes.tolist(), table.counts.tolist())) == want
    assert table.codes.dtype == np.uint64 and table.counts.dtype == np.uint8


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.text("ACGTNacgt", max_size=30), max_size=12),
    st.integers(1, 60),
    st.integers(1, 6),
    st.sampled_from([1, 2, 3, 255]),
)
def test_count_solid_matches_counter(seqs, copies, k, t):
    # copies repeat the read set so that counts cross the 255 cap
    reads = [ReadRecord(i, f"r{i}", s) for i, s in enumerate(seqs * copies)]
    table = count_solid(reads, k, t)
    counts = Counter(kmer_occurrences(seqs, k))
    want = sorted((c, min(n * copies, COUNT_CAP)) for c, n in counts.items() if n * copies >= t)
    assert list(zip(table.codes.tolist(), table.counts.tolist())) == want


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.text("ACGTN", min_size=1, max_size=40), max_size=12),
    st.integers(2, 6),
    st.integers(1, 3),
    st.integers(1, 12),
)
@example(seqs=[], k=4, t=1, f=8)  # empty bank
@example(seqs=["ACGTTG", "NNNNN"], k=4, t=2, f=8)  # no solid k-mer
def test_linker_postings_match_containment(seqs, k, t, f):
    with tempfile.TemporaryDirectory() as tmp:
        bank = os.path.join(tmp, "bank.fa")
        with open(bank, "w") as fh:
            fh.writelines(f">r{i}\n{s}\n" for i, s in enumerate(seqs))
        index = build_linker_index(bank, k=k, t=t, f=f)
    counts = Counter(kmer_occurrences(seqs, k))
    solid = sorted(c for c, n in counts.items() if n >= t)
    assert (index.n_targets, index.qd.n_keys, len(index.offsets)) == (len(seqs), len(solid), len(solid) + 1)
    assert index.offsets[0] == 0 and index.offsets[-1] == len(index.ids)
    slots = index.qd.query_array(np.array(solid, dtype=np.uint64))
    for code, slot in zip(solid, slots.tolist()):
        want = [i for i, s in enumerate(seqs) if code in kmer_occurrences([s], k)]
        assert index.ids[index.offsets[slot] : index.offsets[slot + 1]].tolist() == want


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.text("ACGTNacgt", min_size=1, max_size=30), max_size=10),
    st.lists(st.text("ACGTN", max_size=30), max_size=6),
    st.integers(1, 60),
    st.integers(1, 6),
    st.sampled_from([1, 2, 3]),
)
@example(seqs=[], queries=["ACGT"], copies=1, k=2, t=1)  # empty bank
@example(seqs=["ACGTTG"], queries=["", "AC", "NNNN", "GGGGG"], copies=1, k=3, t=1)  # no indexed k-mer
@example(seqs=["AAAAAAAAAA", "ACGTTT"], queries=["TTTTAC"], copies=40, k=1, t=3)  # counts past the cap
def test_counter_stats_match_brute_force(seqs, queries, copies, k, t):
    # at f = 2k the fingerprint is the code itself, so the dictionary is exact;
    # copies repeat the bank so that counts cross the 255 cap
    with tempfile.TemporaryDirectory() as tmp:
        bank = os.path.join(tmp, "bank.fa")
        with open(bank, "w") as fh:
            fh.writelines(f">r{i}\n{s}\n" for i, s in enumerate(seqs * copies))
        index = build_counter_index(bank, k=k, t=t, f=2 * k)
    counts = {c: n * copies for c, n in Counter(kmer_occurrences(seqs, k)).items()}
    for i, seq in enumerate(seqs + queries):
        values = [min(counts[c], COUNT_CAP) for c in kmer_occurrences([seq], k) if counts.get(c, 0) >= t]
        ordered = sorted(values)
        want = None
        if values:
            n = len(values)
            want = CountStats(i, n, sum(values) / n, ordered[(n - 1) // 2], ordered[0], ordered[-1])
        assert count_read(index, ReadRecord(i, f"q{i}", seq)) == want
