"""Property tests on arbitrary inputs: rank against a prefix-sum oracle,
perfect-hash bijectivity and the slots construction writes, the fingerprint
packer against its reader, the one-key query against the array path, the
array lookup and fingerprint against a plain-int reference walk of the
structure, index save/load and damaged index buffers, the sorted-array
rules against Counter and dict oracles, and the k-mer scan, solid-k-mer
counting, counter stats and linker postings against brute-force string
oracles, and one linker group's postings against a set oracle."""

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
    distinct,
    locate,
    mix64,
    n_words,
    pack,
    runs,
    unpack,
)
from quasidict.core import (
    _FINGERPRINT_TAG,
    QuasiDictionary,
    _fp_mask,
    fingerprint_array,
)
from quasidict.counter import CountStats, build_counter_index, count_read
from quasidict.kcount import COUNT_CAP, count_solid, solid_table
from quasidict.kmer import MAX_K, scan_kmers
from quasidict.linker import MAX_BANK_READS, _group_postings, build_linker_index
from quasidict.mphf import FALLBACK_CUTOFF, NOT_FOUND, DuplicateKeyError, Mphf
from quasidict.seqio import ReadRecord

from conftest import window_oracle, words_to_bool, write_fasta

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
    assert v.n_ones == prefix[-1]


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


@settings(deadline=None, max_examples=60)
@given(
    st.lists(u64, unique=True, min_size=FALLBACK_CUTOFF + 1, max_size=300),
    st.lists(st.tuples(st.integers(0, 299), st.integers(1, 400)), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
@example(keylist=list(range(1000, 0, -7)), copies=[(40, 1)], shuffle=0)  # one pair
@example(keylist=list(range(1000, 0, -7)), copies=[(40, 400)], shuffle=1)  # many copies of one key
@example(keylist=list(range(1000, 0, -7)), copies=[(3, 1), (90, 2), (140, 5)], shuffle=2)  # several keys
def test_duplicates_are_rejected_with_the_smallest(keylist, copies, shuffle):
    # among more than FALLBACK_CUTOFF distinct keys, so the cascade runs levels
    # before the copies reach the fallback together
    extra = [keylist[i % len(keylist)] for i, n in copies for _ in range(n)]
    keys = np.random.default_rng(shuffle).permutation(np.array(keylist + extra, dtype=np.uint64))
    for build in (Mphf.construct, QuasiDictionary.create):
        with pytest.raises(DuplicateKeyError) as err:
            build(keys, slots=np.empty(len(keys), dtype=np.int64))
        assert err.value.key == min(extra)


@pytest.mark.parametrize("f", range(1, 65))
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_pack_entries_is_inverse_of_stored_fingerprints(f, data):
    """bits.unpack reads back each entry bits.pack stored, at every width the fingerprints may take."""
    aligned = 64 // math.gcd(64, f)  # fewest entries whose N*f bits fill whole words
    n = data.draw(st.integers(1, 300))
    values = data.draw(arrays(np.uint64, max(n, aligned + 1), elements=st.integers(0, (1 << f) - 1)))
    # one entry, N*f on a word boundary, one entry past it, and a drawn count
    for m in (1, aligned, aligned + 1, n):
        words = pack(values[:m], f)
        assert len(words) == n_words(m, f)
        assert unpack(words, f, np.arange(m)).tolist() == values[:m].tolist()


@settings(deadline=None, max_examples=60)
@given(
    st.lists(u64, unique=True, min_size=1, max_size=200),
    st.lists(u64, max_size=20),
    st.integers(1, 64),
    st.integers(1, MAX_K),
)
def test_scalar_wrappers_equal_array_path_and_reference(keys, probes, f, k):
    slots = np.empty(len(keys), dtype=np.int64)
    qd = QuasiDictionary.create(np.array(keys, dtype=np.uint64), f=f, k=k, slots=slots)
    assert qd.serialize() == QuasiDictionary.create(np.array(keys, dtype=np.uint64), f=f, k=k).serialize()
    assert slots.tolist() == qd.query_array(np.array(keys, dtype=np.uint64)).tolist()
    batch = keys + probes
    arr = np.array(batch, dtype=np.uint64)
    assert qd.mphf.lookup_array(arr).tolist() == [lookup_reference(qd.mphf, x) for x in batch]
    assert [qd.query(x) for x in batch] == qd.query_array(arr).tolist()
    fps = fingerprint_array(arr, f, k).tolist()
    if f != 2 * k:
        fp_seed = mix64_reference(qd.seed ^ _FINGERPRINT_TAG)
        assert fps == [mix64_reference(x ^ fp_seed) & _fp_mask(f) for x in batch]


@settings(deadline=None, max_examples=60)
@given(st.lists(u64, unique=True, max_size=200), st.lists(u64, max_size=40), st.sampled_from([12, 62]))
@example(keys=list(range(0, 400, 2)), probes=list(range(1, 41)), f=12)  # several levels, a foreign batch
def test_no_call_writes_into_its_key_array(keys, probes, f):
    # the hashing works in place on its own copies; a uint64 argument is
    # passed through without a conversion copy, so a stray write would land
    # in it (checked after each call: two equal xors would cancel out)
    arr = np.array(keys, dtype=np.uint64)
    batch = np.array(keys + probes, dtype=np.uint64)
    qd = QuasiDictionary.create(arr.copy(), f=f, k=31)
    calls = [
        (mix64, batch),
        (lambda a: QuasiDictionary.create(a, f=f, k=31), arr),
        (Mphf.construct, arr),
        (qd.mphf.lookup_array, batch),
        (qd.query_array, batch),
    ]
    for call, a in calls:
        before = a.copy()
        call(a)
        assert a.tobytes() == before.tobytes(), call


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


# runs of (value, copies); the uint64 extremes become -1, 0 and the int64
# extremes when the same bits are read as int64 pair keys
value_runs = st.lists(
    st.tuples(st.sampled_from([0, 1, 2**63 - 1, 2**63, MAX_U64]) | u64, st.integers(1, 300)), max_size=8
)


@settings(deadline=None, max_examples=150)
@given(value_runs, st.sampled_from([1, 2, 255]), st.sampled_from([np.uint64, np.int64]))
@example(runs=[], t=1, dtype=np.uint64)
@example(runs=[(7, 2), (9, 1)], t=255, dtype=np.uint64)  # fewer values than t
@example(runs=[(MAX_U64, 255)], t=255, dtype=np.uint64)  # all equal, exactly t of them
@example(runs=[(0, 254), (MAX_U64, 256)], t=255, dtype=np.uint64)
@example(runs=[(2**63, 3), (2**63 - 1, 2), (MAX_U64, 1)], t=2, dtype=np.int64)
def test_distinct_matches_counter(runs, t, dtype):
    repeated = np.repeat(np.array([v for v, _ in runs], dtype=np.uint64), [n for _, n in runs]).view(dtype)
    values = np.random.default_rng(len(repeated)).permutation(repeated)
    kept, counts = distinct(values, t)
    want = sorted((v, n) for v, n in Counter(values.tolist()).items() if n >= t)
    assert list(zip(kept.tolist(), counts.tolist())) == want
    assert kept.dtype == dtype


@settings(deadline=None, max_examples=150)
@given(value_runs, st.integers(1, COUNT_CAP), st.sampled_from([np.uint32, np.uint64]))
@example(value_counts=[], t=1, dtype=np.uint32)
@example(value_counts=[(5, 300)], t=255, dtype=np.uint32)  # all equal, one long run
@example(value_counts=[(0, 254), (MAX_U64, 256)], t=255, dtype=np.uint64)
@example(value_counts=[(1, 1), (2, 1), (3, 1)], t=1, dtype=np.uint64)  # no two equal
def test_runs_match_counter(value_counts, t, dtype):
    # a uint32 array keeps the low 32 bits of each value, which may merge two runs into one
    values = sorted(v & np.iinfo(dtype).max for v, n in value_counts for _ in range(n))
    first, lengths = runs(np.array(values, dtype=dtype), t)
    counts = sorted((v, n) for v, n in Counter(values).items() if n >= t)
    assert list(zip(first.tolist(), lengths.tolist())) == [(values.index(v), n) for v, n in counts]


@pytest.mark.parametrize("t", [0, -2])
def test_runs_reject_a_threshold_below_one(t):
    # at t = 0 the window compare would broadcast each value against the last one
    with pytest.raises(ValueError, match="at least one"):
        runs(np.array([1, 1, 2], dtype=np.uint64), t)


@settings(deadline=None, max_examples=150)
@given(st.lists(u64, unique=True, max_size=60), st.lists(u64, max_size=60))
@example(table=[], probes=[5])
@example(table=[MAX_U64], probes=[])
def test_locate_matches_dict_oracle(table, probes):
    table.sort()
    index = {v: i for i, v in enumerate(table)}
    # every entry, and the values just below and above each one and the range ends
    probes = [*probes, 0, MAX_U64, *table, *(v - 1 for v in table if v), *(v + 1 for v in table if v < MAX_U64)]
    got = locate(np.array(table, dtype=np.uint64), np.array(probes, dtype=np.uint64))
    assert got.tolist() == [index.get(p, -1) for p in probes]


def kmer_occurrences(seqs, k):
    """Canonical code of every all-ACGT window of every read."""
    return [code for s in seqs for _, code in window_oracle(s, k)]


# N, gap, IUPAC ambiguity codes, latin-1 letters (0xff too) and characters outside latin-1
NOISE = "N-RYSWKMBDHVnrysé\u00ffΩ中\U0001f600"
noisy_reads = st.lists(
    st.text("ACGTacgt", max_size=45) | st.text(NOISE, min_size=1, max_size=3), max_size=6
).map("".join)


def doubling_tail_examples(test):
    """Lengths k + s - 1, k + s, k + s + 1 for s = 2^j up to 32, at k on both
    sides of each half-word width (8 | 9, 16 | 17): a doubling step that
    leaves out the last ``span`` entries, or a half from i + h that misses the
    zero padding, spoils the final windows here."""
    for k in (2, 3, 8, 9, 16, 17, MAX_K):
        for j in range(6):
            for n in (k + 2**j - 1, k + 2**j, k + 2**j + 1):
                test = example(seq=("ACGGTCAT" * 8)[:n], k=k)(test)
    return test


@settings(deadline=None, max_examples=300)
@given(noisy_reads, st.integers(1, MAX_K))
@doubling_tail_examples
@example(seq="", k=1)
@example(seq="ACGTACGTAC", k=MAX_K)  # shorter than k
@example(seq="T" * MAX_K + "GN" + "a" * MAX_K, k=MAX_K)  # extreme codes on both strands
@example(seq="G" * 15 + "C", k=16)  # canonical 0x95555555: the top bit of the 32-bit word
def test_scan_kmers_matches_string_oracle(seq, k):
    positions, codes = scan_kmers(seq, k)
    assert positions.dtype == np.int64 and codes.dtype == (np.uint32 if k <= 16 else np.uint64)
    want = window_oracle(seq, k)
    assert list(zip(positions.tolist(), codes.tolist())) == want


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
    # copies repeat the read set so that counts cross the 255 cap; a FASTA holds no empty read, and an
    # empty read holds no k-mer
    with tempfile.TemporaryDirectory() as tmp:
        table = count_solid(write_fasta(os.path.join(tmp, "reads.fa"), [s for s in seqs * copies if s]), k, t)
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
@example(seqs=["AAAAAAAA", "AC", "TTTTTTTT", "AAAAAAAAA"], k=5, t=1, f=8)  # repeats within and across reads
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


# a few small codes so that runs form, and each code word's extremes
group_codes = st.integers(0, 5) | st.sampled_from([2**31, 2**32 - 1, 2**62 - 1])


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.tuples(st.integers(0, MAX_BANK_READS), st.lists(group_codes, max_size=12)), max_size=10),
    st.sampled_from([np.uint32, np.uint64]),
    st.sampled_from([1, 2, 5]),
)
@example(reads=[], word=np.uint32, t=1)  # an empty group
@example(reads=[(0, [3, 3]), (MAX_BANK_READS, [3, 0])], word=np.uint64, t=2)  # the largest read id
def test_group_postings_match_set_oracle(reads, word, t):
    # incidences in bank order: read ids ascending, each read's codes in its own order
    rows = [(rid, code & np.iinfo(word).max) for rid, codes in sorted(reads) for code in codes]
    ids = np.array([rid for rid, _ in rows], dtype=np.int32)
    solid, lens, postings = _group_postings(np.array([c for _, c in rows], dtype=word), ids, t)
    counts = Counter(code for _, code in rows)
    want = {code: sorted({rid for rid, c in rows if c == code}) for code, n in counts.items() if n >= t}
    assert solid.dtype == word and solid.tolist() == sorted(want)
    assert lens.tolist() == [len(want[code]) for code in sorted(want)]
    assert postings.dtype == np.int32 and postings.tolist() == [rid for code in sorted(want) for rid in want[code]]


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
