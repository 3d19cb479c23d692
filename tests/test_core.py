"""Quasi-dictionary behavior: no false negatives, bounded false positives,
exact mode at f = 2k, packed fingerprint accounting, pinned index bytes."""

import hashlib
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quasidict import bits, core, mphf
from quasidict.bits import DEFAULT_SEED, n_words, pack, unpack
from quasidict.core import NOT_FOUND, QuasiDictionary, fingerprint_array

from conftest import distinct_draw


def distinct_codes(n, seed, bits=62):
    out = distinct_draw(np.random.default_rng(seed), int(1.3 * n) + 16, bits)
    assert len(out) >= n
    return out[:n]


def split_keys_probes(n_keys, n_probes, seed):
    pool = distinct_codes(n_keys + n_probes, seed)
    return pool[:n_keys], pool[n_keys:]


# ---------------------------------------------------------------- fingerprints


def test_fingerprint_range():
    rng = np.random.default_rng(1)
    for f in (1, 8, 12, 31, 64):
        keys = rng.integers(0, 1 << 62, size=1000, dtype=np.uint64)
        values = fingerprint_array(keys, f)
        limit = 1 << f if f < 64 else 1 << 64
        assert (values.astype(object) < limit).all()


def test_fingerprint_deterministic():
    keys = np.array([987654321], dtype=np.uint64)
    assert fingerprint_array(keys, 12) == fingerprint_array(keys, 12)


def test_fingerprint_width_validated():
    keys = np.array([1], dtype=np.uint64)
    with pytest.raises(ValueError):
        fingerprint_array(keys, 0)
    with pytest.raises(ValueError):
        fingerprint_array(keys, 65)


def test_fingerprint_exact_mode_is_injective():
    # at f = 2k the fingerprint is the key code itself
    rng = np.random.default_rng(3)
    keys = distinct_draw(rng, 200_000)
    values = fingerprint_array(keys, 62, k=31)
    assert (values == keys).all()
    assert len(np.unique(values)) == len(keys)


def test_fingerprint_mixed_mode_differs_from_key():
    keys = np.arange(1, 1000, dtype=np.uint64)
    values = fingerprint_array(keys, 62, k=15)  # 62 != 2*15: mixer applies
    assert (values != keys).any()


# ---------------------------------------------------------------- packing


def test_pack_entries_bit_exact():
    """bits.pack lays entry i at bits [i * f, (i + 1) * f) of little-endian words."""
    rng = np.random.default_rng(4)
    for f in (1, 3, 12, 17, 33, 64):
        n = int(rng.integers(1, 400))
        values = rng.integers(0, 1 << min(f, 63), size=n, dtype=np.uint64)
        if f == 64:
            values |= rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
        words = pack(values, f)
        assert len(words) == n_words(n, f)
        # oracle: read each entry back out of one big int
        big = int.from_bytes(words.astype("<u8").tobytes(), "little")
        mask = (1 << f) - 1
        for i in range(n):
            assert (big >> (i * f)) & mask == int(values[i]), (f, i)


# ---------------------------------------------------------------- create/query


def test_singleton_create_and_query():
    x = 0x1234ABCD
    qd = QuasiDictionary.create(np.array([x], dtype=np.uint64), f=12)
    assert qd.query(x) == 0
    stored = unpack(qd.fg_words, 12, np.array([0]))[0]
    assert stored == fingerprint_array(np.array([x], dtype=np.uint64), 12)[0]


def test_no_false_negatives_and_bijection():
    keys = distinct_codes(50_000, seed=5)
    qd = QuasiDictionary.create(keys, f=12)
    got = qd.query_array(keys)
    assert (got >= 0).all()
    assert (np.sort(got) == np.arange(len(keys))).all()


def test_query_scalar_matches_batch():
    keys, probes = split_keys_probes(2000, 2000, seed=6)
    qd = QuasiDictionary.create(keys, f=10)
    batch = qd.query_array(probes)
    for p, b in zip(probes[:200], batch[:200]):
        assert qd.query(int(p)) == int(b)


def test_exact_mode_zero_false_positives():
    keys, probes = split_keys_probes(100_000, 1_000_000, seed=7)
    qd = QuasiDictionary.create(keys, f=62, k=31)
    assert (qd.query_array(probes) == NOT_FOUND).all()


def test_false_positive_rate_bands():
    # empirical FP fraction within [2^-f / 2.5, 2.5 * 2^-f] at one million probes
    keys, probes = split_keys_probes(100_000, 1_000_000, seed=8)
    for f in (8, 12, 16):
        qd = QuasiDictionary.create(keys, f=f, k=31)
        rate = float((qd.query_array(probes) >= 0).mean())
        lo, hi = 2.0**-f / 2.5, 2.5 * 2.0**-f
        assert lo <= rate <= hi, f"f={f}: rate {rate:.3e} outside [{lo:.3e}, {hi:.3e}]"


def test_fingerprint_payload_is_exactly_n_times_f():
    keys = distinct_codes(10_000, seed=9)
    for f in (5, 12, 33):
        qd = QuasiDictionary.create(keys, f=f)
        assert qd.fingerprint_bits() == len(keys) * f
        assert len(qd.fg_words) == n_words(len(keys), f)


def test_structure_size_budget_f12():
    keys = distinct_codes(100_000, seed=10)
    qd = QuasiDictionary.create(keys, f=12, gamma=2.0)
    assert qd.bits_per_key() <= 16.0


def test_serialize_roundtrip():
    keys, probes = split_keys_probes(5000, 5000, seed=11)
    qd = QuasiDictionary.create(keys, f=12)
    blob = qd.serialize()
    assert blob[:4] == b"QDIC"
    back = QuasiDictionary.deserialize(blob)
    assert (back.query_array(keys) == qd.query_array(keys)).all()
    assert (back.query_array(probes) == qd.query_array(probes)).all()
    assert back.serialize() == blob


def test_deserialize_rejects_truncated_padded_or_inconsistent_input():
    qd = QuasiDictionary.create(distinct_codes(300, seed=15), f=12)
    blob = qd.serialize()
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            QuasiDictionary.deserialize(blob[:cut])
    with pytest.raises(ValueError):
        QuasiDictionary.deserialize(blob + b"\0")
    mphf_len = len(qd.mphf.serialize())
    for wrong in (mphf_len + 999, mphf_len - 8):
        # the mphf_len field is the header's last 8 bytes
        bad = blob[:48] + struct.pack("<Q", wrong) + blob[56:]
        with pytest.raises(ValueError):
            QuasiDictionary.deserialize(bad)


def patched(blob, offset, fmt, value):
    return blob[:offset] + struct.pack(fmt, value) + blob[offset + struct.calcsize(fmt) :]


@pytest.mark.parametrize(
    "offset, fmt, value, message",
    [
        (16, "<I", 0, "fingerprint width"),  # f
        (16, "<I", 65, "fingerprint width"),
        (20, "<I", 0, "k-mer length"),  # k
        (20, "<I", 32, "k-mer length"),
        (8, "<Q", 5, "perfect hash holds 300 keys"),  # index n_keys
        (64, "<Q", 5, "levels and fallback"),  # the perfect hash's own n_keys
        (64, "<Q", 301, "levels and fallback"),
        (40, "<Q", DEFAULT_SEED ^ 1, "seed"),  # the index's master seed
        (80, "<Q", DEFAULT_SEED ^ (1 << 63), "seed"),  # the perfect hash's own seed
    ],
)
def test_deserialize_cross_checks_header_counts(offset, fmt, value, message):
    # QDIC header: magic, version, n_keys @8, f @16, k @20, mixers, seed @40, ...;
    # MPHF header from byte 56: magic, version, n_keys @64, gamma, seed @80, ...
    blob = QuasiDictionary.create(distinct_codes(300, seed=15), f=12).serialize()
    assert QuasiDictionary.deserialize(blob).n_keys == 300
    with pytest.raises(ValueError, match=message):
        QuasiDictionary.deserialize(patched(blob, offset, fmt, value))


def test_deserialize_rejects_zero_width_empty_index():
    blob = QuasiDictionary.create(np.empty(0, dtype=np.uint64), f=12).serialize()
    assert QuasiDictionary.deserialize(blob).n_keys == 0
    with pytest.raises(ValueError, match="fingerprint width"):
        QuasiDictionary.deserialize(patched(blob, 16, "<I", 0))


def test_save_load_file(tmp_path):
    keys = distinct_codes(3000, seed=14)
    qd = QuasiDictionary.create(keys, f=12)
    path = str(tmp_path / "index.qdic")
    qd.save(path)
    back = QuasiDictionary.load(path)
    assert (back.query_array(keys) == qd.query_array(keys)).all()
    assert Path(path).read_bytes()[:4] == b"QDIC"


@pytest.mark.parametrize("chunk", [64, 192])
def test_chunks_are_invisible(monkeypatch, chunk):
    """create hashes, assigns slots, fingerprints and packs in chunks: a smaller chunk
    constant changes neither a key's slot nor a byte of the index."""
    cases = []
    for n in (0, 1, 5, 63, 64, 65, 1000, 5000):
        keys = distinct_codes(n, seed=40 + n)
        for f, gamma in ((1, 2.0), (12, 2.0), (33, 1.0), (62, 2.0), (64, 3.5)):
            slots = np.empty(n, dtype=np.int64)
            blob = QuasiDictionary.create(keys, f=f, gamma=gamma, slots=slots).serialize()
            cases.append((keys, f, gamma, slots, blob))
    for module in (bits, mphf, core):
        monkeypatch.setattr(module, "CHUNK", chunk)
    for keys, f, gamma, slots, blob in cases:
        got = np.empty(len(keys), dtype=np.int64)
        assert QuasiDictionary.create(keys, f=f, gamma=gamma, slots=got).serialize() == blob
        assert got.tolist() == slots.tolist()


def test_create_peak_per_key():
    """Traced peak bytes of create per key, the keys allocated before tracing: the int64 slots,
    uint32 positions and survivor indices, byte masks and chunk-sized temporaries. Full-size
    int64 positions, bincounts and fingerprint temporaries took 60."""
    keys = distinct_codes(1_000_000, seed=16)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        QuasiDictionary.create(keys, f=12)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 32 * len(keys), f"{peak / len(keys):.1f} bytes per key"


def test_create_empty():
    qd = QuasiDictionary.create(np.empty(0, dtype=np.uint64), f=12)
    assert qd.n_keys == 0
    assert qd.query(42) == NOT_FOUND
    assert (qd.query_array(np.array([1, 2], dtype=np.uint64)) == NOT_FOUND).all()


def test_create_rejects_bad_f():
    with pytest.raises(ValueError):
        QuasiDictionary.create(np.array([1], dtype=np.uint64), f=0)


def test_create_rejects_keys_of_two_dimensions():
    with pytest.raises(ValueError, match="one-dimensional"):
        QuasiDictionary.create(np.arange(6, dtype=np.uint64).reshape(2, 3))


@pytest.mark.parametrize("k", [0, 32, 40])
def test_create_rejects_a_k_the_loader_refuses(k):
    with pytest.raises(ValueError, match="k-mer length"):
        QuasiDictionary.create(np.array([1], dtype=np.uint64), k=k)


# ---------------------------------------------------------------- index format


def test_deserialize_rejects_a_changed_rank_sample():
    qd = QuasiDictionary.create(np.arange(5_000, dtype=np.uint64) * 7919, f=12)
    blob = bytearray(qd.serialize())
    level = qd.mphf.levels[0]
    second_sample = blob.index(level.serialize()) + 8 + 8 * len(level.words) + 8
    blob[second_sample] ^= 1
    with pytest.raises(ValueError, match="rank samples"):
        QuasiDictionary.deserialize(bytes(blob))


@pytest.mark.parametrize(
    "f, n_bytes, digest",
    [
        (12, 98_596, "dc147ec7d529fc9b321776954cafbce1bf862919e334f9e66ef4e72011441b3b"),
        (62, 411_100, "9cc78010f6b6712ac98d0ffda55d67e1ec313bf74d7128f5fc54c3e6f56a2e05"),
    ],
)
def test_serialized_bytes_are_pinned(f, n_bytes, digest):
    # any change to hashing, packing or layout changes these bytes; a
    # rewrite of the query path must leave them alone
    rng = np.random.default_rng(2024)
    keys = np.unique(rng.integers(0, 1 << 62, size=50_000, dtype=np.uint64))
    blob = QuasiDictionary.create(keys, f=f, k=31).serialize()
    assert len(blob) == n_bytes
    assert hashlib.sha256(blob).hexdigest() == digest
