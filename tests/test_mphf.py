"""Bijectivity, determinism and size of the minimal perfect hash."""

import numpy as np
import pytest

from quasidict import mphf
from quasidict.bitrank import RankBitVector
from quasidict.bits import U64, mix64
from quasidict.mphf import NOT_FOUND, DuplicateKeyError, Mphf

from conftest import distinct_draw


def random_keys(n, seed):
    rng = np.random.default_rng(seed)
    keys = distinct_draw(rng, 2 * n + 16)
    assert len(keys) >= n
    rng.shuffle(keys[:n])
    return keys[:n]


def test_singleton():
    m = Mphf.construct(np.array([12345], dtype=np.uint64))
    assert m.lookup(12345) == 0


def test_bijectivity_small_sizes():
    # oracle: sorted multiset of lookups over the key set is exactly 0..N-1
    for n in (1, 2, 3, 10, 100, 1000):
        keys = random_keys(n, seed=n)
        m = Mphf.construct(keys)
        got = np.sort(m.lookup_array(keys))
        assert (got == np.arange(n)).all(), f"not a bijection at N={n}"


def test_scalar_matches_batch():
    keys = random_keys(500, seed=9)
    m = Mphf.construct(keys)
    batch = m.lookup_array(keys)
    for i in range(0, 500, 17):
        assert m.lookup(int(keys[i])) == batch[i]


def test_lookup_deterministic():
    keys = random_keys(200, seed=5)
    m = Mphf.construct(keys)
    first = m.lookup_array(keys)
    second = m.lookup_array(keys)
    assert (first == second).all()


def test_duplicate_keys_rejected():
    keys = np.array([7, 8, 9, 8], dtype=np.uint64)
    with pytest.raises(DuplicateKeyError) as err:
        Mphf.construct(keys)
    assert err.value.key == 8


def test_copies_of_one_key_rejected_at_the_first_level(monkeypatch):
    # a level hashes its keys in chunks, so count the levels by their seeds
    level_pos, seeds = mphf._level_pos, set()

    def counted(keys, level_seed, n_bits):
        seeds.add(level_seed)
        return level_pos(keys, level_seed, n_bits)

    monkeypatch.setattr(mphf, "_level_pos", counted)
    with pytest.raises(DuplicateKeyError) as err:
        Mphf.construct(np.full(300_000, 12345, dtype=np.uint64))
    assert err.value.key == 12345
    assert len(seeds) <= 2


def test_gamma_below_one_rejected():
    with pytest.raises(ValueError):
        Mphf.construct(np.array([1, 2], dtype=np.uint64), gamma=0.5)


@pytest.mark.parametrize(
    "option, value",
    [("gamma", float("inf")), ("gamma", float("nan")), ("gamma", 1e300), ("gamma", 1e9), ("gamma", 65.0),
     ("seed", 2**64), ("seed", -1)],
)
def test_gamma_and_seed_outside_their_domain_rejected(option, value):
    with pytest.raises(ValueError, match=option):
        Mphf.construct(np.array([1, 2], dtype=np.uint64), **{option: value})


def test_non_keys_in_range_or_not_found():
    keys = random_keys(100_000, seed=2)
    m = Mphf.construct(keys)
    fresh = distinct_draw(np.random.default_rng(3), 120_000)
    fresh = np.setdiff1d(fresh, keys, assume_unique=True)[:100_000]
    got = m.lookup_array(fresh)
    assert ((got == NOT_FOUND) | ((got >= 0) & (got < m.n_keys))).all()
    # some non-keys do fall through every level
    assert (got == NOT_FOUND).any()


def test_identical_inputs_give_identical_bytes():
    keys = random_keys(5000, seed=21)
    a = Mphf.construct(keys, gamma=2.0, seed=77).serialize()
    b = Mphf.construct(keys, gamma=2.0, seed=77).serialize()
    assert a == b
    c = Mphf.construct(keys, gamma=2.0, seed=78).serialize()
    assert a != c


def test_serialize_roundtrip():
    keys = random_keys(3000, seed=31)
    m = Mphf.construct(keys)
    blob = m.serialize()
    back, end = Mphf.deserialize(blob)
    assert end == len(blob)
    assert (back.lookup_array(keys) == m.lookup_array(keys)).all()
    assert back.serialize() == blob
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            Mphf.deserialize(blob[:cut])


def test_deserialize_rejects_a_level_with_no_bits():
    m = Mphf.construct(random_keys(3000, seed=31))
    empty = RankBitVector.build(np.zeros(0, dtype=bool))
    blob = Mphf(m.levels + [empty], m.fallback_keys, m.n_keys, m.gamma, m.seed).serialize()
    with pytest.raises(ValueError, match="no bits"):
        Mphf.deserialize(blob)


def _swap_keys(pairs):
    pairs[[1, 2], 0] = pairs[[2, 1], 0]


def _repeat_key(pairs):
    pairs[1, 0] = pairs[0, 0]


def _swap_indices(pairs):
    pairs[[0, 3], 1] = pairs[[3, 0], 1]


def _flip_index(pairs):
    pairs[2, 1] ^= 1


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_swap_keys, "strictly increasing", id="swap_keys"),
        pytest.param(_repeat_key, "strictly increasing", id="repeat_key"),
        pytest.param(_swap_indices, "run on", id="swap_indices"),
        pytest.param(_flip_index, "run on", id="flip_index"),
    ],
)
def test_deserialize_rejects_fallback_pairs_construct_never_writes(edit, message):
    m = Mphf.construct(random_keys(3000, seed=31))
    blob = m.serialize()
    n = len(m.fallback_keys)
    assert n == 4
    pairs = np.frombuffer(blob, dtype="<u8", offset=len(blob) - 16 * n).reshape(n, 2).copy()
    edit(pairs)
    with pytest.raises(ValueError, match=message):
        Mphf.deserialize(blob[: len(blob) - 16 * n] + pairs.tobytes())


def test_bits_per_key_monotone_in_gamma():
    keys = random_keys(20_000, seed=40)
    low = Mphf.construct(keys, gamma=1.5).bits_per_key()
    high = Mphf.construct(keys, gamma=4.0).bits_per_key()
    assert high > low


def test_bits_per_key_n1_finite():
    m = Mphf.construct(np.array([42], dtype=np.uint64))
    assert 0 < m.bits_per_key() < float("inf")


def test_size_budget_at_gamma2():
    keys = random_keys(100_000, seed=50)
    m = Mphf.construct(keys, gamma=2.0)
    assert 2.5 <= m.bits_per_key() <= 4.0


def test_level_seeds_distinct():
    keys = random_keys(10_000, seed=60)
    m = Mphf.construct(keys)
    assert len(set(m.seeds)) == len(m.seeds)


def test_empty_key_set():
    m = Mphf.construct(np.empty(0, dtype=np.uint64))
    assert m.n_keys == 0
    assert m.lookup(123) == NOT_FOUND
    assert (m.lookup_array(np.array([1, 2, 3], dtype=np.uint64)) == NOT_FOUND).all()


@pytest.mark.parametrize("n_bits", [1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63 + 1])
@pytest.mark.parametrize("mix", [mix64, np.copy], ids=["mix64", "identity"])
def test_level_pos_is_the_hash_modulo_the_level_size(monkeypatch, n_bits, mix):
    # with the identity as the mixer and seed 0, the hashes include 0 and 2^64 - 1 themselves
    monkeypatch.setattr(mphf, "mix64", mix)
    rng = np.random.default_rng(n_bits % 1000)
    drawn = rng.integers(0, 2**64 - 1, size=5000, dtype=np.uint64, endpoint=True)
    keys = np.concatenate([drawn, np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)])
    for seed in (0, 0x9E3779B97F4A7C15):
        want = mix(keys ^ U64(seed)) % U64(n_bits)
        got = mphf._level_pos(keys, seed, n_bits)
        assert got.dtype == np.int64
        assert (got.view(np.uint64) == want).all()
