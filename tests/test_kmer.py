"""Codec round trips, reverse-complement identities, window extraction."""

import hashlib

import numpy as np
import pytest

from quasidict.kcount import solid_table
from quasidict.kmer import (
    MAX_K,
    NonNucleotideError,
    canonical,
    decode,
    encode,
    iter_kmers,
    revcomp,
    scan_kmers,
)


def naive_encode(s):
    return int("".join(f"{'ACGT'.index(c):02b}" for c in s.upper()), 2)


def naive_revcomp(s):
    comp = {"A": "T", "C": "G", "G": "C", "T": "A"}
    return "".join(comp[c] for c in reversed(s.upper()))


def naive_windows(seq, k):
    """Oracle: re-encode every window from scratch, skipping non-ACGT ones."""
    out = []
    for i in range(len(seq) - k + 1):
        w = seq[i : i + k].upper()
        if all(c in "ACGT" for c in w):
            out.append((i, min(naive_encode(w), naive_encode(naive_revcomp(w)))))
    return out


def test_encode_forced_value():
    assert encode("ACCG") == 0b00_01_01_10 == 22


def test_encode_case_insensitive():
    assert encode("accg") == encode("ACCG")


def test_encode_rejects_non_nucleotide_with_position():
    with pytest.raises(NonNucleotideError) as err:
        encode("ACNG")
    assert err.value.position == 2


def test_encode_rejects_bad_lengths():
    with pytest.raises(ValueError):
        encode("")
    with pytest.raises(ValueError):
        encode("A" * 32)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: decode(0, k),
        lambda k: scan_kmers("ACGT" * 10, k),
        lambda k: solid_table(np.zeros(3, np.uint64), k, 1),
    ],
    ids=["decode", "scan_kmers", "solid_table"],
)
def test_k_outside_one_to_max_k_rejected(call):
    for k in (0, MAX_K + 1):
        with pytest.raises(ValueError, match=rf"k-mer length must be in \[1, {MAX_K}\], got {k}"):
            call(k)


def test_encode_decode_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(300):
        k = int(rng.integers(1, 32))
        code = int(rng.integers(0, 1 << (2 * k)))
        assert encode(decode(code, k)) == code


def test_string_order_equals_code_order():
    rng = np.random.default_rng(2)
    for _ in range(200):
        k = int(rng.integers(1, 16))
        a, b = int(rng.integers(0, 1 << (2 * k))), int(rng.integers(0, 1 << (2 * k)))
        assert (decode(a, k) < decode(b, k)) == (a < b)


def test_revcomp_documented_pair():
    assert revcomp(encode("ACCG"), 4) == encode("CGGT")


def test_revcomp_palindrome():
    assert revcomp(encode("AT"), 2) == encode("AT")


def test_revcomp_matches_string_oracle():
    rng = np.random.default_rng(3)
    for _ in range(300):
        k = int(rng.integers(1, 32))
        s = "".join(rng.choice(list("ACGT"), size=k))
        assert revcomp(encode(s), k) == encode(naive_revcomp(s))


def test_revcomp_involution():
    rng = np.random.default_rng(4)
    for k in (1, 5, 16, 31):
        for code in rng.integers(0, 1 << (2 * k), size=2000, dtype=np.uint64).tolist():
            assert revcomp(revcomp(code, k), k) == code


def test_canonical_properties():
    rng = np.random.default_rng(6)
    for k in (2, 9, 31):
        for code in rng.integers(0, 1 << (2 * k), size=3000, dtype=np.uint64).tolist():
            canon = canonical(code, k)
            # symmetric under strand, idempotent, never above its own revcomp
            assert canon == canonical(revcomp(code, k), k)
            assert canonical(canon, k) == canon
            assert canon <= revcomp(canon, k)


def test_canonical_documented_example():
    # ACCG < CGGT, so ACCG is its own canonical form
    assert canonical(encode("ACCG"), 4) == encode("ACCG")


def test_iter_kmers_direct_enumeration():
    got = list(iter_kmers("ACCGT", 4))
    assert got == [(0, canonical(encode("ACCG"), 4)), (1, canonical(encode("CCGT"), 4))]


def test_iter_kmers_short_sequence_empty():
    assert list(iter_kmers("ACG", 4)) == []


def test_single_n_removes_exactly_k_windows():
    seq = "ACGTACGTACGTACGTACGT"
    k = 5
    j = 10
    broken = seq[:j] + "N" + seq[j + 1 :]
    kept = {p for p, _ in iter_kmers(broken, k)}
    expected = {i for i in range(len(seq) - k + 1) if not (j - k + 1 <= i <= j)}
    assert kept == expected


def test_scan_matches_naive_oracle_with_noise():
    rng = np.random.default_rng(7)
    alphabet = list("ACGTNacgtn-X")
    for _ in range(40):
        n = int(rng.integers(0, 120))
        k = int(rng.integers(1, 12))
        seq = "".join(rng.choice(alphabet, size=n))
        positions, codes = scan_kmers(seq, k)
        got = list(zip(positions.tolist(), codes.tolist()))
        assert got == naive_windows(seq, k)


def pin_sequence():
    """65 536 seeded bases with soft-masked stretches, runs of N and one latin-1 byte."""
    rng = np.random.default_rng(14)
    raw = np.frombuffer(b"ACGT", np.uint8)[rng.integers(0, 4, 65_536)].copy()
    for start in rng.integers(0, 65_000, 24):
        raw[start : start + rng.integers(1, 500)] |= 0x20  # lowercase
    for start in rng.integers(0, 65_500, 40):
        raw[start : start + rng.integers(1, 40)] = ord("N")
    raw[40_000] = 0xE9  # é
    return raw.tobytes().decode("latin-1")


# sha256 of positions then codes over pin_sequence(); any change to an output bit shows here
SCAN_PINS = {
    1: "3387e9ece9ecb31d6a63511401768c6b85d0fe5fec068ea89705e881378e3297",
    2: "7d003f25d9a11644d743343967a9b2ee25c080e0000faa54a2d16e1a9793fcbf",
    3: "05da75779a12970b1ce38587dbeb06bcf3f7200c53139b3bd3700479255f5240",
    4: "19012c7b422c91c518805a412e443767d373bcbda64461fefef2870af906eba1",
    5: "4e26b8279e18947e3aa166ac25516e096eab621a9238d0b0fb159ed2867ae02a",
    8: "d73fb47a9a4794b8dd2bfe2cbada7f77180d3173bf72a9f10d76254291c16198",
    9: "df74c53b4186a9da31e51d9fb1c22d9165f19d249cb06f9165ce1f23603b9f1a",
    15: "b61737685343f13ce095b09c1edcf531e73bbf57986e9dd8eee1765dd026fad9",
    16: "a3db9f9dbbe5a059c9540a0bc736682e57da9d7bf4b237a0a56b2a5400a43fcd",
    17: "e96c58e8840cf7f9c4aedb4f3a0e67f7505f24d6b2052348fc74f9a3555389f6",
    31: "383090f31387e4578dcbc4f359dcf807b9db290085fd0ee332c7f9285e56dcf9",
}


@pytest.mark.parametrize("k", sorted(SCAN_PINS))
def test_scan_kmers_is_pinned(k):
    positions, codes = scan_kmers(pin_sequence(), k)
    blob = positions.astype("<i8").tobytes() + codes.astype("<u8").tobytes()
    assert hashlib.sha256(blob).hexdigest() == SCAN_PINS[k]
