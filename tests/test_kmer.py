"""The 2-bit code, strand and window rules of scan_kmers, against string oracles."""

import hashlib

import numpy as np
import pytest

from quasidict.kcount import solid_table
from quasidict.kmer import MAX_K, scan_kmers

from conftest import traced_peak, window_oracle


def naive_encode(s):
    return int("".join(f"{'ACGT'.index(c):02b}" for c in s.upper()), 2)


def naive_revcomp(s):
    comp = {"A": "T", "C": "G", "G": "C", "T": "A"}
    return "".join(comp[c] for c in reversed(s.upper()))


def codes_of(seq, k):
    return scan_kmers(seq, k)[1].tolist()


def random_sequence(rng, n):
    return "".join(rng.choice(list("ACGT"), size=n))


def test_encode_forced_value():
    assert codes_of("ACCG", 4) == [0b00_01_01_10] == [22]


def test_encode_case_insensitive():
    assert codes_of("accgTtgA", 4) == codes_of("ACCGTTGA", 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: scan_kmers("ACGT" * 10, k),
        lambda k: solid_table(np.zeros(3, np.uint64), k, 1),
    ],
    ids=["scan_kmers", "solid_table"],
)
def test_k_outside_one_to_max_k_rejected(call):
    for k in (0, MAX_K + 1):
        with pytest.raises(ValueError, match=rf"k-mer length must be in \[1, {MAX_K}\], got {k}"):
            call(k)


def test_string_order_equals_code_order():
    # the canonical code is the code of the strand that comes first in string order
    rng = np.random.default_rng(2)
    for _ in range(200):
        k = int(rng.integers(1, 32))
        s = random_sequence(rng, k)
        assert codes_of(s, k) == [naive_encode(min(s, naive_revcomp(s)))]


def test_revcomp_documented_pair():
    assert codes_of("ACCG", 4) == codes_of("CGGT", 4)


def test_revcomp_palindrome():
    assert codes_of("AT", 2) == [naive_encode("AT")] == [3]


def test_revcomp_matches_string_oracle():
    # the reverse-complement strand has the same windows in mirrored order
    rng = np.random.default_rng(3)
    for _ in range(300):
        k = int(rng.integers(1, 32))
        s = random_sequence(rng, int(rng.integers(k, 80)))
        assert codes_of(naive_revcomp(s), k) == codes_of(s, k)[::-1]


def test_canonical_properties():
    rng = np.random.default_rng(6)
    for k in (2, 9, 16, 17, 31):
        s = random_sequence(rng, 3000)
        for i, code in enumerate(codes_of(s, k)):
            w = s[i : i + k]
            # one of the two strands' codes, never above either
            assert code == min(naive_encode(w), naive_encode(naive_revcomp(w)))


def test_canonical_documented_example():
    # ACCG < CGGT, so ACCG is its own canonical form and CGGT's
    assert codes_of("CGGT", 4) == [naive_encode("ACCG")]


def test_scan_kmers_direct_enumeration():
    positions, codes = scan_kmers("ACCGT", 4)
    assert positions.tolist() == [0, 1]
    assert codes.tolist() == [naive_encode("ACCG"), naive_encode("ACGG")]


def test_scan_kmers_short_sequence_empty():
    positions, codes = scan_kmers("ACG", 4)
    assert len(positions) == len(codes) == 0


def test_single_n_removes_exactly_k_windows():
    seq = "ACGTACGTACGTACGTACGT"
    k = 5
    j = 10
    broken = seq[:j] + "N" + seq[j + 1 :]
    kept = set(scan_kmers(broken, k)[0].tolist())
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
        assert got == window_oracle(seq, k)


@pytest.mark.parametrize("k", [1, 2, 17])
def test_every_byte_value_against_the_oracle(k):
    # a byte is a nucleotide by arithmetic on its value, not by a table: all 256 values, between ACGT runs
    rng = np.random.default_rng(k)
    seq = "".join(random_sequence(rng, 20) + chr(b) for b in range(256)) + random_sequence(rng, 20)
    positions, codes = scan_kmers(seq, k)
    assert list(zip(positions.tolist(), codes.tolist())) == window_oracle(seq, k)


@pytest.mark.parametrize("k, bound", [(15, 27), (31, 43)])
def test_scan_scratch_per_base(k, bound):
    """One call's traced peak per base of an all-ACGT sequence: 27 and 43 bytes when each strand
    doubled in whole code words; about 18 and 28 since it doubles in halves that are freed in turn."""
    seq = random_sequence(np.random.default_rng(k), 1 << 16)
    per_base = traced_peak(lambda: scan_kmers(seq, k)) / len(seq)
    assert per_base <= bound, f"{per_base:.1f} bytes per base"


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
