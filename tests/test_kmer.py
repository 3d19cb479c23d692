"""Codec round trips, reverse-complement identities, window extraction."""

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
