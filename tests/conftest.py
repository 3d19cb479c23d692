"""Shared fixture helpers: distinct random keys, unpacked bit words, the
string oracle of canonical k-mer codes, synthetic read sets with genuine
k-mer overlap, damaged gzip."""

import gzip

import numpy as np

BASES = np.array(list("ACGT"))


def distinct_draw(rng, size, bits=62):
    """The sorted distinct values of ``size`` random draws below 2**bits.

    Equal to ``np.unique`` of the draw, by sort and a neighbour mask: on
    numpy 2.4 ``np.unique`` takes a hash path that is tens of times slower.
    """
    ordered = np.sort(rng.integers(0, 1 << bits, size=size, dtype=np.uint64))
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def words_to_bool(words, n_bits):
    """Inverse of ``bits.pack_bool_to_words``: bit i is word[i >> 6] bit (i & 63)."""
    as_bytes = np.frombuffer(np.ascontiguousarray(words).tobytes(), dtype=np.uint8)
    return np.unpackbits(as_bytes, bitorder="little")[:n_bits].astype(bool)


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


def random_genome(rng, length):
    return "".join(BASES[rng.integers(0, 4, size=length)])


def reads_from_genome(rng, genome, n_reads, read_len):
    """Sample reads from random genome positions and strands, so distinct
    reads share k-mers wherever their windows overlap."""
    comp = str.maketrans("ACGT", "TGCA")
    out = []
    for _ in range(n_reads):
        start = int(rng.integers(0, len(genome) - read_len + 1))
        seq = genome[start : start + read_len]
        if rng.random() < 0.5:
            seq = seq.translate(comp)[::-1]
        out.append(seq)
    return out


def write_fasta(path, seqs, prefix="r"):
    with open(path, "w") as fh:
        for i, s in enumerate(seqs):
            fh.write(f">{prefix}{i}\n{s}\n")
    return str(path)


def damaged_gzip(data: bytes, damage: str) -> bytes:
    """``data`` gzipped, then cut short, with a flipped CRC byte (noticed only at
    the end of the stream) or with its first deflate block type made invalid."""
    packed = bytearray(gzip.compress(data, mtime=0))
    if damage == "truncated":
        return bytes(packed[: len(packed) // 2])
    if damage == "crc":
        packed[-8] ^= 0xFF  # the trailer is CRC32 then the length, 4 bytes each
        return bytes(packed)
    # bits 1-2 of the byte after the 10-byte header are the block type; 3 is reserved
    assert (packed[10] >> 1) & 3 in (1, 2)
    packed[10] ^= 2 if (packed[10] >> 1) & 3 == 2 else 4
    return bytes(packed)
