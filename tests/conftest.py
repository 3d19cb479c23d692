"""Shared fixture helpers: synthetic read sets with genuine k-mer overlap, damaged gzip."""

import gzip

import numpy as np

BASES = np.array(list("ACGT"))


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
    """``data`` gzipped, then cut short or with its first deflate block type made invalid."""
    packed = bytearray(gzip.compress(data, mtime=0))
    if damage == "truncated":
        return bytes(packed[: len(packed) // 2])
    # bits 1-2 of the byte after the 10-byte header are the block type; 3 is reserved
    assert (packed[10] >> 1) & 3 in (1, 2)
    packed[10] ^= 2 if (packed[10] >> 1) & 3 == 2 else 4
    return bytes(packed)
