"""Shared fixture helpers: distinct random keys, unpacked bit words, the
string oracle of canonical k-mer codes, the line-by-line oracle of the read
parser, synthetic read sets with genuine k-mer overlap, damaged gzip, traced
peaks."""

import gzip
import re
import tracemalloc
import zlib
from itertools import chain, zip_longest

import numpy as np

from quasidict.seqio import ParseError, ReadRecord

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
    """Inverse of ``bits.pack`` at width 1: bit i is word[i >> 6] bit (i & 63)."""
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


_HEADER_WORD = re.compile(r"[\t\n\v\f\r\x1c-\x1f ]*([^\t\n\v\f\r\x1c-\x1f ]*)")


def reads_oracle(path):
    """The records of a FASTA or FASTQ file, plain or gzip, read line by line in text mode with universal
    newlines (a line ends at \\n, \\r\\n or a lone \\r): the reference for ``seqio.open_reads``."""
    with open(path, "rb") as fh:
        gzipped = fh.read(2) == b"\x1f\x8b"
    with (gzip.open if gzipped else open)(path, "rt", encoding="latin-1") as fh:
        try:
            first = fh.read(1)
            if first == "":
                return
            fh.seek(0)
            if first == ">":
                yield from _fasta_oracle(path, fh)
            elif first == "@":
                yield from _fastq_oracle(path, fh)
            else:
                raise ParseError(path, 1, f"unrecognized first byte {first!r}; expected '>' or '@'")
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ParseError(path, None, f"damaged gzip data: {exc}") from exc


def _fasta_oracle(path, fh):
    rid, header, header_line, chunks = 0, _HEADER_WORD.match(fh.readline(), 1).group(1), 1, []
    for lineno, line in enumerate(chain(fh, [">"]), start=2):
        line = line.rstrip("\n")
        if line.startswith(">"):
            seq = "".join(chunks)
            if not seq:
                raise ParseError(path, header_line, "record has empty sequence")
            yield ReadRecord(rid, header, seq)
            rid, header, header_line, chunks = rid + 1, _HEADER_WORD.match(line, 1).group(1), lineno, []
        elif line:
            chunks.append(line)


def _fastq_oracle(path, fh):
    lines = (line.rstrip("\n") for line in fh)
    for rid, (head, seq, plus, qual) in enumerate(zip_longest(lines, lines, lines, lines)):
        lineno = 4 * rid + 1
        if not head.startswith("@"):
            raise ParseError(path, lineno, "expected '@' header line")
        if qual is None:
            raise ParseError(path, lineno, "truncated record (need 4 lines)")
        if not seq:
            raise ParseError(path, lineno + 1, "record has empty sequence")
        if not plus.startswith("+"):
            raise ParseError(path, lineno + 2, "expected '+' separator line")
        if len(qual) != len(seq):
            raise ParseError(path, lineno + 3, "quality length differs from sequence length")
        yield ReadRecord(rid, _HEADER_WORD.match(head, 1).group(1), seq)


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


def traced_peak(build):
    """Traced peak bytes of ``build()`` above what was allocated before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
