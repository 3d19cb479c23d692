"""Solid-k-mer extraction: canonical k-mer counting with a threshold.

A k-mer is solid when its canonical form occurs at least t times across
the read set (both strands pooled); :func:`solid_table` is the one place
that decides it, for the counter and the linker alike. Counting is exact;
the stored counts saturate at 255, which is applied only after the >= t
filter so the solidity decision never saturates away (t <= 255 is enforced).

:func:`count_solid` does not hold the bank: it spills the codes to an
anonymous temporary file, cut into ranges of codes, and counts a group of
ranges at a time (a partitioned pass after DSK, Rizk, Lavenier and Chikhi
2013).
"""

from __future__ import annotations

import struct
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bits import U64, check_room, distinct
from .kmer import check_k, code_word, scan_kmers
from .seqio import ReadRecord

_MAGIC = b"SKMT"
_HEAD = struct.Struct("<4sIIQ")

COUNT_CAP = 255

# bases and separators per scanned batch of reads; sets the read tools' memory
# and bounds the linker's query key (see linker.link_reads)
BATCH_BASES = 2**16

# the bank's spill is cut into 2^RANGE_BITS ranges of codes by their top bits
# (all 2k bits when 2k is fewer), and consecutive ranges are counted together
# up to GROUP_KMERS k-mers; a larger range is counted alone
RANGE_BITS = 8
GROUP_KMERS = 2**18


def _check_t(t: int) -> None:
    if not 1 <= t <= COUNT_CAP:
        raise ValueError(f"solidity threshold must be in [1, {COUNT_CAP}], got {t}")


@dataclass
class SolidKmerTable:
    """Distinct canonical codes sorted ascending, with capped counts."""

    codes: np.ndarray  # sorted, in code_word(k): uint32 up to k = 16, else uint64
    counts: np.ndarray  # uint8, min(true count, 255)
    k: int
    t: int

    def __len__(self) -> int:
        return len(self.codes)

    def dump(self, path: str) -> None:
        """On-disk form: magic, k, t, entry count, then the codes as <u8 and the counts as u8."""
        with open(path, "wb") as fh:
            fh.write(_HEAD.pack(_MAGIC, self.k, self.t, len(self.codes)))
            fh.write(self.codes.astype("<u8").tobytes())
            fh.write(self.counts.astype(np.uint8).tobytes())

    @classmethod
    def load(cls, path: str) -> "SolidKmerTable":
        """Inverse of :meth:`dump`; ValueError on a file it could not have written."""
        with open(path, "rb") as fh:
            buf = fh.read()
        check_room(buf, 0, _HEAD.size)
        magic, k, t, n = _HEAD.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise ValueError("not a solid k-mer table file")
        if _HEAD.size + 9 * n != len(buf):
            raise ValueError(f"expected {_HEAD.size + 9 * n} bytes, got {len(buf)}")
        codes = np.frombuffer(buf, dtype="<u8", count=n, offset=_HEAD.size)
        counts = np.frombuffer(buf, dtype=np.uint8, count=n, offset=_HEAD.size + 8 * n).copy()
        check_k(k)
        _check_t(t)
        if (codes[1:] <= codes[:-1]).any() or (codes >= U64(4) ** U64(k)).any():
            raise ValueError(f"codes are not strictly increasing k-mer codes below 4^{k}")
        if (counts < t).any():
            raise ValueError(f"a count is below the solidity threshold {t}")
        return cls(codes.astype(code_word(k)), counts, k, t)


def scan_batches(reads: Iterable[ReadRecord], k: int) -> Iterator[tuple]:
    """Reads in batches of n, the longest of length L, with n·(L + 1) at most BATCH_BASES (a
    longer read is a batch alone), joined with one N so no valid window spans two reads and
    scanned in one call. Yields ``(batch, positions, codes, sizes)``: the reads, each k-mer's
    start within its read, the canonical codes in read order, the k-mers per read.
    """
    batch, longest = [], 0
    for read in reads:
        longest = max(longest, len(read.seq))
        if batch and (len(batch) + 1) * (longest + 1) > BATCH_BASES:
            yield _scan_batch(batch, k)
            batch, longest = [], len(read.seq)
        batch.append(read)
    if batch:
        yield _scan_batch(batch, k)


def _scan_batch(batch: list[ReadRecord], k: int) -> tuple:
    starts = np.cumsum([0] + [len(read.seq) + 1 for read in batch[:-1]])
    positions, codes = scan_kmers("N".join(read.seq for read in batch), k)
    sizes = np.diff(np.searchsorted(positions, starts), append=len(positions))
    positions -= np.repeat(starts, sizes)
    return batch, positions, codes, sizes


def scan_reads(reads: Iterable[ReadRecord], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every read's canonical codes concatenated in read order, in ``code_word(k)``, and k-mers per read."""
    parts = [(np.empty(0, code_word(k)), np.empty(0, np.int64))]
    parts += [(codes, sizes) for _, _, codes, sizes in scan_batches(reads, k)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def solid_table(codes: np.ndarray, k: int, t: int) -> SolidKmerTable:
    """Distinct codes occurring at least t times in ``codes``, with capped counts."""
    check_k(k)
    _check_t(t)
    solid, counts = distinct(codes, t)
    return SolidKmerTable(solid, np.minimum(counts, COUNT_CAP).astype(np.uint8), k, t)


def count_solid(reads: Iterable[ReadRecord], k: int, t: int) -> SolidKmerTable:
    """Count canonical k-mers over a read stream and keep those seen >= t times.

    One scan sorts each batch's codes and appends them to an anonymous
    temporary file (in TMPDIR, removed on close), noting where each range of
    codes starts within the batch. Each group of ranges is then read back,
    one slice per batch, into one buffer and counted on its own. Groups are
    intervals of codes in ascending order, so their tables join into the
    sorted table with no further sort.
    """
    word = code_word(k)
    tables = [solid_table(np.empty(0, word), k, t)]  # checks k and t before the scan
    bits = min(RANGE_BITS, 2 * k)
    lows = np.arange(1 << bits, dtype=word) << word(2 * k - bits)  # range r holds [lows[r], lows[r + 1])
    with tempfile.TemporaryFile() as spill:
        edges, at = [], 0
        for _, _, codes, _ in scan_batches(reads, k):
            codes.sort()
            codes.tofile(spill)
            edges.append(np.append(np.searchsorted(codes, lows), len(codes)) + at)
            at += len(codes)
        # edges[i, r]: the spill offset of batch i's first code in range r; edges[i, -1]: its end
        edges = np.array(edges, dtype=np.int64).reshape(-1, len(lows) + 1)
        sizes = np.diff(edges, axis=1).sum(axis=0)
        for lo, hi in _groups(sizes.tolist()):
            group = np.empty(sizes[lo:hi].sum(), word)
            filled = 0
            for start, end in edges[:, [lo, hi]].tolist():
                part = group[filled : filled + end - start]
                spill.seek(start * group.itemsize)
                if spill.readinto(part) != part.nbytes:
                    raise OSError("the k-mer spill file ended early")
                filled += len(part)
            tables.append(solid_table(group, k, t))
            del group
    return SolidKmerTable(
        np.concatenate([table.codes for table in tables]), np.concatenate([table.counts for table in tables]), k, t
    )


def _groups(sizes: list[int]) -> Iterator[tuple[int, int]]:
    """Runs ``[lo, hi)`` of consecutive ranges that together hold at most GROUP_KMERS k-mers, or
    one range that alone holds more; every range is in exactly one run."""
    lo, total = 0, 0
    for r, size in enumerate(sizes):
        if r > lo and total + size > GROUP_KMERS:
            yield lo, r
            lo, total = r, 0
        total += size
    yield lo, len(sizes)
