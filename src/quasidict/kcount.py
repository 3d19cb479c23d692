"""Solid-k-mer extraction: canonical k-mer counting with a threshold.

A k-mer is solid when its canonical form occurs at least t times across
the read set (both strands pooled); :func:`solid_table` is the one place
that decides it, for the counter and the linker alike. Counting is exact;
the stored counts saturate at 255, which is applied only after the >= t
filter so the solidity decision never saturates away (t <= 255 is enforced).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bits import U64, check_room, distinct
from .kmer import check_k, scan_kmers
from .seqio import ReadRecord

_MAGIC = b"SKMT"
_HEAD = struct.Struct("<4sIIQ")

COUNT_CAP = 255

# bases and separators per scanned batch of reads; sets the read tools' memory
BATCH_BASES = 2**16


def _check_t(t: int) -> None:
    if not 1 <= t <= COUNT_CAP:
        raise ValueError(f"solidity threshold must be in [1, {COUNT_CAP}], got {t}")


@dataclass
class SolidKmerTable:
    """Distinct canonical codes sorted ascending, with capped counts."""

    codes: np.ndarray  # uint64, sorted
    counts: np.ndarray  # uint8, min(true count, 255)
    k: int
    t: int

    def __len__(self) -> int:
        return len(self.codes)

    def dump(self, path: str) -> None:
        """On-disk form: magic, k, t, entry count, then (code, count) pairs."""
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
        codes = np.frombuffer(buf, dtype="<u8", count=n, offset=_HEAD.size).copy()
        counts = np.frombuffer(buf, dtype=np.uint8, count=n, offset=_HEAD.size + 8 * n).copy()
        check_k(k)
        _check_t(t)
        if (codes[1:] <= codes[:-1]).any() or (codes >= U64(4) ** U64(k)).any():
            raise ValueError(f"codes are not strictly increasing k-mer codes below 4^{k}")
        if (counts < t).any():
            raise ValueError(f"a count is below the solidity threshold {t}")
        return cls(codes, counts, k, t)


def scan_batches(reads: Iterable[ReadRecord], k: int, max_cells: int = 2**63) -> Iterator[tuple]:
    """Reads in batches of n, the longest of length L, with n·(L + 1) at most BATCH_BASES and
    ``max_cells`` (a longer read is a batch alone), joined with one N so no valid window spans
    two reads and scanned in one call. Yields ``(batch, positions, codes, sizes)``: the reads,
    each k-mer's start within its read, the canonical codes in read order, the k-mers per read.
    """
    cells, batch, longest = min(BATCH_BASES, max_cells), [], 0
    for read in reads:
        longest = max(longest, len(read.seq))
        if batch and (len(batch) + 1) * (longest + 1) > cells:
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
    """Every read's canonical codes concatenated in read order, and k-mers per read."""
    parts = [(np.empty(0, U64), np.empty(0, np.int64))]
    parts += [(codes, sizes) for _, _, codes, sizes in scan_batches(reads, k)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def solid_table(codes: np.ndarray, k: int, t: int) -> SolidKmerTable:
    """Distinct codes occurring at least t times in ``codes``, with capped counts."""
    check_k(k)
    _check_t(t)
    solid, counts = distinct(codes, t)
    return SolidKmerTable(solid, np.minimum(counts, COUNT_CAP).astype(np.uint8), k, t)


def count_solid(reads: Iterable[ReadRecord], k: int, t: int) -> SolidKmerTable:
    """Count canonical k-mers over a read stream and keep those seen >= t times."""
    return solid_table(scan_reads(reads, k)[0], k, t)
