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
from typing import Iterable

import numpy as np

from .bits import U64, check_room
from .kmer import check_k, scan_kmers
from .seqio import ReadRecord

_MAGIC = b"SKMT"
_HEAD = struct.Struct("<4sIIQ")

COUNT_CAP = 255


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


def scan_reads(reads: Iterable[ReadRecord], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every read's canonical codes concatenated in read order, and k-mers per read."""
    chunks = [scan_kmers(read.seq, k)[1] for read in reads]
    sizes = np.array([len(c) for c in chunks], dtype=np.int64)
    return np.concatenate([np.empty(0, np.uint64), *chunks]), sizes


def solid_table(codes: np.ndarray, k: int, t: int) -> SolidKmerTable:
    """Distinct codes occurring at least t times in ``codes``, with capped counts.

    One sorted copy and a byte mask, no per-distinct-code arrays: a first
    occurrence is solid when the code t - 1 places on is the same one.
    """
    check_k(k)
    _check_t(t)
    ordered = np.sort(codes)
    m = len(ordered) - t + 1  # run starts that leave room for t equal codes
    if m <= 0:
        return SolidKmerTable(np.empty(0, np.uint64), np.empty(0, np.uint8), k, t)
    starts = ordered[:m] == ordered[t - 1 :]
    starts[1:] &= ordered[1:m] != ordered[: m - 1]
    first = np.flatnonzero(starts)
    solid = ordered[first]
    counts = np.searchsorted(ordered, solid, side="right") - first
    return SolidKmerTable(solid, np.minimum(counts, COUNT_CAP).astype(np.uint8), k, t)


def count_solid(reads: Iterable[ReadRecord], k: int, t: int) -> SolidKmerTable:
    """Count canonical k-mers over a read stream and keep those seen >= t times."""
    return solid_table(scan_reads(reads, k)[0], k, t)
