"""Solid-k-mer extraction: canonical k-mer counting with a threshold.

A k-mer is solid when its canonical form occurs at least t times across
the read set (both strands pooled); one run rule, ``bits.runs``, decides
it for the counter (in :func:`solid_table`) and the linker alike. Counting
is exact; the stored counts saturate at 255, which is applied only after
the >= t filter so the solidity decision never saturates away (t <= 255).

Neither read tool holds the bank: :func:`spill_groups` spills each batch's
codes (and the linker's read ids) cut into ranges of codes, and reads back
a group of ranges at a time, which :func:`count_solid` counts on its own (a
partitioned pass after DSK, Rizk, Lavenier and Chikhi 2013). Every read
file, bank or queries, is scanned from the parser's byte blocks by one
generator (:func:`scan_batches`), with no record per read, as KMC 2
(Deorowicz et al. 2015) reads its input.
"""

from __future__ import annotations

import os
import struct
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .bits import U64, check_room, distinct
from .kmer import check_k, code_word, scan_kmers
from .seqio import read_blocks

_MAGIC = b"SKMT"
_HEAD = struct.Struct("<4sIIQ")

COUNT_CAP = 255

# bases and separators per scanned batch of reads; sets the read tools' memory
# and bounds the linker's query key (see linker._link_batch)
BATCH_BASES = 2**16

# the bank's spill is cut into 2^RANGE_BITS ranges of codes by their top bits
# (all 2k bits when 2k is fewer), and consecutive ranges are read back together
# up to GROUP_KMERS k-mers (as many as BATCH_BASES); a larger range comes alone
RANGE_BITS = 8
GROUP_KMERS = 2**16


def check_k_t(k: int, t: int) -> None:
    """ValueError unless k is a k-mer length the codes hold and t a threshold the counts hold."""
    check_k(k)
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
        check_k_t(k, t)
        if (codes[1:] <= codes[:-1]).any() or (codes >= U64(4) ** U64(k)).any():
            raise ValueError(f"codes are not strictly increasing k-mer codes below 4^{k}")
        if (counts < t).any():
            raise ValueError(f"a count is below the solidity threshold {t}")
        return cls(codes.astype(code_word(k)), counts, k, t)


def batch_ranges(lengths: np.ndarray) -> Iterator[tuple[int, int]]:
    """The one batch rule: consecutive reads ``[lo, hi)`` in batches of n, the longest of length L, with
    n·(L + 1) at most BATCH_BASES (a longer read is a batch alone); each batch takes all the reads that fit."""
    lo = 0
    while lo < len(lengths):
        longest = np.maximum.accumulate(lengths[lo : lo + BATCH_BASES])  # no batch holds more reads
        fit = int(np.count_nonzero(np.arange(1, len(longest) + 1) * (longest + 1) <= BATCH_BASES))
        yield lo, lo + max(fit, 1)
        lo += max(fit, 1)


def scan_batches(path: str | os.PathLike, k: int, names: bool = False) -> Iterator[tuple]:
    """The reads of a read file, read as blocks with no record (``seqio.read_blocks``), in the batches of
    :func:`batch_ranges` as if the file were one block: a block's last batch waits for the next block,
    whose first reads it may take. A batch's reads are joined with one separator, so no valid window
    spans two reads, and scanned in one call. Yields ``(first, lengths, names, positions, codes, sizes)``:
    the batch's first read id, its reads' lengths, their header words (none unless ``names`` is set),
    each k-mer's start in the batch's joined sequence, the canonical codes in read order, the k-mers per
    read."""
    seq, lengths, words, base = "", np.empty(0, np.int64), [], 0
    for block in chain(read_blocks(path), [None]):
        more = block is not None
        if more:
            seq = f"{seq}N{block.seq}" if len(lengths) else block.seq
            lengths = np.concatenate((lengths, block.lengths))
            words += block.names() if names else []
            del block  # its bases are in seq now: not held twice while the batches are scanned
        ranges = list(batch_ranges(lengths))
        if more:
            ranges = ranges[:-1]  # the last batch may take the next block's first reads
        offsets = np.append(np.cumsum(lengths + 1) - lengths - 1, len(seq) + 1)
        for lo, hi in ranges:
            starts = offsets[lo:hi] - offsets[lo]
            yield base + lo, lengths[lo:hi], words[lo:hi], *_scan(seq[offsets[lo] : offsets[hi] - 1], starts, k)
        if ranges:
            cut = ranges[-1][1]
            seq, lengths, words, base = seq[offsets[cut] :], lengths[cut:], words[cut:], base + cut


def _scan(seq: str, starts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batch's positions, codes and k-mers per read. A function of its own, so that no local of the
    suspended generator holds the batch's arrays: a consumer that drops the positions frees them."""
    positions, codes = scan_kmers(seq, k)
    return positions, codes, np.diff(np.searchsorted(positions, starts), append=len(positions))


def solid_table(codes: np.ndarray, k: int, t: int) -> SolidKmerTable:
    """Distinct codes occurring at least t times in ``codes``, with capped counts."""
    check_k_t(k, t)
    solid, counts = distinct(codes, t)
    return SolidKmerTable(solid, np.minimum(counts, COUNT_CAP).astype(np.uint8), k, t)


def count_solid(path: str | os.PathLike, k: int, t: int) -> SolidKmerTable:
    """Count canonical k-mers over the read file at ``path`` (:func:`scan_batches`) and keep those seen
    >= t times, one spilled group at a time (:func:`spill_groups`); the group tables join into the
    sorted table with no sort."""
    check_k_t(k, t)
    # ``_`` is left bound to the sizes: no batch's positions are held while the spill partitions it
    batches = ((codes,) for _, _, _, _, codes, _ in scan_batches(path, k))
    tables = [solid_table(codes, k, t) for codes, in spill_groups(batches, k, (code_word(k),))]
    codes, counts = zip(*((table.codes, table.counts) for table in tables))
    return SolidKmerTable(np.concatenate(codes), np.concatenate(counts), k, t)


def spill_groups(batches: Iterable[tuple], k: int, words: tuple) -> Iterator[list[np.ndarray]]:
    """The columns of the bank's batches, spilled, then read back one group of code ranges at a time.

    A batch is a tuple of equal-length columns in ``words``, codes first (the linker adds read ids),
    cut into ranges by a stable partition on the codes' top min(RANGE_BITS, 2k) bits; each column
    goes to its own anonymous temporary file (in TMPDIR, freed on close). Groups are read back one
    slice per batch and column, in ascending code intervals: a code's rows are all in one group.
    """
    bits = min(RANGE_BITS, 2 * k)
    shift = words[0](2 * k - bits)
    lows = np.arange(1 << bits, dtype=words[0]) << shift  # range r holds [lows[r], lows[r + 1])
    with ExitStack() as stack:
        spills = [stack.enter_context(tempfile.TemporaryFile()) for _ in words]
        edges, at = [], 0
        for columns in batches:
            order = np.argsort((columns[0] >> shift).astype(np.uint8), kind="stable")  # a radix sort on one byte
            columns = [column[order] for column in columns]
            for column, spill in zip(columns, spills):
                column.tofile(spill)
            # partitioned codes ascend by range, which is all a search for a range's lowest code compares
            edges.append(np.append(np.searchsorted(columns[0], lows), len(order)) + at)
            at += len(order)
            del order, columns
        # edges[i, r]: the spill row of batch i's first code in range r; edges[i, -1]: its end
        edges = np.array(edges, dtype=np.int64).reshape(-1, len(lows) + 1)
        sizes = np.diff(edges, axis=1).sum(axis=0)
        for lo, hi in _groups(sizes.tolist()):
            group, filled = [np.empty(sizes[lo:hi].sum(), word) for word in words], 0
            for start, end in edges[:, [lo, hi]].tolist():
                for column, spill in zip(group, spills):
                    part = column[filled : filled + end - start]
                    spill.seek(start * column.itemsize)
                    if spill.readinto(part) != part.nbytes:
                        raise OSError("the k-mer spill file ended early")
                filled += end - start
            yield group


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
