"""Read-abundance estimation: how often does each query read occur in a bank?

The bank's solid k-mers go into a quasi-dictionary whose value slot holds
each k-mer's occurrence count. A query read then retrieves the counts of
its indexed k-mers (one per window position) and reports their mean,
median, min and max; the mean approximates the read's abundance in the
bank. Reads with no indexed k-mer get a sentinel output line so output
lines stay one-to-one with query reads.

The query reads go in batches, one query per batch, and a batch's results
leave as columns (n indexed, mean, median, min, max, one row per read) that
one writer turns into the batch's output lines; no per-read object is made.
``count_read`` builds its ``CountStats`` from its one read's row, and
``format_count_line`` is the writer's line for a batch of one read.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from itertools import count
from typing import Iterable, Optional, TextIO

import numpy as np

from .bits import DEFAULT_SEED
from .core import QuasiDictionary
from .kcount import count_solid, scan_batches
from .kmer import scan_kmers
from .seqio import ReadRecord
from .seqio import open_reads  # noqa: F401 (bench/tests checks that the tracer wraps this binding)


@dataclass
class CountStats:
    """Per-read summary of the counts retrieved for its indexed k-mers."""

    read_id: int
    n_indexed: int
    mean: float
    median: int
    min_count: int
    max_count: int


class CounterIndex:
    """Quasi-dictionary over a bank's solid k-mers plus per-k-mer counts."""

    def __init__(self, qd: QuasiDictionary, counts: np.ndarray, k: int):
        self.qd = qd
        self.counts = counts  # uint8, indexed by dense slot
        self.k = k


def build_counter_index(
    bank_path: str,
    k: int = 31,
    t: int = 2,
    f: int = 12,
    gamma: float = 2.0,
    seed: int = DEFAULT_SEED,
) -> CounterIndex:
    """Index the bank's solid k-mers; each slot stores the k-mer's count."""
    table = count_solid(bank_path, k, t)
    slots = np.empty(len(table), dtype=np.int64)
    qd = QuasiDictionary.create(table.codes, f=f, gamma=gamma, k=k, seed=seed, slots=slots)
    counts = np.empty(len(table), dtype=np.uint8)
    counts[slots] = table.counts
    return CounterIndex(qd, counts, k)


def count_read(index: CounterIndex, read: ReadRecord) -> Optional[CountStats]:
    """Stats over the retrieved counts, or None when no k-mer was indexed."""
    codes = scan_kmers(read.seq, index.k)[1]
    n, mean, median, lo, hi = (column.item() for column in _count_batch(index, codes, np.array([len(codes)])))
    return CountStats(read.id, n, mean, median, lo, hi) if n else None


def _count_batch(index: CounterIndex, codes, sizes) -> tuple[np.ndarray, ...]:
    """The columns of a scanned batch's counts, one row per read (``kcount.scan_batches``), with one query
    for the batch: n indexed, mean, median, min and max, the last four unused where n indexed is 0."""
    slots = index.qd.query_array(codes)
    hit = slots >= 0
    row = np.repeat(np.arange(len(sizes)), sizes)[hit]
    values = index.counts[slots[hit]]
    n = np.bincount(row, minlength=len(sizes))
    # exact integer sums, so sum / n is the float values.mean() gives
    mean = np.bincount(row, weights=values, minlength=len(sizes)) / np.maximum(n, 1)
    # counts ascending within each read, reads in batch order; the appended 0 is read only where n is 0
    ordered = np.append(np.sort(row << 8 | values) & 255, 0)
    start = np.cumsum(n) - n
    # the lower median keeps the output integral
    return n, mean, ordered[start + (n - 1) // 2], ordered[start], ordered[start + np.maximum(n - 1, 0)]


def _count_lines(first: int, headers: list[str], columns) -> str:
    """The output lines of a batch's reads, ``first`` the first one's id: each read's id, header and
    ``_count_batch`` columns, the mean to two decimals; a read with no indexed k-mer gets ``0`` and ``none``."""
    return "".join([
        f"{rid}\t{header}\t{n}\t{mean:.2f}\t{median}\t{lo}\t{hi}\n" if n else f"{rid}\t{header}\t0\tnone\n"
        for rid, header, n, mean, median, lo, hi in zip(count(first), headers, *(c.tolist() for c in columns))
    ])


def format_count_line(read_id: int, header: str, stats: Optional[CountStats]) -> str:
    """One read's output line: the batch writer's line for a batch of that one read."""
    row = (0, 0.0, 0, 0, 0) if stats is None else astuple(stats)[1:]
    return _count_lines(read_id, [header], [np.array([value]) for value in row])[:-1]


def run_counter(
    bank_path: str,
    query_paths: Iterable[str],
    out: TextIO,
    k: int = 31,
    t: int = 2,
    f: int = 12,
    gamma: float = 2.0,
    seed: int = DEFAULT_SEED,
) -> None:
    """Whole pipeline: one output line per query read, in input order."""
    index = build_counter_index(bank_path, k=k, t=t, f=f, gamma=gamma, seed=seed)
    for path in query_paths:
        for first, _, names, _, codes, sizes in scan_batches(path, index.k, names=True):
            out.write(_count_lines(first, names, _count_batch(index, codes, sizes)))
