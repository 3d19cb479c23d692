"""Read similarity via shared-k-mer coverage.

Indexing scans the bank once and stores, per solid k-mer, the sorted
duplicate-free list of bank read ids containing it (posting lists, one
flat array plus offsets, cut from the distinct (slot, read) pairs). For a
query read, every position covered by at least one k-mer shared with a
given target contributes 1 to that target's score; optionally the score
is the best window of a fixed width w instead of the whole read. Targets
reach the output only when they share at least ``threshold`` k-mer
positions with the query, which suppresses one-off coincidental matches.
The measure is intentionally asymmetric between query and target.
"""

from __future__ import annotations

from dataclasses import dataclass
from os.path import realpath
from typing import Iterable, Optional, TextIO

import numpy as np

from .bits import DEFAULT_SEED
from .core import QuasiDictionary
from .kcount import scan_reads, solid_table
from .kmer import scan_kmers
from .seqio import ReadRecord, open_reads

DEFAULT_LINK_THRESHOLD = 10


@dataclass
class MatchResult:
    """One (query, target) link; window_start only in windowed mode."""

    query_id: int
    target_id: int
    score: int
    window_start: Optional[int] = None


class LinkerIndex:
    """Quasi-dictionary whose slots point into flat posting lists."""

    def __init__(self, qd: QuasiDictionary, offsets, ids, k: int, t: int, n_targets: int):
        self.qd = qd
        self.offsets = offsets  # int64, len n_slots + 1
        self.ids = ids  # int32 target read ids, grouped per slot, each group sorted
        self.k = k
        self.t = t
        self.n_targets = n_targets

    def mean_posting_length(self) -> float:
        """Average number of bank reads per indexed k-mer (data-dependent)."""
        if self.qd.n_keys == 0:
            return 0.0
        return len(self.ids) / self.qd.n_keys


def build_linker_index(
    bank_path: str,
    k: int = 31,
    t: int = 2,
    f: int = 12,
    gamma: float = 2.0,
    seed: int = DEFAULT_SEED,
) -> LinkerIndex:
    """Index the bank: slot -> ids of bank reads containing that solid k-mer."""
    codes, sizes = scan_reads(open_reads(bank_path), k)
    table = solid_table(codes, k, t)
    qd = QuasiDictionary.create(table.codes, f=f, gamma=gamma, k=k, seed=seed)
    n_slots, n_targets = len(table), len(sizes)
    if n_slots == 0:
        return LinkerIndex(qd, np.zeros(1, np.int64), np.empty(0, np.int32), k, t, n_targets)

    # Non-solid k-mers of bank reads are dropped against the exact solid table,
    # which is still at hand here; routing them through the probabilistic query
    # instead would plant false-positive read ids in the postings.
    loc = np.minimum(np.searchsorted(table.codes, codes), n_slots - 1)
    at = np.flatnonzero(table.codes[loc] == codes)
    del codes
    slot = qd.query_array(table.codes)[loc[at]]
    read = np.searchsorted(np.cumsum(sizes), at, side="right")

    # one incidence per (slot, read); sorted pairs group by slot, then read id
    pairs = np.unique(slot * n_targets + read)
    offsets = np.zeros(n_slots + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // n_targets, minlength=n_slots), out=offsets[1:])
    return LinkerIndex(qd, offsets, (pairs % n_targets).astype(np.int32), k, t, n_targets)


def link_read(
    index: LinkerIndex,
    read: ReadRecord,
    threshold: int = DEFAULT_LINK_THRESHOLD,
    window: Optional[int] = None,
    exclude_self: bool = False,
) -> list[MatchResult]:
    """Targets sharing k-mers with ``read``, scored by covered positions.

    Whole-read mode (window=None) scores the full coverage vector; windowed
    mode takes the best width-``window`` window, preferring the smallest
    start among ties. A target is reported when it shares at least
    ``threshold`` k-mer positions with the read and its score reaches
    ``threshold`` too; a lone coincidental k-mer always covers k positions,
    so gating on the share count (not just covered positions) is what keeps
    thresholds below k meaningful. Results sort by descending score then
    target id; the trivial self pair is dropped when ``exclude_self`` is set.
    """
    if window is not None and window < index.k:
        raise ValueError(f"window ({window}) must be >= k ({index.k})")
    length = len(read.seq)
    positions, codes = scan_kmers(read.seq, index.k)
    if len(codes) == 0:
        return []
    slots = index.qd.query_array(codes)
    hit = slots >= 0
    if not hit.any():
        return []
    kpos = positions[hit]
    kslot = slots[hit]

    starts = index.offsets[kslot]
    lens = index.offsets[kslot + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return []
    # flatten posting ranges: target id and query position per incidence
    which = np.repeat(np.arange(len(kslot)), lens)
    flat = np.repeat(starts, lens) + (np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens))
    tgt = index.ids[flat]
    pos = kpos[which]
    if exclude_self:
        keep = tgt != read.id
        tgt = tgt[keep]
        pos = pos[keep]
        if len(tgt) == 0:
            return []

    uniq_tgt, row = np.unique(tgt, return_inverse=True)
    shared = np.bincount(row, minlength=len(uniq_tgt))  # k-mer positions shared per target
    delta = np.zeros((len(uniq_tgt), length + 1), dtype=np.int32)
    np.add.at(delta, (row, pos), 1)
    np.add.at(delta, (row, pos + index.k), -1)
    covered = np.cumsum(delta[:, :length], axis=1) > 0

    if window is None or window >= length:
        scores = covered.sum(axis=1).astype(np.int64)
        win_starts = None
    else:
        prefix = np.zeros((len(uniq_tgt), length + 1), dtype=np.int32)
        prefix[:, 1:] = np.cumsum(covered, axis=1, dtype=np.int32)
        sums = prefix[:, window:] - prefix[:, : length - window + 1]
        scores = sums.max(axis=1).astype(np.int64)
        win_starts = sums.argmax(axis=1)  # first maximizer

    good = (shared >= threshold) & (scores >= threshold)
    if not good.any():
        return []
    g_tgt = uniq_tgt[good]
    g_score = scores[good]
    g_win = None if win_starts is None else win_starts[good]
    order = np.lexsort((g_tgt, -g_score))
    results = []
    for i in order:
        ws = None
        if window is not None:
            ws = 0 if g_win is None else int(g_win[i])
        results.append(MatchResult(read.id, int(g_tgt[i]), int(g_score[i]), ws))
    return results


def format_link_line(read_id: int, matches: list[MatchResult]) -> str:
    parts = []
    for m in matches:
        if m.window_start is None:
            parts.append(f"{m.target_id}-{m.score}")
        else:
            parts.append(f"{m.target_id}-{m.score}@{m.window_start}")
    return f"{read_id}:" + " ".join(parts)


def run_linker(
    bank_path: str,
    query_paths: Iterable[str],
    out: TextIO,
    k: int = 31,
    t: int = 2,
    f: int = 12,
    threshold: int = DEFAULT_LINK_THRESHOLD,
    window: Optional[int] = None,
    gamma: float = 2.0,
    seed: int = DEFAULT_SEED,
) -> None:
    """Whole pipeline: one output line per query read, in input order.

    When a query file is the bank itself, the trivial (read, read) pair is
    suppressed for that file.
    """
    index = build_linker_index(bank_path, k=k, t=t, f=f, gamma=gamma, seed=seed)
    bank_real = realpath(bank_path)
    for path in query_paths:
        self_mode = realpath(path) == bank_real
        for read in open_reads(path):
            matches = link_read(index, read, threshold, window, exclude_self=self_mode)
            out.write(format_link_line(read.id, matches) + "\n")
