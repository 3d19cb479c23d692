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
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from .bits import DEFAULT_SEED, distinct, locate
from .core import QuasiDictionary
from .kcount import scan_batches, scan_reads, solid_table
from .kmer import scan_kmers  # noqa: F401 (bench/tests checks that the tracer wraps this binding)
from .seqio import ReadRecord, open_reads

DEFAULT_LINK_THRESHOLD = 10

# bank read ids are stored as int32
MAX_BANK_READS = 2**31 - 1

# bound on the int64 query key (read · n_targets + target) · span + position:
# a batch of n reads keeps n · n_targets · span at or below it, and a lone read
# does while it is shorter than 2^32 bases
KEY_LIMIT = 2**63


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
    if len(sizes) > MAX_BANK_READS:
        raise ValueError(f"bank holds {len(sizes)} reads; read ids are int32, so at most {MAX_BANK_READS}")
    table = solid_table(codes, k, t)
    n_slots, n_targets = len(table), len(sizes)

    # A read's postings depend only on its k-mer multiset, and the search
    # below runs much faster over needles that come in sorted runs.
    ends = np.cumsum(sizes)
    for lo, hi in zip((ends - sizes).tolist(), ends.tolist()):
        codes[lo:hi].sort()

    # Non-solid k-mers of bank reads are dropped against the exact solid table;
    # routing them through the probabilistic query instead would plant
    # false-positive read ids in the postings. The bank's codes go before the
    # dictionary is built, so the two never hold memory at the same time.
    loc = locate(table.codes, codes)
    at = np.flatnonzero(loc >= 0)
    del codes
    slots = np.empty(n_slots, dtype=np.int64)
    qd = QuasiDictionary.create(table.codes, f=f, gamma=gamma, k=k, seed=seed, slots=slots)
    slot = slots[loc[at]]
    read = np.searchsorted(ends, at, side="right")

    # one incidence per (slot, read); sorted pairs group by slot, then read id
    pairs = distinct(slot * n_targets + read)[0]
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
    return next(link_reads(index, [read], threshold, window, exclude_self))[1]


def link_reads(
    index: LinkerIndex, reads: Iterable[ReadRecord], threshold: int, window: Optional[int], exclude_self: bool
) -> Iterator[tuple[ReadRecord, list[MatchResult]]]:
    """``(read, link_read(index, read, ...))`` for each read in order, one query per batch of reads."""
    if window is not None and window < index.k:
        raise ValueError(f"window ({window}) must be >= k ({index.k})")
    for batch, positions, codes, sizes in scan_batches(reads, index.k, KEY_LIMIT // max(index.n_targets, 1)):
        slots = index.qd.query_array(codes)
        hit = slots >= 0
        starts = index.offsets[slots[hit]]
        lens = index.offsets[slots[hit] + 1] - starts
        # one incidence per (query position, bank read in that k-mer's posting list)
        tgt = index.ids[np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)]
        pos = np.repeat(positions[hit], lens)
        row = np.repeat(np.repeat(np.arange(len(batch)), sizes)[hit], lens)
        if exclude_self:
            other = tgt != np.array([read.id for read in batch])[row]
            tgt, pos, row = tgt[other], pos[other], row[other]

        # incidences sorted once by (read, target, position): one run per pair
        span = max(len(read.seq) for read in batch) + 1
        key = np.sort((row * index.n_targets + tgt) * span + pos)
        pair = key // span
        firsts = np.flatnonzero(np.diff(pair, prepend=-1))
        shared = np.diff(firsts, append=len(key))  # k-mer positions shared per pair
        # k-mer i owns the positions from its start up to its pair's next start,
        # at most k; owned runs are disjoint and cover what the target covers. A
        # step to the next pair is at least span - p > L - p >= k, so min() caps it too.
        owned = np.minimum(np.diff(key, append=key[-1:] + index.k), index.k)
        owned_before = np.cumsum(owned) - owned

        def covered_below(x):
            """Covered positions of pair x // span in [0, x % span)."""
            j = np.maximum(np.searchsorted(key, x, side="right") - 1, 0)
            return owned_before[j] + np.clip(x - key[j], 0, owned[j])

        # the smallest best start s scores more than s - 1, so s - 1 is uncovered;
        # then s starts an owned run, or s + w ends one (else s + 1 scores as well):
        # s is a k-mer start or an owned-run end - w, clamped to [0, L - w] (0 and
        # L - w arise as clamps). Whole-read mode is the one window w = L. L is
        # the batch's longest read: a shorter read is uncovered past its end, so
        # the starts this adds past its own L' - w score no more than L' - w does.
        length = span - 1
        w = length if window is None else min(window, length)
        base = pair * span
        cand = np.clip(np.stack([key, key + owned - w]) - base, 0, length - w)
        scores = covered_below(base + cand + w) - covered_below(base + cand)
        best = np.maximum.reduceat(scores.max(axis=0), firsts)
        at_best = np.where(scores == np.repeat(best, shared), cand, span)
        win_starts = np.minimum.reduceat(at_best.min(axis=0), firsts)

        good = np.flatnonzero((shared >= threshold) & (best >= threshold))
        query, target = np.divmod(pair[firsts], index.n_targets)
        order = good[np.lexsort((target[good], -best[good]))]  # then split by query read
        ws = [None] * len(order) if window is None else win_starts[order].tolist()
        matches: list[list[MatchResult]] = [[] for _ in batch]
        for q, t, b, s in zip(query[order].tolist(), target[order].tolist(), best[order].tolist(), ws):
            matches[q].append(MatchResult(batch[q].id, t, b, s))
        yield from zip(batch, matches)


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
        for read, matches in link_reads(index, open_reads(path), threshold, window, self_mode):
            out.write(format_link_line(read.id, matches) + "\n")
