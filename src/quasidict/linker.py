"""Read similarity via shared-k-mer coverage.

Indexing scans the bank once and stores, per solid k-mer, the sorted
duplicate-free list of bank read ids containing it (posting lists, one
flat array plus offsets). The scan spills each bank k-mer's code and read
id (``kcount.spill_groups``); in each group of code ranges, sorted by code,
each solid code's run of read ids, sorted and made distinct, is its posting
list. A non-solid k-mer never enters one, so the postings are exact
whatever the fingerprint width. For a query read, every position covered
by at least one k-mer shared with a given target contributes 1 to that
target's score; optionally the score is the best window of a fixed width w
instead of the whole read. Targets reach the output only when they share
at least ``threshold`` k-mer positions with the query, which suppresses
one-off coincidental matches. The measure is intentionally asymmetric
between query and target.
"""

from __future__ import annotations

from dataclasses import dataclass
from os.path import realpath
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from .bits import DEFAULT_SEED, changes, runs
from .core import QuasiDictionary
from .kcount import check_k_t, scan_batches, spill_groups
from .kmer import code_word, scan_kmers  # noqa: F401 (bench/tests checks that the tracer wraps scan_kmers here)
from .seqio import ReadRecord, open_reads

DEFAULT_LINK_THRESHOLD = 10

# bank read ids are stored as int32
MAX_BANK_READS = 2**31 - 1


@dataclass
class MatchResult:
    """One (query, target) link; window_start only in windowed mode."""

    query_id: int
    target_id: int
    score: int
    window_start: Optional[int] = None


class LinkerIndex:
    """Quasi-dictionary whose slots point into flat posting lists."""

    def __init__(self, qd: QuasiDictionary, offsets, ids, k: int, n_targets: int):
        self.qd = qd
        self.offsets = offsets  # int64, len n_slots + 1
        self.ids = ids  # int32 target read ids, grouped per slot, each group sorted
        self.k = k
        self.n_targets = n_targets


def _spans(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The indices of the runs ``[starts[i], starts[i] + lens[i])``, one run after another."""
    return np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)


def _clamp(x: np.ndarray, lo, hi) -> np.ndarray:
    """``x`` clamped to [lo, hi] in place (``np.clip`` goes through a Python wrapper)."""
    return np.minimum(np.maximum(x, lo, out=x), hi, out=x)


def _group_postings(codes: np.ndarray, reads: np.ndarray, t: int) -> tuple[np.ndarray, ...]:
    """One group's solid codes, sorted, their posting lengths and their posting lists, one after another.

    One argsort orders the group's incidences, and each run of at least t equal codes is a solid code; a
    code lies in one range, so its run holds all of its incidences. Keyed (the code's index in the group)
    << 31 | read (ids are below 2^31), sorted and made distinct, they are the posting lists."""
    order = np.argsort(codes)
    codes = codes[order]
    start, size = runs(codes, t)
    solid = codes[start]
    key = reads[order[_spans(start, size)]].astype(np.int64)
    del codes, reads, order
    key |= np.repeat(np.arange(len(size), dtype=np.int64) << 31, size)
    key.sort()
    key = key[changes(np.append(-1, key))]
    return solid, np.bincount(key >> 31, minlength=len(size)), (key & MAX_BANK_READS).astype(np.int32)


def build_linker_index(
    bank_path: str,
    k: int = 31,
    t: int = 2,
    f: int = 12,
    gamma: float = 2.0,
    seed: int = DEFAULT_SEED,
) -> LinkerIndex:
    """Index the bank: slot -> ids of bank reads containing that solid k-mer."""
    n_targets = 0

    def batches():
        nonlocal n_targets
        for batch, positions, codes, sizes in scan_batches(open_reads(bank_path), k):
            del positions  # the query loop's column: not held while the spill partitions the batch
            first, n_targets = n_targets, n_targets + len(batch)
            if n_targets > MAX_BANK_READS:
                raise ValueError(f"bank holds more than {MAX_BANK_READS} reads; read ids are int32")
            yield codes, np.repeat(np.arange(first, n_targets, dtype=np.int32), sizes)

    check_k_t(k, t)
    groups = spill_groups(batches(), k, (code_word(k), np.int32))
    solid, lens, ids = zip(*(_group_postings(codes, reads, t) for codes, reads in groups))
    codes = np.concatenate(solid)
    del solid
    slots = np.empty(len(codes), dtype=np.int64)
    qd = QuasiDictionary.create(codes, f=f, gamma=gamma, k=k, seed=seed, slots=slots)
    # each code's posting list moves to its slot, one group at a time
    offsets = np.zeros(len(codes) + 1, dtype=np.int64)
    offsets[slots + 1] = np.concatenate(lens)
    np.cumsum(offsets, out=offsets)
    moved = np.empty(offsets[-1], dtype=np.int32)
    for group_slots, group_lens, part in zip(np.split(slots, np.cumsum([len(x) for x in lens])), lens, ids):
        moved[_spans(offsets[group_slots], group_lens)] = part
    return LinkerIndex(qd, offsets, moved, k, n_targets)


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
    for batch, positions, codes, sizes in scan_batches(reads, index.k):
        slots = index.qd.query_array(codes)
        hit = slots >= 0
        starts = index.offsets[slots[hit]]
        lens = index.offsets[slots[hit] + 1] - starts
        tgt = index.ids[_spans(starts, lens)]
        # one incidence per (query position, bank read in that k-mer's posting list), keyed
        # ((read << tb | target) << sb) | position with 2^sb > L, the batch's longest read, and sorted
        # once: one run per pair. n reads have n · (L + 1) <= 2^16 (kcount.BATCH_BASES) and n_targets
        # <= 2^31, so key < n · 2^(sb+tb) < 2^48; a read alone keeps it below 2^63 while L < 2^32.
        L = max(len(read.seq) for read in batch)
        tb, sb = (index.n_targets - 1).bit_length(), L.bit_length()
        row = np.repeat(np.arange(len(batch)), sizes)[hit]
        key = np.repeat(row << (tb + sb) | positions[hit], lens) | tgt << np.int64(sb)
        key.sort()
        # a pair sharing fewer than threshold k-mer positions (at least 1), or an excluded self pair, is never reported
        firsts, shared = runs(key >> sb, max(threshold, 1))
        query, target = key[firsts] >> sb + tb, key[firsts] >> sb & (1 << tb) - 1
        if exclude_self:  # one pair per query read at most, so no other pair changes
            kept = np.flatnonzero(target != np.array([read.id for read in batch])[query])
            firsts, shared, query, target = firsts[kept], shared[kept], query[kept], target[kept]
        key = key[_spans(firsts, shared)]
        w = L if window is None else min(window, L)
        best, win_starts = _best_windows(key, L, w, index.k)
        good = np.flatnonzero(best >= threshold)
        order = good[np.lexsort((target[good], -best[good]))]  # then split by query read
        ws = [None] * len(order) if window is None else win_starts[order].tolist()
        matches: list[list[MatchResult]] = [[] for _ in batch]
        for q, t, b, s in zip(query[order].tolist(), target[order].tolist(), best[order].tolist(), ws):
            matches[q].append(MatchResult(batch[q].id, t, b, s))
        yield from zip(batch, matches)


def _best_windows(key: np.ndarray, L: int, w: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's best count of covered positions in a width-``w`` window of [0, L) and the smallest start
    scoring it; ``key`` is sorted, pair << sb | start (sb = L.bit_length())."""
    # Maximal covered runs: a step of more than k to the next key ends one (a step of exactly k touches).
    # A step into the next pair, 2^sb - p > L - p >= k, always ends one, and so does the last key's sentinel.
    last = np.flatnonzero(np.diff(key, append=key[-1:] + k + 1) > k)
    start, end = np.concatenate((key[:1], key[last[:-1] + 1])), key[last] + k
    through = np.cumsum(end - start)  # C(x), the covered positions below x, at each run's end
    lead = through - end

    def covered_below(x):
        """C(x), counted over the pairs in key order: one search of the run starts, then gathers."""
        j = np.maximum(np.searchsorted(start, x, side="right") - 1, 0)
        return _clamp(x + lead[j], 0, through[j])  # 0 below the first run

    # The smallest best start s is 0, L - w or a candidate: s scores more than s - 1, so s - 1 is
    # uncovered and s + w - 1 covered, and s + 1 scores no more, so s + w is covered only if s is: s
    # starts a maximal run (row 0), or s + w ends one (a run end - w, row 1). The edge windows and each
    # candidate in [0, L - w] score exactly; one outside scores -1. A score packs with L - w - start
    # (below 2^63 while L < 2^32), so one max gives the best score and its smallest start. Whole-read
    # mode is w = L. L is the batch's longest read: a shorter one is uncovered past its end.
    pos = start & (1 << L.bit_length()) - 1
    firsts = runs(start - pos)[0]  # each pair's first run
    base = start[firsts] - pos[firsts]
    cb = (L - w).bit_length()
    c = covered_below(base + [[0], [w], [L - w], [L]])
    edges = (c[1::2] - c[::2]) << cb | [[L - w], [0]]  # the windows at 0 and at L - w
    cand = np.stack([pos, pos + end - start - w])
    c = covered_below(np.stack([start + w, end - w]))  # row 0 ends, row 1 starts
    scores = np.stack([c[0] - start - lead, through - c[1]])
    scores = np.where((cand < 0) | (cand > L - w), -1, scores << cb | L - w - cand)
    top = np.maximum(np.maximum.reduceat(scores.max(axis=0), firsts), edges.max(axis=0))
    return top >> cb, L - w - (top & (1 << cb) - 1)


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
