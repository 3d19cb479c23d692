"""Batch boundaries change nothing: the read tools scan and query a batch of
reads at a time, and their output equals per-read calls for any batch size."""

import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasidict import kcount
from quasidict.counter import build_counter_index, count_read, format_count_line, run_counter
from quasidict.kcount import scan_batches
from quasidict.kmer import scan_kmers
from quasidict.linker import build_linker_index, format_link_line, link_read, run_linker
from quasidict.seqio import ReadRecord, open_reads

IUPAC = "NRYKMSWBDHVn-"


@st.composite
def cases(draw):
    """Reads cut from one genome (so they share k-mers), with IUPAC bytes,
    reads shorter than k, foreign reads and one read longer than 3k; a batch
    budget, a window or none, a threshold and a noisy or an exact dictionary."""
    k = draw(st.integers(2, 6))
    genome = draw(st.text("ACGT", min_size=4 * k, max_size=90))

    def piece():
        kind = draw(st.sampled_from(["cut", "cut", "short", "foreign", "iupac"]))
        if kind == "foreign":
            return draw(st.text("ACGTacgt", min_size=1, max_size=3 * k))
        a = draw(st.integers(0, len(genome) - 1))
        seq = genome[a : a + draw(st.integers(1, k - 1 if kind == "short" else len(genome)))]
        if kind == "iupac":
            i = draw(st.integers(0, len(seq) - 1))
            seq = seq[:i] + draw(st.sampled_from(IUPAC)) + seq[i + 1 :]
        return seq

    bank = [piece() for _ in range(draw(st.integers(1, 6)))] + [genome]
    queries = [piece() for _ in range(draw(st.integers(0, 8)))] + [genome]
    draw(st.randoms()).shuffle(queries)
    budget = draw(st.sampled_from([1, k, 3 * k]))
    window = draw(st.one_of(st.none(), st.integers(k, 2 * len(genome))))
    threshold = draw(st.integers(1, k + 1))
    f = draw(st.sampled_from([2, 2 * k]))
    return k, bank, queries, budget, window, threshold, f, draw(st.booleans())


def write_reads(path, seqs):
    with open(path, "w") as fh:
        fh.writelines(f">r{i} read {i}\n{s}\n" for i, s in enumerate(seqs))
    return path


@settings(deadline=None, max_examples=120)
@given(cases())
@example(case=(3, ["GGG", "ACGTTGCAAC"], ["AC", "NNNN", "ACGTTGCAAC", "TTRCAA"], 3, 6, 1, 6, False))
@example(case=(3, ["GGG", "ACGTTGCAAC"], ["AC"], 9, None, 2, 2, True))
def test_tools_match_per_read_calls(case):
    k, bank, queries, budget, window, threshold, f, self_mode = case
    with tempfile.TemporaryDirectory() as tmp:
        bank_path = write_reads(os.path.join(tmp, "bank.fa"), bank)
        # a query file that is the bank itself drops the trivial self links
        query_path = bank_path if self_mode else write_reads(os.path.join(tmp, "q.fa"), queries)
        counter_out, linker_out = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kcount, "BATCH_BASES", budget)
            run_counter(bank_path, [query_path], counter_out, k=k, t=1, f=f)
            run_linker(bank_path, [query_path], linker_out, k=k, t=1, f=f, threshold=threshold, window=window)
        counter_index = build_counter_index(bank_path, k=k, t=1, f=f)
        linker_index = build_linker_index(bank_path, k=k, t=1, f=f)
        reads = list(open_reads(query_path))
    assert counter_out.getvalue() == "".join(
        format_count_line(read, count_read(counter_index, read)) + "\n" for read in reads
    )
    assert linker_out.getvalue() == "".join(
        format_link_line(read.id, link_read(linker_index, read, threshold, window, self_mode)) + "\n"
        for read in reads
    )


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.text("ACGTN", max_size=40), max_size=12),
    st.integers(1, 8),
    st.integers(1, 200),
    st.integers(1, 2**63),
)
def test_scan_batches_equal_per_read_scans(seqs, k, budget, max_cells):
    reads = [ReadRecord(i, f"r{i}", s) for i, s in enumerate(seqs)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kcount, "BATCH_BASES", budget)
        batches = list(scan_batches(reads, k, max_cells))
    assert [read for batch in batches for read in batch[0]] == reads
    for batch, positions, codes, sizes in batches:
        # a batch holds one read, or n reads of at most L bases with n·(L + 1) within both bounds
        cells = len(batch) * (max(len(read.seq) for read in batch) + 1)
        assert len(batch) == 1 or cells <= min(budget, max_cells)
        assert len(sizes) == len(batch) and sizes.sum() == len(codes) == len(positions)
        ends = np.cumsum(sizes)
        for read, lo, hi in zip(batch, ends - sizes, ends):
            want_positions, want_codes = scan_kmers(read.seq, k)
            assert positions[lo:hi].tolist() == want_positions.tolist()
            assert codes[lo:hi].tolist() == want_codes.tolist()
