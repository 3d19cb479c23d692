"""Batch boundaries change nothing: the read tools scan and query a batch of
reads at a time, and their output equals per-read calls for any batch size."""

import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasidict import counter, kcount, linker, seqio
from quasidict.counter import build_counter_index, count_read, format_count_line, run_counter
from quasidict.kcount import scan_batches
from quasidict.kmer import scan_kmers
from quasidict.linker import build_linker_index, format_link_line, link_read, run_linker
from quasidict.seqio import open_reads

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


def write_reads(path, seqs, fastq=False):
    with open(path, "w") as fh:
        if fastq:
            fh.writelines(f"@r{i} read {i}\n{s}\n+\n{'!' * len(s)}\n" for i, s in enumerate(seqs))
        else:
            fh.writelines(f">r{i} read {i}\n{s}\n" for i, s in enumerate(seqs))
    return path


@settings(deadline=None, max_examples=120)
@given(cases())
@example(case=(3, ["GGG", "ACGTTGCAAC"], ["AC", "NNNN", "ACGTTGCAAC", "TTRCAA"], 3, 6, 1, 6, False))
@example(case=(3, ["GGG", "ACGTTGCAAC"], ["AC"], 9, None, 2, 2, True))
@example(case=(3, ["GGG", "ACGTTGCAAC"], ["ACGTT", "ACGTTGCAAC"], 64, 8, 1, 6, False))  # a read shorter than w
# the key's bit fields: a read of 2^4 bases beside a shorter one, reads of 2^4 - 1 and 2^4 + 1 bases, best
# starts 0 and L - w at L = 16, and banks of 1, 2 and 3 reads
@example(case=(3, ["ACGGTCATTGCAAGCT"], ["ACGGTCATTGCAAGCT", "ACGGTCA"], 64, None, 1, 6, False))
@example(case=(3, ["ACGGTCATTGCAAGCTT", "TTTTACGGTCA"], ["ACGGTCATTGCAAGC", "ACGGTCATTGCAAGCTT"], 64, 6, 1, 6, False))
@example(case=(3, ["ACGGT", "CATTGC", "TCGCA"], ["AAAAAAAAAAATCGCA", "ACGGTAAAAAAAAAAA"], 64, 6, 1, 6, False))
@example(case=(3, ["ACGGTCATTGCAAGCT", "ACGGTCA", "GCAAGCTT"], [], 64, 5, 1, 6, True))
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
        format_count_line(read.id, read.header, count_read(counter_index, read)) + "\n" for read in reads
    )
    assert linker_out.getvalue() == "".join(
        format_link_line(read.id, link_read(linker_index, read, threshold, window, self_mode)) + "\n"
        for read in reads
    )


def test_query_pass_makes_no_result_object(tmp_path, monkeypatch):
    """The tools hand each batch's results to their writer as columns: no CountStats and no MatchResult,
    while the one-read calls still return them."""
    made = []

    def counted(cls):
        class Counted(cls):
            def __init__(self, *args):
                made.append(cls.__name__)
                super().__init__(*args)

        return Counted

    genome = "ACGTTGCAACGGTCATTGCAAGCTTACG" * 3
    bank = write_reads(str(tmp_path / "bank.fa"), [genome[:50], genome[20:], genome[5:70]])
    query = write_reads(str(tmp_path / "q.fa"), [genome[10:60], "ACGT" * 9, genome])
    monkeypatch.setattr(counter, "CountStats", counted(counter.CountStats))
    monkeypatch.setattr(linker, "MatchResult", counted(linker.MatchResult))
    counts, links = io.StringIO(), io.StringIO()
    run_counter(bank, [query], counts, k=5, t=1)
    run_linker(bank, [query], links, k=5, t=1, threshold=1, window=8)
    assert made == [] and "none" in counts.getvalue() and "@" in links.getvalue()
    read = next(open_reads(query))
    assert count_read(build_counter_index(bank, k=5, t=1), read) is not None
    assert link_read(build_linker_index(bank, k=5, t=1), read, threshold=1)
    assert "CountStats" in made and "MatchResult" in made


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.text("ACGTN", min_size=1, max_size=40), max_size=12),  # a read file holds no empty read
    st.integers(1, 8),
    st.integers(1, 200),
    st.integers(1, 300),
    st.booleans(),
)
def test_scan_batches_equal_per_read_scans(seqs, k, budget, block_bytes, fastq):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = write_reads(os.path.join(tmp, "reads"), seqs, fastq)
        mp.setattr(kcount, "BATCH_BASES", budget)
        mp.setattr(seqio, "BLOCK_BYTES", block_bytes)  # batches span blocks
        batches = list(scan_batches(path, k, names=True))
    ids = [i for first, lengths, *_ in batches for i in range(first, first + len(lengths))]
    assert ids == list(range(len(seqs)))
    for first, lengths, names, positions, codes, sizes in batches:
        reads = seqs[first : first + len(lengths)]
        assert lengths.tolist() == list(map(len, reads))
        assert names == [f"r{i}" for i in range(first, first + len(reads))]
        # a batch holds one read, or n reads of at most L bases with n·(L + 1) within the budget
        assert len(reads) == 1 or len(reads) * (max(lengths) + 1) <= budget
        assert len(sizes) == len(reads) and sizes.sum() == len(codes) == len(positions)
        ends = np.cumsum(sizes)
        # each read starts one separator past the read before it in the batch's joined sequence
        starts = np.cumsum(lengths + 1) - lengths - 1
        for seq, start, lo, hi in zip(reads, starts, ends - sizes, ends):
            want_positions, want_codes = scan_kmers(seq, k)
            assert (positions[lo:hi] - start).tolist() == want_positions.tolist()
            assert codes[lo:hi].tolist() == want_codes.tolist()
