"""Abundance estimation versus a brute-force windowed recount."""

import io

import numpy as np
import pytest

from quasidict.counter import (
    CountStats,
    build_counter_index,
    count_read,
    format_count_line,
    run_counter,
)
from quasidict.seqio import ReadRecord

from conftest import random_genome, reads_from_genome, window_oracle, write_fasta


def brute_force_stats(bank_seqs, query_seq, k, t):
    """Oracle: count every canonical k-mer of the bank with a dict, then walk
    the query windows and collect counts of the solid ones."""
    counts = {}
    for s in bank_seqs:
        for _, code in window_oracle(s, k):
            counts[code] = counts.get(code, 0) + 1
    got = []
    for _, code in window_oracle(query_seq, k):
        n = counts.get(code, 0)
        if n >= t:
            got.append(min(n, 255))
    if not got:
        return None
    ordered = sorted(got)
    return (
        len(got),
        sum(got) / len(got),
        ordered[(len(got) - 1) // 2],
        ordered[0],
        ordered[-1],
    )


def test_single_read_bank(tmp_path):
    bank = write_fasta(tmp_path / "b.fa", ["ACCGT"])
    index = build_counter_index(bank, k=4, t=1, f=12)
    assert index.qd.n_keys == 2
    assert sorted(index.counts.tolist()) == [1, 1]


def test_repeated_kmer_count(tmp_path):
    bank = write_fasta(tmp_path / "b.fa", ["ACGTACGTACGT"])  # AC GT repeats
    index = build_counter_index(bank, k=4, t=1, f=62)
    stats = count_read(index, ReadRecord(0, "q", "ACGT"))
    assert stats.n_indexed == 1
    assert stats.mean == stats.min_count == stats.max_count == 3.0


def test_constant_counts_collapse(tmp_path):
    # every k-mer of the query occurs exactly 5 times in the bank
    bank = write_fasta(tmp_path / "b.fa", ["ACCGTTGCA"] * 5)
    index = build_counter_index(bank, k=5, t=1, f=62)
    stats = count_read(index, ReadRecord(0, "q", "ACCGTTGCA"))
    assert stats.mean == 5.0
    assert stats.median == stats.min_count == stats.max_count == 5


def test_no_shared_kmer_returns_none(tmp_path):
    bank = write_fasta(tmp_path / "b.fa", ["AAAAAAAAAA"])
    index = build_counter_index(bank, k=6, t=1, f=62)
    assert count_read(index, ReadRecord(0, "q", "CCCCCCCCCC")) is None


def test_short_query_returns_none(tmp_path):
    bank = write_fasta(tmp_path / "b.fa", ["ACGTACGTAC"])
    index = build_counter_index(bank, k=8, t=1, f=62)
    assert count_read(index, ReadRecord(0, "q", "ACG")) is None


def test_threshold_filters_everything(tmp_path):
    rng = np.random.default_rng(0)
    bank = write_fasta(tmp_path / "b.fa", ["".join(rng.choice(list("ACGT"), size=60))])
    index = build_counter_index(bank, k=21, t=2, f=12)
    assert index.qd.n_keys == 0
    assert count_read(index, ReadRecord(0, "q", "ACGTACGTACGTACGTACGTA")) is None


def test_exact_mode_matches_brute_force_oracle(tmp_path):
    rng = np.random.default_rng(1)
    genome = random_genome(rng, 600)
    bank_seqs = reads_from_genome(rng, genome, 120, 60)
    query_seqs = reads_from_genome(rng, genome, 60, 60)
    bank = write_fasta(tmp_path / "b.fa", bank_seqs)
    for t in (1, 2):
        index = build_counter_index(bank, k=11, t=t, f=22)  # f = 2k: exact
        for qid, seq in enumerate(query_seqs):
            got = count_read(index, ReadRecord(qid, f"q{qid}", seq))
            want = brute_force_stats(bank_seqs, seq, 11, t)
            if want is None:
                assert got is None
            else:
                assert (
                    got.n_indexed,
                    got.mean,
                    got.median,
                    got.min_count,
                    got.max_count,
                ) == pytest.approx(want)


def test_stats_ordering_invariants(tmp_path):
    rng = np.random.default_rng(3)
    genome = random_genome(rng, 500)
    bank = write_fasta(tmp_path / "b.fa", reads_from_genome(rng, genome, 80, 60))
    index = build_counter_index(bank, k=9, t=1, f=12)
    checked = 0
    for seq in reads_from_genome(rng, genome, 40, 60):
        stats = count_read(index, ReadRecord(0, "q", seq))
        if stats is None:
            continue
        checked += 1
        assert stats.min_count <= stats.median <= stats.max_count
        assert stats.min_count <= stats.mean <= stats.max_count
        assert stats.n_indexed >= 1
    assert checked > 0


def test_output_lines(tmp_path):
    bank = write_fasta(tmp_path / "b.fa", ["ACCGTTGCA"] * 5)
    queries = write_fasta(tmp_path / "q.fa", ["ACCGTTGCA", "TTTTTTTT"])
    out = io.StringIO()
    run_counter(str(bank), [str(queries)], out, k=5, t=1, f=62)
    lines = out.getvalue().splitlines()
    assert lines[0] == "0\tr0\t5\t5.00\t5\t5\t5"
    assert lines[1] == "1\tr1\t0\tnone"


def test_output_line_count_equals_query_count(tmp_path):
    rng = np.random.default_rng(2)
    genome = random_genome(rng, 400)
    bank = write_fasta(tmp_path / "b.fa", reads_from_genome(rng, genome, 40, 50))
    qseqs = reads_from_genome(rng, genome, 25, 50)
    queries = write_fasta(tmp_path / "q.fa", qseqs)
    out = io.StringIO()
    run_counter(str(bank), [str(queries)], out, k=9, t=1, f=12)
    assert len(out.getvalue().splitlines()) == len(qseqs)


def test_mean_formatted_two_decimals():
    line = format_count_line(3, "h", CountStats(3, 3, 7.0 / 3.0, 2, 1, 4))
    assert line == "3\th\t3\t2.33\t2\t1\t4"
