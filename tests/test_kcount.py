"""Solid-k-mer counting against a naive dictionary recount."""

import tracemalloc

import numpy as np
import pytest
from conftest import random_genome, reads_from_genome, write_fasta

from quasidict import kcount
from quasidict.kcount import BATCH_BASES, SolidKmerTable, count_solid, scan_reads, solid_table
from quasidict.kmer import canonical, encode
from quasidict.seqio import ReadRecord, open_reads


def reads_of(*seqs):
    return [ReadRecord(i, f"r{i}", s) for i, s in enumerate(seqs)]


def naive_counts(seqs, k):
    """Oracle: enumerate every window, canonicalize through the string path."""
    counts = {}
    for s in seqs:
        for i in range(len(s) - k + 1):
            w = s[i : i + k].upper()
            if all(c in "ACGT" for c in w):
                code = canonical(encode(w), k)
                counts[code] = counts.get(code, 0) + 1
    return counts


def test_single_read_single_kmer():
    table = count_solid(reads_of("ACCG"), k=4, t=1)
    assert len(table) == 1
    assert int(table.codes[0]) == canonical(encode("ACCG"), 4)
    assert int(table.counts[0]) == 1


def test_both_strands_pool_into_one_entry():
    # CGGT is the reverse complement of ACCG: one canonical k-mer seen twice
    table = count_solid(reads_of("ACCG", "CGGT"), k=4, t=2)
    assert len(table) == 1
    assert int(table.codes[0]) == canonical(encode("ACCG"), 4)
    assert int(table.counts[0]) == 2


def test_threshold_filters():
    table = count_solid(reads_of("ACCGT", "ACCGA"), k=4, t=2)
    # only ACCG appears twice; the other windows once each
    assert len(table) == 1


def test_matches_naive_recount():
    rng = np.random.default_rng(0)
    seqs = [
        "".join(rng.choice(list("ACGTN"), size=rng.integers(20, 120), p=[0.24, 0.24, 0.24, 0.24, 0.04]))
        for _ in range(300)
    ]
    for k, t in ((5, 1), (5, 2), (11, 2), (11, 3)):
        table = count_solid(reads_of(*seqs), k=k, t=t)
        oracle = {c: n for c, n in naive_counts(seqs, k).items() if n >= t}
        got = {int(c): int(n) for c, n in zip(table.codes, table.counts)}
        assert got == {c: min(n, 255) for c, n in oracle.items()}


def test_sorted_and_distinct():
    rng = np.random.default_rng(1)
    seqs = ["".join(rng.choice(list("ACGT"), size=100)) for _ in range(100)]
    table = count_solid(reads_of(*seqs), k=9, t=1)
    assert (np.diff(table.codes.astype(np.int64)) > 0).all()


def test_t1_size_equals_distinct_kmers():
    rng = np.random.default_rng(2)
    seqs = ["".join(rng.choice(list("ACGT"), size=80)) for _ in range(50)]
    table = count_solid(reads_of(*seqs), k=7, t=1)
    assert len(table) == len(naive_counts(seqs, 7))


def test_read_order_does_not_matter():
    rng = np.random.default_rng(3)
    seqs = ["".join(rng.choice(list("ACGT"), size=60)) for _ in range(40)]
    a = count_solid(reads_of(*seqs), k=8, t=2)
    b = count_solid(reads_of(*reversed(seqs)), k=8, t=2)
    assert (a.codes == b.codes).all() and (a.counts == b.counts).all()


def test_counts_saturate_at_255():
    table = count_solid(reads_of(*(["ACGTACGT"] * 300)), k=8, t=1)
    assert (table.counts == 255).all()


def test_solidity_uses_exact_counts_before_capping():
    # 300 occurrences with t=260 would be impossible (t capped at 255)
    with pytest.raises(ValueError):
        count_solid(reads_of("ACGT"), k=4, t=256)
    with pytest.raises(ValueError):
        count_solid(reads_of("ACGT"), k=4, t=0)


def test_empty_input():
    table = count_solid([], k=5, t=1)
    assert len(table) == 0


def test_dump_load_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    seqs = ["".join(rng.choice(list("ACGT"), size=70)) for _ in range(60)]
    table = count_solid(reads_of(*seqs), k=9, t=1)
    path = str(tmp_path / "table.skmt")
    table.dump(path)
    back = SolidKmerTable.load(path)
    assert back.k == table.k and back.t == table.t
    assert (back.codes == table.codes).all()
    assert (back.counts == table.counts).all()


def test_load_rejects_truncated_or_padded_file(tmp_path):
    table = count_solid(reads_of("ACGTTGCAAC", "ACGTTGCAAC"), k=4, t=1)
    path = tmp_path / "table.skmt"
    table.dump(str(path))
    blob = path.read_bytes()
    assert len(blob) == 20 + 9 * len(table)  # magic, k, t, n, then the entries
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError):
            SolidKmerTable.load(str(path))
    path.write_bytes(blob + b"\0")
    with pytest.raises(ValueError, match="expected"):
        SolidKmerTable.load(str(path))


def _table(codes, counts, k=4, t=1):
    return SolidKmerTable(np.array(codes, dtype=np.uint64), np.array(counts, dtype=np.uint8), k, t)


@pytest.mark.parametrize(
    "table, reason",
    [
        (_table([1, 2], [1, 1], k=0), "k-mer length"),
        (_table([1, 2], [1, 1], k=32), "k-mer length"),
        (_table([1, 2], [1, 1], t=0), "solidity threshold"),
        (_table([1, 2], [1, 1], t=256), "solidity threshold"),
        (_table([3, 3], [1, 1]), "strictly increasing"),
        (_table([9, 3], [1, 1]), "strictly increasing"),
        (_table([1, 4**4], [1, 1]), "below 4\\^4"),
        (_table([1, 2], [2, 1], t=2), "below the solidity threshold"),
        (_table([9, 3, 3, 1 << 40], [0, 1, 1, 1], k=0, t=44), "k-mer length"),
    ],
    ids=["k=0", "k=32", "t=0", "t=256", "duplicate", "decreasing", "code>=4^k", "count<t", "all-at-once"],
)
def test_load_rejects_table_it_could_not_have_written(tmp_path, table, reason):
    path = str(tmp_path / "table.skmt")
    table.dump(path)
    with pytest.raises(ValueError, match=reason):
        SolidKmerTable.load(path)


def test_load_accepts_extreme_valid_table(tmp_path):
    path = str(tmp_path / "table.skmt")
    _table([0, 4**31 - 1], [255, 255], k=31, t=255).dump(path)
    back = SolidKmerTable.load(path)
    assert back.codes.tolist() == [0, 4**31 - 1] and (back.k, back.t) == (31, 255)


@pytest.mark.parametrize("k", [1, 15, 16, 17, 31])
@pytest.mark.parametrize("seqs", [(), ("N" * 34, "N-N")], ids=["empty", "no-window"])
def test_scan_reads_keeps_the_code_word_without_codes(seqs, k):
    codes, sizes = scan_reads(reads_of(*seqs), k)
    assert len(codes) == 0 and sizes.tolist() == [0] * len(seqs)
    assert codes.dtype == (np.uint32 if k <= 16 else np.uint64)


@pytest.mark.parametrize("k", [1, 16, 17, 31])
def test_load_returns_the_word_of_count_solid(tmp_path, k):
    rng = np.random.default_rng(k)
    table = count_solid(reads_of(*("".join(rng.choice(list("ACGT"), size=60)) for _ in range(20))), k=k, t=1)
    path = str(tmp_path / "table.skmt")
    table.dump(path)
    back = SolidKmerTable.load(path)
    assert table.codes.dtype == back.codes.dtype == (np.uint32 if k <= 16 else np.uint64)
    assert back.codes.tolist() == table.codes.tolist()
    assert back.codes.flags.writeable


def _banks(k):
    rng = np.random.default_rng(k)
    genome = random_genome(rng, 3000)
    sampled = reads_from_genome(rng, genome, 3 * BATCH_BASES // 100, 99)  # several batches
    return {
        "empty": [],
        "no window": ["N" * 40, "ACGTN" * 8],
        "sampled": sampled,
        # poly-A is canonical code 0: one range holds more k-mers than the default budget
        "one range over budget": [*sampled[:50], "A" * (kcount.GROUP_KMERS + 100), "A" * 90],
    }


@pytest.mark.parametrize("group_kmers", [1, 3, kcount.GROUP_KMERS])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 15, 16, 17, 31])
def test_groups_are_invisible(monkeypatch, k, group_kmers):
    """Whatever the group budget, the spilled count equals one table over the whole bank."""
    monkeypatch.setattr(kcount, "GROUP_KMERS", group_kmers)
    for name, seqs in _banks(k).items():
        for t in (1, 2):
            got = count_solid(reads_of(*seqs), k, t)
            want = solid_table(scan_reads(reads_of(*seqs), k)[0], k, t)
            assert got.codes.dtype == want.codes.dtype, name
            assert got.codes.tolist() == want.codes.tolist(), name
            assert got.counts.tolist() == want.counts.tolist(), name
            assert (got.k, got.t) == (k, t)


def test_count_does_not_hold_the_bank(tmp_path):
    """The traced peak of count_solid grows by at most about one byte per added bank k-mer: the bank
    is spilled, and only one group of ranges is in memory. Holding the bank cost about 22 bytes."""
    rng = np.random.default_rng(7)
    genome = random_genome(rng, 50_000)
    peaks, sizes = [], []
    for n_reads in (5_000, 20_000):  # about 10x and 40x: the solid set is the genome's either way
        path = write_fasta(tmp_path / f"bank{n_reads}.fa", reads_from_genome(rng, genome, n_reads, 100))
        sizes.append(n_reads * (100 - 31 + 1))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            count_solid(open_reads(path), 31, 2)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            if not tracing:
                tracemalloc.stop()
    assert sizes[0] > kcount.GROUP_KMERS  # both banks are counted in several groups
    growth = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
    assert growth <= 1.0, f"{growth:.2f} bytes per added bank k-mer"
