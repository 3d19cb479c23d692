"""The block parser against the line-by-line oracle, and the bank pass that reads it with no record."""

import gzip
import io
import tracemalloc
from collections import Counter
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import random_genome, reads_from_genome, reads_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

import quasidict
from quasidict import counter, kcount, linker, seqio
from quasidict.core import QuasiDictionary
from quasidict.counter import build_counter_index, run_counter
from quasidict.kcount import count_solid, solid_table
from quasidict.kmer import scan_kmers
from quasidict.linker import build_linker_index, run_linker
from quasidict.seqio import ParseError, ReadRecord, open_reads, read_blocks


def outcome(reads):
    """The records a stream yields, and the line and message of the ParseError that ends it, if any."""
    records = []
    try:
        for record in reads:
            records.append(record)
    except ParseError as err:
        return records, (err.line, str(err))
    return records, None


# line breaks, and record marks and other bytes within a line, that decide how a file parses
_BREAKS = [b"\n", b"\r\n", b"\r", b"\r\r\n"]
_IN_LINE = [b">", b"@", b"+", b"ACGT", b"ac", b"N", b"!!", b" ", b"\t", b"r1", b"\xe9"]
_LINE_BYTES = st.binary(max_size=3).filter(lambda b: b"\n" not in b and b"\r" not in b)


@st.composite
def read_bytes(draw):
    """Bytes of a FASTA or FASTQ file, well framed or not: records with CRLF, lone-CR and blank-line
    breaks, empty records and wrong FASTQ framing, then maybe a spliced-in run of arbitrary bytes."""
    breaks = st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"])
    text = st.lists(st.sampled_from(_IN_LINE) | _LINE_BYTES, max_size=4).map(b"".join)
    parts = []
    fastq = draw(st.booleans())
    for _ in range(draw(st.integers(0, 5))):
        if fastq:
            seq = draw(st.sampled_from([b"", b"A", b"ACGT", b"ACGTNacgt"]))
            qual = b"!" * (len(seq) + draw(st.sampled_from([0, 0, 0, 1, -1])))
            lines = [b"@" + draw(text), seq, draw(st.sampled_from([b"+", b"+x", b"", b"-"])), qual]
            lines = lines[: draw(st.sampled_from([4, 4, 4, 3, 2, 5]))]
        else:
            lines = [b">" + draw(text)] + draw(st.lists(text, max_size=3))
        parts += [line + draw(breaks) for line in lines]
    data = b"".join(parts)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        splice = draw(st.lists(st.sampled_from(_BREAKS + _IN_LINE) | st.binary(max_size=2), max_size=6))
        data = data[:at] + b"".join(splice) + data[at:]
    return data


@pytest.mark.parametrize("block", [1, 3, 64, seqio.BLOCK_BYTES])
@settings(deadline=None, max_examples=150)
@given(data=read_bytes())
def test_block_parser_matches_the_line_oracle(tmp_path_factory, block, data):
    """Whatever the block size, so that records, \\r\\n pairs and FASTQ groups straddle block edges, the
    records before a fault and the fault's line and message equal the oracle's, plain and gzip."""
    plain = tmp_path_factory.mktemp("reads") / "reads"
    plain.write_bytes(data)
    packed = plain.with_suffix(".gz")
    packed.write_bytes(gzip.compress(data))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqio, "BLOCK_BYTES", block)
        for path in (str(plain), str(packed)):
            assert outcome(open_reads(path)) == outcome(reads_oracle(path)), path


@pytest.mark.parametrize(
    "data, records, fault",
    [
        # a lone \r ends a line: the header's tail moves into the sequence
        (b">r1 ab\rcd\nACGT\n", [ReadRecord(0, "r1", "cdACGT")], None),
        # and shifts a FASTQ record's four-line frame
        (b"@r1 a\rb\nACGT\n+\n!!!!\n", [], (3, "expected '+' separator line")),
    ],
)
def test_lone_cr_ends_a_line(tmp_path, data, records, fault):
    path = tmp_path / "reads"
    path.write_bytes(data)
    want_fault = fault and (fault[0], f"{path}:{fault[0]}: {fault[1]}")
    assert outcome(open_reads(str(path))) == (records, want_fault)


def _banks(tmp_path):
    """One read set written as FASTA, multi-line FASTA, FASTQ, gzip FASTA and CRLF FASTA."""
    rng = np.random.default_rng(3)
    seqs = reads_from_genome(rng, random_genome(rng, 3000), 400, 120) + ["ACGTNNACGT" * 9, "A" * 200]
    texts = {
        "fasta": "".join(f">r{i} x\n{s}\n" for i, s in enumerate(seqs)),
        "multi-line": "".join(f">r{i}\n" + "".join(s[j : j + 50] + "\n" for j in range(0, len(s), 50))
                              for i, s in enumerate(seqs)),
        "fastq": "".join(f"@r{i}\n{s}\n+\n{'!' * len(s)}\n" for i, s in enumerate(seqs)),
    }
    texts["crlf"] = texts["fasta"].replace("\n", "\r\n")
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text, newline="")
    paths["gzip"] = tmp_path / "bank.fa.gz"
    paths["gzip"].write_bytes(gzip.compress(texts["fasta"].encode()))
    return {name: str(path) for name, path in paths.items()}


def test_bank_pass_makes_no_record(tmp_path, monkeypatch):
    """Both builds and the bank count read the file as blocks: no ReadRecord is made, and the table
    equals the one counted over the record view."""
    made = []

    class Counted(ReadRecord):
        def __init__(self, *args):
            made.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(kcount, "BATCH_BASES", 2000)  # several batches per block
    monkeypatch.setattr(seqio, "BLOCK_BYTES", 5000)  # several blocks
    for name, path in _banks(tmp_path).items():
        want = solid_table(np.concatenate([scan_kmers(read.seq, 11)[1] for read in open_reads(path)]), 11, 2)
        with monkeypatch.context() as mp:
            for module in (seqio, counter, linker):
                mp.setattr(module, "ReadRecord", Counted)
            got = count_solid(path, 11, 2)
            build_counter_index(Path(path), k=11, t=2)
            index = build_linker_index(path, k=11, t=2)
        assert made == [], name
        assert got.codes.tolist() == want.codes.tolist(), name
        assert got.counts.tolist() == want.counts.tolist(), name
        assert len(want) > 1000 and index.n_targets == 402, name


def test_query_pass_makes_no_record(tmp_path, monkeypatch):
    """Both query loops read each query file once, as blocks: no record view and no ReadRecord, and one
    query per batch of the whole file's reads, so a batch that a block edge would cut short waits for
    the next block's reads."""
    calls, made = Counter(), []

    def counted_blocks(path):
        calls["read_blocks", path] += 1
        return read_blocks(path)

    def counted_reads(path):
        calls["open_reads"] += 1
        return open_reads(path)

    def counted_query(self, codes):
        calls["query_array"] += 1
        return query_array(self, codes)

    class Counted(ReadRecord):
        def __init__(self, *args):
            made.append(args[0])
            super().__init__(*args)

    banks = _banks(tmp_path)
    bank, queries = banks["multi-line"], [banks["fasta"], banks["fastq"]]
    query_array = QuasiDictionary.query_array
    monkeypatch.setattr(kcount, "BATCH_BASES", 2000)
    monkeypatch.setattr(seqio, "BLOCK_BYTES", 3000)  # a block edge inside most batches
    # the batches over each query file's whole length array
    want = sum(len(list(kcount.batch_ranges(np.array([len(r.seq) for r in open_reads(q)])))) for q in queries)
    for run in (run_counter, run_linker):
        calls.clear()
        with monkeypatch.context() as mp:
            for module in (seqio, kcount):
                mp.setattr(module, "read_blocks", counted_blocks)
            for module in (quasidict, seqio, counter, linker):
                mp.setattr(module, "open_reads", counted_reads)
            for module in (seqio, counter, linker):
                mp.setattr(module, "ReadRecord", Counted)
            mp.setattr(QuasiDictionary, "query_array", counted_query)
            run(bank, queries, io.StringIO(), k=11, t=2)
        assert made == [], run
        assert calls == {("read_blocks", bank): 1, **{("read_blocks", q): 1 for q in queries}, "query_array": want}
        assert want > 8


def test_bank_scan_frees_each_batch_positions(tmp_path, monkeypatch):
    """The bank builds never read the k-mer positions: by the time the spill takes a batch, its positions
    array is freed, so the spill does not hold 8 bytes per k-mer beside the codes."""
    positions, spilled = [], []

    def scan(seq, k):
        found, codes = kmer_scan(seq, k)
        positions.append(weakref.ref(found))
        return found, codes

    def spill(batches, *args):
        def checked():
            for batch in batches:
                assert positions[-1]() is None
                spilled.append(len(batch[0]))
                yield batch

        return spill_groups(checked(), *args)

    kmer_scan, spill_groups = kcount.scan_kmers, kcount.spill_groups
    monkeypatch.setattr(kcount, "scan_kmers", scan)
    for module in (kcount, linker):
        monkeypatch.setattr(module, "spill_groups", spill)
    monkeypatch.setattr(kcount, "BATCH_BASES", 2000)
    path = _banks(tmp_path)["fasta"]
    count_solid(path, 11, 2)
    build_linker_index(path, k=11, t=2)
    assert len(spilled) == len(positions) > 20


def test_parser_memory_is_a_block_and_the_longest_record(tmp_path):
    """Streaming a bank of several MiB peaks at a few blocks plus the longest record; a parser that
    read the whole file at once would hold the file."""
    rng = np.random.default_rng(5)
    longest = 100_000
    path = tmp_path / "bank.fa"
    with open(path, "w") as fh:
        for i in range(5000):
            fh.write(f">r{i}\n{random_genome(rng, longest if i == 2500 else 1000)}\n")
    assert path.stat().st_size > 4 * 2**20
    tracemalloc.start()
    try:
        for _ in read_blocks(str(path)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (seqio.BLOCK_BYTES + longest), f"{peak / (seqio.BLOCK_BYTES + longest):.1f} x"


def test_a_header_on_a_block_edge_ends_the_block(tmp_path, monkeypatch):
    """Records that each fill one block exactly: every header opens a chunk, and each still ends the
    block before it, so no block holds more than one record."""
    monkeypatch.setattr(seqio, "BLOCK_BYTES", 8)
    path = tmp_path / "bank.fa"
    path.write_bytes(b">a\nACGT\n" * 50)
    assert [len(block.lengths) for block in read_blocks(str(path))] == [1] * 50
