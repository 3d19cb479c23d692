"""FASTA/FASTQ parsing fixtures written on the fly and read back."""

import gzip
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidict.seqio import ParseError, ReadRecord, open_file_of_files, open_reads

from conftest import damaged_gzip


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_two_record_fasta(tmp_path):
    path = write(tmp_path, "a.fa", ">r0 extra words\nACGT\n>r1\nTTTT\n")
    records = list(open_reads(path))
    assert [(r.id, r.header, r.seq) for r in records] == [(0, "r0", "ACGT"), (1, "r1", "TTTT")]


@pytest.mark.parametrize(
    "header, word",
    [
        (b">   ", ""),  # blank header: an empty word, not an IndexError
        (b">\t r0  x", "r0"),
        (b">r0\x1cx", "r0"),  # str.split() whitespace below 0x80
        (b">\xc3\xa0\xc2\x85 x", "\xc3\xa0\xc2\x85"),  # UTF-8 bytes 0xa0 and 0x85 stay inside the word
    ],
)
def test_header_word_ends_at_ascii_whitespace(tmp_path, header, word):
    path = tmp_path / "h.fa"
    path.write_bytes(header + b"\nACGT\n")
    (record,) = open_reads(str(path))
    assert record.header == word


@pytest.mark.parametrize(
    "name, text",
    [("a.fa", ">r0 x\nACGTAC\nGT\n>r1\nTTTT\n"), ("a.fq", "@x y\nAC\n+\n!!\n@y\nGT\n+x\n!!\n")],
    ids=["fasta", "fastq"],
)
def test_gzip_gives_the_plain_records(tmp_path, name, text):
    plain = write(tmp_path, name, text)
    packed = tmp_path / f"{name}.gz"
    packed.write_bytes(gzip.compress(text.encode()))
    assert list(open_reads(str(packed))) == list(open_reads(plain))


@pytest.mark.parametrize("damage, cause", [("truncated", EOFError), ("flipped", zlib.error)])
def test_damaged_gzip_is_a_parse_error(tmp_path, damage, cause):
    path = tmp_path / "bad.fa.gz"
    path.write_bytes(damaged_gzip(b">r0\n" + b"ACGT" * 200 + b"\n", damage))
    with pytest.raises(ParseError, match="damaged gzip") as err:
        list(open_reads(str(path)))
    assert isinstance(err.value.__cause__, cause)


def test_multiline_fasta_concatenated(tmp_path):
    seq = "ACGTACGTACGTACGTACGT"
    body = "\n".join(seq[i : i + 7] for i in range(0, len(seq), 7))
    path = write(tmp_path, "m.fa", f">long\n{body}\n")
    (record,) = open_reads(path)
    assert record.seq == seq


def test_fastq_record(tmp_path):
    path = write(tmp_path, "a.fq", "@r\nACGT\n+\n!!!!\n")
    (record,) = open_reads(path)
    assert (record.id, record.header, record.seq) == (0, "r", "ACGT")


def test_fastq_ids_increment(tmp_path):
    path = write(tmp_path, "b.fq", "@x\nAC\n+\n!!\n@y\nGT\n+\n!!\n")
    assert [r.id for r in open_reads(path)] == [0, 1]


def test_fastq_plus_mismatch_names_line(tmp_path):
    path = write(tmp_path, "bad.fq", "@x\nAC\n!!\n!!\n")
    with pytest.raises(ParseError) as err:
        list(open_reads(path))
    assert err.value.line == 3


@pytest.mark.parametrize(
    "second, line, reason",
    [
        ("b\nAC\n+\n!!\n", 5, "expected '@' header line"),
        ("@b\nAC\n+\n", 5, "truncated record (need 4 lines)"),
        ("@b\n\n+\n\n", 6, "record has empty sequence"),
        ("@b\nAC\nGT\n+\n", 7, "expected '+' separator line"),  # a wrapped sequence
        ("@b\nAC\n+\n!\n", 8, "quality length differs from sequence length"),
    ],
    ids=["header", "truncated", "empty", "separator", "quality"],
)
def test_fastq_error_in_second_record_names_its_line(tmp_path, second, line, reason):
    path = write(tmp_path, "bad.fq", "@a\nAC\n+\n!!\n" + second)
    records = open_reads(path)
    assert next(records).header == "a"
    with pytest.raises(ParseError) as err:
        next(records)
    assert (err.value.line, str(err.value)) == (line, f"{path}:{line}: {reason}")


def test_fastq_truncated(tmp_path):
    path = write(tmp_path, "trunc.fq", "@x\nAC\n+\n")
    with pytest.raises(ParseError):
        list(open_reads(path))


def test_empty_fasta_sequence_rejected(tmp_path):
    path = write(tmp_path, "empty.fa", ">a\n>b\nACGT\n")
    with pytest.raises(ParseError) as err:
        list(open_reads(path))
    assert err.value.line == 1


def test_unknown_leading_byte(tmp_path):
    path = write(tmp_path, "junk.txt", "ACGT\n")
    with pytest.raises(ParseError):
        list(open_reads(path))


def test_empty_file_yields_nothing(tmp_path):
    path = write(tmp_path, "none.fa", "")
    assert list(open_reads(path)) == []


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        list(open_reads(str(tmp_path / "absent.fa")))


def test_generated_fixture_roundtrip(tmp_path):
    import numpy as np

    rng = np.random.default_rng(0)
    n = 200
    seqs = ["".join(rng.choice(list("ACGT"), size=rng.integers(30, 90))) for _ in range(n)]
    text = "".join(f">read{i}\n{s}\n" for i, s in enumerate(seqs))
    path = write(tmp_path, "gen.fa", text)
    records = list(open_reads(path))
    assert len(records) == n
    assert [r.id for r in records] == list(range(n))
    assert [r.seq for r in records] == seqs


def test_file_of_files(tmp_path):
    fof = write(tmp_path, "fof.txt", "/x/a.fa\n/x/b.fa\n")
    assert open_file_of_files(fof) == ["/x/a.fa", "/x/b.fa"]


def test_file_of_files_trailing_newline_and_blanks(tmp_path):
    fof = write(tmp_path, "fof.txt", "\n/x/a.fa\n\n\n/x/b.fa\n\n")
    assert open_file_of_files(fof) == ["/x/a.fa", "/x/b.fa"]


def test_file_of_files_missing():
    with pytest.raises(OSError):
        open_file_of_files("/no/such/fof.txt")


# the ASCII whitespace that ends a header word; \n and \r end a line
_WORD_END = "\t\n\v\f\r\x1c\x1d\x1e\x1f "
_LINE_TEXT = st.characters(codec="latin-1", exclude_characters="\n\r")


@st.composite
def read_files(draw):
    """Bytes of a FASTA or FASTQ file and the records they hold, the reference for ``open_reads``."""
    fastq = draw(st.booleans())
    lines, records = [], []
    for rid in range(draw(st.integers(1, 4))):
        word = draw(st.text(st.characters(codec="latin-1", exclude_characters=_WORD_END), max_size=6))
        rest = draw(st.sampled_from(["", " ", "\t"])) if word else ""  # text after no word would be the word
        head = draw(st.sampled_from(["", " ", "\t "])) + word + (rest and rest + draw(st.text(_LINE_TEXT, max_size=8)))
        seq = draw(st.text(_LINE_TEXT, min_size=1, max_size=20))
        records.append(ReadRecord(rid, word, seq))
        if fastq:
            qual = draw(st.text(_LINE_TEXT, min_size=len(seq), max_size=len(seq)))
            lines += ["@" + head, seq, "+" + draw(st.text(_LINE_TEXT, max_size=4)), qual]
            continue
        lines.append(">" + head)
        width = draw(st.integers(1, 20))
        for i in range(0, len(seq), width):
            lines += [""] * draw(st.integers(0, 1))  # blank lines are skipped
            lines.append(seq[i : i + width])
        if ">" in seq[::width]:
            return draw(st.nothing())  # a sequence line starting with '>' would be a header
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    data = "".join(map(str.__add__, lines, ends)).encode("latin-1")
    return data if draw(st.booleans()) else data.rstrip(b"\r\n"), records  # maybe no break after the last line


@settings(deadline=None, max_examples=100)
@given(read_files())
def test_open_reads_matches_generated_records(tmp_path_factory, case):
    data, records = case
    plain = tmp_path_factory.mktemp("reads") / "reads"
    plain.write_bytes(data)
    packed = plain.with_suffix(".gz")
    packed.write_bytes(gzip.compress(data))
    assert list(open_reads(str(plain))) == records
    assert list(open_reads(str(packed))) == records
