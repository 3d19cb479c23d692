"""Streaming FASTA/FASTQ reader assigning dense integer read identifiers.

Format is sniffed from the first byte: '>' for FASTA (multi-line
sequences allowed), '@' for FASTQ (strict 4-line records, qualities
discarded). A file that starts with the gzip magic bytes 1f 8b is read
through gzip. Records stream in file order with ids 0, 1, 2, ...

Files are read as bytes, in blocks of whole records (:func:`read_blocks`),
in constant memory per block, plus the longest record. The read tools scan
every file, bank or queries, from these blocks, with no object per read;
:func:`open_reads` is the record view, one ReadRecord per read. A line
ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in Python's universal
newlines. Bytes are latin-1, one character per byte, so any byte passes:
header bytes reach the output unchanged (UTF-8 included), and a byte that
is no nucleotide only drops the k-mer windows that touch it.
"""

from __future__ import annotations

import gzip
import os
import re
import zlib
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np


class ParseError(ValueError):
    """Malformed read file; carries the offending line number (1-based, None if unknown)."""

    def __init__(self, path: str, line: int | None, reason: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {reason}" if line else f"{path}: {reason}")


@dataclass
class ReadRecord:
    """One read: rank in its file, header word, and nucleotide string."""

    id: int
    header: str
    seq: str


# file bytes read per block, as many as kcount.BATCH_BASES
BLOCK_BYTES = 2**16

# the header word follows the str.split() ASCII whitespace on its line; latin-1
# 0x85 and 0xa0 also occur inside UTF-8 characters, so they must not end it
_HEADER_WORD = re.compile(rb"[\t\v\f\x1c-\x1f ]*([^\t\n\v\f\r\x1c-\x1f ]*)")


@dataclass
class ReadBlock:
    """Consecutive reads of one file, as arrays: no per-read object."""

    first: int  # the first read's id
    seq: str  # the reads' sequences in order, one separator ('>' or '@', no nucleotide) between two
    lengths: np.ndarray  # int64, each read's sequence length
    data: bytes  # the block's file bytes, line breaks made b"\n"
    heads: np.ndarray  # where each read's header line starts in data

    def names(self) -> list[str]:
        """Each read's header word."""
        return [_HEADER_WORD.match(self.data, head + 1).group(1).decode("latin-1") for head in self.heads.tolist()]

    def records(self) -> Iterator[ReadRecord]:
        """The block's reads, one record each."""
        ends = (np.cumsum(self.lengths + 1) - 1).tolist()
        for i, (word, length, end) in enumerate(zip(self.names(), self.lengths.tolist(), ends)):
            yield ReadRecord(self.first + i, word, self.seq[end - length : end])


def open_reads(path: str) -> Iterator[ReadRecord]:
    """Stream records from a FASTA or FASTQ file, plain or gzip: the record view of :func:`read_blocks`."""
    for block in read_blocks(path):
        yield from block.records()


def read_blocks(path: str) -> Iterator[ReadBlock]:
    """The reads of a FASTA or FASTQ file, plain or gzip, in blocks of whole records of about
    BLOCK_BYTES file bytes (a longer record is carried over until it is whole). A malformed record ends
    the stream with a ParseError naming its line, after a block of the records before it."""
    with open(path, "rb") as fh:
        gzipped = fh.read(2) == b"\x1f\x8b"
    with (gzip.open if gzipped else open)(path, "rb") as fh:
        try:
            chunks = _chunks(fh)
            first = next(chunks, b"")
            if not first:
                return
            chunks = chain([first], chunks)
            if first[:1] == b">":
                yield from _fasta(path, chunks)
            elif first[:1] == b"@":
                yield from _fastq(path, chunks)
            else:
                raise ParseError(path, 1, f"unrecognized first byte {chr(first[0])!r}; expected '>' or '@'")
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ParseError(path, None, f"damaged gzip data: {exc}") from exc


def _chunks(fh) -> Iterator[bytes]:
    """The file's bytes, about BLOCK_BYTES at a time, with every line break made b"\\n"; a chunk's last
    ``\\r`` waits for the next chunk, which may begin with its ``\\n``."""
    held = b""
    while chunk := fh.read(BLOCK_BYTES):
        chunk, held = held + chunk, b""
        if chunk.endswith(b"\r"):
            chunk, held = chunk[:-1], b"\r"
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if chunk:
            yield chunk
    if held:
        yield b"\n"


def _lines(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bytes of ``data`` as an array, and each line's start and end (its b"\\n", or the end of data)."""
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == 10)
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(raw))
    return raw, np.concatenate(([0], ends[:-1] + 1)), ends


def _block(first: int, data: bytes, starts, ends, seq_lines, heads, lengths) -> ReadBlock:
    """The reads whose header lines are ``heads`` and whose sequences are on ``seq_lines``."""
    on_seq = np.zeros(len(starts), dtype=bool)
    on_seq[seq_lines] = True
    keep = np.repeat(on_seq, ends + 1 - starts)  # one byte past data when its last line has no break
    keep[ends[seq_lines]] = False  # their line breaks
    keep[starts[heads[1:]]] = True  # a read's header byte separates it from the read before
    seq = np.frombuffer(data, dtype=np.uint8)[keep[: len(data)]].tobytes().decode("latin-1")
    return ReadBlock(first, seq, lengths, data, starts[heads])


def _fasta(path: str, chunks: Iterator[bytes]) -> Iterator[ReadBlock]:
    # a block ends before the last header that starts in a chunk, at the chunk's first byte too: the
    # records before it are whole
    rid, line, pending = 0, 0, []
    for chunk in chunks:
        at = chunk.rfind(b"\n>") + 1
        if not at and not (chunk[:1] == b">" and pending and pending[-1].endswith(b"\n")):
            pending.append(chunk)
            continue
        data = b"".join(pending) + chunk[:at]
        pending = [chunk[at:]]
        reads, lines = yield from _fasta_block(path, data, rid, line)
        rid, line = rid + reads, line + lines
    yield from _fasta_block(path, b"".join(pending), rid, line)


def _fasta_block(path: str, data: bytes, rid: int, line: int) -> Iterator[ReadBlock]:
    """The records of ``data``, which starts with a header; ``rid`` reads and ``line`` lines precede it.
    Returns the counts of its reads and lines."""
    raw, starts, ends = _lines(data)
    heads = np.flatnonzero(raw[starts] == ord(">"))
    sizes = ends - starts
    sizes[heads] = 0
    lengths = np.add.reduceat(sizes, heads)
    empty = np.flatnonzero(lengths == 0)
    n = empty[0] if len(empty) else len(heads)
    if n:
        seq_lines = np.flatnonzero(sizes[: heads[n] if n < len(heads) else len(sizes)])
        yield _block(rid, data, starts, ends, seq_lines, heads[:n], lengths[:n])
    if n < len(heads):
        raise ParseError(path, line + int(heads[n]) + 1, "record has empty sequence")
    return len(heads), len(starts)


# a FASTQ record's checks, one per line of the record, in the order they are made
_FASTQ_FAULTS = (
    "expected '@' header line",
    "record has empty sequence",
    "expected '+' separator line",
    "quality length differs from sequence length",
)


def _fastq(path: str, chunks: Iterator[bytes]) -> Iterator[ReadBlock]:
    # a block ends after the last whole group of four lines; ``lines`` line breaks are pending
    rid, lines, pending = 0, 0, []
    for chunk in chunks:
        total = lines + chunk.count(b"\n")
        pending.append(chunk)
        if total < 4:
            lines = total
            continue
        end = len(chunk)
        for _ in range(total % 4 + 1):
            end = chunk.rfind(b"\n", 0, end)
        pending[-1] = chunk[: end + 1]
        data = b"".join(pending)
        pending, lines = [chunk[end + 1 :]], total % 4
        yield from _fastq_block(path, data, rid)
        rid += total // 4
    yield from _fastq_block(path, b"".join(pending), rid)


def _fastq_block(path: str, data: bytes, rid: int) -> Iterator[ReadBlock]:
    """The records of ``data``, which starts with a record's first line; ``rid`` reads precede it."""
    if not data:
        return
    raw, starts, ends = _lines(data)
    firsts, sizes = raw[starts], ends - starts
    whole = len(starts) // 4
    faults = np.stack(
        [
            firsts[0::4][:whole] != ord("@"),
            sizes[1::4][:whole] == 0,
            firsts[2::4][:whole] != ord("+"),
            sizes[3::4][:whole] != sizes[1::4][:whole],
        ]
    )
    bad = np.flatnonzero(faults.any(axis=0))
    n = bad[0] if len(bad) else whole
    if n:
        seq_lines = np.arange(1, 4 * n, 4)
        yield _block(rid, data, starts, ends, seq_lines, seq_lines - 1, sizes[seq_lines])
    line = 4 * (rid + int(n)) + 1
    if n < whole:
        check = int(np.argmax(faults[:, n]))
        raise ParseError(path, line + check, _FASTQ_FAULTS[check])
    if len(starts) % 4:  # a last record of fewer than four lines
        reason = _FASTQ_FAULTS[0] if firsts[4 * n] != ord("@") else "truncated record (need 4 lines)"
        raise ParseError(path, line, reason)


def open_file_of_files(path: str) -> list[str]:
    """Paths listed one per line; blank lines ignored, order preserved.

    Entries are filesystem bytes, so any name the filesystem holds can be
    listed, whatever the locale's encoding.
    """
    with open(path, "rb") as fh:
        return [os.fsdecode(entry) for entry in map(bytes.strip, fh) if entry]
