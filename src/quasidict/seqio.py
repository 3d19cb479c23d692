"""Streaming FASTA/FASTQ reader assigning dense integer read identifiers.

Format is sniffed from the first byte: '>' for FASTA (multi-line
sequences allowed), '@' for FASTQ (strict 4-line records, qualities
discarded). A file that starts with the gzip magic bytes 1f 8b is read
through gzip. Records stream in file order with ids 0, 1, 2, ...

Files are read as latin-1, one character per byte, so any byte passes:
header bytes reach the output unchanged (UTF-8 included), and a byte that
is no nucleotide only drops the k-mer windows that touch it.
"""

from __future__ import annotations

import gzip
import os
import re
import zlib
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Iterator


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


# the ASCII whitespace of str.split(); latin-1 0x85 and 0xa0 also occur inside
# UTF-8 characters, so they must not end a header word
_HEADER_WORD = re.compile(r"[\t\n\v\f\r\x1c-\x1f ]*([^\t\n\v\f\r\x1c-\x1f ]*)")


def _header_word(line: str) -> str:
    return _HEADER_WORD.match(line, 1).group(1)


def open_reads(path: str) -> Iterator[ReadRecord]:
    """Stream records from a FASTA or FASTQ file, plain or gzip, constant memory per record."""
    with open(path, "rb") as fh:
        gzipped = fh.read(2) == b"\x1f\x8b"
    with (gzip.open if gzipped else open)(path, "rt", encoding="latin-1") as fh:
        try:
            first = fh.read(1)
            if first == "":
                return
            fh.seek(0)
            if first == ">":
                yield from _read_fasta(path, fh)
            elif first == "@":
                yield from _read_fastq(path, fh)
            else:
                raise ParseError(path, 1, f"unrecognized first byte {first!r}; expected '>' or '@'")
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ParseError(path, None, f"damaged gzip data: {exc}") from exc


def _read_fasta(path: str, fh) -> Iterator[ReadRecord]:
    # open_reads has read '>' first, so the first line is the first header
    rid, header, header_line, chunks = 0, _header_word(fh.readline()), 1, []
    # the sentinel header after the last line emits the last record
    for lineno, line in enumerate(chain(fh, [">"]), start=2):
        line = line.rstrip("\n")
        if line.startswith(">"):
            seq = "".join(chunks)
            if not seq:
                raise ParseError(path, header_line, "record has empty sequence")
            yield ReadRecord(rid, header, seq)
            rid, header, header_line, chunks = rid + 1, _header_word(line), lineno, []
        elif line:
            chunks.append(line)


def _read_fastq(path: str, fh) -> Iterator[ReadRecord]:
    lines = (line.rstrip("\n") for line in fh)
    # four lines per record; a short last record is padded with None
    for rid, (head, seq, plus, qual) in enumerate(zip_longest(lines, lines, lines, lines)):
        lineno = 4 * rid + 1
        if not head.startswith("@"):
            raise ParseError(path, lineno, "expected '@' header line")
        if qual is None:
            raise ParseError(path, lineno, "truncated record (need 4 lines)")
        if not seq:
            raise ParseError(path, lineno + 1, "record has empty sequence")
        if not plus.startswith("+"):
            raise ParseError(path, lineno + 2, "expected '+' separator line")
        if len(qual) != len(seq):
            raise ParseError(path, lineno + 3, "quality length differs from sequence length")
        yield ReadRecord(rid, _header_word(head), seq)


def open_file_of_files(path: str) -> list[str]:
    """Paths listed one per line; blank lines ignored, order preserved.

    Entries are filesystem bytes, so any name the filesystem holds can be
    listed, whatever the locale's encoding.
    """
    with open(path, "rb") as fh:
        return [os.fsdecode(entry) for entry in map(bytes.strip, fh) if entry]
