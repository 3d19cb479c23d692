"""Mutated input bytes through ``cli.main``: every run ends in exit status 0 or 1,
at most one ``qd <command>: error:`` line, no traceback and no temporary file.

The inputs are small valid FASTA/FASTQ read sets (plain or gzip) and linker
output and truth files, with random bytes deleted, inserted, overwritten or cut
off; a gzip file may be damaged before or after compression."""

import contextlib
import gzip
import io
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasidict.cli import main

from conftest import random_genome, reads_from_genome

_RNG = np.random.default_rng(22)
_GENOME = random_genome(_RNG, 300)
_READS = reads_from_genome(_RNG, _GENOME, 12, 60)


def fasta(seqs):
    return "".join(f">r{i} x\n{s[:30]}\n{s[30:]}\n" for i, s in enumerate(seqs)).encode()


def fastq(seqs):
    return "".join(f"@r{i}\n{s}\n+\n{'I' * len(s)}\n" for i, s in enumerate(seqs)).encode()


# a byte anywhere, or one that shapes records: header marks, separators, line ends, N
noise = st.binary(min_size=1, max_size=4) | st.sampled_from([b">", b"@", b"+", b"\n", b"\r", b"N", b"\x1f\x8b"])


@st.composite
def mutated(draw, data):
    """``data`` with up to four edits at random places: delete, insert, overwrite or cut."""
    out = bytearray(data)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(out)))
        kind = draw(st.sampled_from(["delete", "insert", "overwrite", "cut"]))
        if kind == "delete":
            del out[at : at + draw(st.integers(1, 8))]
        elif kind == "insert":
            out[at:at] = draw(noise)
        elif kind == "overwrite":
            piece = draw(noise)
            out[at : at + len(piece)] = piece
        else:
            del out[at:]
    return bytes(out)


@st.composite
def read_set(draw):
    """Read-set bytes: FASTA or FASTQ, mutated, then maybe gzipped and mutated again."""
    seqs = draw(st.sampled_from([_READS[:6], _READS[6:], _READS[::3]]))
    data = draw(mutated((fasta if draw(st.booleans()) else fastq)(seqs)))
    if draw(st.booleans()):
        data = gzip.compress(data, mtime=0)
        if draw(st.booleans()):
            data = draw(mutated(data))
    return data


def run(command, argv, files, out_dir):
    """``main([command, *argv])`` with ``files`` written first; checks the contract, returns stdout."""
    for name, data in files.items():
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([command, *argv])
    err = stderr.getvalue()
    assert rc in (0, 1)
    assert "Traceback" not in err
    assert err.count("\n") <= 1
    assert (rc == 1) == err.startswith(f"qd {command}: error:")
    assert not [name for name in os.listdir(out_dir) if name.endswith(".tmp")]
    return stdout.getvalue()


@settings(deadline=None, max_examples=250, suppress_health_check=[HealthCheck.too_slow])
@given(read_set(), read_set(), st.sampled_from(["counter", "linker"]), st.sampled_from([1, 3, 15, 31]))
def test_mutated_read_sets_end_in_output_or_one_error_line(bank, query, command, k):
    with tempfile.TemporaryDirectory() as work:
        bank_path, query_path, fof, out = (os.path.join(work, name) for name in ("bank", "query", "fof", "out"))
        argv = ["-b", bank_path, "-q", fof, "-o", out, "-k", str(k), "-t", "1"]
        if command == "linker":
            argv += ["-s", "1"]
        run(command, argv, {"bank": bank, "query": query, "fof": f"{query_path}\n".encode()}, work)


PRED = b"0:1-40 2-35\n1:0-40\n2:0-35@4\n3:\n"
TRUTH = b"0\t1\n0\t2\n1\t3\n"


@settings(deadline=None, max_examples=150)
@given(mutated(PRED), mutated(TRUTH))
def test_mutated_score_inputs_end_in_a_score_or_one_error_line(pred, truth):
    with tempfile.TemporaryDirectory() as work:
        argv = ["--pred", os.path.join(work, "pred"), "--truth", os.path.join(work, "truth")]
        printed = run("score", argv, {"pred": pred, "truth": truth}, work)
        assert printed.count("\n") <= 1
