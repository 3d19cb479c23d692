"""Pinned output bytes of the read tools on small seeded inputs.

A rewrite of how the tools scan, query or score must leave these digests
alone. The linker input is a noisy long-read sim of 80 reads, which the
query loop takes in three batches; the counter input is a seeded bank of
short reads and a query set that is half foreign.
"""

import hashlib

import numpy as np
import pytest

from quasidict.cli import main

from conftest import random_genome, reads_from_genome, write_fasta


def run_tool(tmp_path, argv, bank, query):
    fof = tmp_path / "fof.txt"
    fof.write_text(query + "\n")
    out = tmp_path / "out.txt"
    assert main([argv[0], "-b", bank, "-q", str(fof), "-o", str(out), *argv[1:]]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def long_reads(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("long")
    reads, truth = str(tmp / "reads.fa"), str(tmp / "truth.tsv")
    argv = ["sim", "--genome-len", "200000", "--spots", "4", "--read-len", "2000", "--reads-per-spot", "20"]
    argv += ["--error-rate", "0.15", "--gap", "500", "--seed", "1", "-o", reads, "--truth", truth]
    assert main(argv) == 0
    return reads


@pytest.mark.parametrize(
    "options, digest",
    [
        (["-f", "4"], "e16a73d195a80df85ca1296402710eba2aa875a7be015334a3eb5e886db89ed5"),
        (["-f", "12"], "d8ed0bd8284aa34596250e4ad9d5285bd88130aa1a86c33d72739af64d2d5bb0"),
        (["-f", "4", "-w", "600"], "189bfd39300cc9642524d00dc44827bfe58d8e793b51d4b31846b3d49657c307"),
        (["-f", "12", "-w", "600"], "d313942e070a93f862e1cdd12cb14aa920174b425caf01f7724467b74297685f"),
    ],
)
def test_linker_output_is_pinned(tmp_path, long_reads, options, digest):
    argv = ["linker", "-k", "15", "-s", "8", *options]
    assert run_tool(tmp_path, argv, long_reads, long_reads) == digest


def test_counter_output_is_pinned(tmp_path):
    rng = np.random.default_rng(7)
    genome = random_genome(rng, 20_000)
    bank = write_fasta(tmp_path / "bank.fa", reads_from_genome(rng, genome, 2_000, 100))
    queries = reads_from_genome(rng, genome, 200, 100) + reads_from_genome(rng, random_genome(rng, 5_000), 200, 100)
    query = write_fasta(tmp_path / "query.fa", queries, prefix="q")
    argv = ["counter", "-k", "31", "-t", "2", "-f", "12"]
    assert run_tool(tmp_path, argv, bank, query) == "262d5b8a8f6d207b7c28ae62766a9ab4937cf34cfd8f7cf584ba4b09ad1a477d"
