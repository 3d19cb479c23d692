"""The benchmark's tracer wraps quasidict callables by name; every name it
lists must still resolve, and every count hook must still read what the
wrapped callable returns, so a rename or a changed return type in src/ fails
here, not only in a traced benchmark run."""

import types
from pathlib import Path

import numpy as np
import pytest

from quasidict import kcount, linker
from quasidict.cli import main
from quasidict.seqio import ReadRecord

from conftest import random_genome, reads_from_genome, write_fasta

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # executed from its source text, so nothing is written under bench/
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves(tracing):
    specs = [*tracing.FUNCTIONS.values(), *tracing.METHODS.values()]
    assert specs
    for spec in specs:
        assert callable(tracing.resolve(spec)), spec


def test_traced_runs_fill_every_count_hook(tracing, tmp_path):
    rng = np.random.default_rng(4)
    genome = random_genome(rng, 600)
    bank = write_fasta(tmp_path / "bank.fa", reads_from_genome(rng, genome, 40, 60))
    n_queries = 12
    fof = tmp_path / "fof.txt"
    queries = reads_from_genome(rng, genome, n_queries, 60)
    fof.write_text(write_fasta(tmp_path / "q.fa", queries) + "\n")
    index = linker.build_linker_index(bank, k=11, t=1)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        for command in ("counter", "linker"):
            out = str(tmp_path / f"{command}.out")
            assert main([command, "-b", bank, "-q", str(fof), "-o", out, "-k", "11", "-t", "1"]) == 0
        # the tools link a batch at a time, so link_read's hook reads a direct call
        linker.link_read(index, ReadRecord(0, "q", queries[0]), threshold=1)
    finally:
        patches.restore()
    counts = tracer.counts
    assert all(counts[name]["calls"] > 0 for name in tracer.hooks)
    assert counts["mphf.construct"]["levels"] > 0
    assert counts["linker.build_linker_index"]["postings"] > 0
    assert counts["linker.link_read"]["links"] > 0
    # one query per batch: each tool's n_queries reads fit one batch, and the
    # direct call is a batch of one; the builds take their slots from construction
    assert n_queries * 61 < kcount.BATCH_BASES
    assert counts["core.query_array"]["calls"] == 2 + 1
