"""Pinned counter and linker index bytes on a fixed simulated bank.

Any change to how the bank is scanned, thresholded, hashed or turned into
posting lists shows up here as a changed digest; a rewrite of the build
pipelines must leave these bytes alone.
"""

import hashlib

import pytest

from quasidict.counter import build_counter_index
from quasidict.evaluation import SimConfig, simulate
from quasidict.linker import build_linker_index


@pytest.fixture(scope="module")
def bank(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pins") / "bank.fa")
    cfg = SimConfig(
        genome_length=60_000, n_spots=6, read_length=800, reads_per_spot=8, error_rate=0.12, rng_seed=5
    )
    simulate(cfg, path)
    return path


def test_linker_index_is_pinned(bank):
    index = build_linker_index(bank, k=15, t=2, f=12)
    assert (len(index.ids), index.qd.n_keys, index.n_targets) == (5249, 2193, 48)
    blob = index.offsets.astype("<i8").tobytes() + index.ids.astype("<i4").tobytes() + index.qd.serialize()
    assert hashlib.sha256(blob).hexdigest() == "709769b631c706b954be74132f38b72008a25a113ecd07c8b594907d8d635062"


def test_counter_index_is_pinned(bank):
    index = build_counter_index(bank, k=15, t=2, f=12)
    blob = index.counts.tobytes() + index.qd.serialize()
    assert hashlib.sha256(blob).hexdigest() == "2fdfd97c371fb5fa99fb18d2bcb9de36d34893eab30498777601d6e259e20364"
