"""Build a quasi-dictionary over a static key set and poke at it.

The structure gives every indexed key a stable dense index in [0, N-1]
and rejects almost every foreign key, in a few bits per key.
"""

import tempfile
from pathlib import Path

import numpy as np

from quasidict import QuasiDictionary

rng = np.random.default_rng(2024)


def distinct_draws(size):
    """The sorted distinct values of ``size`` random 62-bit draws."""
    draws = np.sort(rng.integers(0, 1 << 62, size=size, dtype=np.uint64))
    return draws[np.append(True, draws[1:] != draws[:-1])]


# a static set of one million 62-bit keys (think: 31-mer codes)
keys = distinct_draws(1_100_000)[:1_000_000]

qd = QuasiDictionary.create(keys, f=12)
print(f"indexed keys:        {qd.n_keys:,}")
print(f"perfect-hash size:   {qd.mphf.bits_per_key():.2f} bits/key")
print(f"with fingerprints:   {qd.bits_per_key():.2f} bits/key")

# every indexed key answers with its own slot, and the slots are a permutation
slots = qd.query_array(keys)
assert (np.sort(slots) == np.arange(len(keys))).all()
print("indexed keys map bijectively onto 0..N-1")

# a value array of any kind can ride on those slots
lengths = (keys % np.uint64(97)).astype(np.uint8)
values = np.empty(len(keys), dtype=np.uint8)
values[slots] = lengths
probe = int(keys[123_456])
assert values[qd.query(probe)] == probe % 97
print(f"value lookup through the dictionary: key {probe:#x} -> {values[qd.query(probe)]}")

# foreign keys are rejected with probability about 1 - 2**-12
fresh = distinct_draws(200_000)
fresh = np.setdiff1d(fresh, keys, assume_unique=True)
answers = qd.query_array(fresh)
print(f"foreign keys accepted: {(answers >= 0).sum()} of {len(fresh)} "
      f"(expected about {len(fresh) / 4096:.0f})")

# the whole index round-trips through one flat file
with tempfile.TemporaryDirectory() as work:
    qd.save(str(Path(work) / "demo.qdic"))
    back = QuasiDictionary.load(str(Path(work) / "demo.qdic"))
assert back.query(probe) == qd.query(probe)
print("serialized, reloaded, same answers")
