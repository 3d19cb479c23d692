"""Estimate how abundant each query read is in a sequence bank.

The bank's solid k-mers (seen >= t times) are indexed with their counts;
a query read then reports the mean/median/min/max of the counts its
k-mers retrieve. The mean tracks the read's copy number in the bank.
"""

import tempfile
from pathlib import Path

import numpy as np

from quasidict import ReadRecord, build_counter_index, count_read

rng = np.random.default_rng(11)
BASES = np.array(list("ACGT"))


def random_read(n):
    return "".join(BASES[rng.integers(0, 4, size=n)])


# a bank where template copy numbers are known: 2x, 5x and 9x
templates = {name: random_read(120) for name in ("dup2", "dup5", "dup9")}
multiplicity = {"dup2": 2, "dup5": 5, "dup9": 9}
with tempfile.TemporaryDirectory() as work:
    bank_path = Path(work) / "bank.fa"
    with open(bank_path, "w") as fh:
        i = 0
        for name, seq in templates.items():
            for _ in range(multiplicity[name]):
                fh.write(f">b{i}\n{seq}\n")
                i += 1
    index = build_counter_index(str(bank_path), k=31, t=2, f=12)
print(f"solid 31-mers indexed: {index.qd.n_keys}")

print(f"\n{'query':>8} {'kmers':>6} {'mean':>6} {'median':>7} {'min':>4} {'max':>4}")
for name, seq in templates.items():
    stats = count_read(index, ReadRecord(0, name, seq))
    print(f"{name:>8} {stats.n_indexed:>6} {stats.mean:>6.2f} "
          f"{stats.median:>7} {stats.min_count:>4} {stats.max_count:>4}")

absent = count_read(index, ReadRecord(0, "absent", random_read(120)))
print(f"{'absent':>8} -> {absent}")

print("\nEach mean matches the template's copy number; a read the bank has")
print("never seen finds no indexed k-mer at all.")
