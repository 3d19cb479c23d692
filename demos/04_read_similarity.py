"""Find reads that genuinely overlap each other via shared k-mers.

Reads sampled from overlapping genome windows share long runs of
k-mers; the linker scores each candidate target by how many query
positions those shared k-mers cover.
"""

import tempfile
from pathlib import Path

import numpy as np

from quasidict import ReadRecord, build_linker_index, link_read

rng = np.random.default_rng(5)
BASES = np.array(list("ACGT"))
genome = "".join(BASES[rng.integers(0, 4, size=3000)])

# tile reads every 40 bases: neighbours overlap by 80 of 120 bases
reads = [genome[s : s + 120] for s in range(0, 2880, 40)]
with tempfile.TemporaryDirectory() as work:
    bank_path = Path(work) / "bank.fa"
    with open(bank_path, "w") as fh:
        for i, seq in enumerate(reads):
            fh.write(f">tile{i}\n{seq}\n")
    index = build_linker_index(str(bank_path), k=21, t=1, f=12)
print(f"bank reads:            {index.n_targets}")
print(f"solid 21-mers indexed: {index.qd.n_keys}")
print(f"mean posting length:   {len(index.ids) / index.qd.n_keys:.2f} reads/k-mer")

q = 30
matches = link_read(index, ReadRecord(q, f"tile{q}", reads[q]), threshold=10, exclude_self=True)
print(f"\ntargets similar to tile{q} (threshold 10 covered positions):")
for m in matches:
    offset = (m.target_id - q) * 40
    print(f"  tile{m.target_id:<3} score={m.score:<4} genome offset {offset:+d}")

print("\nScores fall off with distance exactly as the overlaps shrink;")
print("a window (-w) restricts the measure to the best local stretch instead.")
