"""End-to-end: simulate noisy long reads, link them, score the predictions.

Reads are planted on separated genome spots, so two reads are truly
similar exactly when they come from the same spot. That ground truth
makes recall and precision of the linker directly measurable.
"""

import tempfile
from pathlib import Path

from quasidict import SimConfig, simulate
from quasidict.evaluation import pairs_from_linker_output, score
from quasidict.linker import run_linker

cfg = SimConfig(
    genome_length=1_000_000,
    n_spots=8,
    read_length=1500,
    reads_per_spot=12,
    error_rate=0.12,
    spot_min_gap=500,
    rng_seed=42,
)
with tempfile.TemporaryDirectory() as work:
    reads, links = Path(work) / "reads.fa", Path(work) / "links.txt"
    truth = simulate(cfg, str(reads))
    with open(links, "w") as out:
        run_linker(str(reads), [str(reads)], out, k=15, t=2, f=12, threshold=8, window=1500)
    predicted = pairs_from_linker_output(str(links))
print(f"simulated {cfg.n_spots * cfg.reads_per_spot} reads on {cfg.n_spots} spots "
      f"at {cfg.error_rate:.0%} error; {len(truth)} true pairs")
recall, precision, f_measure = score(predicted, truth)
print(f"predicted pairs: {len(predicted)}")
print(f"recall:    {100 * recall:.2f}%")
print(f"precision: {100 * precision:.2f}%")
print(f"F-measure: {100 * f_measure:.2f}%")

print("\nThe same pipeline runs from the shell:")
print("  qd sim --genome-len 1000000 --spots 8 --read-len 1500 --reads-per-spot 12 \\")
print("     --error-rate 0.12 --seed 42 -o reads.fa --truth truth.tsv")
print("  qd linker -b reads.fa -q fof.txt -k 15 -w 1500 -s 8 -o links.txt")
print("  qd score --pred links.txt --truth truth.tsv")
