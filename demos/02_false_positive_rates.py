"""How the fingerprint width f trades memory against false positives.

Each extra fingerprint bit halves the probability that a non-indexed
key slips through; at f = 62 with 31-base k-mers the fingerprint IS the
k-mer, so false positives vanish entirely.
"""

import numpy as np

from quasidict import QuasiDictionary

rng = np.random.default_rng(7)
draws = np.sort(rng.integers(0, 1 << 62, size=1_300_000, dtype=np.uint64))
pool = draws[np.append(True, draws[1:] != draws[:-1])]  # distinct, sorted
keys, probes = pool[:600_000], pool[600_000:1_100_000]

print(f"{'f':>3} {'bits/key':>9} {'observed fp':>12} {'expected':>10}")
for f in (8, 10, 12, 16, 20, 62):
    qd = QuasiDictionary.create(keys, f=f, k=31)
    fp = float((qd.query_array(probes) >= 0).mean())
    print(f"{f:>3} {qd.bits_per_key():>9.2f} {fp:>12.3e} {2.0 ** -f:>10.3e}")

print()
print("f=62 stores the full 62-bit code of each 31-mer: exact membership,")
print("still a fraction of what a hash table would need for the same keys.")
