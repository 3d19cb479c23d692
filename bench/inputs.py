"""Seeded inputs for the three workloads.

Every input is a pure function of ``--seed``: the same seed writes the same
bytes. Inputs are made once per benchmark invocation, before any timed
region, and reused by all of its measured runs.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# dict-1e7: random k = 31 codes (62 bits), as c10 and ``qd stats`` use
DICT_KEYS = 10_000_000
DICT_MEMBER_PROBES = 1_000_000
DICT_FOREIGN_PROBES = 1_000_000
DICT_F = 12
DICT_GAMMA = 2.0
KEY_BITS = 62

# counter-short: 20 000 x 100 bp bank reads off a 200 kb genome (about 10x)
COUNTER_GENOME = 200_000
COUNTER_BANK_READS = 20_000
COUNTER_READ_LEN = 100
COUNTER_QUERY_READS = 4_000  # half from the bank genome, half from an unrelated one
COUNTER_K = 31
COUNTER_T = 2
COUNTER_ARGS = ["-k", str(COUNTER_K), "-t", str(COUNTER_T), "-f", "12", "--threads", "1"]

# linker-long: the c08 long-read simulation at 15% error, linked against itself
LINKER_SIM_ARGS = [
    "--genome-len", "10000000", "--spots", "20", "--read-len", "2000",
    "--reads-per-spot", "50", "--error-rate", "0.15", "--gap", "500",
]  # fmt: skip
LINKER_ARGS = ["-k", "15", "-w", "600", "-s", "8", "--threads", "1"]

_MASK = (1 << KEY_BITS) - 1
_COMPLEMENT = str.maketrans("ACGT", "TGCA")


def _permute62(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A seeded bijection on [0, 2**62): xor, odd multiplies and xor-shifts.

    Distinct inputs give distinct outputs, so members and foreign keys come
    from disjoint index ranges without any set arithmetic.
    """
    mask = np.uint64(_MASK)
    c0, m1, m2 = (int(v) for v in rng.integers(0, 1 << KEY_BITS, size=3, dtype=np.uint64))
    x = (x ^ np.uint64(c0)) & mask
    x = (x * np.uint64(m1 | 1)) & mask
    x ^= x >> np.uint64(31)
    x = (x * np.uint64(m2 | 1)) & mask
    x ^= x >> np.uint64(29)
    return x


def dict_inputs(seed: int, workdir: str) -> dict:
    """Member keys (build order is the generated order) and foreign probes."""
    rng = np.random.default_rng([seed, 1])
    idx = np.arange(DICT_KEYS + DICT_FOREIGN_PROBES, dtype=np.uint64)
    codes = _permute62(idx, rng)
    keys_path = os.path.join(workdir, "keys.npy")
    foreign_path = os.path.join(workdir, "foreign.npy")
    np.save(keys_path, codes[:DICT_KEYS])
    np.save(foreign_path, codes[DICT_KEYS:])
    return {
        "keys_path": keys_path,
        "foreign_path": foreign_path,
        "sizes": {
            "keys": DICT_KEYS,
            "member_probes": DICT_MEMBER_PROBES,
            "foreign_probes": DICT_FOREIGN_PROBES,
            "keys_sha256": _sha256(keys_path),
        },
    }


def _random_genome(rng: np.random.Generator, length: int) -> str:
    return np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, size=length)].tobytes().decode()


def _sample_reads(rng: np.random.Generator, genome: str, n: int) -> list[str]:
    """``n`` reads of COUNTER_READ_LEN at uniform starts, each on a random strand."""
    starts = rng.integers(0, len(genome) - COUNTER_READ_LEN + 1, size=n)
    flips = rng.random(n) < 0.5
    out = []
    for s, flip in zip(starts.tolist(), flips.tolist()):
        read = genome[s : s + COUNTER_READ_LEN]
        out.append(read.translate(_COMPLEMENT)[::-1] if flip else read)
    return out


def _write_fasta(path: str, names: list[str], seqs: list[str]) -> None:
    with open(path, "w") as fh:
        fh.writelines(f">{n}\n{s}\n" for n, s in zip(names, seqs))


def counter_inputs(seed: int, workdir: str) -> dict:
    """Bank FASTA, query FASTA (genome and foreign reads shuffled together) and its FOF."""
    rng = np.random.default_rng([seed, 2])
    genome = _random_genome(rng, COUNTER_GENOME)
    unrelated = _random_genome(rng, COUNTER_GENOME)
    bank = _sample_reads(rng, genome, COUNTER_BANK_READS)
    half = COUNTER_QUERY_READS // 2
    queries = _sample_reads(rng, genome, half) + _sample_reads(rng, unrelated, COUNTER_QUERY_READS - half)
    from_genome = [True] * half + [False] * (COUNTER_QUERY_READS - half)
    order = rng.permutation(COUNTER_QUERY_READS).tolist()
    queries = [queries[i] for i in order]
    from_genome = [from_genome[i] for i in order]

    bank_path = os.path.join(workdir, "bank.fa")
    query_path = os.path.join(workdir, "queries.fa")
    fof_path = os.path.join(workdir, "queries.fof")
    _write_fasta(bank_path, [f"b{i}" for i in range(len(bank))], bank)
    names = [f"q{i}_{'g' if g else 'f'}" for i, g in enumerate(from_genome)]
    _write_fasta(query_path, names, queries)
    with open(fof_path, "w") as fh:
        fh.write(query_path + "\n")
    return {
        "bank_path": bank_path,
        "fof_path": fof_path,
        "bank": bank,
        "queries": queries,
        "query_names": names,
        "sizes": {
            "bank_reads": len(bank),
            "bank_bases": sum(map(len, bank)),
            "query_reads": len(queries),
            "query_bases": sum(map(len, queries)),
            "query_reads_from_genome": sum(from_genome),
            "bank_sha256": _sha256(bank_path),
            "queries_sha256": _sha256(query_path),
        },
    }


def linker_inputs(seed: int, workdir: str, cli_main) -> dict:
    """The c08 simulation through the program's own ``qd sim`` (seed = ``seed``)."""
    reads_path = os.path.join(workdir, "sim.fa")
    truth_path = os.path.join(workdir, "truth.tsv")
    fof_path = os.path.join(workdir, "sim.fof")
    code = cli_main(["sim", *LINKER_SIM_ARGS, "--seed", str(seed), "-o", reads_path, "--truth", truth_path])
    if code != 0:
        raise RuntimeError(f"qd sim exited with {code}")
    with open(fof_path, "w") as fh:
        fh.write(reads_path + "\n")
    n_reads = n_bases = 0
    with open(reads_path) as fh:
        for line in fh:
            if not line.startswith(">"):
                n_reads += 1
                n_bases += len(line.rstrip("\n"))
    with open(truth_path) as fh:
        n_truth = sum(1 for line in fh if line.strip())
    return {
        "bank_path": reads_path,
        "fof_path": fof_path,
        "truth_path": truth_path,
        "sizes": {
            "bank_reads": n_reads,
            "bank_bases": n_bases,
            "query_reads": n_reads,
            "query_bases": n_bases,
            "truth_pairs": n_truth,
            "bank_sha256": _sha256(reads_path),
        },
    }


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
