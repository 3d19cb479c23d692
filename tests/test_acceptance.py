"""Acceptance suite: one test per release criterion, one printed line each.

The oracles here avoid the library's own bit-level machinery: k-mers are
canonicalized as strings, counts live in plain dicts, coverage is marked
in plain lists. Criterion data sets are frozen by seed.
"""

import time
from itertools import cycle
from pathlib import Path

import numpy as np
import pytest

from quasidict.cli import build_parser, main, stats_run
from quasidict.core import QuasiDictionary
from quasidict.counter import build_counter_index, count_read
from quasidict.evaluation import load_truth, pairs_from_linker_output, score
from quasidict.linker import build_linker_index, link_read
from quasidict.mphf import Mphf
from quasidict.seqio import ReadRecord

from conftest import distinct_draw

_COMP = str.maketrans("ACGT", "TGCA")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _canon_str(w: str) -> str:
    return min(w, w.translate(_COMP)[::-1])


def _distinct_codes(n, seed, bits=62):
    pool = distinct_draw(np.random.default_rng(seed), int(1.25 * n) + 64, bits)
    assert len(pool) >= n
    return pool[:n]


# --------------------------------------------------------------------------
# shared data sets
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def million():
    pool = _distinct_codes(2_000_000, seed=101)
    return pool[:1_000_000], pool[1_000_000:]


@pytest.fixture(scope="module")
def counter_bank(tmp_path_factory):
    """10,000 reads of length 100 with controlled k-mer multiplicities.

    Half the reads are exact duplicates (template multiplicity 2..6): every
    window solid. The other half share a 65-base prefix within a duplicated
    pair but carry a unique 35-base tail: tail windows are seen once, stay
    below t=2, and exercise the false-positive path at small f.
    """
    rng = np.random.default_rng(4242)
    bases = np.array(list("ACGT"))

    def rand_seq(n):
        return "".join(bases[rng.integers(0, 4, size=n)])

    reads = []
    mults = cycle((2, 3, 4, 5, 6))
    while len(reads) < 5000:
        m = next(mults)
        reads.extend([rand_seq(100)] * m)
    reads = reads[:5000]
    while len(reads) < 10_000:
        prefix = rand_seq(65)
        reads.append(prefix + rand_seq(35))
        reads.append(prefix + rand_seq(35))
    path = tmp_path_factory.mktemp("counter") / "bank.fa"
    with open(path, "w") as fh:
        for i, s in enumerate(reads):
            fh.write(f">r{i}\n{s}\n")
    return str(path), reads


@pytest.fixture(scope="module")
def counter_oracle(counter_bank):
    """Brute-force recount: dict of canonical 31-mer counts over the bank,
    then per-read stats over solid (count >= 2) window hits."""
    _, reads = counter_bank
    k, t = 31, 2
    counts = {}
    for s in reads:
        for i in range(len(s) - k + 1):
            w = _canon_str(s[i : i + k])
            counts[w] = counts.get(w, 0) + 1
    per_read = []
    for s in reads:
        got = []
        for i in range(len(s) - k + 1):
            n = counts.get(_canon_str(s[i : i + k]), 0)
            if n >= t:
                got.append(min(n, 255))
        if got:
            ordered = sorted(got)
            per_read.append(
                (len(got), sum(got) / len(got), ordered[(len(got) - 1) // 2], ordered[0], ordered[-1])
            )
        else:
            per_read.append(None)
    return per_read


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------


def test_c01_mphf_bijectivity():
    start = time.perf_counter()
    for n in (1, 2, 10, 1_000, 100_000, 1_000_000):
        keys = _distinct_codes(n, seed=1000 + n)
        m = Mphf.construct(keys)
        got = np.sort(m.lookup_array(keys))
        assert (got == np.arange(n)).all(), f"bijection broken at N={n}"
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 30, f"bijective for N up to 1e6 in {elapsed:.1f}s (< 30s)")


def test_c02_false_positive_rates(million):
    keys, probes = million
    start = time.perf_counter()
    bands = {12: (1.0e-4, 5.0e-4), 8: (1.6e-3, 9.8e-3), 16: (6e-6, 4e-5)}
    seen = {}
    for f, (lo, hi) in bands.items():
        qd = QuasiDictionary.create(keys, f=f, k=31)
        rate = float((qd.query_array(probes) >= 0).mean())
        seen[f] = rate
        assert lo <= rate <= hi, f"f={f}: fp rate {rate:.3e} outside [{lo:.1e}, {hi:.1e}]"
    elapsed = time.perf_counter() - start
    _report(
        2,
        elapsed < 120,
        "fp rates " + " ".join(f"f={f}:{seen[f]:.2e}" for f in (8, 12, 16)) + f" in {elapsed:.1f}s (< 2min)",
    )


def test_c03_exact_mode_no_false_positives(million):
    keys, probes = million
    qd = QuasiDictionary.create(keys, f=62, k=31)
    fp = int((qd.query_array(probes) >= 0).sum())
    _report(3, fp == 0, f"f=62, k=31: {fp} false positives over 1e6 probes")


def test_c04_memory_accounting(million):
    keys, _ = million
    qd = QuasiDictionary.create(keys, f=12, gamma=2.0, k=31)
    bpk = qd.bits_per_key()
    fg_bits = len(qd.fg_words) * 64
    payload = qd.fingerprint_bits()
    tight = payload <= fg_bits <= payload + 64
    _report(
        4,
        bpk <= 16.0 and tight,
        f"total {bpk:.2f} bits/key (<= 16), fingerprint words {fg_bits} bits for {payload} payload",
    )


def test_c05_counter_matches_bruteforce(counter_bank, counter_oracle):
    path, reads = counter_bank
    start = time.perf_counter()
    index = build_counter_index(path, k=31, t=2, f=62)
    mismatches = 0
    for rid, seq in enumerate(reads):
        got = count_read(index, ReadRecord(rid, f"r{rid}", seq))
        want = counter_oracle[rid]
        if want is None:
            ok = got is None
        else:
            ok = got is not None and want == (
                got.n_indexed,
                got.mean,
                got.median,
                got.min_count,
                got.max_count,
            )
        mismatches += not ok
    elapsed = time.perf_counter() - start
    _report(
        5,
        mismatches == 0 and elapsed < 60,
        f"exact match with recount oracle on 1e4 reads ({mismatches} mismatches) in {elapsed:.1f}s (< 1min)",
    )


def test_c06_overestimation_bounded(counter_bank):
    path, reads = counter_bank
    exact = build_counter_index(path, k=31, t=2, f=62)
    noisy = build_counter_index(path, k=31, t=2, f=12)
    gaps = []
    exact_means = []
    extra_hits = 0
    violations = 0
    for rid, seq in enumerate(reads):
        read = ReadRecord(rid, f"r{rid}", seq)
        a = count_read(exact, read)
        b = count_read(noisy, read)
        if a is None:
            continue
        exact_means.append(a.mean)
        gaps.append(b.mean - a.mean)
        extra_hits += b.n_indexed - a.n_indexed
        if b.mean < a.mean - 1e-12:
            violations += 1
    avg_gap = float(np.mean(gaps))
    avg_exact = float(np.mean(exact_means))
    ok = violations == 0 and extra_hits > 0 and avg_gap <= 0.01 * avg_exact
    _report(
        6,
        ok,
        f"{violations} per-read violations, {extra_hits} fp hits, "
        f"avg over-estimation {avg_gap:.2e} vs 1% bound {0.01 * avg_exact:.2e}",
    )


@pytest.fixture(scope="module")
def linker_reads(tmp_path_factory):
    rng = np.random.default_rng(777)
    bases = np.array(list("ACGT"))
    genome = "".join(bases[rng.integers(0, 4, size=2000)])
    reads = []
    for _ in range(500):
        start = int(rng.integers(0, len(genome) - 100 + 1))
        s = genome[start : start + 100]
        if rng.random() < 0.5:
            s = s.translate(_COMP)[::-1]
        reads.append(s)
    path = tmp_path_factory.mktemp("linker") / "bank.fa"
    with open(path, "w") as fh:
        for i, s in enumerate(reads):
            fh.write(f">r{i}\n{s}\n")
    return str(path), reads


def test_c07_linker_matches_quadratic_oracle(linker_reads):
    path, reads = linker_reads
    k, t = 21, 1
    start = time.perf_counter()

    # oracle: string k-mer sets, candidate pairs from a plain inverted index,
    # coverage marked positionally in python lists
    kmers_of = []
    containing = {}
    for rid, s in enumerate(reads):
        ks = {}
        for i in range(len(s) - k + 1):
            ks.setdefault(_canon_str(s[i : i + k]), []).append(i)
        kmers_of.append(ks)
        for w in ks:
            containing.setdefault(w, set()).add(rid)
    expected = {}
    for qi, s in enumerate(reads):
        candidates = set()
        for w in kmers_of[qi]:
            candidates |= containing[w]
        candidates.discard(qi)
        for ti in candidates:
            covered = [False] * len(s)
            tset = kmers_of[ti]
            for w, positions in kmers_of[qi].items():
                if w in tset:
                    for i in positions:
                        covered[i : i + k] = [True] * k
            total = sum(covered)
            if total >= 1:
                expected[(qi, ti)] = total

    index = build_linker_index(path, k=k, t=t, f=62)
    got = {}
    for qi, s in enumerate(reads):
        for m in link_read(index, ReadRecord(qi, f"r{qi}", s), threshold=1, exclude_self=True):
            got[(qi, m.target_id)] = m.score
    elapsed = time.perf_counter() - start
    same = got == expected
    _report(
        7,
        same and elapsed < 60,
        f"{len(got)} scored pairs equal quadratic oracle in {elapsed:.1f}s (< 1min)",
    )


def test_c08_longread_desk_experiment(tmp_path):
    start = time.perf_counter()
    results = {}
    for error_rate, window in ((0.12, 2000), (0.15, 600)):
        tag = f"{int(error_rate * 100)}"
        reads = str(tmp_path / f"reads{tag}.fa")
        truth_file = str(tmp_path / f"truth{tag}.tsv")
        assert main([
            "sim", "--genome-len", "10000000", "--spots", "20", "--read-len", "2000",
            "--reads-per-spot", "50", "--error-rate", str(error_rate), "--gap", "500",
            "--seed", "1", "-o", reads, "--truth", truth_file,
        ]) == 0
        fof = tmp_path / f"fof{tag}.txt"
        fof.write_text(reads + "\n")
        out = str(tmp_path / f"links{tag}.txt")
        assert main([
            "linker", "-b", reads, "-q", str(fof), "-o", out,
            "-k", "15", "-w", str(window), "-s", "8",
        ]) == 0
        recall, precision, _ = score(pairs_from_linker_output(out), load_truth(truth_file))
        results[error_rate] = (recall, precision)
    elapsed = time.perf_counter() - start
    ok = all(r >= 0.90 and p >= 0.90 for r, p in results.values()) and elapsed < 180
    detail = " ".join(
        f"{int(e * 100)}%err: recall={r:.3f} precision={p:.3f}" for e, (r, p) in results.items()
    )
    _report(8, ok, f"{detail} in {elapsed:.0f}s (< 3min)")


def test_c09_cli_determinism(tmp_path, capsys):
    rng = np.random.default_rng(9)
    bases = np.array(list("ACGT"))
    genome = "".join(bases[rng.integers(0, 4, size=1500)])
    seqs = []
    for _ in range(80):
        at = int(rng.integers(0, 1401))
        seqs.append(genome[at : at + 100])
    bank = tmp_path / "bank.fa"
    bank.write_text("".join(f">r{i}\n{s}\n" for i, s in enumerate(seqs)))
    fof = tmp_path / "fof.txt"
    fof.write_text(str(bank) + "\n")

    def of(name):
        return str(tmp_path / name)

    runs = {
        "counter": lambda tag, thr: main([
            "counter", "-b", str(bank), "-q", str(fof), "-o", of(f"c{tag}"),
            "-k", "21", "-t", "1", "--seed", "11", "--threads", thr,
        ]),
        "linker": lambda tag, thr: main([
            "linker", "-b", str(bank), "-q", str(fof), "-o", of(f"l{tag}"),
            "-k", "21", "-t", "1", "-s", "1", "--seed", "11", "--threads", thr,
        ]),
        "sim": lambda tag, thr: main([
            "sim", "--genome-len", "50000", "--spots", "5", "--read-len", "500",
            "--reads-per-spot", "4", "--error-rate", "0.1", "--seed", "3",
            "--threads", thr, "-o", of(f"s{tag}.fa"), "--truth", of(f"s{tag}.tsv"),
        ]),
    }
    identical = True
    for name, run in runs.items():
        for tag, thr in (("1", "1"), ("2", "8"), ("3", "1")):
            assert run(tag, thr) == 0
        if name == "sim":
            blobs = [Path(of(f"s{t}.fa")).read_bytes() + Path(of(f"s{t}.tsv")).read_bytes() for t in "123"]
        else:
            blobs = [Path(of(f"{name[0]}{t}")).read_bytes() for t in "123"]
        identical &= blobs[0] == blobs[1] == blobs[2]

    # score: deterministic stdout
    fof2 = tmp_path / "fof2.txt"
    fof2.write_text(of("s1.fa") + "\n")
    assert main(["linker", "-b", of("s1.fa"), "-q", str(fof2), "-o", of("ls"),
                 "-k", "15", "-t", "2", "-s", "8"]) == 0
    outs = []
    for _ in range(2):
        assert main(["score", "--pred", of("ls"), "--truth", of("s1.tsv")]) == 0
        outs.append(capsys.readouterr().out)
    identical &= outs[0] == outs[1]

    # stats: no output file; deterministic measurements
    parser = build_parser()
    fields = []
    for thr in ("1", "8"):
        args = parser.parse_args([
            "stats", "--random-keys", "30000", "-f", "12", "--probes", "100000",
            "--seed", "7", "--threads", thr,
        ])
        r = stats_run(args)
        fields.append((r["n_keys"], r["false_positives"], r["total_bits_per_key"]))
    identical &= fields[0] == fields[1]

    _report(9, identical, "counter/linker/sim/score/stats byte-identical across reruns and --threads 1 vs 8")


def test_c10_throughput(capsys):
    parser = build_parser()
    args = parser.parse_args([
        "stats", "--random-keys", "10000000", "-f", "12", "--probes", "1000000", "--seed", "13",
    ])
    r = stats_run(args)
    ok = r["build_seconds"] < 60 and r["queries_per_second"] >= 1_000_000
    _report(
        10,
        ok,
        f"1e7-key construction {r['build_seconds']:.1f}s (< 60s), "
        f"{r['queries_per_second']:.2e} queries/s (>= 1e6)",
    )
