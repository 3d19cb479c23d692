"""Shared-k-mer linking versus a quadratic pairwise coverage oracle."""

import io
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasidict import kcount, kmer, linker, seqio
from quasidict.cli import main
from quasidict.core import QuasiDictionary
from quasidict.evaluation import SimConfig, simulate
from quasidict.kmer import scan_kmers
from quasidict.linker import MatchResult, build_linker_index, format_link_line, link_read, run_linker
from quasidict.seqio import ReadRecord

from conftest import random_genome, reads_from_genome, traced_peak, window_oracle, write_fasta


def kmer_set(seq, k):
    return {code for _, code in window_oracle(seq, k)}


def solid_set(seqs, k, t):
    counts = Counter(code for s in seqs for _, code in window_oracle(s, k))
    return {c for c, n in counts.items() if n >= t}


def coverage_oracle(query, target_kmers, k, solid):
    """Positions of the query covered by a solid k-mer present in the target."""
    covered = [False] * len(query)
    for i, code in window_oracle(query, k):
        if code in solid and code in target_kmers:
            for p in range(i, i + k):
                covered[p] = True
    return covered


def pairwise_oracle(seqs, k, t, threshold, window=None):
    """Quadratic oracle over ordered pairs of a set compared with itself."""
    solid = solid_set(seqs, k, t)
    kms = [kmer_set(s, k) & solid for s in seqs]
    results = {}
    for qi, q in enumerate(seqs):
        for ti in range(len(seqs)):
            if ti == qi:
                continue
            cov = coverage_oracle(q, kms[ti], k, solid)
            if window is None or window >= len(q):
                score = sum(cov)
            else:
                best = 0
                for s in range(len(q) - window + 1):
                    best = max(best, sum(cov[s : s + window]))
                score = best
            if score >= threshold:
                results[(qi, ti)] = score
    return results


def test_single_read_bank_postings(tmp_path):
    bank = write_fasta(tmp_path / "b.fa", ["ACCGT"])
    index = build_linker_index(bank, k=4, t=1, f=62)
    assert index.qd.n_keys == 2
    assert index.offsets.tolist() == [0, 1, 2]
    assert index.ids.tolist() == [0, 0]


def test_two_identical_reads_share_postings(tmp_path):
    bank = write_fasta(tmp_path / "b.fa", ["ACCGTGCA", "ACCGTGCA"])
    index = build_linker_index(bank, k=5, t=2, f=62)
    for s in range(index.qd.n_keys):
        assert index.ids[index.offsets[s] : index.offsets[s + 1]].tolist() == [0, 1]


def test_posting_lists_match_naive_containment(tmp_path):
    rng = np.random.default_rng(0)
    genome = random_genome(rng, 300)
    seqs = reads_from_genome(rng, genome, 60, 40)
    bank = write_fasta(tmp_path / "b.fa", seqs)
    k, t = 9, 1
    index = build_linker_index(bank, k=k, t=t, f=18)  # f = 2k: exact
    solid = sorted(solid_set(seqs, k, t))
    slots = index.qd.query_array(np.array(solid, dtype=np.uint64))
    for code, slot in zip(solid, slots):
        posting = index.ids[index.offsets[slot] : index.offsets[slot + 1]].tolist()
        expected = [i for i, s in enumerate(seqs) if code in kmer_set(s, k)]
        assert posting == expected


def test_postings_stay_exact_even_at_tiny_f(tmp_path):
    # f=1 makes the query side false-positive half the time; the index build
    # must still keep postings exact via the solid table
    rng = np.random.default_rng(5)
    genome = random_genome(rng, 250)
    seqs = reads_from_genome(rng, genome, 50, 40)
    bank = write_fasta(tmp_path / "b.fa", seqs)
    k, t = 9, 1
    index = build_linker_index(bank, k=k, t=t, f=1)
    solid = sorted(solid_set(seqs, k, t))
    exact = build_linker_index(bank, k=k, t=t, f=18)
    slots_noisy = index.qd.query_array(np.array(solid, dtype=np.uint64))
    slots_exact = exact.qd.query_array(np.array(solid, dtype=np.uint64))
    for code, sn, se in zip(solid, slots_noisy, slots_exact):
        got = index.ids[index.offsets[sn] : index.offsets[sn + 1]].tolist()
        want = exact.ids[exact.offsets[se] : exact.offsets[se + 1]].tolist()
        assert got == want


def bank_kmers(path, k):
    return sum(len(codes) for *_, codes, _ in kcount.scan_batches(path, k))


@pytest.mark.parametrize("bank, bound", [("15% error", 14), ("error-free, 10x", 30)])
def test_build_peak_per_bank_kmer(tmp_path, bank, bound):
    """Traced peak bytes of the k = 15 build per bank k-mer: 8.4 and 18.4 here (10.0 and 18.8 while
    it held each batch's unused positions), against 11.4 and 22.1 when the build held the bank's
    codes, and 19.5 and 85.4 when it held them in 64 bits. The bank is spilled, so on these small
    banks the peak is one batch's scan, which does not grow with the bank, or the postings; a group
    budget of 2^18 k-mers instead of 2^16 measured 24.2 and 39.5."""
    path = str(tmp_path / "bank.fa")
    if bank == "15% error":
        simulate(SimConfig(20_000, 3, 2000, 50, 0.15, 500, rng_seed=1), path)
    else:
        rng = np.random.default_rng(1)
        write_fasta(path, reads_from_genome(rng, random_genome(rng, 20_000), 2000, 100))
    n_kmers = bank_kmers(path, 15)
    peak = traced_peak(lambda: build_linker_index(path, k=15))
    assert n_kmers > 150_000
    assert peak <= bound * n_kmers, f"{peak / n_kmers:.1f} bytes per bank k-mer"


def test_build_does_not_hold_the_bank(tmp_path):
    """The traced peak of the k = 15 build grows by at most 4 bytes per added bank k-mer: the bank
    is spilled and only one group of ranges is in memory, but the postings and the solid keys still
    grow with the bank (3.3 bytes here). Holding the bank cost 11.4 bytes."""
    peaks, sizes = [], []
    for spots in (5, 15):  # the spot count sets the bank size
        path = str(tmp_path / f"bank{spots}.fa")
        simulate(SimConfig(200_000, spots, 2000, 50, 0.15, 500, rng_seed=1), path)
        sizes.append(bank_kmers(path, 15))
        peaks.append(traced_peak(lambda: build_linker_index(path, k=15)))
    growth = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
    assert growth <= 4.0, f"{growth:.2f} bytes per added bank k-mer"


def linker_banks(k):
    rng = np.random.default_rng(k)
    sampled = reads_from_genome(rng, random_genome(rng, 1500), 100, 60)
    return {
        "empty": [],
        "no window": ["N" * 40, "ACGTN" * 8],
        "sampled": sampled,
        # poly-A is canonical code 0: one range holds more k-mers than the default budget
        "one range over budget": [*sampled[:30], "A" * (kcount.GROUP_KMERS + 100), "A" * 90],
        "no solid k-mer at t = 2": [random_genome(rng, k)],
    }


@pytest.mark.parametrize("group_kmers", [1, 3, kcount.GROUP_KMERS])
@pytest.mark.parametrize("k", [1, 15, 16, 17, 31])
def test_postings_are_invisible(tmp_path, monkeypatch, k, group_kmers):
    """Whatever the group and batch budgets, the linker index equals the one built at the defaults."""
    seqs = linker_banks(k)
    banks = {name: write_fasta(tmp_path / f"{i}.fa", reads) for i, (name, reads) in enumerate(seqs.items())}
    want = {(name, t): build_linker_index(path, k=k, t=t) for name, path in banks.items() for t in (1, 2)}
    assert len(want["sampled", 2].ids) > 0 and want["no solid k-mer at t = 2", 2].qd.n_keys == 0
    monkeypatch.setattr(kcount, "GROUP_KMERS", group_kmers)
    monkeypatch.setattr(kcount, "BATCH_BASES", 200)  # several batches, and the poly-A read alone
    for (name, t), index in want.items():
        got = build_linker_index(banks[name], k=k, t=t)
        assert got.qd.serialize() == index.qd.serialize(), (name, t)
        assert got.offsets.tobytes() == index.offsets.tobytes(), (name, t)
        assert got.ids.tobytes() == index.ids.tobytes(), (name, t)
        assert got.n_targets == index.n_targets == len(seqs[name])


def test_build_scans_the_bank_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(6)
    seqs = reads_from_genome(rng, random_genome(rng, 200), 7, 40)
    bank = write_fasta(tmp_path / "b.fa", seqs)
    calls = Counter()
    scanned = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "scan_kmers":
                scanned.append(len(args[0]))
            return fn(*args, **kwargs)

        return wrapper

    # every module binding is wrapped, so no import path escapes the count
    for name, modules in (
        ("open_reads", (seqio, linker)),
        ("read_blocks", (seqio, kcount)),
        ("scan_kmers", (kmer, kcount, linker)),
    ):
        wrapped = counted(name, getattr(modules[0], name))
        for mod in modules:
            monkeypatch.setattr(mod, name, wrapped)
    monkeypatch.setattr(QuasiDictionary, "query_array", counted("query_array", QuasiDictionary.query_array))
    monkeypatch.setattr(kcount, "BATCH_BASES", 100)  # several batches, several joins
    index = build_linker_index(bank, k=9, t=1, f=12)
    assert index.n_targets == len(seqs)
    # the bank is read once, as blocks, with no record view
    assert (calls["read_blocks"], calls["open_reads"]) == (1, 0)
    # every bank base is scanned once, plus one separator per join within a batch
    assert len(scanned) > 1
    assert sum(scanned) == sum(map(len, seqs)) + len(seqs) - len(scanned)
    # construction hands out the slots, so the build queries nothing
    assert calls["query_array"] == 0


@pytest.mark.parametrize(
    "seqs, t",
    [(["ACGTACG", "TTGCA", "GGATC"], 1), (["ACGTTGCAAC", "GGATCCATGA", "TTGACCAGTA"], 2)],
    ids=["reads-shorter-than-k", "t-above-every-count"],
)
@pytest.mark.parametrize("window", [None, 8])
def test_bank_without_solid_kmers_links_nothing(tmp_path, seqs, t, window):
    bank = write_fasta(tmp_path / "b.fa", seqs)
    index = build_linker_index(bank, k=8, t=t, f=12)
    assert index.qd.n_keys == 0 and index.offsets.tolist() == [0] and len(index.ids) == 0
    out = io.StringIO()
    run_linker(bank, [bank], out, k=8, t=t, threshold=1, window=window)
    assert out.getvalue() == "".join(f"{i}:\n" for i in range(len(seqs)))


def test_bank_read_ids_must_fit_int32(tmp_path, monkeypatch, capsys):
    # ids are int32; a lowered limit stands in for a bank of 2**31 reads
    monkeypatch.setattr(linker, "MAX_BANK_READS", 3)
    seqs = ["ACGTTGCAAC", "GGATCCATGA", "TTGACCAGTA", "CAGTTGACCA"]
    assert build_linker_index(write_fasta(tmp_path / "three.fa", seqs[:3]), k=5, t=1).n_targets == 3
    bank = write_fasta(tmp_path / "four.fa", seqs)
    with pytest.raises(ValueError, match="int32"):
        build_linker_index(bank, k=5, t=1)
    fof = tmp_path / "fof.txt"
    fof.write_text(bank + "\n")
    out = str(tmp_path / "o.txt")
    assert main(["linker", "-b", bank, "-q", str(fof), "-o", out, "-k", "5", "-t", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qd linker: error:") and err.count("\n") == 1


def test_identical_read_full_coverage(tmp_path):
    seq = "ACGGTTACGCATGAC"
    bank = write_fasta(tmp_path / "b.fa", [seq, "TTTTTTTTTTTTTTT"])
    index = build_linker_index(bank, k=6, t=1, f=12)
    (top, *_rest) = link_read(index, ReadRecord(5, "q", seq), threshold=1)
    assert top.target_id == 0
    assert top.score == len(seq)


def test_no_shared_kmers_empty(tmp_path):
    bank = write_fasta(tmp_path / "b.fa", ["AAAAAAAAAA"])
    index = build_linker_index(bank, k=5, t=1, f=62)
    assert link_read(index, ReadRecord(0, "q", "CCCCCCCCCC"), threshold=1) == []


def test_exclude_self(tmp_path):
    seq = "ACGGTTACGCATGAC"
    bank = write_fasta(tmp_path / "b.fa", [seq])
    index = build_linker_index(bank, k=6, t=1, f=62)
    with_self = link_read(index, ReadRecord(0, "q", seq), threshold=1)
    without = link_read(index, ReadRecord(0, "q", seq), threshold=1, exclude_self=True)
    assert [m.target_id for m in with_self] == [0]
    assert without == []


def test_matches_quadratic_oracle_whole_read(tmp_path):
    rng = np.random.default_rng(1)
    genome = random_genome(rng, 500)
    seqs = reads_from_genome(rng, genome, 80, 60)
    bank = write_fasta(tmp_path / "b.fa", seqs)
    k, t = 11, 1
    index = build_linker_index(bank, k=k, t=t, f=22)  # exact fingerprints
    expected = pairwise_oracle(seqs, k, t, threshold=1)
    got = {}
    for qi, seq in enumerate(seqs):
        for m in link_read(index, ReadRecord(qi, f"r{qi}", seq), threshold=1, exclude_self=True):
            got[(qi, m.target_id)] = m.score
    assert got == expected


def test_matches_quadratic_oracle_windowed(tmp_path):
    rng = np.random.default_rng(2)
    genome = random_genome(rng, 400)
    seqs = reads_from_genome(rng, genome, 50, 70)
    bank = write_fasta(tmp_path / "b.fa", seqs)
    k, t, w = 9, 1, 25
    index = build_linker_index(bank, k=k, t=t, f=18)
    expected = pairwise_oracle(seqs, k, t, threshold=1, window=w)
    got = {}
    for qi, seq in enumerate(seqs):
        for m in link_read(
            index, ReadRecord(qi, f"r{qi}", seq), threshold=1, window=w, exclude_self=True
        ):
            got[(qi, m.target_id)] = m.score
            assert m.score <= w
            assert m.window_start is not None
    assert got == expected


def test_window_tie_break_smallest_start(tmp_path):
    # one shared 4-mer at query positions 0..3; any window of 5 containing it
    # scores 4, the smallest maximizing start is 0
    bank = write_fasta(tmp_path / "b.fa", ["GCAT"])
    index = build_linker_index(bank, k=4, t=1, f=8)
    (m,) = link_read(index, ReadRecord(1, "q", "GCATAAAAA"), threshold=1, window=5)
    assert m.score == 4
    assert m.window_start == 0


def test_window_wider_than_read_behaves_like_whole_read(tmp_path):
    seq = "ACGGTTACGCATGAC"
    bank = write_fasta(tmp_path / "b.fa", [seq, seq])
    index = build_linker_index(bank, k=6, t=1, f=62)
    whole = link_read(index, ReadRecord(0, "q", seq), threshold=1, exclude_self=True)
    windowed = link_read(index, ReadRecord(0, "q", seq), threshold=1, window=500, exclude_self=True)
    assert [(m.target_id, m.score) for m in windowed] == [(m.target_id, m.score) for m in whole]
    assert all(m.window_start == 0 for m in windowed)
    assert all(m.window_start is None for m in whole)


def test_window_smaller_than_k_rejected(tmp_path):
    bank = write_fasta(tmp_path / "b.fa", ["ACGTACGTA"])
    index = build_linker_index(bank, k=6, t=1, f=12)
    with pytest.raises(ValueError):
        link_read(index, ReadRecord(0, "q", "ACGTACGTA"), threshold=1, window=4)


def test_results_sorted_by_score_then_id(tmp_path):
    rng = np.random.default_rng(3)
    genome = random_genome(rng, 300)
    seqs = reads_from_genome(rng, genome, 60, 50)
    bank = write_fasta(tmp_path / "b.fa", seqs)
    index = build_linker_index(bank, k=9, t=1, f=18)
    for qi in (0, 7, 23):
        matches = link_read(index, ReadRecord(qi, "q", seqs[qi]), threshold=1, exclude_self=True)
        keys = [(-m.score, m.target_id) for m in matches]
        assert keys == sorted(keys)


def shared_positions_oracle(query, target_kmers, k, solid):
    """Count query window positions whose k-mer also occurs in the target."""
    return sum(code in solid and code in target_kmers for _, code in window_oracle(query, k))


def test_threshold_gates_on_shared_kmers_and_score(tmp_path):
    rng = np.random.default_rng(4)
    genome = random_genome(rng, 300)
    seqs = reads_from_genome(rng, genome, 40, 50)
    bank = write_fasta(tmp_path / "b.fa", seqs)
    k, t = 9, 1
    index = build_linker_index(bank, k=k, t=t, f=18)
    solid = solid_set(seqs, k, t)
    kms = [kmer_set(s, k) & solid for s in seqs]
    for threshold in (-2, 0, 5, 12, 20):
        for qi in range(12):
            got = {
                m.target_id: m.score
                for m in link_read(
                    index, ReadRecord(qi, "q", seqs[qi]), threshold=threshold, exclude_self=True
                )
            }
            want = {}
            for ti in range(len(seqs)):
                if ti == qi:
                    continue
                n_shared = shared_positions_oracle(seqs[qi], kms[ti], k, solid)
                score = sum(coverage_oracle(seqs[qi], kms[ti], k, solid))
                # a link shares at least one position, so a threshold below 1 gates as 1 does
                if n_shared >= max(threshold, 1) and score >= threshold:
                    want[ti] = score
            assert got == want, f"threshold={threshold} query={qi}"


def test_output_format(tmp_path):
    seq = "ACGGTTACGCATGAC"
    bank = write_fasta(tmp_path / "b.fa", [seq, seq])
    fof = tmp_path / "fof.txt"
    fof.write_text(str(bank) + "\n")
    out = io.StringIO()
    run_linker(str(bank), [str(bank)], out, k=6, t=1, f=62, threshold=1)
    lines = out.getvalue().splitlines()
    # self-comparison: each read links to the other, never to itself
    assert lines == [f"0:1-{len(seq)}", f"1:0-{len(seq)}"]


def test_output_line_for_unmatched_read():
    assert format_link_line(4, []) == "4:"


def test_windowed_output_format():
    line = format_link_line(2, [MatchResult(2, 9, 33, 5), MatchResult(2, 11, 12, 0)])
    assert line == "2:9-33@5 11-12@0"


def dense_link_read(index, read, threshold, window=None, exclude_self=False):
    """Reference scorer: per-target coverage and window sums over dense
    targets x read-length matrices (the linker's former implementation)."""
    length = len(read.seq)
    positions, codes = scan_kmers(read.seq, index.k)
    if len(codes) == 0:
        return []
    slots = index.qd.query_array(codes)
    hit = slots >= 0
    tgt, pos = [], []
    for p, s in zip(positions[hit], slots[hit]):
        ids = index.ids[index.offsets[s] : index.offsets[s + 1]]
        tgt.extend(ids.tolist())
        pos.extend([int(p)] * len(ids))
    tgt, pos = np.array(tgt, dtype=np.int64), np.array(pos, dtype=np.int64)
    if exclude_self:
        keep = tgt != read.id
        tgt, pos = tgt[keep], pos[keep]
    if len(tgt) == 0:
        return []

    uniq_tgt, row = np.unique(tgt, return_inverse=True)
    shared = np.bincount(row, minlength=len(uniq_tgt))
    delta = np.zeros((len(uniq_tgt), length + 1), dtype=np.int32)
    np.add.at(delta, (row, pos), 1)
    np.add.at(delta, (row, pos + index.k), -1)
    covered = np.cumsum(delta[:, :length], axis=1) > 0
    if window is None or window >= length:
        scores = covered.sum(axis=1)
        win_starts = np.zeros(len(uniq_tgt), dtype=np.int64)
    else:
        prefix = np.zeros((len(uniq_tgt), length + 1), dtype=np.int32)
        prefix[:, 1:] = np.cumsum(covered, axis=1, dtype=np.int32)
        sums = prefix[:, window:] - prefix[:, : length - window + 1]
        scores = sums.max(axis=1)
        win_starts = sums.argmax(axis=1)  # first maximizer
    out = [
        (-int(sc), int(t), int(ws))
        for t, sh, sc, ws in zip(uniq_tgt, shared, scores, win_starts)
        if sh >= threshold and sc >= threshold
    ]
    return [MatchResult(read.id, t, -sc, None if window is None else ws) for sc, t, ws in sorted(out)]


@st.composite
def linker_cases(draw):
    k = draw(st.integers(2, 7))
    genome = draw(st.text("ACGT", min_size=4 * k, max_size=120))
    n = len(genome)

    def piece(shortest):
        a = draw(st.integers(0, n - k))
        seq = genome[a : n - draw(st.integers(0, n - a - shortest))]
        if draw(st.booleans()):  # one non-nucleotide byte
            i = draw(st.integers(0, len(seq) - 1))
            seq = seq[:i] + "N" + seq[i + 1 :]
        return seq

    bank = [piece(k) for _ in range(draw(st.integers(1, 8)))]
    qid = draw(st.integers(0, len(bank)))
    # a bank read as query: its last k-mer ends on the read's last base and is indexed
    query = bank[qid] if qid < len(bank) and draw(st.booleans()) else piece(draw(st.sampled_from([1, k, k, k])))
    length = len(query)
    window = draw(
        st.one_of(
            st.none(),
            st.just(k),
            st.integers(k, max(k, length)),
            st.integers(max(k, length), max(k, length) + 5),
        )
    )
    threshold = draw(st.integers(1, 2 * k))
    t = draw(st.integers(1, 2))
    f = draw(st.sampled_from([2, 2 * k]))  # a noisy and an exact dictionary
    return bank, ReadRecord(qid, "q", query), k, t, f, threshold, window, draw(st.booleans())


@settings(deadline=None, max_examples=300)
@given(linker_cases())
@example(case=(["GCAT"], ReadRecord(1, "q", "GCATAAAAA"), 4, 1, 8, 1, 5, False))  # tie at start 0
@example(case=(["ACGT"], ReadRecord(1, "q", "TTTTTACGTTTTT"), 3, 1, 6, 1, 6, False))  # best start 9 - w
@example(case=(["ACGTA"], ReadRecord(1, "q", "ACG"), 4, 1, 8, 1, None, False))  # read shorter than k
@example(case=(["TTACGTA"], ReadRecord(0, "q", "TTACGTA"), 3, 1, 6, 1, 3, False))  # k-mer at the end
@example(case=(["ACGT"], ReadRecord(1, "q", "TACGTTTTTTTT"), 3, 1, 6, 1, 6, False))  # best start 0, a run end - w < 0
@example(case=(["ACGT"], ReadRecord(1, "q", "TTTTTTTTACGT"), 3, 1, 6, 1, 6, False))  # best start clamped to L - w
@example(case=(["ACGTT"], ReadRecord(1, "q", "ACGTTACG"), 3, 1, 6, 1, 8, False))  # w = L
@example(case=(["ACGT"], ReadRecord(1, "q", "ACGTAAAA"), 3, 1, 6, 5, 4, False))  # every pair gated out
# the key's bit fields: sb = L.bit_length() changes at L = 2^j, tb = (bank reads - 1).bit_length() at 1, 2, 3 reads
@example(case=(["ACGGTCATTGCAAGC"], ReadRecord(1, "q", "ACGGTCATTGCAAGC"), 3, 1, 6, 1, None, False))  # L = 2^4 - 1
@example(case=(["ACGGTCATTGCAAGCT", "TTTTACGGTCA"], ReadRecord(0, "q", "ACGGTCATTGCAAGCT"), 3, 1, 6, 1, 5, True))
@example(
    case=(["ACGGTCATTGCAAGCTT", "CATTGC", "GCAAGCTT"], ReadRecord(3, "q", "ACGGTCATTGCAAGCTT"), 3, 1, 6, 1, 6, False)
)
@example(case=(["ACGGT"], ReadRecord(1, "q", "ACGGTAAAAAAAAAAA"), 3, 1, 6, 1, 6, False))  # L = 16, best start 0
@example(case=(["TCGCA"], ReadRecord(1, "q", "AAAAAAAAAAATCGCA"), 3, 1, 6, 1, 6, False))  # L = 16, best start L - w
# maximal covered runs: the shared k-mers start at the positions noted, and N splits a bank read's k-mers
@example(case=(["CAGNGAC"], ReadRecord(1, "q", "TTCAGGACTT"), 3, 1, 6, 1, 4, False))  # 2, 5: k apart, one run
@example(case=(["CAGNGACNACA"], ReadRecord(1, "q", "TTCAGTGACATT"), 3, 1, 6, 1, 4, False))  # 2 | 6, 7: best at 6
@example(case=(["AGCTTAGC"], ReadRecord(1, "q", "CCCAGCTTAGC"), 3, 1, 6, 1, 5, False))  # 3..8: a run ending at L
@example(case=(["CAG"], ReadRecord(1, "q", "TTTTTCAGTTTTTT"), 3, 1, 6, 1, 6, False))  # 5: best at its end - w, 2
def test_link_read_matches_dense_reference(case):
    bank, read, k, t, f, threshold, window, exclude_self = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bank.fa")
        with open(path, "w") as fh:
            fh.writelines(f">r{i}\n{s}\n" for i, s in enumerate(bank))
        index = build_linker_index(path, k=k, t=t, f=f)
    want = dense_link_read(index, read, threshold, window, exclude_self)
    assert link_read(index, read, threshold, window, exclude_self) == want
