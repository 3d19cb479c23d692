"""Simulator determinism and error calibration; recall/precision arithmetic."""

import hashlib

import numpy as np
import pytest

from quasidict.evaluation import (
    SimConfig,
    apply_errors,
    load_truth,
    normalize_pairs,
    pairs_from_linker_output,
    score,
    simulate,
    write_truth,
)
from quasidict.cli import main
from quasidict.seqio import open_reads


def small_cfg(**kw):
    base = dict(
        genome_length=20_000,
        n_spots=4,
        read_length=300,
        reads_per_spot=3,
        error_rate=0.1,
        spot_min_gap=100,
        rng_seed=7,
    )
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------- simulate


def test_truth_size_is_all_intra_spot_pairs(tmp_path):
    cfg = small_cfg(n_spots=5, reads_per_spot=4)
    truth = simulate(cfg, str(tmp_path / "r.fa"))
    assert len(truth) == 5 * (4 * 3 // 2)
    for a, b in truth:
        assert a < b
        assert a // 4 == b // 4  # same spot


def test_read_count_and_ids(tmp_path):
    cfg = small_cfg()
    simulate(cfg, str(tmp_path / "r.fa"))
    records = list(open_reads(str(tmp_path / "r.fa")))
    assert len(records) == cfg.n_spots * cfg.reads_per_spot
    assert [r.id for r in records] == list(range(len(records)))


def test_zero_error_reads_identical_or_revcomp(tmp_path):
    comp = str.maketrans("ACGT", "TGCA")
    cfg = small_cfg(error_rate=0.0, reads_per_spot=2)
    simulate(cfg, str(tmp_path / "r.fa"))
    records = list(open_reads(str(tmp_path / "r.fa")))
    for s in range(cfg.n_spots):
        a, b = records[2 * s].seq, records[2 * s + 1].seq
        assert a == b or a == b.translate(comp)[::-1]
        assert len(a) == cfg.read_length


def test_deterministic_bytes(tmp_path):
    cfg = small_cfg()
    simulate(cfg, str(tmp_path / "a.fa"), str(tmp_path / "a.tsv"))
    simulate(cfg, str(tmp_path / "b.fa"), str(tmp_path / "b.tsv"))
    assert (tmp_path / "a.fa").read_bytes() == (tmp_path / "b.fa").read_bytes()
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    simulate(small_cfg(rng_seed=8), str(tmp_path / "c.fa"))
    assert (tmp_path / "a.fa").read_bytes() != (tmp_path / "c.fa").read_bytes()


@pytest.mark.parametrize(
    "argv, fasta_sha, truth_sha",
    [
        (
            ["--read-len", "300", "--error-rate", "0.15", "--seed", "3"],
            "3184da5cf01a8e81fe28da45e2fe09ac6a3436b15d83dba1c690926bee1d32fc",
            "cea5774ea5b0e651402083ee03b9f7f76f974131f580f2abd2d2649e7f15ef68",
        ),
        # 30 bp at 1%: most reads draw no error at all
        (
            ["--read-len", "30", "--error-rate", "0.01", "--seed", "7"],
            "002264efa7c13cf43a3935ec554a94f3cd0a421634cf3081016a0e9c9bce9d5c",
            "cea5774ea5b0e651402083ee03b9f7f76f974131f580f2abd2d2649e7f15ef68",
        ),
    ],
)
def test_sim_bytes_are_pinned(tmp_path, argv, fasta_sha, truth_sha):
    reads, truth = tmp_path / "r.fa", tmp_path / "t.tsv"
    common = ["--genome-len", "20000", "--spots", "4", "--reads-per-spot", "5", "--gap", "100"]
    assert main(["sim", *common, *argv, "-o", str(reads), "--truth", str(truth)]) == 0
    assert hashlib.sha256(reads.read_bytes()).hexdigest() == fasta_sha
    assert hashlib.sha256(truth.read_bytes()).hexdigest() == truth_sha


def test_spots_respect_gap(tmp_path):
    cfg = small_cfg(n_spots=6, spot_min_gap=150)
    simulate(cfg, str(tmp_path / "r.fa"))
    # spot starts ride in the fasta headers past the first word
    text = (tmp_path / "r.fa").read_text()
    starts = sorted({int(line.split("start=")[1]) for line in text.splitlines() if line.startswith(">")})
    assert len(starts) == 6
    gaps = np.diff(starts) - cfg.read_length
    assert (gaps >= cfg.spot_min_gap).all()


def test_infeasible_placement_rejected(tmp_path):
    cfg = small_cfg(genome_length=1000, n_spots=5, read_length=300)
    with pytest.raises(ValueError):
        simulate(cfg, str(tmp_path / "r.fa"))


def test_error_rate_bounds():
    with pytest.raises(ValueError):
        small_cfg(error_rate=0.5).validate()


@pytest.mark.parametrize("field", ["n_spots", "reads_per_spot", "read_length"])
def test_config_without_reads_rejected(field):
    with pytest.raises(ValueError, match="^spots, reads per spot and read length must be positive$"):
        small_cfg(**{field: 0}).validate()


def test_negative_gap_rejected():
    # spots would overlap, and the truth holds only same-spot pairs
    with pytest.raises(ValueError, match=r"^gap between spots must be >= 0, got -900$"):
        small_cfg(spot_min_gap=-900).validate()


def test_substitution_only_divergence_near_rate():
    # substitution-only runs keep alignment, so Hamming distance estimates
    # the per-base error rate directly
    rng = np.random.default_rng(3)
    rate = 0.12
    total_bases = 0
    total_mismatch = 0
    for _ in range(300):
        seq = "".join(np.random.default_rng(total_bases).choice(list("ACGT"), size=500))
        noisy = apply_errors(seq, rate, rng, kinds=("sub",))
        assert len(noisy) == len(seq)
        total_bases += len(seq)
        total_mismatch += sum(a != b for a, b in zip(seq, noisy))
    observed = total_mismatch / total_bases
    assert abs(observed - rate) < 0.01


def test_insertion_and_deletion_change_length():
    rng = np.random.default_rng(4)
    seq = "ACGT" * 250
    longer = apply_errors(seq, 0.2, rng, kinds=("ins",))
    shorter = apply_errors(seq, 0.2, rng, kinds=("del",))
    assert len(longer) > len(seq) > len(shorter)


@pytest.mark.parametrize(
    "kinds, expected",
    [
        (("sub",), "CCGAAGACAGTCACATTGCAAGTCACGTTCCATGTAACGTAGCAAGTT"),
        (("ins",), "AACGATTTGACGAAGTCACAGTTGCAAGTCACGTTCGCATAGTCCACGTCTGCAAGTAC"),
        (("del",), "CGGAGTCACTTGCAAGTCACGTTCAGTACGTGCAAGT"),
    ],
)
def test_apply_errors_is_pinned(kinds, expected):
    template = "ACGTTGCAAGTC" * 4
    assert apply_errors(template, 0.2, np.random.default_rng(11), kinds=kinds) == expected


def apply_errors_loop(seq, rate, rng, kinds):
    """Reference: the same four draws, applied one error at a time."""
    if rate <= 0.0:
        return seq
    err = np.nonzero(rng.random(len(seq)) < rate)[0]
    kind = rng.integers(0, len(kinds), size=len(err))
    sub_off = rng.integers(1, 4, size=len(err))
    ins_base = rng.integers(0, 4, size=len(err))
    out, prev = [], 0
    for where, which, off, ins in zip(err, kind, sub_off, ins_base):
        out.append(seq[prev:where])
        if kinds[which] == "sub":
            out.append("ACGT"[("ACGT".index(seq[where]) + off) % 4])
        elif kinds[which] == "ins":
            out.append("ACGT"[ins] + seq[where])
        prev = where + 1
    return "".join(out) + seq[prev:]


@pytest.mark.parametrize("rate", [0.0, 0.01, 0.12, 0.15, 0.49])
@pytest.mark.parametrize("kinds", [("sub", "ins", "del"), ("ins", "del"), ("del", "sub"), ("ins", "ins", "sub")])
def test_apply_errors_matches_loop(rate, kinds):
    seq = "".join(np.random.default_rng(6).choice(list("ACGT"), size=5000))
    expected = apply_errors_loop(seq, rate, np.random.default_rng(12), kinds)
    assert apply_errors(seq, rate, np.random.default_rng(12), kinds) == expected


# ---------------------------------------------------------------- score


def test_perfect_prediction():
    truth = {(0, 1), (2, 3)}
    assert score({(0, 1), (2, 3)}, truth) == (1.0, 1.0, 1.0)


def test_half_recall_formula():
    truth = {(0, 1), (2, 3)}
    recall, precision, f = score({(0, 1)}, truth)
    assert (recall, precision) == (0.5, 1.0)
    assert f == pytest.approx(2 / 3)


def test_orientation_normalized():
    truth = {(0, 1)}
    assert score({(1, 0)}, truth) == (1.0, 1.0, 1.0)


def test_empty_prediction_degenerate():
    recall, precision, f = score(set(), {(0, 1)})
    assert (recall, precision, f) == (0.0, 1.0, 0.0)


def test_empty_truth_rejected():
    with pytest.raises(ValueError):
        score({(0, 1)}, set())


def test_self_pair_rejected():
    with pytest.raises(ValueError):
        normalize_pairs([(3, 3)])


def test_f_measure_is_harmonic_mean():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_truth = int(rng.integers(1, 50))
        truth = {(2 * i, 2 * i + 1) for i in range(n_truth)}
        pred = {p for p in truth if rng.random() < 0.7}
        pred |= {(1000 + i, 2000 + i) for i in range(int(rng.integers(0, 20)))}
        recall, precision, f = score(pred, truth)
        if precision + recall:
            assert abs(f - 2 * precision * recall / (precision + recall)) < 1e-9


def test_truth_file_roundtrip(tmp_path):
    truth = {(4, 9), (0, 2), (1, 7)}
    path = str(tmp_path / "t.tsv")
    write_truth(truth, path)
    assert load_truth(path) == truth
    # file is sorted a < b per line
    lines = (tmp_path / "t.tsv").read_text().splitlines()
    assert lines == ["0\t2", "1\t7", "4\t9"]


def test_linker_output_adapter(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("0:3-15 1-8@2\n1:\n2:0-9\n")
    pairs = pairs_from_linker_output(str(path))
    assert pairs == {(0, 3), (0, 1), (0, 2)}
