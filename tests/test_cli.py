"""Command-line surface: flags, validation, outputs, determinism."""

import gzip
import os
import subprocess
import sys
import tempfile
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import numpy as np
import pytest

from quasidict import cli
from quasidict.cli import (
    _VERSION_TEXT,
    build_parser,
    main,
    main_counter,
    main_linker,
    main_score,
    main_sim,
    stats_run,
)
from quasidict.evaluation import SimConfig, simulate

from conftest import damaged_gzip, random_genome, reads_from_genome, write_fasta

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def small_data(tmp_path):
    rng = np.random.default_rng(0)
    genome = random_genome(rng, 800)
    bank = write_fasta(tmp_path / "bank.fa", reads_from_genome(rng, genome, 60, 70))
    queries = write_fasta(tmp_path / "q.fa", reads_from_genome(rng, genome, 20, 70))
    fof = tmp_path / "fof.txt"
    fof.write_text(queries + "\n")
    return {"bank": bank, "fof": str(fof), "dir": tmp_path}


def test_counter_end_to_end(small_data):
    out = str(small_data["dir"] / "counts.tsv")
    rc = main(
        ["counter", "-b", small_data["bank"], "-q", small_data["fof"], "-o", out, "-k", "11", "-t", "1"]
    )
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 20
    assert all(line.split("\t")[0] == str(i) for i, line in enumerate(lines))


def test_linker_end_to_end(small_data):
    out = str(small_data["dir"] / "links.txt")
    rc = main(
        ["linker", "-b", small_data["bank"], "-q", small_data["fof"], "-o", out,
         "-k", "11", "-t", "1", "-s", "1"]
    )
    assert rc == 0
    assert len(Path(out).read_text().splitlines()) == 20


def test_linker_min_zero_sets_no_minimum(small_data):
    # every reported pair shares a k-mer, which covers k >= 1 positions, so -s 0 reports what -s 1 does
    outs = []
    for minimum in ("0", "1"):
        out = small_data["dir"] / f"links-s{minimum}.txt"
        argv = ["linker", "-b", small_data["bank"], "-q", small_data["fof"], "-o", str(out), "-k", "11", "-t", "1"]
        assert main([*argv, "-s", minimum]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1] and "-" in outs[0]


def test_alias_entry_points(small_data, capsys):
    out = str(small_data["dir"] / "alias.tsv")
    rc = main_counter(["-b", small_data["bank"], "-q", small_data["fof"], "-o", out, "-k", "11", "-t", "1"])
    assert rc == 0
    rc = main_linker(["-b", small_data["bank"], "-q", small_data["fof"], "-o", out, "-k", "11", "-t", "1", "-s", "1"])
    assert rc == 0


def test_sim_and_score_pipeline(tmp_path, capsys):
    reads = str(tmp_path / "reads.fa")
    truth = str(tmp_path / "truth.tsv")
    rc = main_sim(
        ["--genome-len", "30000", "--spots", "4", "--read-len", "400", "--reads-per-spot", "4",
         "--error-rate", "0.05", "--gap", "200", "--seed", "1", "-o", reads, "--truth", truth]
    )
    assert rc == 0
    fof = tmp_path / "fof.txt"
    fof.write_text(reads + "\n")
    out = str(tmp_path / "links.txt")
    rc = main(["linker", "-b", reads, "-q", str(fof), "-o", out, "-k", "15", "-t", "2", "-s", "8"])
    assert rc == 0
    rc = main_score(["--pred", out, "--truth", truth])
    assert rc == 0
    printed = capsys.readouterr().out.strip().split()
    assert len(printed) == 3
    recall, precision, f = map(float, printed)
    assert 0 <= recall <= 100 and 0 <= precision <= 100 and 0 <= f <= 100


@pytest.mark.parametrize(
    "pred, truth, bad, line",
    [
        (b"0:1-20\n1:zz\n", b"0\t1\n", "pred", 2),  # a target id that is no integer
        (b"0:1-20\n1:\xe9-3\n", b"0\t1\n", "pred", 2),  # a byte that is no UTF-8
        (b"0\n", b"0\t1\n", "pred", 1),  # no colon
        (b"0:1\n", b"0\t1\n", "pred", 1),  # a link with no score
        (b"0:1-x\n", b"0\t1\n", "pred", 1),  # a score that is no integer
        (b"0:1-5@\n", b"0\t1\n", "pred", 1),  # an empty window start
        (b"0:1-20\n", b"0\t1\n\n2 3\n", "truth", 3),  # a space, not a tab; the blank line counts
        (b"0:1-20\n", b"0\t1\t2\n", "truth", 1),  # three fields
        (b"0:1-20\n", b"0\t1\n3\t3\n", "truth", 2),  # a self pair
        # a read id is digits only, though int() takes a sign, a space beside it and underscores
        (b"+1:2-10\n", b"0\t1\n", "pred", 1),
        (b"1 :2-10\n", b"0\t1\n", "pred", 1),
        (b"1_0:2-10\n", b"0\t1\n", "pred", 1),
        (b"0:1-20\n", b"+1\t2\n", "truth", 1),
        (b"0:1-20\n", b"1_0\t2\n", "truth", 1),
    ],
    ids=["pred-target-not-int", "pred-not-utf8", "pred-no-colon", "pred-no-score", "pred-score-not-int",
         "pred-empty-start", "truth-space", "truth-three-fields", "truth-self-pair", "pred-signed-id",
         "pred-spaced-id", "pred-underscored-id", "truth-signed-id", "truth-underscored-id"],
)
def test_score_error_names_the_line(tmp_path, capsys, pred, truth, bad, line):
    paths = {"pred": tmp_path / "links.txt", "truth": tmp_path / "truth.tsv"}
    paths["pred"].write_bytes(pred)
    paths["truth"].write_bytes(truth)
    rc = main_score(["--pred", str(paths["pred"]), "--truth", str(paths["truth"])])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"qd score: error: {paths[bad]}:{line}: expected ") and err.count("\n") == 1


def test_invalid_f_exits_2(small_data):
    with pytest.raises(SystemExit) as err:
        main(["counter", "-b", small_data["bank"], "-q", small_data["fof"], "-o", "/dev/null", "-f", "65"])
    assert err.value.code == 2


def test_invalid_k_exits_2(small_data):
    with pytest.raises(SystemExit) as err:
        main(["stats", "--random-keys", "100", "-k", "40"])
    assert err.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["counter", "--bogus"])
    assert err.value.code == 2


def test_missing_input_is_drawn_as_one_line_error(tmp_path, capsys):
    out = str(tmp_path / "o.tsv")
    fof = tmp_path / "fof.txt"
    fof.write_text("/nonexistent/q.fa\n")
    rc = main(["counter", "-b", "/nonexistent/bank.fa", "-q", str(fof), "-o", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "error" in err


def test_gzipped_read_sets_give_the_plain_output(small_data):
    d = small_data["dir"]
    query = Path(small_data["fof"]).read_text().strip()
    for path in (small_data["bank"], query):
        Path(path + ".gz").write_bytes(gzip.compress(Path(path).read_bytes()))
    (d / "gz.fof").write_text(query + ".gz\n")
    plain = small_data["bank"]
    for bank, fof, out in ((plain, small_data["fof"], "plain.tsv"), (plain + ".gz", d / "gz.fof", "gz.tsv")):
        assert main(["counter", "-b", bank, "-q", str(fof), "-o", str(d / out), "-k", "11", "-t", "1"]) == 0
    assert (d / "gz.tsv").read_bytes() == (d / "plain.tsv").read_bytes()


@pytest.mark.parametrize("damage", ["truncated", "flipped"])
def test_damaged_gzip_is_a_one_line_error(small_data, capsys, damage):
    bank = small_data["dir"] / "bank.fa.gz"
    bank.write_bytes(damaged_gzip(Path(small_data["bank"]).read_bytes(), damage))
    rc = main(["counter", "-b", str(bank), "-q", small_data["fof"], "-o", str(small_data["dir"] / "o.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("qd counter: error:") and err.count("\n") == 1


@pytest.mark.parametrize("existing", [None, b"an earlier result\n"])
@pytest.mark.parametrize("command", ["counter", "linker"])
def test_failed_run_leaves_no_partial_output(small_data, capsys, command, existing):
    # the flipped CRC is noticed only at the end of the stream, after most
    # query lines have been written
    d = small_data["dir"]
    reads = reads_from_genome(np.random.default_rng(5), random_genome(np.random.default_rng(6), 800), 600, 70)
    query = d / "q600.fa.gz"
    query.write_bytes(damaged_gzip(Path(write_fasta(d / "q600.fa", reads)).read_bytes(), "crc"))
    (d / "bad.fof").write_text(f"{query}\n")
    out = d / "out.txt"
    if existing is not None:
        out.write_bytes(existing)
    before = sorted(p.name for p in d.iterdir())
    rc = main([command, "-b", small_data["bank"], "-q", str(d / "bad.fof"), "-o", str(out), "-k", "11", "-t", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"qd {command}: error: {query}: damaged gzip data: CRC check failed")
    assert err.count("\n") == 1
    assert sorted(p.name for p in d.iterdir()) == before  # nothing created, no temporary file left
    if existing is not None:
        assert out.read_bytes() == existing


SIM_ARGS = ["--genome-len", "5000", "--spots", "2", "--reads-per-spot", "5", "--read-len", "200"]


@pytest.mark.parametrize("existing", [None, b"an earlier result\n"])
def test_failed_sim_leaves_no_partial_output(tmp_path, capsys, existing):
    # the reads could be written in full; the truth's directory is missing
    reads, truth = tmp_path / "reads.fa", tmp_path / "nodir" / "t.tsv"
    if existing is not None:
        reads.write_bytes(existing)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main_sim([*SIM_ARGS, "-o", str(reads), "--truth", str(truth)]) == 1
    assert capsys.readouterr().err == f"qd sim: error: [Errno 2] No such file or directory: '{truth}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # nothing created, no temporary file left
    if existing is not None:
        assert reads.read_bytes() == existing


def test_sim_writes_what_simulate_writes(tmp_path):
    reads, truth = tmp_path / "reads.fa", tmp_path / "truth.tsv"
    assert main_sim([*SIM_ARGS, "--seed", "3", "-o", str(reads), "--truth", str(truth)]) == 0
    cfg = SimConfig(5000, 2, read_length=200, reads_per_spot=5, rng_seed=3)
    simulate(cfg, str(tmp_path / "direct.fa"), str(tmp_path / "direct.tsv"))
    assert reads.read_bytes() == (tmp_path / "direct.fa").read_bytes()
    assert truth.read_bytes() == (tmp_path / "direct.tsv").read_bytes()
    # one file named twice ends holding the truth, which is written last
    both = tmp_path / "both"
    assert main_sim([*SIM_ARGS, "--seed", "3", "-o", str(both), "--truth", str(both)]) == 0
    assert both.read_bytes() == truth.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["both", "direct.fa", "direct.tsv", "reads.fa", "truth.tsv"]


def test_unwritable_output_is_named_as_given(small_data, capsys):
    # the temporary file beside -o cannot be made; the error names -o, not that file's random name,
    # so two runs print the same line
    out = small_data["dir"] / "nodir" / "x.tsv"
    argv = ["counter", "-b", small_data["bank"], "-q", small_data["fof"], "-o", str(out)]
    errors = []
    for _ in range(2):
        assert main(argv) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"qd counter: error: [Errno 2] No such file or directory: '{out}'\n"


def failing_spill(small_data, monkeypatch, failure):
    """A bank that fails after several batches, or a temporary directory that does not exist; returns
    the bank, the expected message, the list that records every spill made, and the spill directory."""
    d = small_data["dir"]
    spill_dir = d / "tmp"
    spill_dir.mkdir()
    if failure == "bad record":
        rng = np.random.default_rng(8)
        bank = Path(write_fasta(d / "bad.fa", reads_from_genome(rng, random_genome(rng, 2000), 2000, 100)))
        with bank.open("a") as fh:
            fh.write(">empty\n>r\nACGT\n")
        monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
        message = f"{bank}:4001: record has empty sequence"
    else:
        bank = Path(small_data["bank"])
        monkeypatch.setattr(tempfile, "tempdir", str(d / "missing"))
        message = "No such file or directory"
    spills, make_spill = [], tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        spills.append(make_spill(*args, **kwargs))
        return spills[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    return bank, message, spills, spill_dir


@pytest.mark.parametrize("failure", ["bad record", "no temporary directory"])
def test_spill_failure_is_a_one_line_error(small_data, capsys, monkeypatch, failure):
    """The counter spills the bank's k-mers to an anonymous file in the temporary directory. A bank
    that fails after several batches, or a temporary directory that does not exist, ends in one
    error line, no output file, a closed spill and nothing left in the temporary directory."""
    d = small_data["dir"]
    bank, message, spills, spill_dir = failing_spill(small_data, monkeypatch, failure)
    before = sorted(p.name for p in d.iterdir())
    argv = ["counter", "-b", str(bank), "-q", small_data["fof"], "-o", str(d / "out.tsv"), "-k", "11", "-t", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("qd counter: error: ") and err.count("\n") == 1 and message in err
    assert sorted(p.name for p in d.iterdir()) == before
    assert list(spill_dir.iterdir()) == []
    assert len(spills) == (failure == "bad record") and all(spill.closed for spill in spills)


@pytest.mark.parametrize("failure", ["bad record", "no temporary directory"])
def test_linker_spill_failure_is_a_one_line_error(small_data, capsys, monkeypatch, failure):
    """The linker spills the bank's k-mer codes and read ids to two anonymous files; a failure ends
    as the counter's does, with both spills closed."""
    d = small_data["dir"]
    bank, message, spills, spill_dir = failing_spill(small_data, monkeypatch, failure)
    before = sorted(p.name for p in d.iterdir())
    argv = ["linker", "-b", str(bank), "-q", small_data["fof"], "-o", str(d / "out.txt"), "-k", "11", "-t", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("qd linker: error: ") and err.count("\n") == 1 and message in err
    assert sorted(p.name for p in d.iterdir()) == before
    assert list(spill_dir.iterdir()) == []
    assert len(spills) == 2 * (failure == "bad record") and all(spill.closed for spill in spills)


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 2.24 GiB for an array"), "Unable to allocate 2.24 GiB for an array"),
    (MemoryError(), "out of memory"),
])
def test_out_of_memory_is_a_one_line_error(small_data, capsys, monkeypatch, exc, message):
    def run_out_of_memory(bank, queries, out, **options):
        out.write("a partial line\n")
        raise exc

    monkeypatch.setattr(cli, "run_counter", run_out_of_memory)
    d = small_data["dir"]
    out = d / "out.txt"
    out.write_bytes(b"an earlier result\n")
    before = sorted(p.name for p in d.iterdir())
    assert main(["counter", "-b", small_data["bank"], "-q", small_data["fof"], "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"qd counter: error: {message}\n"
    assert sorted(p.name for p in d.iterdir()) == before
    assert out.read_bytes() == b"an earlier result\n"


def test_output_that_is_no_regular_file_is_written_in_place(small_data):
    # a rename would replace the symlink itself (or a device such as /dev/null)
    d = small_data["dir"]
    (d / "link.tsv").symlink_to(d / "real.tsv")
    argv = ["counter", "-b", small_data["bank"], "-q", small_data["fof"], "-o", str(d / "link.tsv"), "-k", "11"]
    assert main(argv) == 0
    assert (d / "link.tsv").is_symlink() and len((d / "real.tsv").read_text().splitlines()) == 20


def test_replaced_output_keeps_its_mode(small_data):
    out = small_data["dir"] / "counts.tsv"
    out.write_text("an earlier result\n")
    out.chmod(0o640)
    assert main(["counter", "-b", small_data["bank"], "-q", small_data["fof"], "-o", str(out), "-k", "11"]) == 0
    assert (out.stat().st_mode & 0o777, len(out.read_text().splitlines())) == (0o640, 20)


def test_multiline_fastq_is_a_one_line_error(small_data, capsys):
    bank = small_data["dir"] / "wrapped.fq"
    bank.write_text("@r0\nACGTACGTAC\nGTACGTACGT\n+\nIIIIIIIIII\nIIIIIIIIII\n")
    out = small_data["dir"] / "o.tsv"
    assert main(["counter", "-b", str(bank), "-q", small_data["fof"], "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"qd counter: error: {bank}:3: expected '+' separator line\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, measured",
    [
        (["--random-keys", "30000", "-f", "12", "--probes", "100000", "--seed", "7"], (30000, 32, 15.789866666666667)),
        (["--random-keys", "5000", "-k", "7", "-f", "4", "--probes", "9000", "--seed", "3"], (5000, 536, 8.1088)),
    ],
)
def test_stats_measurements_are_pinned(argv, measured):
    # the random key and probe draws, and so the false positives, are fixed by --seed
    r = stats_run(build_parser().parse_args(["stats", *argv]))
    assert (r["n_keys"], r["false_positives"], r["total_bits_per_key"]) == measured


def test_any_byte_passes_through(tmp_path):
    # 0xe9 is not UTF-8 on its own, 0xff is no nucleotide; "\xc3\xa0" is a UTF-8 "a grave"
    # whose second byte is latin-1 whitespace, so it must not cut the header word
    seg = random_genome(np.random.default_rng(7), 70)
    bad = seg[:30] + "\xff" + seg[31:]
    bank = tmp_path / "bank.fa"
    bank.write_bytes(b">b\xe9 one\n" + seg.encode() + b"\n")
    queries = tmp_path / "q.fa"
    queries.write_bytes(
        b">q\xe9\xff tail\n" + bad.encode("latin-1") + b"\n"
        b">q\xc3\xa0\n" + seg[:30].encode() + b"N" + seg[31:].encode() + b"\n"
        b">q\n" + seg.encode() + b"\n"
    )
    fof = tmp_path / "fof.txt"
    fof.write_text(f"{queries}\n")
    counts, links = tmp_path / "counts.tsv", tmp_path / "links.txt"
    common = ["-b", str(bank), "-q", str(fof), "-k", "11", "-t", "1"]
    assert main(["counter", *common, "-o", str(counts)]) == 0
    assert main(["linker", *common, "-o", str(links), "-s", "1"]) == 0
    rows = [line.split(b"\t") for line in counts.read_bytes().splitlines()]
    assert [r[1] for r in rows] == [b"q\xe9\xff", b"q\xc3\xa0", b"q"]
    # the 0xff byte drops exactly the 11 windows touching it, like an N does
    assert [int(r[2]) for r in rows] == [60 - 11, 60 - 11, 60]
    # ... and leaves only its own position uncovered
    assert links.read_bytes().splitlines() == [b"0:0-69", b"1:0-69", b"2:0-70"]


def test_window_below_k_exits_2(small_data):
    with pytest.raises(SystemExit) as err:
        main(["linker", "-b", small_data["bank"], "-q", small_data["fof"], "-o", "/dev/null",
              "-k", "21", "-w", "10"])
    assert err.value.code == 2


def test_negative_seed_exits_2(small_data):
    with pytest.raises(SystemExit) as err:
        main(["counter", "-b", small_data["bank"], "-q", small_data["fof"], "-o", "/dev/null",
              "--seed", "-3"])
    assert err.value.code == 2


@pytest.mark.parametrize("gamma", ["inf", "nan", "1e300", "1e9", "65"])
def test_gamma_out_of_range_exits_2(small_data, gamma):
    with pytest.raises(SystemExit) as err:
        main(["counter", "-b", small_data["bank"], "-q", small_data["fof"], "-o", "/dev/null",
              "--gamma", gamma])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["counter", "linker", "stats", "sim"])
def test_seed_past_u64_exits_2(small_data, command):
    argv = {
        "counter": ["-b", small_data["bank"], "-q", small_data["fof"], "-o", "/dev/null"],
        "linker": ["-b", small_data["bank"], "-q", small_data["fof"], "-o", "/dev/null"],
        "stats": ["--random-keys", "100", "--probes", "100", "-k", "11"],
        "sim": ["--genome-len", "20000", "--spots", "4", "--read-len", "30",
                "-o", str(small_data["dir"] / "sim.fa"), "--truth", str(small_data["dir"] / "sim.tsv")],
    }[command]
    with pytest.raises(SystemExit) as err:
        main([command, *argv, "--seed", str(2**64)])
    assert err.value.code == 2


def _quick_argv(small_data, command):
    """Every required option of ``command``, with values that parse."""
    d = small_data["dir"]
    return {
        "counter": ["-b", small_data["bank"], "-q", small_data["fof"], "-o", "/dev/null"],
        "linker": ["-b", small_data["bank"], "-q", small_data["fof"], "-o", "/dev/null"],
        "sim": ["--genome-len", "20000", "--spots", "4", "--read-len", "30",
                "-o", str(d / "sim.fa"), "--truth", str(d / "sim.tsv")],
        "score": ["--pred", str(d / "links.txt"), "--truth", str(d / "truth.tsv")],
        "stats": ["--random-keys", "100", "--probes", "100", "-k", "11"],
    }[command]


@pytest.mark.parametrize(
    "command, options, error",
    [
        *((command, ["--threads", "0"], "argument --threads: must be in [1, inf], got 0")
          for command in ("counter", "linker", "sim", "score", "stats")),
        ("counter", ["-k", "40"], "argument -k: must be in [1, 31], got 40"),
        ("counter", ["-k", "x"], "argument -k: invalid int value: 'x'"),
        ("stats", ["-t", "256"], "argument -t: must be in [1, 255], got 256"),
        ("stats", ["--gamma", "nan"], "argument --gamma: must be in [1.0, 64], got nan"),
        ("sim", ["--seed", "-1"], "argument --seed: must be in [0, 18446744073709551615], got -1"),
        ("linker", ["-k", "21", "-w", "10"], "-w (10) must be >= the k-mer length (21)"),
        ("linker", ["-s", "-5"], "argument -s: must be in [0, inf], got -5"),
        *(("sim", [option, "0"], f"argument {option}: must be in [1, inf], got 0")
          for option in ("--genome-len", "--spots", "--read-len", "--reads-per-spot")),
        ("sim", ["--gap", "-900"], "argument --gap: must be in [0, inf], got -900"),
        ("sim", ["--error-rate", "-0.1"], "argument --error-rate: must be in [0, inf], got -0.1"),
        ("stats", ["--random-keys", "-1"], "argument --random-keys: must be in [0, inf], got -1"),
        ("stats", ["--probes", "-3"], "argument --probes: must be in [0, inf], got -3"),
    ],
    ids=["counter-threads", "linker-threads", "sim-threads", "score-threads", "stats-threads",
         "k-above-31", "k-not-int", "t-above-255", "gamma-nan", "sim-seed-negative", "window-below-k",
         "linker-s-negative", "sim-genome-len-zero", "sim-spots-zero", "sim-read-len-zero",
         "sim-reads-per-spot-zero", "sim-gap-negative", "sim-error-rate-negative",
         "stats-random-keys-negative", "stats-probes-negative"],
)
def test_bad_option_value_is_one_line_under_the_subcommands_usage(small_data, capsys, command, options, error):
    with pytest.raises(SystemExit) as err:
        main([command, *_quick_argv(small_data, command), *options])
    assert err.value.code == 2
    out, lines = capsys.readouterr()
    assert out == "" and lines.startswith(f"usage: qd {command} ")
    lines = lines.splitlines()
    assert lines[-1] == f"qd {command}: error: {error}"
    assert sum(": error: " in line for line in lines) == 1


def test_file_of_files_lists_any_filename_byte(small_data):
    # 0xe9 is no UTF-8, but a filesystem name may hold it
    query = os.path.join(os.fsencode(small_data["dir"]), b"q\xe9.fa")
    with open(query, "wb") as fh:
        fh.write((small_data["dir"] / "q.fa").read_bytes())
    fof = small_data["dir"] / "fof_bytes.txt"
    fof.write_bytes(query + b"\n")
    outs = []
    for listing in (small_data["fof"], str(fof)):
        out = small_data["dir"] / f"out{len(outs)}.txt"
        rc = main(["counter", "-b", small_data["bank"], "-q", listing, "-o", str(out), "-k", "11", "-t", "1"])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _declared_scripts():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _installed_qd_launcher():
    """The `qd` launcher written when the quasidict distribution was
    installed into this interpreter, or None without such an install."""
    for ep in entry_points(group="console_scripts", name="qd"):
        if ep.dist is not None and ep.dist.metadata["Name"] == "quasidict":
            for path in ep.dist.files or []:
                if path.name in ("qd", "qd.exe"):
                    return str(path.locate())
    return None


def test_installed_console_script():
    """The declared `qd` console script starts the CLI and prints the
    version on one line, run as an installed launcher runs it:
    sys.exit(<entry point>()). Needs no install; where quasidict is
    installed, the launcher the installer wrote is run too."""
    scripts = _declared_scripts()
    for name, value in scripts.items():
        assert callable(EntryPoint(name, value, "console_scripts").load()), name

    launcher = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"sys.exit(EntryPoint('qd', {scripts['qd']!r}, 'console_scripts').load()())\n"
    )
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    commands = [([sys.executable, "-c", launcher], {"PYTHONPATH": pythonpath})]
    installed = _installed_qd_launcher()
    if installed is not None:
        commands.append(([installed], {}))
    for command, extra_env in commands:
        env = {**os.environ, "COLUMNS": "40", **extra_env}
        proc = subprocess.run([*command, "--version"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (command, proc.stderr)
        lines = proc.stdout.splitlines()
        assert len(lines) == 1, (command, proc.stdout)
        assert lines[0].startswith("qd 0.1.0 "), (command, proc.stdout)


def test_version_mentions_mixer_and_seed(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    text = capsys.readouterr().out
    assert "0x" in text and "seed" in text
    assert text.splitlines() == [_VERSION_TEXT]


def test_stats_reports_fp_rate(capsys):
    rc = main(["stats", "--random-keys", "20000", "-f", "8", "--probes", "200000", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "keys indexed:        20000" in out
    rate = float([l for l in out.splitlines() if "observed fp rate" in l][0].split()[3])
    assert 2**-8 / 2.5 <= rate <= 2.5 * 2**-8


def test_stats_from_bank_file(small_data, capsys):
    rc = main(["stats", "-b", small_data["bank"], "-k", "21", "-t", "1", "-f", "12",
               "--probes", "50000", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "construction time" in out and "mphf bits/key" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--random-keys", "5", "-k", "1"],  # more keys than 4^k codes
        ["--random-keys", "4", "-k", "1", "--probes", "10"],  # no code left to probe
    ],
)
def test_stats_impossible_request_is_one_line_error(argv, capsys):
    assert main(["stats", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qd stats: error: ") and err.count("\n") == 1


def test_stats_from_bank_rejects_too_many_probes(small_data, capsys):
    # k = 1 leaves two canonical codes in the bank and two to probe
    argv = ["stats", "-b", small_data["bank"], "-k", "1", "-t", "1"]
    assert main([*argv, "--probes", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qd stats: error: --probes") and err.count("\n") == 1
    assert main([*argv, "--probes", "2"]) == 0


def test_cli_deterministic_across_runs_and_threads(small_data):
    args = ["-b", small_data["bank"], "-q", small_data["fof"], "-k", "11", "-t", "1", "--seed", "9"]
    outs = []
    for name, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        out = str(small_data["dir"] / f"det_{name}.tsv")
        assert main(["counter", *args, "-o", out, "--threads", threads]) == 0
        outs.append(Path(out).read_bytes())
    assert outs[0] == outs[1] == outs[2]
