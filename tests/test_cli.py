"""Command-line surface: flags, validation, outputs, determinism."""

import gzip
import os
import subprocess
import sys
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import numpy as np
import pytest

from quasidict.cli import _VERSION_TEXT, main, main_counter, main_linker, main_score, main_sim

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
    lines = open(out).read().splitlines()
    assert len(lines) == 20
    assert all(line.split("\t")[0] == str(i) for i, line in enumerate(lines))


def test_linker_end_to_end(small_data):
    out = str(small_data["dir"] / "links.txt")
    rc = main(
        ["linker", "-b", small_data["bank"], "-q", small_data["fof"], "-o", out,
         "-k", "11", "-t", "1", "-s", "1"]
    )
    assert rc == 0
    assert len(open(out).read().splitlines()) == 20


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
    query = open(small_data["fof"]).read().strip()
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
        ["--random-keys", "-1"],
        ["--random-keys", "10", "--probes", "-3"],
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
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1] == outs[2]
