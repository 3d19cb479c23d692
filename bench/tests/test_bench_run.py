"""The whole benchmark on small seeded instances.

The workload sizes are shrunk in the parent process only (the workers read
the generated files), so each test runs a few short worker processes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import inputs
import run

CONTRACT = run.load_contract()


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    monkeypatch.setattr(inputs, "DICT_KEYS", 20_000)
    monkeypatch.setattr(inputs, "DICT_MEMBER_PROBES", 5_000)
    monkeypatch.setattr(inputs, "DICT_FOREIGN_PROBES", 20_000)
    monkeypatch.setattr(inputs, "COUNTER_GENOME", 20_000)
    monkeypatch.setattr(inputs, "COUNTER_BANK_READS", 2_000)
    monkeypatch.setattr(inputs, "COUNTER_QUERY_READS", 100)
    monkeypatch.setattr(run, "COUNTER_ORACLE_SAMPLE", 40)
    sim = list(inputs.LINKER_SIM_ARGS)
    sim[sim.index("--genome-len") + 1] = "100000"
    sim[sim.index("--spots") + 1] = "3"
    sim[sim.index("--reads-per-spot") + 1] = "8"
    monkeypatch.setattr(inputs, "LINKER_SIM_ARGS", sim)


def final_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.EVERY_WORKLOAD)
def test_end_to_end_metrics_match_contract(small, capsys, workload):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0"]) == 0
    out = final_line(capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert [*out["metrics"]] == [m["name"] for m in CONTRACT["end_to_end"]]
    for m in CONTRACT["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and got["value"] > 0


@pytest.mark.parametrize("workload", run.EVERY_WORKLOAD)
def test_traced_run_matches_contract_and_untraced_output(small, capsys, workload):
    # the checks include byte-identical outputs between traced and untraced
    # runs, and self times within the traced wall time
    assert run.main(["--workload", workload, "--seed", "6", "--seconds", "0", "--trace", "1"]) == 0
    out = final_line(capsys)
    assert out["correct"]
    assert [*out["metrics"]] == [m["name"] for m in CONTRACT["per_layer"]]
    for m in CONTRACT["per_layer"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] >= 0


def test_all_workloads_in_one_command(small, capsys):
    assert run.main(["--workload", "all", "--seed", "5", "--seconds", "0"]) == 0
    out = final_line(capsys)
    assert out["correct"]
    names = [m["name"] for m in CONTRACT["end_to_end"]]
    assert [*out["metrics"]] == [f"{w}/{n}" for w in run.EVERY_WORKLOAD for n in names]


def test_end_to_end_names_are_defined_on_every_workload():
    for m in CONTRACT["end_to_end"]:
        unit, defined_on = run.END_TO_END[m["name"]]
        assert (unit, set(defined_on)) == (m["unit"], set(run.EVERY_WORKLOAD))
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert CONTRACT["command"] == ["python3", "bench/run.py"] and CONTRACT["paths"] == ["bench"]


def test_forced_check_failure_exits_nonzero(small, capsys, monkeypatch):
    honest = checks.counter_oracle

    def off_by_one(bank, reads, k, t):
        return [[v + 1 for v in values] for values in honest(bank, reads, k, t)]

    monkeypatch.setattr(checks, "counter_oracle", off_by_one)
    assert run.main(["--workload", "counter-short", "--seed", "5", "--seconds", "0"]) == 1
    out = final_line(capsys)
    assert not out["correct"] and out["failed"] > 0


def test_counter_output_checks_catch_reordered_and_short_lines():
    names = ["q0_g", "q1_f"]
    good = ["0\tq0_g\t3\t2.33\t2\t2\t3", "1\tq1_f\t0\tnone"]
    sample = {0: [2, 3, 2], 1: []}
    ok = checks.Checks()
    checks.check_counter_output(ok, good, names, sample)
    assert ok.failed == 0 and ok.attempted == 3

    for bad in (good[::-1], good[:1], ["0\tq0_g\t2\t2.50\t2\t2\t3", good[1]]):
        c = checks.Checks()
        checks.check_counter_output(c, bad, names, sample)
        assert c.failed == 1


def test_oracle_canonical_windows_skip_non_acgt():
    assert checks.canonical_windows("ACGTN", 2) == ["AC", "CG", "AC"]
    # TTT's reverse complement is AAA, the smaller string
    assert checks.canonical_windows("TTT", 3) == ["AAA"]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dict-1e7", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
