"""The quasidict benchmark: seeded workloads, checked outputs, medians.

Usage, from the root of a checkout:

    python3 bench/run.py --workload counter-short --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1    # dict-1e7 too

One invocation makes the workload's inputs from ``--seed`` (untimed), then
starts measured runs, each a fresh ``worker.py`` process, one at a time,
until ``--seconds`` have passed and at least ``MIN_RUNS`` runs are done.
Each worker shares its CPU with a ``pace.py`` probe, which gives the paced
times.
It checks every run's output, prints each metric with its unit and the
environment, writes the full report to ``.bench_run/results/`` and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and the metrics
``BENCHMARK.json`` lists (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). The exit code is 1 when any check failed.

With ``--trace 1`` runs alternate untraced and traced; the traced runs wrap
every public callable of quasidict and give per-layer self times and counts.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks as chk
import inputs
import pace
import tracing
from worker import import_program

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_run")
# the workloads BENCHMARK.json lists; dict-1e7 runs only when named (README.md says why)
WORKLOADS = ("counter-short", "linker-long")
EVERY_WORKLOAD = ("dict-1e7", *WORKLOADS)
MIN_RUNS = 3
RUN_TIMEOUT_S = 120
COUNTER_ORACLE_SAMPLE = 200

# name -> (unit, workloads it is defined on); BENCHMARK.json lists a subset
# of the ones defined on every workload
END_TO_END = {
    "paced_cpu_s": ("s", EVERY_WORKLOAD),
    "setup_s": ("s", EVERY_WORKLOAD),
    "paced_query_s": ("s", EVERY_WORKLOAD),
    "cpu_s": ("s", EVERY_WORKLOAD),
    "setup_cpu_s": ("s", EVERY_WORKLOAD),
    "query_cpu_s": ("s", EVERY_WORKLOAD),
    "wall_s": ("s", EVERY_WORKLOAD),
    "setup_wall_s": ("s", EVERY_WORKLOAD),
    "query_wall_s": ("s", EVERY_WORKLOAD),
    "peak_rss_mb": ("MiB", EVERY_WORKLOAD),
    "index_bits_per_key": ("bits/key", EVERY_WORKLOAD),
    "query_reads_per_s": ("reads/s", ("counter-short", "linker-long")),
    "member_keys_per_s": ("keys/s", ("dict-1e7",)),
    "foreign_keys_per_s": ("keys/s", ("dict-1e7",)),
    "fp_rate": ("ratio", ("dict-1e7",)),
    "recall": ("ratio", ("linker-long",)),
    "precision": ("ratio", ("linker-long",)),
}

LAYERS = (*tracing.FUNCTIONS, *tracing.METHODS)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True
        )
        if head.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


def make_inputs(workload: str, seed: int, workdir: str) -> dict:
    if workload == "dict-1e7":
        return inputs.dict_inputs(seed, workdir)
    if workload == "counter-short":
        return inputs.counter_inputs(seed, workdir)
    import_program(ROOT)
    from quasidict import cli

    return inputs.linker_inputs(seed, workdir, cli.main)


def counter_sample(inp: dict, seed: int) -> dict[int, list[int]]:
    """Oracle values for a seeded sample of query reads (both origins)."""
    rng = np.random.default_rng([seed, 3])
    n = len(inp["queries"])
    picks = sorted(rng.choice(n, size=min(COUNTER_ORACLE_SAMPLE, n), replace=False).tolist())
    reads = [inp["queries"][i] for i in picks]
    values = chk.counter_oracle(inp["bank"], reads, inputs.COUNTER_K, inputs.COUNTER_T)
    return dict(zip(picks, values))


def start_run(workload: str, inp: dict, workdir: str, rep: int, traced: bool, full_check: bool) -> dict:
    """One fresh worker process; waits for it and returns its result."""
    spec = {
        "workload": workload,
        "root": ROOT,
        "rep": rep,
        "trace": traced,
        "full_check": full_check,
        "result_path": os.path.join(workdir, f"result-{rep}.json"),
        "output_path": os.path.join(workdir, f"output-{rep}.txt"),
        "spans_path": os.path.join(workdir, f"spans-{rep}.json"),
        **{k: v for k, v in inp.items() if k.endswith("_path")},
        "sizes": inp["sizes"],
    }
    spec_path = os.path.join(workdir, f"spec-{rep}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    # the worker and its pace probe share one CPU, so the probe sees what the worker sees;
    # runs take the CPUs in turn, as each CPU has its own slow and fast periods
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[rep % len(allowed)]
    probe = pace.Probe(cpu)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            cwd=ROOT,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    finally:
        samples = probe.stop()
    sys.stderr.write(proc.stdout)  # keep our stdout for the report
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} run {rep} exited with {proc.returncode}")
    with open(spec["result_path"]) as fh:
        result = json.load(fh)
    return result | pace.paced(result, samples)


def layer_metrics(run: dict) -> dict:
    """Per-layer metrics of one traced run, from its spans and counts."""
    with open(run["spans_path"]) as fh:
        spans = [tuple(s) for s in json.load(fh)["spans"]]
    selfs = tracing.self_times(spans)
    inside = [s for s in spans if s[3] >= run["t0"] and s[4] <= run["t1"]]
    counts = run["counts"]

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else None

    m = {}
    for name in LAYERS:
        m[f"{name}.calls"] = c(name, "calls")
        m[f"{name}.self_s"] = selfs.get(name, 0.0)
    m.update(
        {
            "seqio.open_reads.reads": c("seqio.open_reads", "reads"),
            "seqio.open_reads.bases": c("seqio.open_reads", "bases"),
            "kmer.scan_kmers.kmers": c("kmer.scan_kmers", "kmers"),
            "kmer.scan_kmers.valid_frac": ratio(c("kmer.scan_kmers", "kmers"), c("kmer.scan_kmers", "windows")),
            "kcount.count_solid.solid": c("kcount.count_solid", "solid"),
            "kcount.count_solid.saturated": c("kcount.count_solid", "saturated"),
            "mphf.construct.levels": c("mphf.construct", "levels"),
            "mphf.construct.fallback": c("mphf.construct", "fallback"),
            "mphf.bits_per_key": run["mphf_bits_per_key"],
            "mphf.lookup_array.keys": c("mphf.lookup_array", "keys"),
            "mphf.lookup_array.found_frac": ratio(c("mphf.lookup_array", "found"), c("mphf.lookup_array", "keys")),
            "bitrank.rank1_array.positions": c("bitrank.rank1_array", "keys"),
            "bitrank.get_array.positions": c("bitrank.get_array", "keys"),
            "core.create.peak_rss_mb": c("core.create", "peak_rss_mb"),
            "core.fingerprint_array.keys": c("core.fingerprint_array", "keys"),
            "core.query_array.keys": c("core.query_array", "keys"),
            "core.query_array.keys_per_call": ratio(c("core.query_array", "keys"), c("core.query_array", "calls")),
            "core.query_array.hit_frac": ratio(c("core.query_array", "found"), c("core.query_array", "keys")),
            "counter.build_counter_index.peak_rss_mb": c("counter.build_counter_index", "peak_rss_mb"),
            "linker.build_linker_index.peak_rss_mb": c("linker.build_linker_index", "peak_rss_mb"),
            "linker.postings": c("linker.build_linker_index", "postings"),
            "linker.mean_posting_length": ratio(
                c("linker.build_linker_index", "postings"), c("linker.build_linker_index", "keys")
            ),
            "linker.link_read.links": c("linker.link_read", "links"),
            "trace.spans": len(spans),
            "trace.wall_s": run["wall_s"],
            "trace.job_self_s": sum(tracing.self_times(inside).values()),
        }
    )
    return m


def _median(values):
    """Median of the defined values; a value every run agrees on (a count) is kept as is."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Inputs, measured runs and checks for one workload; returns the report."""
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    workdir = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t_in = time.perf_counter()
        inp = make_inputs(workload, seed, workdir)
        sample = counter_sample(inp, seed) if workload == "counter-short" else None
        input_s = time.perf_counter() - t_in

        runs: list[dict] = []
        took: list[float] = []
        start = time.perf_counter()
        # start another run only while it is expected to end within --seconds
        while len(runs) < (2 if trace else MIN_RUNS) or time.perf_counter() - start + statistics.median(took) <= seconds:
            traced = trace and len(runs) % 2 == 1
            full_check = workload == "dict-1e7" and len(runs) == 0
            t_run = time.perf_counter()
            runs.append(start_run(workload, inp, workdir, len(runs), traced, full_check))
            took.append(time.perf_counter() - t_run)
        measure_s = time.perf_counter() - start

        checks = chk.Checks()
        chk.check_same_output(checks, runs)
        for run in runs:
            if workload == "dict-1e7":
                chk.check_dict_run(checks, run, inputs.DICT_FOREIGN_PROBES, inputs.DICT_F)
                continue
            chk.check_setup_called_once(checks, run)
            if workload == "linker-long":
                chk.check_linker_run(checks, run)
        if workload == "counter-short":
            # outputs are identical across runs (checked above), so one oracle pass covers all
            with open(os.path.join(workdir, "output-0.txt")) as fh:
                lines = fh.read().splitlines()
            chk.check_counter_output(checks, lines, inp["query_names"], sample)

        plain = [r for r in runs if not r["traced"]]
        traced_runs = [r for r in runs if r["traced"]]
        e2e = {}
        for name, (unit, defined_on) in END_TO_END.items():
            if workload in defined_on:
                values = [r[name] for r in plain]
                e2e[name] = {"value": _median(values), "unit": unit, "runs": values}

        layers = {}
        if traced_runs:
            per_run = [layer_metrics(r) for r in traced_runs]
            for key in per_run[0]:
                layers[key] = _median([m[key] for m in per_run])
            layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]["value"]
            for run, m in zip(traced_runs, per_run):
                chk.check_trace_sum(checks, run, m["trace.job_self_s"])
                kept = os.path.join(WORK, "results", f"{workload}-seed{seed}-spans-{run['rep']}.json")
                shutil.copy(run["spans_path"], kept)
        e2e["fail_frac"] = {"value": checks.failed / checks.attempted, "unit": "ratio"}

        return {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "environment": environment(seed),
            "inputs": inp["sizes"] | {"index_keys": runs[0]["index_keys"]},
            "input_s": input_s,
            "measure_s": measure_s,
            "runs": len(plain),
            "pace_chunk_s": [r["pace_chunk_s"] for r in plain],
            "pace_samples": [r["pace_samples"] for r in plain],
            "traced_runs": len(traced_runs),
            "end_to_end": e2e,
            "per_layer": layers,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failures": checks.failures(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def contract_metrics(report: dict, contract: dict) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    if report["trace"]:
        return {m["name"]: {"value": report["per_layer"][m["name"]], "unit": m["unit"]} for m in contract["per_layer"]}
    return {m["name"]: {"value": report["end_to_end"][m["name"]]["value"], "unit": m["unit"]} for m in contract["end_to_end"]}


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"== {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("inputs: " + ", ".join(f"{k}={v}" for k, v in report["inputs"].items() if not k.endswith("sha256")))
    print(f"runs: {report['runs']} untraced, {report['traced_runs']} traced; inputs made in {report['input_s']:.2f} s")
    for name, m in report["end_to_end"].items():
        runs = m.get("runs")
        spread = "" if not runs else "  runs: " + " ".join(f"{v:.6g}" for v in runs)
        print(f"  {name:<22} {m['value']:>14.6g} {m['unit']:<9}{spread}")
    for name, value in report["per_layer"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14}")
    print(f"checks: {report['attempted'] - report['failed']}/{report['attempted']} passed")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*EVERY_WORKLOAD, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "quasidict")):
        parser.error(f"no quasidict sources under {os.path.join(ROOT, 'src')}")
    contract = load_contract()
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds

    workloads = EVERY_WORKLOAD if args.workload == "all" else (args.workload,)
    reports = [run_workload(w, args.seed, seconds, bool(args.trace)) for w in workloads]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    for report in reports:
        print_report(report)
        path = os.path.join(WORK, "results", f"{report['workload']}-seed{args.seed}-trace{args.trace}-{stamp}.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"report: {os.path.relpath(path, ROOT)}")

    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = contract_metrics(reports[0], contract)
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in contract_metrics(r, contract).items()}
    final = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # a terminated benchmark still stops its worker and probe (the finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
