"""One measured run of one workload, in a fresh process.

Usage: ``python3 bench/worker.py SPEC.json`` (started by ``run.py``). The
spec names the workload, the checkout root, the inputs and whether to
trace. The worker imports quasidict from the checkout's ``src/``, runs the
job once inside the timed window, reads its own peak RSS, then gathers
what the checks need and writes one result JSON to ``spec["result_path"]``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import numpy as np

import inputs
from tracing import Patches, Stopwatch, Tracer, install, resolve, rss_mib


def import_program(root: str):
    """Import quasidict from ``root/src`` and refuse any other copy."""
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import quasidict

    if not os.path.realpath(quasidict.__file__).startswith(src + os.sep):
        raise ImportError(f"quasidict imported from {quasidict.__file__}, not from {src}")
    return quasidict


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _bits_per_key(qd) -> float:
    return len(qd.serialize()) * 8 / max(qd.n_keys, 1)


def run_dict(spec: dict, patches: Patches) -> dict:
    from quasidict.core import QuasiDictionary

    keys = np.load(spec["keys_path"])
    foreign = np.load(spec["foreign_path"])
    members = keys[: spec["sizes"]["member_probes"]]

    c0, t0 = time.process_time(), time.perf_counter()
    qd = QuasiDictionary.create(keys, f=inputs.DICT_F, gamma=inputs.DICT_GAMMA, k=31)
    c1, t1 = time.process_time(), time.perf_counter()
    member_slots = qd.query_array(members)
    t2 = time.perf_counter()
    foreign_slots = qd.query_array(foreign)
    c3, t3 = time.process_time(), time.perf_counter()
    peak = rss_mib()
    patches.restore()  # nothing below is part of the measured job

    n = qd.n_keys
    false_positives = int(np.count_nonzero(foreign_slots >= 0))
    in_range = bool(((member_slots >= 0) & (member_slots < n)).all())
    distinct = in_range and len(np.unique(member_slots)) == len(member_slots)
    out = {
        "t0": t0,
        "t1": t3,
        "setup_window": [t0, t1],
        "wall_s": t3 - t0,
        "setup_wall_s": t1 - t0,
        "query_wall_s": t3 - t1,
        "cpu_s": c3 - c0,
        "setup_cpu_s": c1 - c0,
        "query_cpu_s": c3 - c1,
        "member_keys_per_s": len(members) / (t2 - t1),
        "foreign_keys_per_s": len(foreign) / (t3 - t2),
        "peak_rss_mb": peak,
        "index_bits_per_key": _bits_per_key(qd),
        "mphf_bits_per_key": qd.mphf.bits_per_key(),
        "index_keys": n,
        "false_positives": false_positives,
        "fp_rate": false_positives / len(foreign),
        "member_slots_ok": distinct,
        "output_sha256": hashlib.sha256(member_slots.tobytes() + foreign_slots.tobytes()).hexdigest(),
    }
    if spec["full_check"]:
        # every key's slot, once: a permutation of [0, N) means no false negatives
        slots = qd.query_array(keys)
        ok = bool(((slots >= 0) & (slots < n)).all()) and bool((np.bincount(slots, minlength=n) == 1).all())
        out["permutation_ok"] = ok
    return out


def run_tool(spec: dict, patches: Patches) -> dict:
    """counter-short and linker-long: ``cli.main`` from argv to closed output."""
    from quasidict import cli

    tool = "counter" if spec["workload"] == "counter-short" else "linker"
    build_spec = (f"quasidict.{tool}", f"build_{tool}_index")
    module = sys.modules[build_spec[0]]
    watch = Stopwatch()
    patches.set(module, build_spec[1], watch.wrap(resolve(build_spec)))
    tool_args = inputs.COUNTER_ARGS if tool == "counter" else inputs.LINKER_ARGS
    output = spec["output_path"]
    argv = [tool, "-b", spec["bank_path"], "-q", spec["fof_path"], "-o", output, *tool_args]

    c0, t0 = time.process_time(), time.perf_counter()
    code = cli.main(argv)
    c1, t1 = time.process_time(), time.perf_counter()
    peak = rss_mib()
    if code != 0:
        raise RuntimeError(f"qd {' '.join(argv)} exited with {code}")
    if watch.calls == 0 or watch.seconds <= 0:
        raise RuntimeError(f"{'.'.join(build_spec)} was never called: the set-up wrapper no longer sees the build")

    index = watch.last
    out = {
        "t0": t0,
        "t1": t1,
        "setup_window": watch.window,
        "wall_s": t1 - t0,
        "setup_wall_s": watch.seconds,
        "setup_calls": watch.calls,
        "query_wall_s": (t1 - t0) - watch.seconds,
        "cpu_s": c1 - c0,
        "setup_cpu_s": watch.cpu_seconds,
        "query_cpu_s": (c1 - c0) - watch.cpu_seconds,
        "query_reads_per_s": spec["sizes"]["query_reads"] / ((t1 - t0) - watch.seconds),
        "peak_rss_mb": peak,
        "index_bits_per_key": _bits_per_key(index.qd),
        "mphf_bits_per_key": index.qd.mphf.bits_per_key(),
        "index_keys": index.qd.n_keys,
        "output_sha256": _sha256_file(output),
    }
    if tool == "linker":
        from quasidict import evaluation

        truth = evaluation.load_truth(spec["truth_path"])
        recall, precision, _ = evaluation.score(evaluation.pairs_from_linker_output(output), truth)
        out.update(recall=recall, precision=precision)
    patches.restore()
    return out


JOBS = {"dict-1e7": run_dict, "counter-short": run_tool, "linker-long": run_tool}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import_program(spec["root"])
    tracer = Tracer() if spec["trace"] else None
    patches = install(tracer) if tracer else Patches()
    result = JOBS[spec["workload"]](spec, patches)
    result["rep"] = spec["rep"]
    result["traced"] = bool(tracer)
    if tracer:
        tracer.dump(spec["spans_path"])
        result["spans_path"] = spec["spans_path"]
        result["spans"] = len(tracer.spans)
        result["counts"] = {name: dict(c) for name, c in tracer.counts.items()}
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
