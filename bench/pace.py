"""Machine-pace probe: how fast the CPU a run is on executes fixed work.

On a shared host the same run of the same code takes from 1x to 2x its CPU
time, depending on what the host's other tenants do to the core; the slow
and fast periods last from seconds to minutes, and each CPU has its own. A
probe started beside each measured run, pinned to the same CPU at the
lowest priority, takes about 1.5% of that CPU and times a short fixed chunk
of interpreter work (300 lookups in a 1000-entry dict, no quasidict code)
each time the scheduler lets it run, so it sees the same periods as the run.
The chunk is short enough to stay in cache between the run's time slices,
so the job's own use of the caches barely moves it.

``paced`` turns a run's CPU time into its time at a fixed machine pace:

    raw CPU time x (REFERENCE_CHUNK_S / median chunk time) ** PACE_EXPONENT

with the median over the same window. The probe speeds up and slows down
about twice as much as the jobs do (a fast period speeds tight interpreter
loops more than the jobs' mix of interpreter, numpy and memory traffic), so
the exponent is 1/2. ``REFERENCE_CHUNK_S`` only fixes the scale.

Usage: ``python3 bench/pace.py`` prints ``ready``, runs until SIGTERM, then
prints one JSON list of ``[end, cpu_s]`` per chunk (``end`` on the
``time.perf_counter`` clock, which all processes of the machine share).
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

TABLE_KEYS = 1_000
CHUNK_LOOKUPS = 300
# about the median chunk CPU time on a 2-vCPU Intel Xeon VM, Python 3.11.7
REFERENCE_CHUNK_S = 28e-6
PACE_EXPONENT = 0.5
# fewer samples than this inside a window: the run's whole sample set is used
MIN_WINDOW_SAMPLES = 50


def _serve() -> None:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    os.nice(19)
    table = {i * 7919: i for i in range(TABLE_KEYS)}
    probe = [((i * 2654435761) % TABLE_KEYS) * 7919 for i in range(CHUNK_LOOKUPS)]
    parent = os.getppid()
    samples = []
    print("ready", flush=True)
    while not stopping and os.getppid() == parent:  # never outlive the benchmark
        c0 = time.process_time()
        total = 0
        for key in probe:
            total += table[key]
        samples.append((time.perf_counter(), time.process_time() - c0))
    json.dump(samples, sys.stdout)


class Probe:
    """A running probe process pinned to ``cpu``; ``stop`` returns its samples."""

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the pace probe did not start")

    def stop(self) -> list[tuple[float, float]]:
        self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        return [tuple(s) for s in json.loads(out)] if out.strip() else []


def chunk_s(samples, windows) -> float:
    """Median chunk time of the samples that end inside any of ``windows``.

    Falls back to every sample when the windows hold too few of them (tiny
    runs, as in the self-tests).
    """
    inside = [c for end, c in samples if any(a <= end <= b for a, b in windows)]
    chosen = inside if len(inside) >= MIN_WINDOW_SAMPLES else [c for _, c in samples]
    if not chosen:
        raise RuntimeError("the pace probe took no samples")
    return statistics.median(chosen)


def paced(run: dict, samples) -> dict:
    """The run's CPU times at the reference pace, each over its own window."""
    setup = tuple(run["setup_window"])
    windows = {
        "paced_cpu_s": ("cpu_s", [(run["t0"], run["t1"])]),
        "setup_s": ("setup_cpu_s", [setup]),
        "paced_query_s": ("query_cpu_s", [(run["t0"], setup[0]), (setup[1], run["t1"])]),
    }
    out = {"pace_samples": len(samples), "pace_chunk_s": chunk_s(samples, windows["paced_cpu_s"][1])}
    for name, (raw, window) in windows.items():
        out[name] = run[raw] * (REFERENCE_CHUNK_S / chunk_s(samples, window)) ** PACE_EXPONENT
    return out


if __name__ == "__main__":
    _serve()
