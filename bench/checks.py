"""Correctness checks on the outputs of measured runs.

Every check appends one ``(name, passed, detail)`` entry to a ``Checks``
record; the benchmark reports ``failed / attempted`` and exits non-zero
when anything failed. The counter oracle is independent pure Python: it
shares no code with quasidict.
"""

from __future__ import annotations

import math

COUNT_CAP = 255  # counts are stored in one byte (kcount.COUNT_CAP)
RECALL_FLOOR = 0.90  # c08
PRECISION_FLOOR = 0.90  # c08
FP_BAND_SIGMAS = 6.0

_COMPLEMENT = str.maketrans("ACGT", "TGCA")
_NUCLEOTIDES = frozenset("ACGT")


class Checks:
    def __init__(self):
        self.entries: list[tuple[str, bool, str]] = []

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.entries.append((name, bool(passed), detail))

    @property
    def attempted(self) -> int:
        return len(self.entries)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.entries if not ok)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.entries if not ok]


def canonical_windows(seq: str, k: int) -> list[str]:
    """Canonical k-mer strings of every window made only of A/C/G/T.

    The canonical form is the smaller of the k-mer and its reverse
    complement in string order, which is also 2-bit code order.
    """
    seq = seq.upper()
    rc = seq.translate(_COMPLEMENT)[::-1]
    n = len(seq)
    out = []
    for i in range(n - k + 1):
        fwd = seq[i : i + k]
        if not _NUCLEOTIDES.issuperset(fwd):
            continue
        rev = rc[n - i - k : n - i]
        out.append(fwd if fwd <= rev else rev)
    return out


def counter_oracle(bank: list[str], reads: list[str], k: int, t: int) -> list[list[int]]:
    """For each read: the capped bank count of every window whose k-mer is solid."""
    windows = [canonical_windows(r, k) for r in reads]
    counts = dict.fromkeys((c for w in windows for c in w), 0)
    for read in bank:
        for c in canonical_windows(read, k):
            if c in counts:
                counts[c] += 1
    return [[min(counts[c], COUNT_CAP) for c in w if counts[c] >= t] for w in windows]


def expected_stats(values: list[int]) -> tuple[str, int, int, int]:
    """(mean to two decimals, lower median, min, max) as the counter prints them."""
    ordered = sorted(values)
    n = len(ordered)
    return f"{sum(ordered) / n:.2f}", ordered[(n - 1) // 2], ordered[0], ordered[-1]


def check_counter_output(
    checks: Checks,
    lines: list[str],
    names: list[str],
    sample: dict[int, list[int]],
) -> None:
    """One line per query read in order; sampled reads against the oracle.

    ``sample`` maps a query read index to its oracle values. A read's
    ``n_indexed`` may exceed the oracle's solid hits (false positives add
    hits) but never fall short of it; when they are equal, no false
    positive touched the read and its statistics must be exact.
    """
    ordered = len(lines) == len(names) and all(
        line.split("\t", 2)[:2] == [str(i), name] for i, (line, name) in enumerate(zip(lines, names))
    )
    checks.add("counter.lines_in_order", ordered, f"{len(lines)} lines for {len(names)} reads")
    if not ordered:
        return
    for i, values in sorted(sample.items()):
        fields = lines[i].split("\t")
        n_indexed = int(fields[2])
        if n_indexed < len(values):
            checks.add("counter.oracle", False, f"read {i}: {n_indexed} indexed < {len(values)} solid")
        elif n_indexed > len(values):
            checks.add("counter.oracle", True, f"read {i}: {n_indexed - len(values)} false-positive hits")
        elif not values:
            checks.add("counter.oracle", fields[3:] == ["none"], f"read {i}: expected 'none'")
        else:
            want = expected_stats(values)
            got = (fields[3], int(fields[4]), int(fields[5]), int(fields[6]))
            checks.add("counter.oracle", got == want, f"read {i}: got {got}, want {want}")


def fp_band(probes: int, f: int) -> tuple[float, float]:
    """Accepted-foreign-key count band: binomial mean +- FP_BAND_SIGMAS sd at p = 2**-f."""
    p = 2.0**-f
    mean = probes * p
    sd = math.sqrt(probes * p * (1 - p))
    return mean - FP_BAND_SIGMAS * sd, mean + FP_BAND_SIGMAS * sd


def check_dict_run(checks: Checks, run: dict, probes: int, f: int) -> None:
    checks.add("dict.member_slots_distinct_in_range", run["member_slots_ok"], "")
    lo, hi = fp_band(probes, f)
    fp = run["false_positives"]
    checks.add("dict.fp_in_binomial_band", lo <= fp <= hi, f"{fp} accepted, band [{lo:.1f}, {hi:.1f}]")
    if run.get("permutation_ok") is not None:
        checks.add("dict.all_slots_permutation", run["permutation_ok"], "")


def check_linker_run(checks: Checks, run: dict) -> None:
    checks.add("linker.recall_floor", run["recall"] >= RECALL_FLOOR, f"recall {run['recall']:.4f}")
    checks.add("linker.precision_floor", run["precision"] >= PRECISION_FLOOR, f"precision {run['precision']:.4f}")


def check_same_output(checks: Checks, runs: list[dict]) -> None:
    """Every run of one invocation, traced or not, wrote the same output."""
    first = runs[0]["output_sha256"]
    for run in runs[1:]:
        checks.add("output_identical_across_runs", run["output_sha256"] == first, f"run {run['rep']}")


def check_setup_called_once(checks: Checks, run: dict) -> None:
    checks.add("setup_wrapper_called_once", run["setup_calls"] == 1, f"{run['setup_calls']} calls")


def check_trace_sum(checks: Checks, run: dict, job_self_s: float) -> None:
    """Self times of the spans inside the job window sum to at most its wall time."""
    checks.add(
        "trace.self_sum_within_wall",
        job_self_s <= run["wall_s"] * (1 + 1e-9),
        f"{job_self_s:.6f} s of self time in {run['wall_s']:.6f} s",
    )
