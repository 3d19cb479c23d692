"""Command-line front end.

One umbrella binary, ``qd``, with subcommands:

  counter   per-read abundance estimates of queries in a bank
  linker    similar-read pairs between queries and a bank
  sim       spot-based noisy long-read simulator with ground truth
  score     recall/precision/F of linker output against ground truth
  stats     build an index and report size, false-positive rate, speed

``src-counter``, ``src-linker``, ``qd-sim`` and ``qd-score`` install as
aliases of the corresponding subcommands. Everything is deterministic
given --seed; --threads is accepted and validated but this implementation
runs on a single thread (counter and linker scan and query their reads in
batches of at most kcount.BATCH_BASES bases), so results never depend on it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from stat import S_IMODE, S_ISREG

import numpy as np

from . import __version__
from .bits import DEFAULT_SEED, MIX_MULT_1, MIX_MULT_2, distinct, locate
from .core import QuasiDictionary
from .counter import run_counter
from .evaluation import SimConfig, load_truth, pairs_from_linker_output, score, simulate
from .kcount import COUNT_CAP, count_solid
from .kmer import MAX_K
from .linker import DEFAULT_LINK_THRESHOLD, run_linker
from .mphf import MAX_GAMMA
from .seqio import open_file_of_files, open_reads

_VERSION_TEXT = (
    f"qd {__version__} "
    f"(mixer constants {MIX_MULT_1:#018x} {MIX_MULT_2:#018x}, "
    f"default seed {DEFAULT_SEED:#018x})"
)


def _add_index_options(p: argparse.ArgumentParser, default_t: int = 2) -> None:
    p.add_argument("-k", type=int, default=31, help="k-mer length (1..31)")
    p.add_argument("-t", type=int, default=default_t, help="solidity threshold (1..255)")
    p.add_argument("-f", type=int, default=12, help="fingerprint width in bits (1..64)")
    p.add_argument("--gamma", type=float, default=2.0, help=f"hash expansion factor (1.0..{MAX_GAMMA})")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed (0..2**64-1)")
    p.add_argument("--threads", type=int, default=1, help="worker bound (>= 1)")


def _check_ranges(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    for name, lo, hi in (("k", 1, MAX_K), ("t", 1, COUNT_CAP), ("f", 1, 64)):
        value = getattr(args, name, None)
        if value is not None and not lo <= value <= hi:
            parser.error(f"-{name} must be in [{lo}, {hi}], got {value}")
    if not 1.0 <= getattr(args, "gamma", 1.0) <= MAX_GAMMA:  # also false for nan
        parser.error(f"--gamma must be in [1.0, {MAX_GAMMA}], got {args.gamma}")
    if getattr(args, "threads", 1) < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    if not 0 <= getattr(args, "seed", 0) < 1 << 64:
        parser.error(f"--seed must be in [0, 2**64), got {args.seed}")
    window = getattr(args, "w", None)
    if window is not None and window < args.k:
        parser.error(f"-w ({window}) must be >= the k-mer length ({args.k})")


def build_parser() -> argparse.ArgumentParser:
    # The raw formatter keeps --version on the one line of _VERSION_TEXT;
    # the default one refills it to the terminal width.
    parser = argparse.ArgumentParser(
        prog="qd",
        description="Probabilistic static-set dictionary tools for k-mer indexing.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=_VERSION_TEXT)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("counter", help="estimate query-read abundance in a bank")
    c.add_argument("-b", required=True, metavar="BANK", help="bank read set (FASTA/FASTQ)")
    c.add_argument("-q", required=True, metavar="FOF", help="file of query read-set paths")
    c.add_argument("-o", required=True, metavar="OUT", help="output file")
    _add_index_options(c)

    l = sub.add_parser("linker", help="find similar reads between queries and a bank")
    l.add_argument("-b", required=True, metavar="BANK", help="bank read set (FASTA/FASTQ)")
    l.add_argument("-q", required=True, metavar="FOF", help="file of query read-set paths")
    l.add_argument("-o", required=True, metavar="OUT", help="output file")
    l.add_argument(
        "-s",
        type=int,
        default=DEFAULT_LINK_THRESHOLD,
        metavar="MIN",
        help="minimum covered positions to report a target",
    )
    l.add_argument("-w", type=int, default=None, metavar="W", help="window size (default: whole read)")
    _add_index_options(l)

    s = sub.add_parser("sim", help="simulate spot-based noisy reads with ground truth")
    s.add_argument("--genome-len", type=int, required=True)
    s.add_argument("--spots", type=int, required=True)
    s.add_argument("--read-len", type=int, default=2000)
    s.add_argument("--reads-per-spot", type=int, default=50)
    s.add_argument("--error-rate", type=float, default=0.12)
    s.add_argument("--gap", type=int, default=500, help="minimum gap between spots")
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--threads", type=int, default=1, help="worker bound (>= 1)")
    s.add_argument("-o", required=True, metavar="FASTA", help="simulated reads output")
    s.add_argument("--truth", required=True, metavar="TSV", help="ground-truth pairs output")

    v = sub.add_parser("score", help="score linker output against ground truth")
    v.add_argument("--pred", required=True, help="linker output file")
    v.add_argument("--truth", required=True, help="ground-truth pair file")
    v.add_argument("--threads", type=int, default=1, help="worker bound (>= 1)")

    st = sub.add_parser("stats", help="index a key set and report size/FP-rate/speed")
    src = st.add_mutually_exclusive_group(required=True)
    src.add_argument("-b", metavar="BANK", help="bank read set to index")
    src.add_argument("--random-keys", type=int, metavar="N", help="index N random k-mer codes")
    st.add_argument("--probes", type=int, default=1_000_000, help="non-key probe count")
    _add_index_options(st, default_t=1)

    return parser


def _index_options(args) -> dict:
    return dict(k=args.k, t=args.t, f=args.f, gamma=args.gamma, seed=args.seed)


@contextmanager
def _whole_output(path: str):
    """Text stream to ``path`` that leaves a regular file whole or untouched.

    A regular or new file is written under a temporary name beside it, renamed
    over ``path`` on success and removed on failure, so a run that fails part
    way leaves no truncated result. Anything else, such as /dev/null or a
    symlink, is written in place: a rename must never replace it.
    """
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not S_ISREG(st.st_mode):
        with open(path, "w", encoding="latin-1") as out:
            yield out
        return
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="latin-1") as out:
            if st is not None:
                os.chmod(fd, S_IMODE(st.st_mode))
            yield out
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_counter(args) -> int:
    queries = open_file_of_files(args.q)
    with _whole_output(args.o) as out:
        run_counter(args.b, queries, out, **_index_options(args))
    return 0


def _cmd_linker(args) -> int:
    queries = open_file_of_files(args.q)
    with _whole_output(args.o) as out:
        run_linker(args.b, queries, out, threshold=args.s, window=args.w, **_index_options(args))
    return 0


def _cmd_sim(args) -> int:
    cfg = SimConfig(
        genome_length=args.genome_len,
        n_spots=args.spots,
        read_length=args.read_len,
        reads_per_spot=args.reads_per_spot,
        error_rate=args.error_rate,
        spot_min_gap=args.gap,
        rng_seed=args.seed,
    )
    simulate(cfg, args.o, args.truth)
    return 0


def _cmd_score(args) -> int:
    truth = load_truth(args.truth)
    recall, precision, f_measure = score(pairs_from_linker_output(args.pred), truth)
    print(f"{100 * recall:.2f} {100 * precision:.2f} {100 * f_measure:.2f}")
    return 0


def _distinct_random_codes(n: int, width_bits: int, rng: np.random.Generator, exclude=()) -> np.ndarray:
    """n distinct random codes, sorted, none of them in the sorted array ``exclude``."""
    codes = np.empty(0, dtype=np.uint64)
    while len(codes) < n:
        draw = rng.integers(0, 1 << width_bits, size=n + n // 8 + 16, dtype=np.uint64)
        draw = draw[locate(exclude, draw) < 0]
        codes = distinct(np.concatenate([codes, draw]))[0]
    return codes[:n]


def stats_run(args) -> dict:
    """'stats' engine; returns the measurements so tests can assert on them."""
    rng = np.random.default_rng(args.seed)
    n_codes = 1 << (2 * args.k)
    if args.b is not None:
        table = count_solid(open_reads(args.b), args.k, args.t)
        keys = table.codes
    else:
        if not 0 <= args.random_keys <= n_codes:
            raise ValueError(f"--random-keys must be in [0, 4^k = {n_codes}], got {args.random_keys}")
        keys = _distinct_random_codes(args.random_keys, 2 * args.k, rng)
    if not 0 <= args.probes <= n_codes - len(keys):
        raise ValueError(
            f"--probes must be in [0, 4^k - keys = {n_codes - len(keys)}], got {args.probes}"
        )

    t0 = time.perf_counter()
    qd = QuasiDictionary.create(keys, f=args.f, gamma=args.gamma, k=args.k, seed=args.seed)
    build_seconds = time.perf_counter() - t0

    probes = _distinct_random_codes(args.probes, 2 * args.k, rng, exclude=keys)  # keys are sorted

    t0 = time.perf_counter()
    answers = qd.query_array(probes)
    query_seconds = time.perf_counter() - t0
    false_positives = int((answers >= 0).sum())

    return {
        "n_keys": len(keys),
        "mphf_bits_per_key": qd.mphf.bits_per_key(),
        "total_bits_per_key": qd.bits_per_key(),
        "fingerprint_bits": qd.fingerprint_bits(),
        "build_seconds": build_seconds,
        "probes": len(probes),
        "false_positives": false_positives,
        "fp_rate": false_positives / max(len(probes), 1),
        "expected_fp_rate": 2.0**-args.f,
        "queries_per_second": len(probes) / query_seconds if query_seconds > 0 else float("inf"),
    }


def _cmd_stats(args) -> int:
    r = stats_run(args)
    print(f"keys indexed:        {r['n_keys']}")
    print(f"mphf bits/key:       {r['mphf_bits_per_key']:.3f}")
    print(f"total bits/key:      {r['total_bits_per_key']:.3f}")
    print(f"fingerprint bits:    {r['fingerprint_bits']}")
    print(f"construction time:   {r['build_seconds']:.3f} s")
    print(f"probes:              {r['probes']}")
    print(f"false positives:     {r['false_positives']}")
    print(f"observed fp rate:    {r['fp_rate']:.3e} (expected {r['expected_fp_rate']:.3e})")
    print(f"queries/second:      {r['queries_per_second']:.3e}")
    return 0


_DISPATCH = {
    "counter": _cmd_counter,
    "linker": _cmd_linker,
    "sim": _cmd_sim,
    "score": _cmd_score,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_ranges(parser, args)
    try:
        return _DISPATCH[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"qd {args.command}: error: {exc}", file=sys.stderr)
        return 1


def _alias(command: str):
    def runner(argv: list[str] | None = None) -> int:
        argv = sys.argv[1:] if argv is None else argv
        return main([command, *argv])

    return runner


main_counter = _alias("counter")
main_linker = _alias("linker")
main_sim = _alias("sim")
main_score = _alias("score")


if __name__ == "__main__":
    sys.exit(main())
