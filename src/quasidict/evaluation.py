"""Spot-based long-read simulation and recall/precision scoring.

``simulate`` plants non-overlapping spots on a random genome and emits
noisy reads of each spot (random strand; substitutions, insertions and
deletions in equal thirds at a configurable per-base rate). Reads from
the same spot are fully overlapping by construction, so ground truth is
simply the set of intra-spot read-id pairs (a, b) with a < b, and no
third-party mapper is needed.

``score`` compares a predicted set of unordered read-id pairs against
the ground truth: recall is the fraction of truth pairs recovered,
precision the fraction of predictions that are real, and the F-measure
their harmonic mean.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)
_BASE_INDEX = np.zeros(256, dtype=np.uint8)
_BASE_INDEX[_BASES] = np.arange(4)
_COMPLEMENT = str.maketrans("ACGT", "TGCA")

ERROR_KINDS = ("sub", "ins", "del")


@dataclass
class SimConfig:
    genome_length: int
    n_spots: int
    read_length: int = 2000
    reads_per_spot: int = 50
    error_rate: float = 0.12
    spot_min_gap: int = 500
    rng_seed: int = 1

    def validate(self) -> None:
        if not 0.0 <= self.error_rate < 0.5:
            raise ValueError(f"error rate must be in [0, 0.5), got {self.error_rate}")
        if self.n_spots < 1 or self.reads_per_spot < 1 or self.read_length < 1:
            raise ValueError("spots, reads per spot and read length must be positive")
        if self.spot_min_gap < 0:  # spots would overlap, but the truth holds only same-spot pairs
            raise ValueError(f"gap between spots must be >= 0, got {self.spot_min_gap}")
        if self.n_spots * (self.read_length + self.spot_min_gap) > self.genome_length:
            raise ValueError(
                f"cannot place {self.n_spots} spots of {self.read_length} bases "
                f"with gaps >= {self.spot_min_gap} on a {self.genome_length}-base genome"
            )


def normalize_pairs(pairs: Iterable[tuple[int, int]]) -> set:
    """Orient each couple as (min, max); rejects self-pairs."""
    out = set()
    for a, b in pairs:
        if a == b:
            raise ValueError(f"self-pair ({a}, {b}) is not a valid couple")
        out.add((a, b) if a < b else (b, a))
    return out


def _random_genome(rng: np.random.Generator, length: int) -> str:
    return _BASES[rng.integers(0, 4, size=length)].tobytes().decode("ascii")


def _revcomp_str(seq: str) -> str:
    return seq.translate(_COMPLEMENT)[::-1]


def apply_errors(
    seq: str,
    rate: float,
    rng: np.random.Generator,
    kinds: tuple[str, ...] = ERROR_KINDS,
) -> str:
    """Per-base i.i.d. errors: each base errs with probability ``rate``,
    the error kind drawn uniformly from ``kinds``.

    Substitution replaces an ACGT base with one of the three others,
    insertion adds a random base before the current one, deletion drops it.
    """
    if rate <= 0.0:
        return seq
    n = len(seq)
    err = np.nonzero(rng.random(n) < rate)[0]
    if len(err) == 0:
        return seq
    kind = rng.integers(0, len(kinds), size=len(err))
    sub_off = rng.integers(1, 4, size=len(err))  # shift to one of the 3 other bases
    ins_base = rng.integers(0, 4, size=len(err))
    is_sub = np.array([k == "sub" for k in kinds])[kind]
    is_ins = np.array([k == "ins" for k in kinds])[kind]
    base = np.frombuffer(bytearray(seq, "ascii"), dtype=np.uint8)
    sub = err[is_sub]
    base[sub] = _BASES[(_BASE_INDEX[base[sub]] + sub_off[is_sub]) % 4]
    # copies of each base in the read: 2 with a base inserted before it, 0 if deleted
    emit = np.ones(n, dtype=np.int64)
    emit[err] = is_sub + 2 * is_ins
    out = np.repeat(base, emit)
    out[np.cumsum(emit)[err[is_ins]] - 2] = _BASES[ins_base[is_ins]]
    return out.tobytes().decode("ascii")


def simulate(cfg: SimConfig, reads_path: str, truth_path: str | None = None) -> set:
    """Write the simulated FASTA (and optionally the truth file) and return
    the truth: the set of same-spot read-id pairs (a, b) with a < b. Fully
    deterministic under cfg.rng_seed, spot by spot."""
    cfg.validate()
    rng = np.random.default_rng([cfg.rng_seed, 0])
    genome = _random_genome(rng, cfg.genome_length)

    span = cfg.read_length + cfg.spot_min_gap
    slack = cfg.genome_length - cfg.n_spots * cfg.read_length - (cfg.n_spots - 1) * cfg.spot_min_gap
    jitter = np.sort(rng.integers(0, slack + 1, size=cfg.n_spots))
    spot_starts = [int(jitter[s]) + s * span for s in range(cfg.n_spots)]

    truth = set()
    with open(reads_path, "w") as fa:
        for s, start in enumerate(spot_starts):
            template = genome[start : start + cfg.read_length]
            spot_rng = np.random.default_rng([cfg.rng_seed, 1, s])
            for j in range(cfg.reads_per_spot):
                source = template if spot_rng.random() < 0.5 else _revcomp_str(template)
                seq = apply_errors(source, cfg.error_rate, spot_rng)
                fa.write(f">sim_{s}_{j} spot={s} start={start}\n{seq}\n")
            first = s * cfg.reads_per_spot
            truth.update(combinations(range(first, first + cfg.reads_per_spot), 2))
    if truth_path is not None:
        write_truth(truth, truth_path)
    return truth


def write_truth(truth: set, path: str) -> None:
    with open(path, "w") as fh:
        for a, b in sorted(truth):
            fh.write(f"{a}\t{b}\n")


def _parsed_lines(path: str, parse, form: str) -> list:
    """``parse`` of each stripped non-blank line; a line it rejects raises ``ValueError`` naming path:line."""
    out = []
    with open(path, encoding="latin-1") as fh:  # any byte reaches parse, which rejects what is no id
        for n, line in enumerate(map(str.strip, fh), 1):
            if line:
                try:
                    out.append(parse(line))
                except ValueError:
                    raise ValueError(f"{path}:{n}: expected {form}") from None
    return out


# a read id is digits only: int() would also take a sign, underscores and spaces
_ID_PAIR = re.compile(r"([0-9]+)\t([0-9]+)")
# a linker line: <read id>:<links>, and one of its links: <target id>-<score>[@<start>]
_QUERY = re.compile(r"([0-9]+):(.*)")
_LINK = re.compile(r"([0-9]+)-[0-9]+(?:@[0-9]+)?")


def _id_pair(line: str) -> tuple[int, int]:
    pair = _ID_PAIR.fullmatch(line)
    if pair is None or int(pair[1]) == int(pair[2]):
        raise ValueError
    return int(pair[1]), int(pair[2])


def _links(line: str) -> list[tuple[int, int]]:
    query = _QUERY.fullmatch(line)
    if query is None:
        raise ValueError
    qid, links = int(query[1]), [_LINK.fullmatch(item) for item in query[2].split()]
    if None in links:
        raise ValueError
    return [(qid, int(link[1])) for link in links]


def load_truth(path: str) -> set:
    """The truth file's pairs, each oriented (a, b) with a < b."""
    return normalize_pairs(_parsed_lines(path, _id_pair, "two distinct read ids separated by one tab"))


def pairs_from_linker_output(path: str) -> set:
    """Adapter: linker text output -> deduplicated unordered id pairs
    (scores, window starts and self links dropped)."""
    lines = _parsed_lines(path, _links, "'<read id>:<target id>-<score>[@<start>] ...'")
    return normalize_pairs((q, t) for links in lines for q, t in links if q != t)


def score(
    predicted: Iterable[tuple[int, int]], truth: Iterable[tuple[int, int]]
) -> tuple[float, float, float]:
    """(recall, precision, F-measure) of predicted couples against truth,
    both oriented by ``normalize_pairs``.

    An empty prediction set scores precision 1.0 (vacuous) and recall 0.0;
    an empty truth set is a configuration error.
    """
    truth = normalize_pairs(truth)
    if not truth:
        raise ValueError("ground truth is empty; nothing to score against")
    pred = normalize_pairs(predicted)
    correct = len(pred & truth)
    recall = correct / len(truth)
    precision = correct / len(pred) if pred else 1.0
    f_measure = 0.0 if recall + precision == 0 else 2 * precision * recall / (precision + recall)
    return recall, precision, f_measure
