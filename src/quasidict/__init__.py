"""quasidict: a resource-frugal probabilistic dictionary for static key sets.

The core structure maps N distinct 64-bit keys to dense indices in
[0, N-1] through a minimal perfect hash function, and rejects most
non-indexed keys by checking an f-bit fingerprint stored per key
(false-positive probability about 2**-f, no false negatives).

On top of it sit two k-mer applications: estimating read abundance in a
sequence set (counter) and finding similar reads via shared-k-mer
coverage (linker), plus a read simulator and recall/precision scoring.
"""

from .bitrank import RankBitVector
from .bits import DEFAULT_SEED
from .core import NOT_FOUND, QuasiDictionary
from .counter import CountStats, CounterIndex, build_counter_index, count_read
from .evaluation import SimConfig, score, simulate
from .kcount import SolidKmerTable, count_solid
from .linker import LinkerIndex, MatchResult, build_linker_index, link_read
from .mphf import DuplicateKeyError, Mphf
from .seqio import ParseError, ReadRecord, open_file_of_files, open_reads

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "NOT_FOUND",
    "RankBitVector",
    "Mphf",
    "DuplicateKeyError",
    "QuasiDictionary",
    "ReadRecord",
    "ParseError",
    "open_reads",
    "open_file_of_files",
    "SolidKmerTable",
    "count_solid",
    "CounterIndex",
    "CountStats",
    "build_counter_index",
    "count_read",
    "LinkerIndex",
    "MatchResult",
    "build_linker_index",
    "link_read",
    "SimConfig",
    "simulate",
    "score",
    "__version__",
]
