"""Low-level 64-bit helpers: avalanche mixing, bit packing, sorted-array
rules, bounds checks.

Everything operates on numpy uint64 arrays; a scalar goes through a
one-element array (see :func:`key_array`). numpy scalar uint64 arithmetic
emits overflow warnings where array arithmetic wraps silently.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
MASK64 = (1 << 64) - 1

# splitmix64 finalizer constants; also written into index headers so a file
# can be rejected if it was produced with different mixing.
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB

# increment of the seed stream used to derive per-level hash seeds
SEED_STREAM_INCREMENT = 0x9E3779B97F4A7C15

DEFAULT_SEED = 0xA24BAED4963EE407


def key_array(key: int) -> np.ndarray:
    """One-element uint64 array holding ``key`` reduced to 64 bits."""
    return np.array([int(key) & MASK64], dtype=np.uint64)


def mix64(x: np.ndarray) -> np.ndarray:
    """Xor-shift-multiply avalanche over a uint64 array (splitmix64 finalizer)."""
    x = x ^ (x >> U64(30))
    x = x * U64(MIX_MULT_1)
    x = x ^ (x >> U64(27))
    x = x * U64(MIX_MULT_2)
    x = x ^ (x >> U64(31))
    return x


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic seed stream: distinct 64-bit seed per (master, index)."""
    return int(mix64(key_array(master_seed + (index + 1) * SEED_STREAM_INCREMENT))[0])


def pack_bool_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array into uint64 words, bit i at word[i >> 6] bit (i & 63)."""
    raw = np.packbits(bits, bitorder="little")
    return np.pad(raw, (0, -len(raw) % 8)).view("<u8")


def words_to_bool(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_to_words` (used by oracles and tests)."""
    as_bytes = np.frombuffer(np.ascontiguousarray(words).tobytes(), dtype=np.uint8)
    return np.unpackbits(as_bytes, bitorder="little")[:n_bits].astype(bool)


def distinct(values: np.ndarray, t: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values seen at least t times, sorted, and how often each is seen.

    One sorted copy and two byte masks, no per-distinct-value arrays: a run
    qualifies where the value t - 1 places on is the same one; its first
    such window starts the run and its last such window ends it.
    """
    ordered = np.sort(values)
    head = ordered[: max(len(ordered) - t + 1, 0)]  # run starts that leave room for t equal values
    tail = ordered[t - 1 :]
    ends = head == tail
    starts = ends.copy()
    starts[1:] &= head[1:] != head[:-1]
    ends[:-1] &= tail[1:] != tail[:-1]
    first = np.flatnonzero(starts)
    return ordered[first], np.flatnonzero(ends) + t - first


def locate(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of each of ``x`` in the sorted duplicate-free ``table``, -1 where absent."""
    if len(table) == 0:
        return np.full(len(x), -1, dtype=np.intp)
    # a value past the last entry compares against that entry and fails
    loc = np.minimum(np.searchsorted(table, x), len(table) - 1)
    loc[table[loc] != x] = -1
    return loc


def check_room(buf, offset: int, n_bytes: int) -> None:
    """Raise ValueError unless ``buf`` holds ``n_bytes`` bytes from ``offset`` on."""
    if offset + n_bytes > len(buf):
        raise ValueError(f"truncated input: {offset + n_bytes} bytes needed, {len(buf)} present")
