"""Low-level 64-bit helpers: avalanche mixing, the packed-bits codec,
sorted-array rules, bounds checks.

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

# entries hashed, assigned or packed per step, so that no temporary grows with their count;
# a multiple of 64, so that a chunk of packed entries of any width starts on a word boundary
CHUNK = 2**16


def key_array(key: int) -> np.ndarray:
    """One-element uint64 array holding ``key`` reduced to 64 bits."""
    return np.array([int(key) & MASK64], dtype=np.uint64)


def mix64(x: np.ndarray) -> np.ndarray:
    """Xor-shift-multiply avalanche over a uint64 array (splitmix64 finalizer).

    Returns a new array and never writes into ``x``: the first step makes the
    copy, and every later step works on that copy in place.
    """
    x = x ^ (x >> U64(30))
    x *= U64(MIX_MULT_1)
    x ^= x >> U64(27)
    x *= U64(MIX_MULT_2)
    x ^= x >> U64(31)
    return x


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic seed stream: distinct 64-bit seed per (master, index)."""
    return int(mix64(key_array(master_seed + (index + 1) * SEED_STREAM_INCREMENT))[0])


def n_words(n: int, width: int) -> int:
    """The uint64 words that hold n entries of ``width`` bits."""
    return (n * width + 63) // 64


def pack(values: np.ndarray, width: int) -> np.ndarray:
    """Entries below 2**width in zero-padded uint64 words, entry i at bits [i * width, (i + 1) * width).

    The index file's one packed layout: width 1 for each perfect-hash level, f for the fingerprints.
    Width 1 goes through ``np.packbits``, wider entries CHUNK at a time, each chunk from a word boundary.
    In a chunk at most one entry straddles into any word: one ``reduceat`` places the low parts, one OR the high.
    """
    if width == 1:
        raw = np.packbits(values, bitorder="little")
        return np.pad(raw, (0, -len(raw) % 8)).view("<u8")
    words = np.zeros(n_words(len(values), width), dtype=np.uint64)
    for lo in range(0, len(values), CHUNK):
        part = values[lo : lo + CHUNK]
        bitpos = np.arange(len(part), dtype=np.uint64) * U64(width)
        wi = (bitpos >> U64(6)).astype(np.int64) + lo * width // 64
        off = bitpos & U64(63)
        firsts = runs(wi)[0]
        words[wi[firsts]] = np.bitwise_or.reduceat(part << off, firsts)
        straddle = np.flatnonzero(off > U64(64 - width))
        words[wi[straddle] + 1] |= part[straddle] >> (U64(64) - off[straddle])
    return words


def unpack(words: np.ndarray, width: int, idx: np.ndarray) -> np.ndarray:
    """Entries ``idx`` of ``pack(values, width)``: ``unpack(pack(v, w), w, i) == v[i]``.

    Width 1 reads ``pack``'s ``np.packbits`` layout back a byte at a time: entry i is bit i & 7 of byte
    i >> 3 of the words as little-endian bytes, one byte gather per entry, returned as uint8 0/1 (which
    ``RankBitVector.get_array`` views as bool). Wider entries come back as uint64.
    """
    if width == 1:
        out = words.astype("<u8", copy=False).view(np.uint8)[idx >> 3]
        shift = idx.astype(np.uint8)  # the low byte, which holds i & 7
        shift &= np.uint8(7)
        out >>= shift
        out &= np.uint8(1)
        return out
    bitpos = idx.astype(np.uint64)
    bitpos *= U64(width)
    off = bitpos & U64(63)
    wi = np.right_shift(bitpos, U64(6), out=bitpos).view(np.int64)
    out = words[wi]
    out >>= off
    if 64 % width:  # an entry may straddle: the last word has no successor, and the mask drops the clamped read
        out |= (words[np.minimum(wi + 1, len(words) - 1)] << U64(1)) << np.subtract(U64(63), off, out=off)
    out &= U64((1 << width) - 1)
    return out


def changes(ordered: np.ndarray) -> np.ndarray:
    """``ordered[i + 1] != ordered[i]`` for each i: where a run of equal neighbours ends.

    The one neighbour-compare rule for sorted values (or sorted runs of them).
    """
    return ordered[1:] != ordered[:-1]


def runs(ordered: np.ndarray, t: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The start and the length of each run of at least t equal values in the sorted ``ordered``.

    Three byte masks, no per-distinct-value arrays: a run qualifies where the
    value t - 1 places on is the same one; its first such window starts the
    run and its last such window ends it.
    """
    if t < 1:
        raise ValueError(f"a run holds at least one value, got t = {t}")
    step = changes(ordered)
    n = max(len(ordered) - t + 1, 0)  # run starts that leave room for t equal values
    ends = ordered[:n] == ordered[t - 1 :]
    starts = ends.copy()
    starts[1:] &= step[: max(n - 1, 0)]
    first = np.flatnonzero(starts)
    del starts
    ends[:-1] &= step[t - 1 :]
    return first, np.flatnonzero(ends) + t - first


def distinct(values: np.ndarray, t: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values seen at least t times, sorted, and how often each is seen."""
    ordered = np.sort(values)
    first, lengths = runs(ordered, t)
    return ordered[first], lengths


def locate(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of each of ``x`` in the sorted duplicate-free ``table``, -1 where absent."""
    if len(table) == 0:
        return np.full(len(x), -1, dtype=np.intp)
    # a value past the last entry compares against that entry and fails
    loc = np.searchsorted(table, x)
    np.minimum(loc, len(table) - 1, out=loc)
    loc[table[loc] != x] = -1
    return loc


def check_room(buf, offset: int, n_bytes: int) -> None:
    """Raise ValueError unless ``buf`` holds ``n_bytes`` bytes from ``offset`` on."""
    if offset + n_bytes > len(buf):
        raise ValueError(f"truncated input: {offset + n_bytes} bytes needed, {len(buf)} present")
