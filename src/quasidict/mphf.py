"""Minimal perfect hash function over a static set of 64-bit keys.

Cascade-of-bitmaps construction: level l hashes its surviving keys into
``gamma * n_l`` slots; slots hit exactly once are frozen into a rank-enabled
bitmap and their keys are done, colliding keys fall through to the next
level. The cascade stops after 64 levels, or sooner once ``FALLBACK_CUTOFF``
(4) or fewer keys remain, and the keys still unresolved land in an exact
fallback map. A key's dense index is the number of frozen slots before its
own, which one rank query per level answers in constant time. Equal keys
share their position at every level, so none of them is ever frozen: every
copy of a duplicated key reaches the fallback, where construction finds it
among its sorted neighbours. A level that freezes no key checks its
survivors the same way, so many copies of one key are rejected at the first
level, not after all 64.

Lookups restricted to the construction keys are a bijection onto
[0, N-1]; foreign keys return an arbitrary index or NOT_FOUND.
"""

from __future__ import annotations

import struct

import numpy as np

from .bitrank import RankBitVector
from .bits import CHUNK, DEFAULT_SEED, U64, changes, check_room, derive_seed, locate, mix64

NOT_FOUND = -1
MAX_LEVELS = 64

# beyond this expansion factor the perfect hash alone costs more bits per key
# than the 64-bit keys it stands for
MAX_GAMMA = 64

# below this many survivors a cascade level costs more serialized bytes than
# exact (key, index) fallback pairs, so stop cascading early
FALLBACK_CUTOFF = 4

_MAGIC = b"MPHF"
_VERSION = 1
_HEAD = struct.Struct("<4sIQdQI")


class DuplicateKeyError(ValueError):
    """Construction input contained the same key twice."""

    def __init__(self, key: int):
        self.key = int(key)
        super().__init__(f"duplicate key in input: {self.key:#018x}")


def _check_distinct(sorted_keys: np.ndarray) -> None:
    """DuplicateKeyError naming the smallest key that ``sorted_keys`` repeats, if any."""
    dup = np.flatnonzero(~changes(sorted_keys))
    if len(dup):
        raise DuplicateKeyError(int(sorted_keys[dup[0]]))


def _word(limit: int) -> type:
    """uint32 when every integer below ``limit`` fits in it, else int64."""
    return np.uint32 if limit <= 1 << 32 else np.int64


def _singletons(pos: np.ndarray, n_bits: int) -> np.ndarray:
    """Bool array over a level's ``n_bits`` slots: True where exactly one of ``pos`` falls."""
    ordered = np.sort(pos)
    step = changes(ordered)
    single = np.ones(len(ordered), dtype=bool)
    single[1:] &= step
    single[:-1] &= step
    del step
    # every copy of a shared position writes False, so the order of writes does not matter
    alone = np.zeros(n_bits, dtype=bool)
    for lo in range(0, len(ordered), CHUNK):
        alone[ordered[lo : lo + CHUNK]] = single[lo : lo + CHUNK]
    return alone


def _level_size(gamma: float, n: int) -> int:
    return max(1, int(np.ceil(gamma * n)))


def _level_pos(keys: np.ndarray, level_seed: int, n_bits: int) -> np.ndarray:
    """Each key's position in a level of ``n_bits`` slots hashed with ``level_seed``."""
    # h - (h // n) * n, in place: numpy's uint64 % by a scalar is about three times as slow
    pos = mix64(keys ^ U64(level_seed))
    whole = pos // U64(n_bits)
    whole *= U64(n_bits)
    pos -= whole
    return pos.view(np.int64)


class Mphf:
    """Minimal perfect hash for a fixed key set; immutable once constructed."""

    def __init__(self, levels, fallback_keys, n_keys, gamma, seed):
        self.levels: list[RankBitVector] = levels
        self.seeds: list[int] = [derive_seed(seed, level) for level in range(len(levels))]
        # dense-index base per level, then of the fallback keys
        self.offsets: list[int] = np.cumsum([0] + [bv.n_ones for bv in levels]).tolist()
        self.fallback_keys: np.ndarray = fallback_keys  # sorted uint64
        self.fallback_base: int = self.offsets[-1]
        self.n_keys = n_keys
        self.gamma = gamma
        self.seed = seed

    @classmethod
    def construct(cls, keys, gamma: float = 2.0, seed: int = DEFAULT_SEED, *, slots=None) -> "Mphf":
        """Build over distinct keys. O(N) expected work, deterministic per seed.

        ``slots`` (int64, one per key) receives each key's dense index as the
        cascade freezes it; the structure is the same with or without it.
        Its contents are unspecified when ``construct`` raises.
        """
        if not 1.0 <= gamma <= MAX_GAMMA:  # also false for nan
            raise ValueError(f"gamma must be in [1.0, {MAX_GAMMA}], got {gamma}")
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        n = len(keys)
        slots = np.empty(n, dtype=np.int64) if slots is None else slots

        levels: list[RankBitVector] = []
        # the keys still unresolved, and where each sits in ``keys``; positions and
        # indices are uint32 while they fit, that is while n < 2^31 at gamma = 2
        remaining, index = keys, np.arange(n, dtype=_word(n))
        for level in range(MAX_LEVELS):
            if remaining.size <= FALLBACK_CUTOFF:
                break
            size = _level_size(gamma, remaining.size)
            level_seed = derive_seed(seed, level)
            pos = np.empty(remaining.size, dtype=_word(size))
            for lo in range(0, remaining.size, CHUNK):
                pos[lo : lo + CHUNK] = _level_pos(remaining[lo : lo + CHUNK], level_seed, size)
            alone = _singletons(pos, size)
            bv = RankBitVector.build(alone)
            # slot: the keys frozen at earlier levels plus the rank in this level
            base = n - remaining.size
            frozen = np.empty(remaining.size, dtype=bool)
            for lo in range(0, remaining.size, CHUNK):
                part = pos[lo : lo + CHUNK]
                hit = alone[part]
                frozen[lo : lo + CHUNK] = hit
                done = np.flatnonzero(hit)
                slots[index[lo : lo + CHUNK][done]] = base + bv.rank1_array(part[done])
            del pos, alone
            if not frozen.any():
                _check_distinct(np.sort(remaining))
            levels.append(bv)
            left = np.flatnonzero(~frozen)
            remaining, index = remaining[left], index[left]

        order = np.argsort(remaining)
        fallback = remaining[order]
        _check_distinct(fallback)
        slots[index[order]] = np.arange(n - remaining.size, n)  # fallback keys last, in key order
        return cls(levels, fallback, n, float(gamma), seed)

    def lookup_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized lookup; int64 array of dense indices, -1 where NOT_FOUND."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        out = np.full(len(keys), NOT_FOUND, dtype=np.int64)
        alive = np.arange(len(keys), dtype=np.int64)
        cur = keys
        for bv, level_seed, off in zip(self.levels, self.seeds, self.offsets):
            pos = _level_pos(cur, level_seed, bv.n_bits)
            hit = bv.get_array(pos)
            found, miss = np.flatnonzero(hit), np.flatnonzero(~hit)
            out[alive[found]] = off + bv.rank1_array(pos[found])
            alive, cur = alive[miss], cur[miss]
        loc = locate(self.fallback_keys, cur)
        match = loc >= 0
        out[alive[match]] = self.fallback_base + loc[match]
        return out

    def bits_per_key(self) -> float:
        """Serialized size in bits divided by the number of keys."""
        return len(self.serialize()) * 8 / max(self.n_keys, 1)

    def serialize(self) -> bytes:
        head = _HEAD.pack(
            _MAGIC,
            _VERSION,
            self.n_keys,
            self.gamma,
            self.seed,
            len(self.levels),
        )
        parts = [head]
        parts.extend(bv.serialize() for bv in self.levels)
        parts.append(struct.pack("<Q", len(self.fallback_keys)))
        idx = np.arange(self.fallback_base, self.n_keys, dtype=np.uint64)
        parts.append(np.column_stack([self.fallback_keys, idx]).astype("<u8").tobytes())
        return b"".join(parts)

    @classmethod
    def deserialize(cls, buf: bytes, offset: int = 0) -> tuple["Mphf", int]:
        """Inverse of :meth:`serialize`; ValueError on a buffer it could not have written."""
        check_room(buf, offset, _HEAD.size)
        magic, version, n_keys, gamma, seed, n_levels = _HEAD.unpack_from(buf, offset)
        if magic != _MAGIC:
            raise ValueError("not a serialized perfect-hash structure")
        if version != _VERSION:
            raise ValueError(f"unsupported version {version}")
        if not 1.0 <= gamma <= MAX_GAMMA or n_levels > MAX_LEVELS:  # nan fails the first test
            raise ValueError(f"gamma {gamma} or level count {n_levels} is not one construct writes")
        offset += _HEAD.size
        levels = []
        for _ in range(n_levels):
            bv, offset = RankBitVector.deserialize(buf, offset)
            if bv.n_bits == 0:
                raise ValueError("perfect-hash level with no bits")
            levels.append(bv)
        check_room(buf, offset, 8)
        (n_fallback,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        check_room(buf, offset, 16 * n_fallback)
        pairs = np.frombuffer(buf, dtype="<u8", count=2 * n_fallback, offset=offset)
        offset += 16 * n_fallback
        base = sum(bv.n_ones for bv in levels)
        if base + n_fallback != n_keys:
            raise ValueError(f"levels and fallback do not hold the header's {n_keys} keys")
        keys, idx = pairs[0::2], pairs[1::2]
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("fallback keys are not strictly increasing")
        if (idx != np.arange(base, base + n_fallback, dtype=np.uint64)).any():
            raise ValueError(f"fallback indices do not run on from {base}")
        return cls(levels, keys.copy(), n_keys, gamma, seed), offset
