"""Minimal perfect hash function over a static set of 64-bit keys.

Cascade-of-bitmaps construction: level l hashes its surviving keys into
``gamma * n_l`` slots; slots hit exactly once are frozen into a rank-enabled
bitmap and their keys are done, colliding keys fall through to the next
level. Keys still unresolved after 64 levels land in an exact fallback map.
A key's dense index is the number of frozen slots before its own, which one
rank query per level answers in constant time.

Lookups restricted to the construction keys are a bijection onto
[0, N-1]; foreign keys return an arbitrary index or NOT_FOUND.
"""

from __future__ import annotations

import struct

import numpy as np

from .bitrank import RankBitVector
from .bits import DEFAULT_SEED, U64, check_room, derive_seed, key_array, mix64

NOT_FOUND = -1
MAX_LEVELS = 64

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


def _level_size(gamma: float, n: int) -> int:
    return max(1, int(np.ceil(gamma * n)))


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
        """
        if gamma < 1.0:
            raise ValueError(f"gamma must be >= 1.0, got {gamma}")
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        n = len(keys)
        slots = np.empty(n, dtype=np.int64) if slots is None else slots
        ordered = np.sort(keys)
        dup = np.flatnonzero(ordered[1:] == ordered[:-1])
        if len(dup):
            raise DuplicateKeyError(int(ordered[dup[0]]))
        del ordered

        levels: list[RankBitVector] = []
        remaining, index = keys, np.arange(n)
        for level in range(MAX_LEVELS):
            if remaining.size <= FALLBACK_CUTOFF:
                break
            size = _level_size(gamma, remaining.size)
            pos = (mix64(remaining ^ U64(derive_seed(seed, level))) % U64(size)).astype(np.int64)
            alone = np.bincount(pos, minlength=size) == 1
            bv = RankBitVector.build(alone)
            frozen = alone[pos]
            # slot: the keys frozen at earlier levels plus the rank in this level
            slots[index[frozen]] = n - remaining.size + bv.rank1_array(pos[frozen])
            levels.append(bv)
            remaining, index = remaining[~frozen], index[~frozen]

        order = np.argsort(remaining)
        slots[index[order]] = np.arange(n - remaining.size, n)  # fallback keys last, in key order
        out = cls(levels, remaining[order], n, float(gamma), seed)
        if gamma == 2.0 and n >= 10_000:
            bpk = out.bits_per_key()
            if bpk > 4.0:
                raise RuntimeError(f"size budget exceeded: {bpk:.3f} bits/key at gamma=2")
        return out

    def lookup(self, key: int) -> int:
        """Dense index of ``key``, or NOT_FOUND (-1)."""
        return int(self.lookup_array(key_array(key))[0])

    def lookup_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized lookup; int64 array of dense indices, -1 where NOT_FOUND."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        out = np.full(len(keys), NOT_FOUND, dtype=np.int64)
        alive = np.arange(len(keys), dtype=np.int64)
        cur = keys
        for bv, level_seed, off in zip(self.levels, self.seeds, self.offsets):
            if alive.size == 0:
                break
            pos = (mix64(cur ^ U64(level_seed)) % U64(bv.n_bits)).astype(np.int64)
            hit = bv.get_array(pos)
            if hit.any():
                out[alive[hit]] = off + bv.rank1_array(pos[hit])
                miss = ~hit
                alive = alive[miss]
                cur = cur[miss]
        if alive.size and len(self.fallback_keys):
            # a key past the last fallback key compares against that key and fails
            loc = np.minimum(np.searchsorted(self.fallback_keys, cur), len(self.fallback_keys) - 1)
            match = self.fallback_keys[loc] == cur
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
