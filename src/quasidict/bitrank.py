"""Packed bit vector with constant-time rank-of-ones.

In memory the vector keeps one count per word, the ones before it, and then
the total, in the narrowest unsigned word that holds the bit count: at most
2 bytes per 64 bits below 2^16 bits, 4 below 2^32. ``rank1_array`` answers
many positions at once as that count plus one masked word popcount. The file
keeps every eighth count, one per 512-bit block (12.5% overhead).
"""

from __future__ import annotations

import struct

import numpy as np

from .bits import U64, check_room, n_words, pack, unpack

# the serialized form keeps one rank sample per 512 bits
WORDS_PER_BLOCK = 8


class RankBitVector:
    """Immutable bit array of length ``n_bits`` answering rank queries."""

    __slots__ = ("words", "n_bits", "before", "n_ones")

    def __init__(self, words: np.ndarray, n_bits: int):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        size = n_words(n_bits, 1)
        if len(words) != size:
            raise ValueError(f"expected {size} words for {n_bits} bits, got {len(words)}")
        if n_bits & 63:
            # bits above n_bits must stay zero or ranks drift
            words = words.copy()
            words[-1] &= (U64(1) << U64(n_bits & 63)) - U64(1)
        self.words = words
        self.n_bits = n_bits
        self.before = np.zeros(size + 1, dtype=np.min_scalar_type(n_bits))
        np.cumsum(np.bitwise_count(words), dtype=self.before.dtype, out=self.before[1:])
        self.n_ones = int(self.before[-1])

    @classmethod
    def build(cls, bits) -> "RankBitVector":
        """Build from a 0/1 (or bool) array."""
        bits = np.asarray(bits)
        return cls(pack(bits, 1), len(bits))

    def __len__(self) -> int:
        return self.n_bits

    def get_array(self, pos: np.ndarray) -> np.ndarray:
        """Bits at positions ``pos`` (each in [0, n_bits)), as a bool array."""
        return unpack(self.words, 1, pos).view(bool)

    def rank1_array(self, pos: np.ndarray) -> np.ndarray:
        """Number of set bits before each of ``pos`` (each in [0, n_bits)), as int64."""
        p = pos.astype(np.int64, copy=False)
        w = p >> 6
        below = (U64(1) << (p & 63).astype(np.uint64)) - U64(1)
        return np.add(self.before[w], np.bitwise_count(self.words[w] & below), dtype=np.int64)

    def serialize(self) -> bytes:
        """Little-endian: bit count, packed words, one rank sample per block.

        The trailing cumulative total is rebuilt on load, not stored.
        """
        return (
            struct.pack("<Q", self.n_bits)
            + self.words.astype("<u8").tobytes()
            + self.before[:-1:WORDS_PER_BLOCK].astype("<u8").tobytes()
        )

    @classmethod
    def deserialize(cls, buf: bytes, offset: int = 0) -> tuple["RankBitVector", int]:
        """Inverse of :meth:`serialize`; ValueError on a short buffer or on samples the bits do not give."""
        check_room(buf, offset, 8)
        (n_bits,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        size = n_words(n_bits, 1)
        n_samples = (size + WORDS_PER_BLOCK - 1) // WORDS_PER_BLOCK
        check_room(buf, offset, 8 * (size + n_samples))
        vector = cls(np.frombuffer(buf, dtype="<u8", count=size, offset=offset), n_bits)
        stored = np.frombuffer(buf, dtype="<u8", count=n_samples, offset=offset + 8 * size)
        if not np.array_equal(stored, vector.before[:-1:WORDS_PER_BLOCK]):  # counted from the words
            raise ValueError("stored rank samples do not match the bits")
        return vector, offset + 8 * (size + n_samples)
