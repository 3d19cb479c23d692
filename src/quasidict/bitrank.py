"""Packed bit vector with constant-time rank-of-ones.

The vector stores one cumulative popcount sample per 512-bit block
(12.5% overhead) plus a trailing total, and in memory a uint16 count of
the ones before each word inside its block. ``rank1_array`` answers many
positions at once as block sample + in-block word count + one masked
word popcount.
"""

from __future__ import annotations

import struct

import numpy as np

from .bits import U64, check_room, n_words, pack, unpack

BLOCK_BITS = 512
WORDS_PER_BLOCK = BLOCK_BITS // 64


class RankBitVector:
    """Immutable bit array of length ``n_bits`` answering rank queries."""

    __slots__ = ("words", "n_bits", "samples", "in_block", "n_ones")

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
        n_blocks = (size + WORDS_PER_BLOCK - 1) // WORDS_PER_BLOCK
        per_word = np.zeros(n_blocks * WORDS_PER_BLOCK, dtype=np.uint16)
        per_word[:size] = np.bitwise_count(words)
        per_word = per_word.reshape(n_blocks, WORDS_PER_BLOCK)
        through = np.cumsum(per_word, axis=1, dtype=np.uint16)  # at most 512
        self.in_block = (through - per_word).ravel()[:size]  # at most 448
        self.samples = np.concatenate([[0], np.cumsum(through[:, -1], dtype=np.int64)])
        self.n_ones = int(self.samples[-1])

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
        return self.samples[p >> 9] + self.in_block[w] + np.bitwise_count(self.words[w] & below)

    def serialize(self) -> bytes:
        """Little-endian: bit count, packed words, one rank sample per block.

        The trailing cumulative total is rebuilt on load, not stored.
        """
        return (
            struct.pack("<Q", self.n_bits)
            + self.words.astype("<u8").tobytes()
            + self.samples[:-1].astype("<u8").tobytes()
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
        if not np.array_equal(stored, vector.samples[:-1].astype(np.uint64)):  # counted from the words
            raise ValueError("stored rank samples do not match the bits")
        return vector, offset + 8 * (size + n_samples)
