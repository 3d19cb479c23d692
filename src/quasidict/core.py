"""The quasi-dictionary: perfect hash + packed f-bit fingerprints + values.

``create`` builds a minimal perfect hash over the N keys and stores an
f-bit fingerprint of each key at its dense slot. ``query`` recomputes the
fingerprint and compares: indexed keys always come back with their index,
foreign keys slip through only when the perfect hash hands them a slot AND
the stored fingerprint collides, so the false-positive probability is
about 2**-f. There are no false negatives.

When f equals twice the k-mer length the "fingerprint" is the raw 2k-bit
key code itself, which is injective over k-mer codes: the structure is
then exact (zero false positives) while still far smaller than a hash
table. The fingerprint array is ``bits.pack`` at width f: N*f bits, entries
straddling word boundaries where they must.
"""

from __future__ import annotations

import struct

import numpy as np

from .bits import CHUNK, DEFAULT_SEED, MIX_MULT_1, MIX_MULT_2, U64, check_room, key_array, mix64, n_words, pack, unpack
from .kmer import check_k
from .mphf import NOT_FOUND, Mphf

_MAGIC = b"QDIC"
_VERSION = 1
_HEAD = struct.Struct("<4sIQIIQQQQ")

# domain tag separating the fingerprint hash from every level hash
_FINGERPRINT_TAG = 0x27D4EB2F165667C5


def _check_f(f: int) -> None:
    if not 1 <= f <= 64:
        raise ValueError(f"fingerprint width must be in [1, 64], got {f}")


def _fp_mask(f: int) -> int:
    return (1 << f) - 1


def _fp_seed(seed: int) -> int:
    return int(mix64(key_array(seed ^ _FINGERPRINT_TAG))[0])


def fingerprint_array(keys: np.ndarray, f: int, k: int = 31, seed: int = DEFAULT_SEED) -> np.ndarray:
    """f-bit fingerprint of each key in a uint64 array.

    Mixed through a xor-shift-multiply avalanche and masked to f bits;
    except at f == 2k, where the raw key code is returned so that distinct
    k-mers can never share a fingerprint.
    """
    _check_f(f)
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    if f == 2 * k:
        return keys & U64(_fp_mask(f))
    return mix64(keys ^ U64(_fp_seed(seed))) & U64(_fp_mask(f))


class QuasiDictionary:
    """Membership-checked index over a static key set; immutable after create."""

    def __init__(self, mphf: Mphf, fg_words: np.ndarray, n_keys: int, f: int, k: int, seed: int):
        self.mphf = mphf
        self.n_keys = n_keys
        self.f = f
        self.k = k
        self.seed = seed
        self.fg_words = np.ascontiguousarray(fg_words, dtype=np.uint64)

    @classmethod
    def create(
        cls,
        keys,
        f: int = 12,
        gamma: float = 2.0,
        k: int = 31,
        seed: int = DEFAULT_SEED,
        *,
        slots=None,
    ) -> "QuasiDictionary":
        """Index a set of distinct key codes; the set must be fully known up front.

        ``slots`` receives each key's dense slot, as :meth:`Mphf.construct` does.
        """
        _check_f(f)
        check_k(k)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        slots = np.empty(len(keys), dtype=np.int64) if slots is None else slots
        mphf = Mphf.construct(keys, gamma=gamma, seed=seed, slots=slots)
        by_slot = np.empty(len(keys), dtype=np.uint64)
        for lo in range(0, len(keys), CHUNK):
            by_slot[slots[lo : lo + CHUNK]] = fingerprint_array(keys[lo : lo + CHUNK], f, k, seed)
        return cls(mphf, pack(by_slot, f), len(keys), f, k, seed)

    def query(self, key: int) -> int:
        """Dense index for an indexed key; -1 for (most) everything else."""
        return int(self.query_array(key_array(key))[0])

    def query_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`query`; int64 indices with -1 where rejected."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        idx = self.mphf.lookup_array(keys)
        found = np.flatnonzero(idx >= 0)
        stored = unpack(self.fg_words, self.f, idx[found])
        idx[found[stored != fingerprint_array(keys[found], self.f, self.k, self.seed)]] = NOT_FOUND
        return idx

    def fingerprint_bits(self) -> int:
        """Exact payload of the fingerprint array: N*f bits."""
        return self.n_keys * self.f

    def bits_per_key(self) -> float:
        """Serialized structure size in bits divided by N."""
        return len(self.serialize()) * 8 / max(self.n_keys, 1)

    def serialize(self) -> bytes:
        mphf_blob = self.mphf.serialize()
        head = _HEAD.pack(
            _MAGIC,
            _VERSION,
            self.n_keys,
            self.f,
            self.k,
            MIX_MULT_1,
            MIX_MULT_2,
            self.seed,
            len(mphf_blob),
        )
        return head + mphf_blob + self.fg_words.astype("<u8").tobytes()

    def save(self, path: str) -> None:
        """Write the index file (header + perfect hash + fingerprint words)."""
        with open(path, "wb") as fh:
            fh.write(self.serialize())

    @classmethod
    def load(cls, path: str) -> "QuasiDictionary":
        with open(path, "rb") as fh:
            return cls.deserialize(fh.read())

    @classmethod
    def deserialize(cls, buf: bytes) -> "QuasiDictionary":
        """Inverse of :meth:`serialize`; ValueError on a short, long or inconsistent buffer."""
        check_room(buf, 0, _HEAD.size)
        magic, version, n_keys, f, k, m1, m2, seed, mphf_len = _HEAD.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise ValueError("not a quasi-dictionary index file")
        if version != _VERSION:
            raise ValueError(f"unsupported index version {version}")
        if (m1, m2) != (MIX_MULT_1, MIX_MULT_2):
            raise ValueError("index built with different mixer constants")
        _check_f(f)
        check_k(k)
        mphf, offset = Mphf.deserialize(buf, _HEAD.size)
        if mphf.n_keys != n_keys:
            raise ValueError(f"perfect hash holds {mphf.n_keys} keys, header says {n_keys}")
        if mphf.seed != seed:
            raise ValueError(f"perfect hash seed {mphf.seed:#018x} differs from the header's {seed:#018x}")
        if offset != _HEAD.size + mphf_len:
            raise ValueError(f"perfect hash spans {offset - _HEAD.size} bytes, header says {mphf_len}")
        size = n_words(n_keys, f)
        if offset + 8 * size != len(buf):
            raise ValueError(f"expected {offset + 8 * size} bytes, got {len(buf)}")
        fg = np.frombuffer(buf, dtype="<u8", count=size, offset=offset)
        return cls(mphf, fg, n_keys, f, k, seed)
