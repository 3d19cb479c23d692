"""2-bit k-mer codes of every window of a nucleotide string, in canonical form.

A k-mer (k <= 31) packs into one unsigned word, two bits per base
(A=0, C=1, G=2, T=3), most significant base first, so numeric order of
codes equals lexicographic order of strings. Arrays of codes use the
narrowest word that holds 2k bits (:func:`code_word`): 32 bits up to
k = 16, else 64. The canonical form of a k-mer is the smaller of the code
and its reverse-complement code; both strands of a DNA fragment therefore
index identically.

With digits d[0..k-1] of a window, the code is Σ d[j]·4^(k-1-j) and the
reverse-complement code is Σ (3 - d[j])·4^j. A sequence's windows are coded
all at once by doubling: the code of the s digits from position i, shifted
up by 2s bits and OR-ed with the code of the s digits from i + s, is the code
of the 2s digits from i, so ⌈log₂k⌉ whole-array steps reach a span of at
least k digits (at most 32, one 64-bit word). The reverse-complement codes
hold the first digit lowest, so they double the other way round: the code
from i + s, shifted up by 2s bits, is OR-ed onto the code from i. One shift
(forward) or one mask (reverse) then cuts each span code to its first k
digits.
"""

from __future__ import annotations

import numpy as np

from .bits import U64

MAX_K = 31

# byte value -> 2-bit code, 255 marks any non-nucleotide
_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _ch in enumerate("ACGTacgt"):
    _LUT[ord(_ch)] = _i & 3


def check_k(k: int) -> None:
    """ValueError unless 1 <= k <= MAX_K, the lengths one 64-bit code holds."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k-mer length must be in [1, {MAX_K}], got {k}")


def code_word(k: int) -> type:
    """The unsigned numpy word of length-k code arrays: uint32 up to k = 16, else uint64."""
    return np.uint32 if k <= 16 else U64


def scan_kmers(seq: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All valid windows of ``seq`` at once.

    Returns (positions, canonical codes): one entry per 0-based start
    position whose k-length window contains only A/C/G/T; windows touching
    any other character are skipped. The positions are int64 and the codes
    come in ``code_word(k)``, the word they were computed in: 4 bytes per
    k-mer up to k = 16, else 8.

    Each strand's codes double in place in one array of that word, as the
    module docstring describes: after each step, entry i holds the code of
    the ``span`` digits from i, where digits past the end of ``seq`` read as
    zero. A window that starts at i <= len(seq) - k has all k digits inside
    ``seq``, so that padding lands only in digits the final shift or mask
    drops, and the last entries need no step of their own.
    """
    check_k(k)
    word = code_word(k)
    raw = np.frombuffer(seq.encode("latin-1", errors="replace"), dtype=np.uint8)
    if len(raw) < k:
        return np.empty(0, np.int64), np.empty(0, word)
    vals = np.take(_LUT, raw)
    # after OR-doubling up to p, the largest power of two <= k, bad[i] flags a
    # non-ACGT byte in [i, i + p); one more OR from i + k - p (< p) makes it [i, i + k)
    bad = vals == 255
    p = 1
    while 2 * p <= k:
        bad[:-p] |= bad[p:]
        p *= 2
    bad[: len(bad) - (k - p)] |= bad[k - p :]
    positions = np.flatnonzero(~bad[: len(raw) - k + 1])
    # a non-ACGT byte leaves a digit 3 that spoils only the windows dropped above
    forward = (vals & 3).astype(word)
    reverse = forward ^ word(3)
    # every step's shifted copy goes to one full-length buffer: fresh temporaries
    # of a different length at each step fragment the heap and raised the
    # linker's peak RSS
    spare = np.empty_like(forward)
    span = 1
    while span < k:
        shift = word(2 * span)
        forward <<= shift
        np.right_shift(forward[span:], shift, out=spare[:-span])
        forward[:-span] |= spare[:-span]
        np.left_shift(reverse[span:], shift, out=spare[:-span])
        reverse[:-span] |= spare[:-span]
        span *= 2
    forward >>= word(2 * (span - k))
    reverse &= word((1 << 2 * k) - 1)
    return positions, np.minimum(forward, reverse, out=forward)[positions]
