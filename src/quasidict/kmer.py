"""2-bit k-mer codes of every window of a nucleotide string, in canonical form.

A k-mer (k <= 31) packs into one unsigned word, two bits per base (A=0, C=1, G=2, T=3), most
significant first, so code order is string order; arrays use the narrowest word that holds 2k bits
(:func:`code_word`). The canonical form, the smaller of the code and its reverse-complement code, is
the same on both strands. A byte b is a nucleotide exactly when b | 0x20 is one of a, c, g, t; its
digit ((b >> 1) ^ (b >> 2)) & 3 is 0, 1, 2, 3 for A, C, G, T, and any other byte's only feeds dropped windows.

With digits d[0..k-1], the code is Σ d[j]·4^(k-1-j) and the reverse-complement code Σ (3 - d[j])·4^j.
All windows are coded at once by doubling: the code of the s digits from i, shifted up by 2s bits and
OR-ed with that from i + s, is the code of the 2s digits from i (a reverse complement holds its first
digit lowest, so there the code from i + s goes up). Each strand doubles only to h digits, half a code
word, in half-width words: 8 digits in 16 bits up to k = 16, else 16 in 32. The 2h-digit code from i
is the halves from i and i + h, the first high on the forward strand and low on the reverse one: side
by side as little-endian words, low first, the pair read as one little-endian word of twice the width
is that code on any host. One shift (forward) or one mask (reverse) then cuts it to its first k digits.
"""

from __future__ import annotations

import numpy as np

from .bits import U64

MAX_K = 31


def check_k(k: int) -> None:
    """ValueError unless 1 <= k <= MAX_K, the lengths one 64-bit code holds."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k-mer length must be in [1, {MAX_K}], got {k}")


def code_word(k: int) -> type:
    """The unsigned numpy word of length-k code arrays: uint32 up to k = 16, else uint64."""
    return np.uint32 if k <= 16 else U64


def scan_kmers(seq: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All valid windows of ``seq`` at once.

    Returns (positions, canonical codes): one entry per 0-based start position whose k-length window
    contains only A/C/G/T; windows touching any other character are skipped. The positions are int64,
    the codes ``code_word(k)``. After each doubling step a strand's entry i holds the code of the
    ``span`` digits from i, digits past ``seq`` read as zero; the strands of m windows run to
    max(len(seq), m + h) entries, so every window has its half from i + h, and that padding lands only
    in digits the final shift or mask drops. Each buffer goes once no later step reads it: on bases
    with no other byte the traced peak is about 18 bytes per base up to k = 16 and 28 above (the
    positions' 8, one strand's codes, the other's pair as it is built and that strand's halves).
    """
    check_k(k)
    word = code_word(k)
    raw = np.frombuffer(seq.encode("latin-1", errors="replace"), dtype=np.uint8)
    n, m = len(raw), len(raw) - k + 1
    if m < 1:
        return np.empty(0, np.int64), np.empty(0, word)
    low = raw | 0x20
    bad = low != ord("a")
    for ch in b"cgt":
        bad &= low != ch
    # OR-doubling to p, the largest power of two <= k, and one OR from k - p: bad[i] flags [i, i + k)
    p = 1
    while 2 * p <= k:
        bad[:-p] |= bad[p:]
        p *= 2
    bad[: n - (k - p)] |= bad[k - p :]
    positions = np.flatnonzero(np.logical_not(bad[:m], out=bad[:m]))
    h, half = (8, np.uint16) if k <= 16 else (16, np.uint32)
    forward = np.zeros(max(n, m + h), half)
    np.bitwise_and((raw >> 1) ^ (raw >> 2), 3, out=forward[:n])
    del raw, low, bad
    # each step doubles a strand into the spare buffer, which then takes its place: no fresh temporary
    reverse, spare = forward ^ half(3), np.empty_like(forward)
    for span in (s for s in (1, 2, 4, 8) if s < h):
        shift = half(2 * span)
        np.left_shift(forward, shift, out=spare)
        spare[:-span] |= forward[span:]
        forward, spare = spare, forward
        np.left_shift(reverse[span:], shift, out=spare[:-span])
        spare[:-span] |= reverse[:-span]
        spare[-span:] = reverse[-span:]
        reverse, spare = spare, reverse
    del spare
    forward = _paired(forward[h : h + m], forward[:m], word)
    reverse = _paired(reverse[:m], reverse[h : h + m], word)
    forward >>= word(2 * (2 * h - k))
    reverse &= word((1 << 2 * k) - 1)
    np.minimum(forward, reverse, out=forward)
    del reverse
    return positions, forward[positions]


def _paired(low: np.ndarray, high: np.ndarray, word: type) -> np.ndarray:
    """``high`` << (8 · its item size) | ``low`` in ``word``, via little-endian halves side by side."""
    pair = np.empty((len(low), 2), low.dtype.newbyteorder("<"))
    pair[:, 0], pair[:, 1] = low, high
    return pair.view(f"<u{2 * low.itemsize}")[:, 0].astype(word, copy=False)
