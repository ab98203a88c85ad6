"""Classical key distillation: parity-exchange error correction and
Toeplitz-hash privacy amplification.

Keys are bit strings of '0'/'1' or 1-D uint8 arrays of 0/1; any other
character, value or dtype raises ValueError.  `reconcile` returns Bob's
corrected key in the form it was given, and `privacy_amplify` returns
a bit string either way.
Leakage is counted in disclosed bits and only ever grows along the
pipeline; the final key length follows
m = floor(n*(1-h2(qber))) - leaked - ceil(2*log2(1/epsilon)).
Reconciliation keeps each pass's block parity mismatches and toggles
them on every flip of Bob's bits, so no parity is ever recomputed.
A pass's first-round blocks are disjoint and searched before any
cascade, so they are binary searched together, one array step per
halving; cascades are searched one block at a time.  Once the keys
agree, no later pass can flip a bit: reconciliation stops and charges
the parities those passes would have disclosed.

The Toeplitz hash is evaluated as a float64 FFT convolution in
O(n log n) and rounded to the integer sums it approximates.  The
transform length is the smallest 2^a 3^b 5^c >= m + n - 1: the kept
slice of the convolution is then free of circular wrap-around.  The
rounded result is used only if every entry lay within 0.25 of an
integer; otherwise the hash falls back to the exact integer
`np.convolve`, so floating-point error never reaches a key bit
unnoticed.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def bits_to_str(bits) -> str:
    """'0'/'1' string of a 0/1 integer sequence, in one conversion."""
    return (np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes().decode()


def _bits(key: str | np.ndarray, name: str) -> np.ndarray:
    """0/1 uint8 array of a key string, or the key itself if it is one;
    any other character, value, dtype or type is an error."""
    if isinstance(key, str):
        bits = np.frombuffer(key.encode(), dtype=np.uint8) - np.uint8(ord("0"))
    elif isinstance(key, np.ndarray) and key.dtype == np.uint8 and key.ndim == 1:
        bits = key
    else:
        bits = None
    if bits is None or (bits > 1).any():
        raise ValueError(f"{name} must contain only '0' and '1'")
    return bits


def _binary_search(diff: list[int]) -> tuple[int, int]:
    """Locate one error in a block whose (alice ^ bob) bits `diff` have odd weight.

    Returns (offset in the block, parities_disclosed): each halving
    discloses one of Alice's sub-block parities and enters the first
    half when its parities differ.
    """
    lo, hi = 0, len(diff)
    disclosed = 0
    while hi - lo > 1:
        mid = lo + (hi - lo) // 2
        disclosed += 1
        if sum(diff[lo:mid]) & 1:
            hi = mid
        else:
            lo = mid
    return lo, disclosed


def _search_blocks(diff: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_binary_search` on every block diff[lo:hi] at once.

    Each block has odd weight.  Returns (index of the located error in
    diff, parities disclosed) per block.
    """
    prefix = np.concatenate((np.zeros(1, dtype=diff.dtype), np.bitwise_xor.accumulate(diff)))
    disclosed = np.zeros(len(lo), dtype=np.int64)
    while True:
        active = hi - lo > 1
        if not active.any():
            return lo, disclosed
        mid = lo + (hi - lo) // 2
        first_odd = prefix[mid] != prefix[lo]  # the parity of diff[lo:mid]
        disclosed += active
        hi = np.where(active & first_odd, mid, hi)
        lo = np.where(active & ~first_odd, mid, lo)


def reconcile(alice: str | np.ndarray, bob: str | np.ndarray, passes: int = 2,
              initial_block: int = 8, seed: int = 0):
    """Parity-exchange reconciliation with cascading back-search.

    Each pass partitions the key into blocks of `initial_block` bits
    (pass 1 in natural order, later passes under a seeded shuffle) and
    discloses one parity per block.  A mismatched block is binary
    searched down to a single bit, which is flipped in Bob's key; the
    flip re-opens the blocks containing that bit in every other pass,
    so corrections cascade until all disclosed parities agree.

    Block parity mismatches are computed once per pass and kept: a flip
    toggles its block's flag in every pass set up so far.  The queue is
    first in, first out, so a pass's own mismatched blocks are all
    searched before any cascade they cause; they are disjoint, so
    `_search_blocks` searches them together on the pass's unchanged
    diff, and their flips are then applied in block order, queueing
    exactly the cascades one-by-one searches would.

    Pass 1 reads the keys in natural order; each later pass keeps the
    inverse of its shuffle, and a bit's block is its index in the pass
    divided by `initial_block`.  A pass that starts with equal keys
    would find every block parity in agreement, so reconciliation stops
    there and adds `ceil(n / initial_block)` disclosed parities for it
    and each pass after it, drawing none of their shuffles; the seeded
    generator is private to the call, so the result is that of running
    every pass.

    Returns (corrected_bob, leaked) where leaked counts every disclosed
    parity; corrected_bob is a bit string for a string `bob` and a uint8
    array for an array.  Residual errors (even-weight patterns aligned in
    all partitions) remain in the output rather than being hidden.
    """
    if len(alice) != len(bob):
        raise ValueError("keys must have equal length")
    if passes < 1:
        raise ValueError("passes must be >= 1")
    if initial_block < 1:
        raise ValueError("initial_block must be >= 1")
    a = _bits(alice, "alice")
    diff = a ^ _bits(bob, "bob")
    n = len(a)
    if n == 0:
        return bob, 0
    rng = np.random.default_rng(seed)
    starts = np.arange(0, n, initial_block)
    ends = np.minimum(starts + initial_block, n)
    leaked = 0
    # Per pass set up so far: its order (index -> position) and inverse
    # (position -> index), both None for the first pass's natural order,
    # and its block -> parities differ flags.  A position's block is its
    # index // initial_block.
    orders: list[np.ndarray | None] = []
    indexes: list[np.ndarray | None] = []
    mismatch: list[list[int]] = []
    queue: deque[tuple[int, int]] = deque()
    for p in range(passes):
        if not diff.any():
            # The keys agree: every parity left to disclose matches, so
            # each remaining pass only adds its block count to the leak.
            leaked += len(starts) * (passes - p)
            break
        if p == 0:
            order = index = None
            ordered = diff
        else:
            order = rng.permutation(n)
            index = np.empty(n, dtype=np.intp)
            index[order] = np.arange(n)
            ordered = diff[order]
        odd = np.flatnonzero(np.add.reduceat(ordered, starts) & 1)
        leaked += len(starts)
        # The first round: every odd block of this pass, searched at once.
        # Each flip toggles its blocks in the earlier passes, in block
        # order; this pass's blocks all end even.
        at, disclosed = _search_blocks(ordered, starts[odd], ends[odd])
        leaked += int(disclosed.sum())
        found = at if order is None else order[at]
        diff[found] ^= 1
        for qbs in zip(*(((found if q_index is None else q_index[found]) // initial_block).tolist()
                         for q_index in indexes)):
            for qi, qb in enumerate(qbs):
                mismatch[qi][qb] ^= 1
                if mismatch[qi][qb]:
                    queue.append((qi, qb))
        orders.append(order)
        indexes.append(index)
        mismatch.append([0] * len(starts))  # one flip in each odd block
        while queue:
            pi, bi = queue.popleft()
            if not mismatch[pi][bi]:
                continue  # stale entry, fixed by an earlier cascade
            lo = bi * initial_block
            order = orders[pi]
            block = slice(lo, lo + initial_block) if order is None else order[lo:lo + initial_block]
            offset, disclosed = _binary_search(diff[block].tolist())
            leaked += disclosed
            pos = lo + offset if order is None else int(block[offset])
            diff[pos] ^= 1
            for qi, (q_index, q_mismatch) in enumerate(zip(indexes, mismatch)):
                qb = (pos if q_index is None else int(q_index[pos])) // initial_block
                q_mismatch[qb] ^= 1
                if qi != pi and q_mismatch[qb]:
                    queue.append((qi, qb))
    corrected = a ^ diff
    return (bits_to_str(corrected) if isinstance(bob, str) else corrected), leaked


def final_key_length(n: int, qber: float, leaked: int, epsilon: float) -> int:
    """Distillable length after hashing: entropy of the key minus the
    disclosed information minus a 2*log2(1/epsilon) security margin."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    margin = math.ceil(2 * math.log2(1 / epsilon))
    return max(0, math.floor(n * (1 - binary_entropy(qber))) - leaked - margin)


def privacy_amplify(key: str | np.ndarray, leaked: int, qber: float, epsilon: float,
                    seed: int) -> str:
    """Compress a partially disclosed key with a seeded Toeplitz hash.

    The output is T @ key mod 2 for a random m x n binary Toeplitz
    matrix T drawn from the seed, with m = final_key_length(...).  The
    map is linear in the key, so parties holding identical inputs and
    the same seed end with identical final keys.  The product is
    evaluated by `toeplitz_hash`.
    """
    bits = _bits(key, "key")
    n = len(bits)
    if n == 0:
        raise ValueError("key must be non-empty")
    m = final_key_length(n, qber, leaked, epsilon)
    if m == 0:
        return ""
    rng = np.random.default_rng(seed)
    diagonals = rng.integers(0, 2, size=m + n - 1, dtype=np.int64)
    return bits_to_str(toeplitz_hash(diagonals, bits))


def _fft_size(length: int) -> int:
    """The smallest 2^a 3^b 5^c >= length (length >= 1)."""
    best = 1 << (length - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # 3^b 5^c times the least power of two reaching length
            size = p35 << ((length - 1) // p35).bit_length()
            if size < best:
                best = size
            p35 *= 3
        p5 *= 5
    return best


def toeplitz_hash(diagonals: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """T @ bits mod 2 for the Toeplitz matrix T[i, j] = diagonals[i - j + n - 1].

    With n = len(bits) and m = len(diagonals) - n + 1 output bits, the
    product is the slice [n-1, n-1+m) of the full convolution of
    diagonals with bits, of length m + 2n - 2.  It is computed as a
    float64 FFT convolution of length N, the smallest 5-smooth number
    >= m + n - 1, and rounded with rint.  That N is enough: an index k
    of the kept slice could only alias k + N > m + 2n - 3, past the end
    of the convolution.  The guard: the rounded sums are used only when
    every entry lies within 0.25 of an integer; otherwise the exact
    integer convolution (valid mode, which is the same slice) is taken.
    """
    n = len(bits)
    m = len(diagonals) - n + 1
    if n < 1 or m < 1:
        raise ValueError(f"toeplitz_hash needs 1 <= len(bits) <= len(diagonals), "
                         f"got {n} bits and {len(diagonals)} diagonals")
    size = _fft_size(len(diagonals))
    spectrum = np.fft.rfft(diagonals, size) * np.fft.rfft(bits, size)
    x = np.fft.irfft(spectrum, size)[n - 1:n - 1 + m]
    rounded = np.rint(x)
    if np.max(np.abs(x - rounded)) < 0.25:
        return rounded.astype(np.int64) & 1
    return np.convolve(diagonals, bits, mode="valid") & 1
