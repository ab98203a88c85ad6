"""Classical key distillation: parity-exchange error correction and
Toeplitz-hash privacy amplification.

Keys are bit strings of '0'/'1'.  Leakage is counted in disclosed bits
and only ever grows along the pipeline; the final key length follows
m = floor(n*(1-h2(qber))) - leaked - ceil(2*log2(1/epsilon)).

The Toeplitz hash is evaluated as a float64 FFT convolution in
O(n log n) and rounded to the integer sums it approximates.  The
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


def _parity(bits: np.ndarray, idx: np.ndarray) -> int:
    return int(np.sum(bits[idx]) & 1)


def _binary_search(alice: np.ndarray, bob: np.ndarray, block: np.ndarray):
    """Locate one error inside a block with odd parity mismatch.

    Returns (position, parities_disclosed): each halving discloses one
    of Alice's sub-block parities.
    """
    disclosed = 0
    while len(block) > 1:
        half = block[: len(block) // 2]
        disclosed += 1
        if _parity(alice, half) != _parity(bob, half):
            block = half
        else:
            block = block[len(block) // 2:]
    return int(block[0]), disclosed


def reconcile(alice: str, bob: str, passes: int = 2, initial_block: int = 8, seed: int = 0):
    """Parity-exchange reconciliation with cascading back-search.

    Each pass partitions the key into blocks of `initial_block` bits
    (pass 1 in natural order, later passes under a seeded shuffle) and
    discloses one parity per block.  A mismatched block is binary
    searched down to a single bit, which is flipped in Bob's key; the
    flip re-opens the blocks containing that bit in every other pass,
    so corrections cascade until all disclosed parities agree.

    Returns (corrected_bob, leaked) where leaked counts every disclosed
    parity.  Residual errors (even-weight patterns aligned in all
    partitions) remain in the output rather than being hidden.
    """
    if len(alice) != len(bob):
        raise ValueError("keys must have equal length")
    n = len(alice)
    if n == 0:
        return bob, 0
    if initial_block < 1:
        raise ValueError("initial_block must be >= 1")
    a = np.frombuffer(alice.encode(), dtype=np.uint8) - ord("0")
    b = (np.frombuffer(bob.encode(), dtype=np.uint8) - ord("0")).copy()
    rng = np.random.default_rng(seed)
    leaked = 0
    partitions: list[list[np.ndarray]] = []
    block_of: list[np.ndarray] = []  # per pass: position -> block index
    queue: deque[tuple[int, int]] = deque()
    for p in range(passes):
        order = np.arange(n) if p == 0 else rng.permutation(n)
        blocks = [order[i:i + initial_block] for i in range(0, n, initial_block)]
        partitions.append(blocks)
        lookup = np.empty(n, dtype=np.int64)
        lookup[order] = np.arange(n) // initial_block
        block_of.append(lookup)
        starts = np.arange(0, n, initial_block)
        a_par = np.add.reduceat(a[order], starts) & 1
        b_par = np.add.reduceat(b[order], starts) & 1
        leaked += len(blocks)
        for bi in np.nonzero(a_par != b_par)[0]:
            queue.append((p, int(bi)))
        while queue:
            pi, bi = queue.popleft()
            block = partitions[pi][bi]
            if _parity(a, block) == _parity(b, block):
                continue  # stale entry, fixed by an earlier cascade
            pos, disclosed = _binary_search(a, b, block)
            leaked += disclosed
            b[pos] ^= 1
            for qi in range(len(partitions)):
                if qi == pi:
                    continue
                qblock = partitions[qi][block_of[qi][pos]]
                if _parity(a, qblock) != _parity(b, qblock):
                    queue.append((qi, int(block_of[qi][pos])))
    return bits_to_str(b), leaked


def final_key_length(n: int, qber: float, leaked: int, epsilon: float) -> int:
    """Distillable length after hashing: entropy of the key minus the
    disclosed information minus a 2*log2(1/epsilon) security margin."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    margin = math.ceil(2 * math.log2(1 / epsilon))
    return max(0, math.floor(n * (1 - binary_entropy(qber))) - leaked - margin)


def privacy_amplify(key: str, leaked: int, qber: float, epsilon: float, seed: int) -> str:
    """Compress a partially disclosed key with a seeded Toeplitz hash.

    The output is T @ key mod 2 for a random m x n binary Toeplitz
    matrix T drawn from the seed, with m = final_key_length(...).  The
    map is linear in the key, so parties holding identical inputs and
    the same seed end with identical final keys.  The product is
    evaluated by `toeplitz_hash`.
    """
    if not key:
        raise ValueError("key must be non-empty")
    n = len(key)
    m = final_key_length(n, qber, leaked, epsilon)
    if m == 0:
        return ""
    rng = np.random.default_rng(seed)
    diagonals = rng.integers(0, 2, size=m + n - 1, dtype=np.int64)
    bits = (np.frombuffer(key.encode(), dtype=np.uint8) - ord("0")).astype(np.int64)
    return bits_to_str(toeplitz_hash(diagonals, bits))


def toeplitz_hash(diagonals: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """T @ bits mod 2 for the Toeplitz matrix T[i, j] = diagonals[i - j + n - 1].

    With n = len(bits) and m = len(diagonals) - n + 1 output bits, the
    product is the slice [n-1, n-1+m) of the full convolution of
    diagonals with bits.  It is computed as a float64 FFT convolution,
    padded to a power of two >= m + 2n - 2, and rounded with rint.  The
    guard: the rounded sums are used only when every entry lies within
    0.25 of an integer; otherwise the exact integer convolution (valid
    mode, which is the same slice) is taken.
    """
    n = len(bits)
    m = len(diagonals) - n + 1
    size = 1 << (m + 2 * n - 3).bit_length()
    spectrum = np.fft.rfft(diagonals, size) * np.fft.rfft(bits, size)
    x = np.fft.irfft(spectrum, size)[n - 1:n - 1 + m]
    rounded = np.rint(x)
    if np.max(np.abs(x - rounded)) < 0.25:
        return rounded.astype(np.int64) & 1
    return np.convolve(diagonals, bits, mode="valid") & 1
