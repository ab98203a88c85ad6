"""Independent reference arithmetic for the tests.

Everything here is plain numpy built directly from the defining
amplitude expressions, or (for reconciliation) from parities recomputed
at every step, deliberately sharing no code with the package, so
package results can be checked against a second route.
"""

from collections import deque

import numpy as np

S = 1 / np.sqrt(2)

ZP = np.array([1, 0], dtype=complex)
ZM = np.array([0, 1], dtype=complex)
XP = S * (ZP + ZM)
XM = S * (ZP - ZM)
YP = S * (ZP + 1j * ZM)
YM = S * (ZP - 1j * ZM)

EIGEN = {
    ("X", "+"): XP, ("X", "-"): XM,
    ("Y", "+"): YP, ("Y", "-"): YM,
    ("Z", "+"): ZP, ("Z", "-"): ZM,
}


def kron(*vecs):
    out = vecs[0]
    for v in vecs[1:]:
        out = np.kron(out, v)
    return out


# Pair states straight from their z-basis definitions.
PSI_PLUS = S * (kron(ZP, ZP) + kron(ZM, ZM))
PSI_MINUS = S * (kron(ZP, ZP) - kron(ZM, ZM))
PHI_PLUS = S * (kron(ZP, ZM) + kron(ZM, ZP))
PHI_MINUS = S * (kron(ZP, ZM) - kron(ZM, ZP))
COMB_PSI_PLUS = S * (PSI_MINUS + PHI_PLUS)
COMB_PHI_MINUS = S * (PSI_MINUS - PHI_PLUS)

GHZ3 = S * (kron(ZP, ZP, ZP) + kron(ZM, ZM, ZM))


def project(amps, num_qubits, qubit, vec):
    """Project one qubit of an n-qubit vector onto `vec`.

    Returns (probability, normalized reduced vector with that qubit
    removed, or None at probability 0)."""
    shaped = np.asarray(amps).reshape([2] * num_qubits)
    reduced = np.tensordot(np.conj(vec), shaped, axes=([0], [qubit])).reshape(-1)
    prob = float(np.sum(np.abs(reduced) ** 2))
    if prob < 1e-15:
        return prob, None
    return prob, reduced / np.sqrt(prob)


def deterministic_outcome(qubit_vec):
    """(basis, sign) if the 1-qubit vector is an eigenvector of x/y/z."""
    for (basis, sign), e in EIGEN.items():
        if abs(abs(np.vdot(e, qubit_vec)) - 1.0) < 1e-10:
            return basis, sign
    return None


# Parity-exchange reconciliation that recomputes every parity from the
# bits: the reference for the package's reconcile, which keeps block
# parities per pass.  Both must return the same (corrected_bob, leaked).

def _parity(bits, idx):
    return int(np.sum(bits[idx]) & 1)


def _binary_search(alice, bob, block):
    disclosed = 0
    while len(block) > 1:
        half = block[: len(block) // 2]
        disclosed += 1
        if _parity(alice, half) != _parity(bob, half):
            block = half
        else:
            block = block[len(block) // 2:]
    return int(block[0]), disclosed


def reconcile(alice, bob, passes=2, initial_block=8, seed=0):
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
    partitions = []
    block_of = []
    queue = deque()
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
                continue
            pos, disclosed = _binary_search(a, b, block)
            leaked += disclosed
            b[pos] ^= 1
            for qi in range(len(partitions)):
                if qi == pi:
                    continue
                qblock = partitions[qi][block_of[qi][pos]]
                if _parity(a, qblock) != _parity(b, qblock):
                    queue.append((qi, int(block_of[qi][pos])))
    return (b + ord("0")).astype(np.uint8).tobytes().decode(), leaked
