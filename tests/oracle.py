"""Independent reference arithmetic for the tests.

Everything here is plain numpy built directly from the defining
amplitude expressions, or (for reconciliation) from parities recomputed
at every step, deliberately sharing no code with the package, so
package results can be checked against a second route.

`scalar_session` is the reference for whole sessions: the paper's
process read one particle at a time, with one scalar generator call per
random choice and one projection per measurement.
"""

import math
from collections import deque
from functools import lru_cache

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

PAIRS = {
    "PsiPlus": PSI_PLUS, "PsiMinus": PSI_MINUS,
    "PhiPlus": PHI_PLUS, "PhiMinus": PHI_MINUS,
    "CombPsiPlus": COMB_PSI_PLUS, "CombPhiMinus": COMB_PHI_MINUS,
}

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


def probed_triplet(coupling):
    """GHZ with a probe entangled to Alice's x components: the term of
    Alice's x outcome s carries probe state u (s = +) or v (s = -),
    with <u|v> = 1 - coupling.  Qubits (center, alice, bob, probe)."""
    phi = math.acos(1.0 - coupling) / 2.0
    probe = {"+": np.array([math.cos(phi), math.sin(phi)]),
             "-": np.array([math.cos(phi), -math.sin(phi)])}
    joint = np.zeros((2, 2, 2, 2), dtype=complex)
    for sign in "+-":
        x = EIGEN[("X", sign)]
        p, rest = project(GHZ3, 3, 1, x)
        rest = math.sqrt(p) * rest.reshape(2, 2)
        joint += np.einsum("cb,a,e->cabe", rest, x, probe[sign])
    return joint.reshape(-1)


def eve_pair_projection(coupling):
    """Project the (Alice, Bob) pair of `probed_triplet` onto
    (1/2) sum_ij |x_i x_j>, then the center onto x+ and x-: the two
    (prior, probe state) branches Eve must tell apart."""
    phi = 0.5 * (kron(XP, XP) + kron(XM, XM) + kron(XP, XM) + kron(XM, XP)).reshape(2, 2)
    unnorm = np.einsum("ab,cabe->ce", np.conj(phi),
                       probed_triplet(coupling).reshape(2, 2, 2, 2)).reshape(-1)
    post = unnorm / np.linalg.norm(unnorm)
    return [project(post, 2, 0, EIGEN[("X", sign)]) for sign in "+-"]


def ancilla_guess(coupling):
    """Helstrom's optimal probability of naming the center's x branch
    from the probe, over `eve_pair_projection`'s branches: 1/2 plus half
    the trace norm of p|a><a| - q|b><b|."""
    (p, a), (q, b) = eve_pair_projection(coupling)
    diff = p * np.outer(a, np.conj(a)) - q * np.outer(b, np.conj(b))
    return 0.5 * (1 + float(np.sum(np.abs(np.linalg.eigvalsh(diff)))))


# --- a whole session, one position at a time ---------------------------------
#
# The paper's schemes as plain strings: the bases Alice and Bob draw
# from, and the pairs a BELL center prepares in its table's column order
# (Table I, Table II).  An announcement is a label, or the center's
# (basis, sign) for the triplet protocols.

PARTY_BASES = {"GHZ1": "XY", "GHZ2": "XY", "GHZ3": "XY", "BELL4": "XZ", "BELL5": "XZ"}
PREPARED = {"BELL4": ("PsiPlus", "PsiMinus", "PhiPlus", "PhiMinus"),
            "BELL5": ("PhiPlus", "PsiMinus", "CombPhiMinus", "CombPsiPlus")}
CENTER, ALICE, BOB, EVE, CHANNEL = range(5)  # actor stream keys
BIT = {"+": 0, "-": 1}  # a key bit is Bob's sign


@lru_cache(maxsize=None)
def peer_sign(announcement, basis, sign, peer_basis):
    """Bob's sign in peer_basis when the announced state fixes it from
    Alice's (basis, sign), else None."""
    if announcement in PAIRS:
        pair = PAIRS[announcement]
    else:
        _, pair = project(GHZ3, 3, 0, EIGEN[announcement])
    _, bob = project(pair, 2, 0, EIGEN[(basis, sign)])
    found = None if bob is None else deterministic_outcome(bob)
    return found[1] if found is not None and found[0] == peer_basis else None


class _Particles:
    """Named qubits of one amplitude vector."""

    def __init__(self, names, amps):
        self.names, self.amps = list(names), amps

    def measure(self, name, basis, draw):
        """The sign, + iff draw < p_plus; the qubit leaves the vector."""
        q = self.names.index(name)
        p_plus, rest = project(self.amps, len(self.names), q, EIGEN[(basis, "+")])
        sign = "+" if draw < p_plus else "-"
        if sign == "-":
            _, rest = project(self.amps, len(self.names), q, EIGEN[(basis, "-")])
        if rest is None:
            raise AssertionError("selected a zero-probability branch")
        del self.names[q]
        self.amps = rest
        return sign

    def add(self, name, basis, sign):
        """A fresh eigenstate as a new qubit."""
        self.names.append(name)
        self.amps = kron(self.amps, EIGEN[(basis, sign)])


def scalar_session(config):
    """The session `run_session` runs for config, one particle at a time.

    Each random choice is one rng.random() (a measurement or a leg's
    loss) or rng.integers(k) (a basis or a coin) call on its actor's
    stream, SeedSequence(seed, spawn_key=(key,)).  A stream is drawn
    slot-major: one kind of draw for every position before the next, in
    this order:

    * center: a BELL pair label for each of the n positions;
    * channel: Alice's leg lost, for each of the n positions, then Bob's
      leg lost, for each; a position arrives when neither leg lost it
      (loss_probability is one number for both legs, or a pair);
    * per measurement, on the measuring actor's stream: its basis for
      every arrived position (no call for one basis), then its sign for
      every arrived position.  The measurements, in order:
      - a cheating center's of c, a and b in its basis, sending Bob and
        Alice eigenstates (center), or an interceptor's, which resends
        (eve);
      - GHZ1/GHZ2: the center's, in x, or x or y for GHZ2;
      - Alice's, then Bob's;
      - GHZ3: the center's, in x for equal bases, else y;
      - the probe's x read-out (eve);
    * a coin for every arrived position where the adversary's record
      does not fix Bob's bit, in position order (eve, or center for a
      cheating center);
    * bob: his check sample, choice(kept, k, replace=False).

    A position is kept when the announced state fixes Bob's sign from
    Alice's, whichever sign she got; her key bit is that sign.  Returns
    the per-position columns (None where lost; a BELL position keeps its
    label), kept, the checked positions in the order drawn, the check
    as (checked, errors, aborted), both raw keys and the adversary's
    records as run_session writes them (None without her).
    """
    protocol, attack, n = config.protocol.value, config.attack, config.num_states
    kind, bases = attack.kind, PARTY_BASES[protocol]
    loss = config.loss_probability
    loss_a, loss_b = loss if isinstance(loss, tuple) else (loss, loss)
    center, alice, bob, eve, channel = (
        np.random.default_rng(np.random.SeedSequence(config.rng_seed, spawn_key=(key,)))
        for key in (CENTER, ALICE, BOB, EVE, CHANNEL))
    labels = PREPARED.get(protocol)
    announcement = [labels[center.integers(len(labels))] if labels else None for _ in range(n)]
    lost_a = [channel.random() < loss_a for _ in range(n)]
    lost_b = [channel.random() < loss_b for _ in range(n)]
    # Whether the adversary's record is Bob's particle, else Alice's.
    on_bob = kind == "cheating_center" or (kind == "intercept_resend"
                                           and attack.target_party.value == "bob")

    arrived = {}  # position -> {"state": its particles, key: (basis, sign), ...}
    for i in range(n):
        if lost_a[i] or lost_b[i]:
            continue
        if labels:
            state = _Particles(["a", "b"], PAIRS[announcement[i]])
        elif kind == "ancilla":
            state = _Particles(["c", "a", "b", "eve"], probed_triplet(attack.coupling))
        else:
            state = _Particles(["c", "a", "b"], GHZ3)
        arrived[i] = {"state": state}

    def measure(key, role, rng, pool, resend=False):
        """role's measurement at every arrived position, filed under key:
        a basis from pool (a string, or a function of the position) for
        each, then a sign for each; with resend a fresh eigenstate of
        the sign replaces the particle."""
        pools = [pool(pos) if callable(pool) else pool for pos in arrived.values()]
        chosen = [p[rng.integers(len(p))] if len(p) > 1 else p for p in pools]
        for pos, basis in zip(arrived.values(), chosen):
            sign = pos["state"].measure(role, basis, rng.random())
            if resend:
                pos["state"].add(role, basis, sign)
            pos[key] = (basis, sign)

    if kind == "cheating_center":
        for role in "cab":  # it shows c and knows the eigenstate it sent Bob
            measure({"c": "c", "a": "sent", "b": "hers"}[role], role, center, attack.basis.value,
                    resend=role != "c")
    elif kind == "intercept_resend":
        pool = "".join(b.value for b in attack.basis_pool) if attack.basis_pool else bases
        measure("hers", "b" if on_bob else "a", eve, pool, resend=True)
    if protocol in ("GHZ1", "GHZ2") and kind != "cheating_center":
        measure("c", "c", center, "XY" if protocol == "GHZ2" else "X")
    measure("a", "a", alice, bases)
    measure("b", "b", bob, bases)
    if protocol == "GHZ3":
        measure("c", "c", center, lambda pos: "X" if pos["a"][0] == pos["b"][0] else "Y")
    if kind == "ancilla":
        measure("hers", "eve", eve, "X")
    for i, pos in arrived.items():
        announcement[i] = pos.get("c", announcement[i])

    records = None
    if kind != "none":
        records = []
        coins = center if kind == "cheating_center" else eve
        for i, pos in arrived.items():
            (basis, sign), bob_basis = pos["hers"], pos["b"][0]
            if on_bob:
                guess = sign if basis == bob_basis else None
            else:
                guess = peer_sign(announcement[i], basis, sign, bob_basis)
            if guess is None:
                guess = "+-"[coins.integers(2)]
            shown = pos["c"] if kind == "cheating_center" else pos["hers"]
            prefix = "probe-" if kind == "ancilla" else ""
            records.append({"position": i, "basis_used": prefix + shown[0],
                            "outcome": shown[1], "inferred_bit": BIT[guess]})

    key_sign = {}  # kept position -> Alice's key bit, as Bob's sign
    for i, pos in arrived.items():
        (a_basis, a_sign), b_basis = pos["a"], pos["b"][0]
        if all(peer_sign(announcement[i], a_basis, s, b_basis) for s in "+-"):
            key_sign[i] = peer_sign(announcement[i], a_basis, a_sign, b_basis)
    kept = list(key_sign)
    k = int(config.check_fraction * len(kept))
    checked = bob.choice(kept, k, replace=False).tolist() if k else []
    errors = sum(key_sign[i] != arrived[i]["b"][1] for i in checked)
    aborted = bool(k) and errors / k > config.qber_abort_threshold
    in_key = [] if aborted else sorted(set(kept) - set(checked))

    def column(role, part):
        return [arrived[i][role][part] if i in arrived else None for i in range(n)]

    return {
        "lost": [i not in arrived for i in range(n)],
        "announcement": announcement,
        "alice_basis": column("a", 0),
        "bob_basis": column("b", 0),
        "alice_outcome": column("a", 1),
        "bob_outcome": column("b", 1),
        "kept": [i in key_sign for i in range(n)],
        "checked": checked,
        "check": (k, errors, aborted),
        "alice_raw_key": "".join(str(BIT[key_sign[i]]) for i in in_key),
        "bob_raw_key": "".join(str(BIT[arrived[i]["b"][1]]) for i in in_key),
        "adversary_records": records,
    }


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
