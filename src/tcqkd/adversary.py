"""Adversary models for the trusted-center protocols.

Three executable attacks:

* intercept/resend — Eve measures a particle in flight in a random
  basis from her pool and forwards a fresh eigenstate of her result;
* cheating center — the center measures all particles of the triplet
  in one basis before distribution and sends product eigenstates;
* ancilla entangling — Eve attaches a probe qubit to Alice's particle,
  correlated with its x components, with tunable coupling (overlap
  1-coupling between the two probe states; coupling 0 leaves the
  legitimate state untouched).

Attacks act only on in-flight states and public announcements; they
never read party-internal records.

`predict_detection_rate` and `predict_adversary_accuracy` are exact
oracles: they enumerate every discrete random choice of a protocol run
(preparation, Eve's choices, bases, outcomes) with its Born weight and
compute per-checked-position error and guess probabilities in closed
form, with no sampling.  Simulated frequencies are validated against
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .qstate import (
    ATOL,
    Basis,
    GHZ,
    Outcome,
    Register,
    StateVector,
    collapse,
    deterministic_peer_outcome,
    inner_product,
    make_eigenstate,
    make_two_qubit,
    outcome_distribution,
    tensor,
)


class Party(Enum):
    ALICE = "alice"
    BOB = "bob"


class UnsupportedAttackError(ValueError):
    """Raised for (protocol, attack) pairs the model does not define."""


@dataclass(frozen=True)
class NoAttack:
    kind = "none"


@dataclass(frozen=True)
class InterceptResend:
    """Eve measures the target's in-flight particle and resends.

    basis_pool None selects the protocol's own basis pool at session
    start ({X,Y} for the triplet protocols, {X,Z} for the pair ones).
    """

    kind = "intercept_resend"
    target_party: Party = Party.ALICE
    basis_pool: tuple[Basis, ...] | None = None

    def __post_init__(self):
        if self.basis_pool is not None and len(self.basis_pool) == 0:
            raise ValueError("basis_pool must be non-empty")


@dataclass(frozen=True)
class CheatingCenterMeasureAll:
    """The center measures every particle in `basis` before sending."""

    kind = "cheating_center"
    basis: Basis = Basis.X


@dataclass(frozen=True)
class AncillaEntangle:
    """Probe qubit attached to Alice's particle with given coupling."""

    kind = "ancilla"
    coupling: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("coupling must be in [0, 1]")


AttackModel = NoAttack | InterceptResend | CheatingCenterMeasureAll | AncillaEntangle


@dataclass
class EveRecord:
    position: int
    basis_used: str
    outcome: Outcome | None
    inferred_bit: int | None = None


def intercept_resend(in_flight: StateVector, target_qubit: int, basis_pool,
                     rng: np.random.Generator, position: int = 0):
    """Measure one in-flight qubit in a random pool basis and resend.

    Returns (resent, remaining, record): the fresh eigenstate handed to
    the target party, the rest of the system collapsed by Eve's
    measurement (None when the target was the last qubit), and Eve's
    bookkeeping.  The resent particle is a product state, disentangled
    from everything else.
    """
    basis_pool = tuple(basis_pool)
    if not basis_pool:
        raise ValueError("basis_pool must be non-empty")
    basis = basis_pool[int(rng.integers(len(basis_pool)))]
    from .qstate import measure

    outcome, remaining = measure(in_flight, target_qubit, basis, float(rng.random()))
    resent = make_eigenstate(basis, outcome)
    return resent, remaining, EveRecord(position, basis.value, outcome)


# --- ancilla-probe algebra ------------------------------------------------


def probe_vectors(coupling: float):
    """The two probe states, with overlap <u|v> = 1 - coupling."""
    phi = math.acos(1.0 - coupling) / 2.0
    u = np.array([math.cos(phi), math.sin(phi)], dtype=complex)
    v = np.array([math.cos(phi), -math.sin(phi)], dtype=complex)
    return u, v


def ancilla_attack(ghz: StateVector, coupling: float) -> StateVector:
    """Entangle a probe with the triplet's Alice qubit.

    Returns the four-qubit joint state (center, Alice, Bob, probe).
    In the x decomposition the four triplet terms carry probe states
    (u, v, u, v): terms sharing Alice's x value share a probe state, so
    at coupling 1 the probe is a perfect x-meter on Alice's particle
    while the pairs attached to opposite x values become orthogonal.
    """
    if ghz.num_qubits != 3:
        raise ValueError("ancilla attack acts on the 3-qubit triplet")
    u, v = probe_vectors(coupling)
    from .qstate import apply_x_probe

    return apply_x_probe(ghz, 1, u, v)


def _helstrom(p_plus: float, anc_plus, p_minus: float, anc_minus) -> float:
    """Optimal probability of distinguishing two pure states with priors."""
    if anc_plus is None or anc_minus is None or p_plus <= ATOL or p_minus <= ATOL:
        return max(p_plus, p_minus)
    total = p_plus + p_minus
    p, q = p_plus / total, p_minus / total
    ov = min(1.0, abs(inner_product(anc_plus, anc_minus)))
    # (p-q)^2 + 4pq(1-ov^2) equals 1 - 4pq*ov^2 but stays exact at the
    # degenerate point (balanced priors, identical states).
    disc = (p - q) ** 2 + 4.0 * p * q * (1.0 - ov) * (1.0 + ov)
    return 0.5 * (1.0 + math.sqrt(max(0.0, disc)))


@dataclass(frozen=True)
class EveProjection:
    """Result of Eve's pair projection on the probed joint state.

    post_state is the normalized (center, probe) state left after the
    projection; branch_priors and branch_ancillas describe the probe
    conditioned on the center's x result; guess_probability is Eve's
    optimal probability of identifying the center's x branch from the
    probe alone.
    """

    success_probability: float
    post_state: StateVector
    branch_priors: tuple[float, float]
    branch_ancillas: tuple[StateVector | None, StateVector | None]
    guess_probability: float


def eve_projection(joint: StateVector, alphas) -> EveProjection:
    """Project the (Alice, Bob) pair of the probed joint state onto
    sum_i alpha_i |x_i x_j> and analyze what the probe retains."""
    if joint.num_qubits != 4:
        raise ValueError("expected the 4-qubit probed state")
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    if alphas.shape[0] != 4:
        raise ValueError("four projection amplitudes required")
    if abs(float(np.sum(np.abs(alphas) ** 2)) - 1.0) > 1e-9:
        raise ValueError("projection amplitudes must be normalized")
    xp = make_eigenstate(Basis.X, Outcome.PLUS).amplitudes
    xm = make_eigenstate(Basis.X, Outcome.MINUS).amplitudes
    pair_terms = (np.kron(xp, xp), np.kron(xm, xm), np.kron(xp, xm), np.kron(xm, xp))
    phi = sum(a * t for a, t in zip(alphas, pair_terms)).reshape(2, 2)
    shaped = joint.amplitudes.reshape(2, 2, 2, 2)  # (center, alice, bob, probe)
    unnorm = np.einsum("ab,cabe->ce", np.conj(phi), shaped)
    success = float(np.sum(np.abs(unnorm) ** 2))
    if success <= ATOL:
        raise ValueError("projection has zero probability")
    post = StateVector(unnorm.reshape(-1) / math.sqrt(success))
    priors = []
    ancillas = []
    for outcome in (Outcome.PLUS, Outcome.MINUS):
        p, anc = collapse(post, 0, Basis.X, outcome)
        priors.append(p)
        ancillas.append(anc)
    guess = _helstrom(priors[0], ancillas[0], priors[1], ancillas[1])
    return EveProjection(
        success_probability=success,
        post_state=post,
        branch_priors=(priors[0], priors[1]),
        branch_ancillas=(ancillas[0], ancillas[1]),
        guess_probability=guess,
    )


DEFAULT_PROJECTION_ALPHAS = (0.5, 0.5, 0.5, 0.5)


def ancilla_guess_probability(coupling: float, alphas=DEFAULT_PROJECTION_ALPHAS) -> float:
    """Eve's branch-guess probability for a probe of given coupling."""
    return eve_projection(ancilla_attack(GHZ, coupling), alphas).guess_probability


# --- Eve's per-position inference ------------------------------------------


def infer_bob_outcome(announcement, eve_basis: Basis, eve_outcome: Outcome,
                      target: Party, bob_basis: Basis) -> Outcome | None:
    """Eve's best deterministic prediction of Bob's outcome, or None.

    For an intercepted Alice particle Eve's record plays Alice's role
    in the correlation tables; for an intercepted Bob particle Bob
    measures the eigenstate Eve sent, so his outcome is her record
    exactly when the bases agree.  None means she must guess a coin.
    """
    if target is Party.BOB:
        return eve_outcome if bob_basis is eve_basis else None
    return deterministic_peer_outcome(announcement, eve_basis, eve_outcome, bob_basis)


# --- exact enumeration oracles ----------------------------------------------


def _ghz_attack_branches(protocol, attack):
    """Initial branches [(weight, register, eve_ctx, fixed_announcement)].

    eve_ctx is (basis, outcome) for intercept, 'probe' for the ancilla
    attack, ('center', outcomes) for the cheating center, else None.
    """
    from . import protocols as pr

    reg0 = Register.from_state(GHZ, ("c", "a", "b"))
    if isinstance(attack, NoAttack):
        return [(1.0, reg0, None, None)]
    if isinstance(attack, InterceptResend):
        pool = attack.basis_pool or pr.intercept_default_pool(protocol)
        role = "a" if attack.target_party is Party.ALICE else "b"
        out = []
        for eb in pool:
            for p, eo, reg1 in reg0.branches(role, eb):
                reg2 = reg1.add_eigenstate(role, eb, eo)
                out.append((p / len(pool), reg2, (eb, eo), None))
        return out
    if isinstance(attack, CheatingCenterMeasureAll):
        if protocol not in (pr.ProtocolId.GHZ1, pr.ProtocolId.GHZ2):
            raise UnsupportedAttackError("cheating center is modeled for GHZ1/GHZ2 only")
        if protocol is pr.ProtocolId.GHZ1 and attack.basis is not Basis.X:
            raise UnsupportedAttackError("GHZ1 announcements are x results; cheating basis must be X")
        if attack.basis is Basis.Z:
            raise UnsupportedAttackError("announcements use the x/y pool; cheating basis must be X or Y")
        out = []
        for pc, oc, reg1 in reg0.branches("c", attack.basis):
            for pa, oa, reg2 in reg1.branches("a", attack.basis):
                for pb, ob, _ in reg2.branches("b", attack.basis):
                    reg3 = Register((), {})
                    reg3 = reg3.add_eigenstate("a", attack.basis, oa)
                    reg3 = reg3.add_eigenstate("b", attack.basis, ob)
                    out.append((pc * pa * pb, reg3, ("center", oa, ob), (attack.basis, oc)))
        return out
    if isinstance(attack, AncillaEntangle):
        u, v = probe_vectors(attack.coupling)
        return [(1.0, reg0.attach_probe("a", "eve", u, v), "probe", None)]
    raise UnsupportedAttackError(f"unknown attack {attack!r}")


def _enumerate_leaves(protocol, attack):
    """Yield (weight, announcement, a_basis, a_out, b_basis, b_out, adv_pred).

    adv_pred is the adversary's deterministic prediction of Bob's
    outcome for that leaf, or None when she can only guess a coin.
    """
    from . import protocols as pr

    pid = pr.ProtocolId
    if protocol in (pid.BELL4, pid.BELL5):
        if not isinstance(attack, (NoAttack, InterceptResend)):
            raise UnsupportedAttackError(f"{attack.kind} is not modeled for the pair protocols")
        labels = pr.prepared_labels(protocol)
        bases = pr.party_bases(protocol)
        for label in labels:
            base_reg = Register.from_state(make_two_qubit(label), ("a", "b"))
            if isinstance(attack, InterceptResend):
                pool = attack.basis_pool or pr.intercept_default_pool(protocol)
                role = "a" if attack.target_party is Party.ALICE else "b"
                starts = []
                for eb in pool:
                    for p, eo, reg1 in base_reg.branches(role, eb):
                        starts.append((p / len(pool), reg1.add_eigenstate(role, eb, eo), (eb, eo)))
            else:
                starts = [(1.0, base_reg, None)]
            for w0, reg, eve_ctx in starts:
                w0 = w0 / len(labels)
                for a_basis in bases:
                    for pa, a_out, reg_a in reg.branches("a", a_basis):
                        for b_basis in bases:
                            for pb, b_out, _ in reg_a.branches("b", b_basis):
                                w = w0 * 0.25 * pa * pb
                                pred = None
                                if eve_ctx is not None:
                                    pred = infer_bob_outcome(label, eve_ctx[0], eve_ctx[1],
                                                             attack.target_party, b_basis)
                                yield w, label, a_basis, a_out, b_basis, b_out, pred
        return

    bases = pr.party_bases(protocol)
    for w0, reg, eve_ctx, fixed_ann in _ghz_attack_branches(protocol, attack):
        if protocol in (pid.GHZ1, pid.GHZ2):
            if fixed_ann is not None:
                ann_branches = [(1.0, fixed_ann, reg)]
            elif protocol is pid.GHZ1:
                ann_branches = [(p, (Basis.X, o), r) for p, o, r in reg.branches("c", Basis.X)]
            else:
                ann_branches = []
                for cb in (Basis.X, Basis.Y):
                    for p, o, r in reg.branches("c", cb):
                        ann_branches.append((0.5 * p, (cb, o), r))
            for wc, ann, reg_c in ann_branches:
                for a_basis in bases:
                    for pa, a_out, reg_a in reg_c.branches("a", a_basis):
                        for b_basis in bases:
                            for pb, b_out, reg_b in reg_a.branches("b", b_basis):
                                w = w0 * wc * 0.25 * pa * pb
                                yield from _ghz_leaf(protocol, attack, w, ann, a_basis, a_out,
                                                     b_basis, b_out, eve_ctx, reg_b)
        else:  # GHZ3: parties measure first, center follows the basis rule
            for a_basis in bases:
                for pa, a_out, reg_a in reg.branches("a", a_basis):
                    for b_basis in bases:
                        for pb, b_out, reg_b in reg_a.branches("b", b_basis):
                            cb = pr.center_basis_rule_p3(a_basis, b_basis)
                            for pc, c_out, reg_c in reg_b.branches("c", cb):
                                w = w0 * 0.25 * pa * pb * pc
                                yield from _ghz_leaf(protocol, attack, w, (cb, c_out), a_basis,
                                                     a_out, b_basis, b_out, eve_ctx, reg_c)


def _ghz_leaf(protocol, attack, w, ann, a_basis, a_out, b_basis, b_out, eve_ctx, reg):
    """Expand the adversary's own final measurement, if any."""
    if eve_ctx is None:
        yield w, ann, a_basis, a_out, b_basis, b_out, None
    elif eve_ctx == "probe":
        for pe, eo, _ in reg.branches("eve", Basis.X):
            # The probe's x outcome is Eve's guess of Alice's x outcome.
            pred = deterministic_peer_outcome(ann, Basis.X, eo, b_basis)
            yield w * pe, ann, a_basis, a_out, b_basis, b_out, pred
    elif eve_ctx[0] == "center":
        _, oa, ob = eve_ctx
        pred = ob if b_basis is attack.basis else None
        yield w, ann, a_basis, a_out, b_basis, b_out, pred
    else:
        eb, eo = eve_ctx
        pred = infer_bob_outcome(ann, eb, eo, attack.target_party, b_basis)
        yield w, ann, a_basis, a_out, b_basis, b_out, pred


def predict_detection_rate(protocol, attack: AttackModel) -> float:
    """Exact per-checked-position error probability under the attack."""
    from . import protocols as pr

    if isinstance(attack, NoAttack):
        return 0.0
    p_kept = 0.0
    p_err = 0.0
    for w, ann, a_basis, a_out, b_basis, b_out, _ in _enumerate_leaves(protocol, attack):
        if not pr.keep_rule(protocol, ann, a_basis, b_basis):
            continue
        p_kept += w
        expected = pr.consistency_map(protocol, ann, a_basis, a_out, b_basis)
        if b_out is not expected:
            p_err += w
    if p_kept <= ATOL:
        return 0.0
    return p_err / p_kept


def predict_adversary_accuracy(protocol, attack: AttackModel) -> float:
    """Exact probability that the adversary's inferred bit matches
    Bob's key bit on a kept position (coin guesses count 1/2)."""
    from . import protocols as pr

    if isinstance(attack, NoAttack):
        raise UnsupportedAttackError("no adversary present")
    p_kept = 0.0
    p_correct = 0.0
    for w, ann, a_basis, a_out, b_basis, b_out, pred in _enumerate_leaves(protocol, attack):
        if not pr.keep_rule(protocol, ann, a_basis, b_basis):
            continue
        p_kept += w
        if pred is None:
            p_correct += 0.5 * w
        elif pred is b_out:
            p_correct += w
    if p_kept <= ATOL:
        raise UnsupportedAttackError("attack keeps no positions")
    return p_correct / p_kept
