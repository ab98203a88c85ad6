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
never read party-internal records.  This module holds the attack
models, the probe algebra and Eve's per-position inference; sessions
apply the attacks as steps of the per-position process `protocols`
compiles, and the exact detection and accuracy oracles
(`protocols.predict_detection_rate`, `predict_adversary_accuracy`) are
sums over that compiled tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qstate import (
    ATOL,
    Basis,
    GHZ,
    Outcome,
    StateVector,
    apply_x_probe,
    deterministic_peer_outcome,
    inner_product,
    make_eigenstate,
    project,
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
    (p_plus, anc_plus), (p_minus, anc_minus) = project(post, 0, Basis.X)
    guess = _helstrom(p_plus, anc_plus, p_minus, anc_minus)
    return EveProjection(
        success_probability=success,
        post_state=post,
        branch_priors=(p_plus, p_minus),
        branch_ancillas=(anc_plus, anc_minus),
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
