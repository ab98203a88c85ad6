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
models, the probe states, Eve's pair-projection guess and her
per-position inference.  A model's fields are its document: it reads
them as the document reader does (a party or a basis by value, a pool
as a tuple of bases, the coupling as a Python number).  Sessions apply
the attacks as steps of the per-position process `protocols` compiles,
and the exact detection and accuracy oracles
(`protocols.predict_detection_rate`, `predict_adversary_accuracy`) are
sums over that compiled tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .jsonfields import _enum, _number, _of_type
from .qstate import (
    Basis,
    GHZ,
    Outcome,
    Register,
    deterministic_peer_outcome,
    inner_product,
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
        object.__setattr__(self, "target_party",
                           _enum(self.target_party, Party, "attack.target_party"))
        pool = self.basis_pool
        if pool is not None:
            if not _of_type(pool, (list, tuple), "attack.basis_pool"):
                raise ValueError("attack.basis_pool must be non-empty")
            object.__setattr__(self, "basis_pool", tuple(
                _enum(basis, Basis, f"attack.basis_pool[{i}]") for i, basis in enumerate(pool)))


@dataclass(frozen=True)
class CheatingCenterMeasureAll:
    """The center measures every particle in `basis` before sending."""

    kind = "cheating_center"
    basis: Basis = Basis.X

    def __post_init__(self):
        object.__setattr__(self, "basis", _enum(self.basis, Basis, "attack.basis"))


@dataclass(frozen=True)
class AncillaEntangle:
    """Probe qubit attached to Alice's particle with given coupling."""

    kind = "ancilla"
    coupling: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coupling", _number(self.coupling, "attack.coupling"))
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("attack.coupling must be in [0, 1]")


AttackModel = NoAttack | InterceptResend | CheatingCenterMeasureAll | AncillaEntangle


# --- the ancilla probe ------------------------------------------------------


def probe_vectors(coupling: float):
    """The two probe states, with overlap <u|v> = 1 - coupling."""
    phi = math.acos(1.0 - coupling) / 2.0
    u = np.array([math.cos(phi), math.sin(phi)], dtype=complex)
    v = np.array([math.cos(phi), -math.sin(phi)], dtype=complex)
    return u, v


def ancilla_guess_probability(coupling: float) -> float:
    """Eve's optimal probability of guessing the center's x result from
    her probe, after projecting the (Alice, Bob) pair of the probed
    triplet onto (1/2) sum_ij |x_i x_j>, which is |z+ z+>.

    This is a guess of the center's x result, not of Bob's key bit
    (that is `protocols.predict_adversary_accuracy`).  Both of the
    center's x branches leave the probe in the same state, so the
    guess is 1/2 at every coupling.
    """
    AncillaEntangle(coupling)  # refuses a coupling outside [0, 1]
    reg = Register.from_state(GHZ, ("c", "a", "b")).attach_probe("a", "eve", *probe_vectors(coupling))
    for role in ("a", "b"):
        _, _, reg = reg.branches(role, Basis.Z)[0]
    (p, _, plus), (q, _, minus) = reg.branches("c", Basis.X)
    plus_probe, minus_probe = (state for r in (plus, minus) for state, roles in r.factors if "eve" in roles)
    ov = min(1.0, abs(inner_product(plus_probe, minus_probe)))
    # (p-q)^2 + 4pq(1-ov^2) equals 1 - 4pq*ov^2 but stays exact at the
    # degenerate point (balanced priors, identical states).
    return 0.5 * (1.0 + math.sqrt((p - q) ** 2 + 4.0 * p * q * (1.0 - ov) * (1.0 + ov)))


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
