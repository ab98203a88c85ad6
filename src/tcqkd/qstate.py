"""Exact statevector simulation of 1-4 qubit systems.

States are complex amplitude vectors over the computational (z) basis.
Qubit 0 is the leftmost tensor factor; basis index bit 0 means |z+> and
bit 1 means |z->.  In the three-particle states used by the key
distribution protocols, qubit 0 is the center's particle, qubit 1
Alice's and qubit 2 Bob's.

Everything here is a pure function of its inputs: measurement takes an
explicit uniform draw in [0,1), so identical draws reproduce identical
outcomes and collapsed states bit for bit.  StateVector instances are
immutable and safe to share between threads.

One projection serves each measurement: `project` splits a qubit along
both eigenvectors of a basis at once and returns both outcomes'
probability and collapsed state, and `collapse`, `Register.branches`
and the per-announcement peer tables all read it.

A Register names particles by role: its factors are (state, roles)
pairs, no role twice, and measuring a role drops it with its qubit.

The correlation tables for the two-particle states, the mixed
x/z-correlated combination states and the GHZ triplet are *derived*
from projection arithmetic, never hand-entered; a hand-transcribed
reference copy of each table ships alongside so every derived entry can
be checked against it (`matches_paper` in the export schema).  One GHZ
entry is known to disagree with the reference and is flagged rather
than patched.  A table is its entries: the CSV writes one row per entry,
and the text layout reads each cell from one map over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

ATOL = 1e-12

_SQRT2_INV = 1 / math.sqrt(2)


class Basis(Enum):
    X = "X"
    Y = "Y"
    Z = "Z"


class Outcome(Enum):
    PLUS = "+"
    MINUS = "-"

    @property
    def bit(self) -> int:
        return 0 if self is Outcome.PLUS else 1


class TwoQubitLabel(Enum):
    """Names for the four maximally entangled pair states and the two
    x/z-correlated linear combinations built from them."""

    PSI_PLUS = "PsiPlus"
    PSI_MINUS = "PsiMinus"
    PHI_PLUS = "PhiPlus"
    PHI_MINUS = "PhiMinus"
    COMB_PSI_PLUS = "CombPsiPlus"
    COMB_PHI_MINUS = "CombPhiMinus"


_EIGENVECTORS = {
    (Basis.Z, Outcome.PLUS): np.array([1, 0], dtype=complex),
    (Basis.Z, Outcome.MINUS): np.array([0, 1], dtype=complex),
    (Basis.X, Outcome.PLUS): np.array([_SQRT2_INV, _SQRT2_INV], dtype=complex),
    (Basis.X, Outcome.MINUS): np.array([_SQRT2_INV, -_SQRT2_INV], dtype=complex),
    (Basis.Y, Outcome.PLUS): np.array([_SQRT2_INV, 1j * _SQRT2_INV], dtype=complex),
    (Basis.Y, Outcome.MINUS): np.array([_SQRT2_INV, -1j * _SQRT2_INV], dtype=complex),
}


class StateVector:
    """Unit-norm pure state of 1 to 4 qubits.

    Amplitudes are stored as a read-only complex array of length
    2**num_qubits.  Norm is checked at construction (1e-12).
    """

    __slots__ = ("amplitudes", "num_qubits")

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        n = amps.shape[0]
        num_qubits = n.bit_length() - 1
        if n < 2 or 2**num_qubits != n or num_qubits > 4:
            raise ValueError(f"amplitude vector of length {n} is not a 1-4 qubit state")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > 1e-9:
            raise ValueError(f"state norm^2 = {norm_sq}, not 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", num_qubits)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self):
        return f"StateVector({self.num_qubits} qubits, {self.amplitudes.tolist()})"


@lru_cache(maxsize=None)
def make_eigenstate(basis: Basis, sign: Outcome) -> StateVector:
    """Single-qubit eigenvector of the given measurement axis."""
    return StateVector(_EIGENVECTORS[(basis, sign)])


def make_cat(n: int, relative_sign: str) -> StateVector:
    """N-particle cat state (|z+...z+> +/- |z-...z->)/sqrt(2), 2 <= n <= 4.

    n=2 gives the z-correlated pair states; n=3 with '+' is the GHZ
    triplet shared by center, Alice and Bob.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"cat states supported for 2..4 qubits, got {n}")
    if relative_sign not in ("+", "-"):
        raise ValueError(f"relative_sign must be '+' or '-', got {relative_sign!r}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = _SQRT2_INV
    amps[-1] = _SQRT2_INV if relative_sign == "+" else -_SQRT2_INV
    return StateVector(amps)


@lru_cache(maxsize=None)
def make_two_qubit(label: TwoQubitLabel) -> StateVector:
    """Pair states by label.

    PsiPlus/PsiMinus are z-correlated (|z+z+> +/- |z-z->)/sqrt(2),
    PhiPlus/PhiMinus are z-anticorrelated (|z+z-> +/- |z-z+>)/sqrt(2).
    The combination states are (PsiMinus +/- PhiPlus)/sqrt(2); they
    correlate one party's x outcomes with the other's z outcomes.
    """
    if label is TwoQubitLabel.PSI_PLUS:
        return make_cat(2, "+")
    if label is TwoQubitLabel.PSI_MINUS:
        return make_cat(2, "-")
    if label is TwoQubitLabel.PHI_PLUS:
        return StateVector(np.array([0, _SQRT2_INV, _SQRT2_INV, 0], dtype=complex))
    if label is TwoQubitLabel.PHI_MINUS:
        return StateVector(np.array([0, _SQRT2_INV, -_SQRT2_INV, 0], dtype=complex))
    psi_minus = make_two_qubit(TwoQubitLabel.PSI_MINUS).amplitudes
    phi_plus = make_two_qubit(TwoQubitLabel.PHI_PLUS).amplitudes
    if label is TwoQubitLabel.COMB_PSI_PLUS:
        return StateVector((psi_minus + phi_plus) * _SQRT2_INV)
    if label is TwoQubitLabel.COMB_PHI_MINUS:
        return StateVector((psi_minus - phi_plus) * _SQRT2_INV)
    raise ValueError(f"unknown label {label}")


GHZ = make_cat(3, "+")


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product <a|b>."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("inner product requires equal qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _components(state: StateVector, qubit_index: int, basis: Basis):
    """Unnormalized (n-1)-qubit components of `state` along the +/-
    eigenvectors of `basis` on one qubit."""
    n = state.num_qubits
    if not 0 <= qubit_index < n:
        raise IndexError(f"qubit {qubit_index} out of range for {n}-qubit state")
    shaped = state.amplitudes.reshape(2**qubit_index, 2, 2 ** (n - 1 - qubit_index))
    a0, a1 = shaped[:, 0, :], shaped[:, 1, :]
    e_plus = _EIGENVECTORS[(basis, Outcome.PLUS)]
    e_minus = _EIGENVECTORS[(basis, Outcome.MINUS)]
    comp_plus = np.conj(e_plus[0]) * a0 + np.conj(e_plus[1]) * a1
    comp_minus = np.conj(e_minus[0]) * a0 + np.conj(e_minus[1]) * a1
    return comp_plus.reshape(-1), comp_minus.reshape(-1)


def project(state: StateVector, qubit_index: int, basis: Basis):
    """Both outcomes of measuring one qubit in one basis, from a single
    projection: ((p_plus, collapsed_plus), (p_minus, collapsed_minus)).

    A collapsed state has the measured qubit removed; it is None for
    probability ~ 0 and for single-qubit states (the empty marker).
    """
    out = []
    for comp in _components(state, qubit_index, basis):
        prob = float(np.sum(np.abs(comp) ** 2))
        if prob <= ATOL or state.num_qubits == 1:
            out.append((prob, None))
        else:
            out.append((prob, StateVector(comp / math.sqrt(prob))))
    return tuple(out)


def outcome_distribution(state: StateVector, qubit_index: int, basis: Basis):
    """Born probabilities (p_plus, p_minus) for one qubit in one basis."""
    (p_plus, _), (p_minus, _) = project(state, qubit_index, basis)
    return p_plus, p_minus


def collapse(state: StateVector, qubit_index: int, basis: Basis, outcome: Outcome):
    """Project one qubit onto a basis outcome: (probability, collapsed),
    as `project` gives it for that outcome."""
    return project(state, qubit_index, basis)[outcome.bit]


def apply_x_probe(state: StateVector, qubit_index: int, u, v) -> StateVector:
    """Attach a fresh probe qubit correlated with one qubit's x components.

    Maps |x+>|0_probe> -> |x+>|u> and |x->|0_probe> -> |x->|v>; the probe
    is appended as the last qubit.  This is the elementary entangling
    interaction used by the ancilla attack.
    """
    n = state.num_qubits
    if not 0 <= qubit_index < n:
        raise IndexError(f"qubit {qubit_index} out of range for {n}-qubit state")
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    shaped = state.amplitudes.reshape(2**qubit_index, 2, 2 ** (n - 1 - qubit_index))
    a0, a1 = shaped[:, 0, :], shaped[:, 1, :]
    xp = (a0 + a1) * _SQRT2_INV
    xm = (a0 - a1) * _SQRT2_INV
    out = np.empty((2**qubit_index, 2, 2 ** (n - 1 - qubit_index), 2), dtype=complex)
    for e in (0, 1):
        out[:, 0, :, e] = (xp * u[e] + xm * v[e]) * _SQRT2_INV
        out[:, 1, :, e] = (xp * u[e] - xm * v[e]) * _SQRT2_INV
    return StateVector(out.reshape(-1))


class Register:
    """Named particles as a tuple of (state, roles) product factors, a
    factor's roles naming its qubits in order, no role twice.  Measuring
    a role takes its qubit out of its factor, and a measured single-qubit
    factor goes whole.  All operations return a new Register, never
    mutating one."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)
        roles = [role for _, factor_roles in self.factors for role in factor_roles]
        for i, role in enumerate(roles):
            if role in roles[:i]:
                raise ValueError(f"role {role!r} already present")

    @classmethod
    def from_state(cls, state: StateVector, roles) -> "Register":
        roles = tuple(roles)
        if len(roles) != state.num_qubits:
            raise ValueError("one role per qubit required")
        return cls(((state, roles),))

    def _split(self, role):
        """The factors before the role's, its state and roles, and the
        factors after it."""
        for fi, (state, roles) in enumerate(self.factors):
            if role in roles:
                return self.factors[:fi], state, roles, self.factors[fi + 1:]
        raise KeyError(role)

    # Sessions draw from compiled tables and never call this;
    # perfbench/tracing.py patches it by name, so it stays until the
    # benchmark traces a layer that sessions run (ROADMAP item 1(b)).
    def measure(self, role, basis: Basis, random_draw: float):
        """(outcome, register): PLUS iff random_draw < p_plus, as a
        session compares its draws."""
        plus, minus = self.branches(role, basis)
        _, outcome, reg = plus if random_draw < plus[0] else minus
        if reg is None:
            raise AssertionError("selected a zero-probability branch")
        return outcome, reg

    def branches(self, role, basis: Basis):
        """Both Born-rule branches [(prob, outcome, register), ...], +
        first; the register is None for a branch of probability ~ 0."""
        before, state, roles, after = self._split(role)
        qi = roles.index(role)
        rest = roles[:qi] + roles[qi + 1:]
        out = []
        for outcome, (prob, collapsed) in zip(Outcome, project(state, qi, basis)):
            kept = () if collapsed is None else ((collapsed, rest),)
            out.append((prob, outcome, Register(before + kept + after) if prob > ATOL else None))
        return out

    def add_eigenstate(self, role, basis: Basis, sign: Outcome) -> "Register":
        return Register(self.factors + ((make_eigenstate(basis, sign), (role,)),))

    def attach_probe(self, role, probe_role, u, v) -> "Register":
        before, state, roles, after = self._split(role)
        probed = apply_x_probe(state, roles.index(role), u, v)
        return Register(before + ((probed, roles + (probe_role,)),) + after)


# --- correlation tables -------------------------------------------------


class TableScenario(Enum):
    BELL_TABLE_I = "BellTableI"
    MIXED_TABLE_II = "MixedTableII"
    GHZ_TABLE_III = "GhzTableIII"


@dataclass(frozen=True)
class TableEntry:
    announcement: object  # TwoQubitLabel or (Basis, Outcome)
    alice_basis: Basis
    alice_outcome: Outcome
    bob_basis: Basis | None
    bob_outcome: Outcome | None
    deterministic: bool
    matches_paper: bool


@dataclass(frozen=True)
class CorrelationTable:
    scenario: TableScenario
    entries: tuple[TableEntry, ...]

    def discrepancies(self) -> tuple[TableEntry, ...]:
        return tuple(e for e in self.entries if not e.matches_paper)


_P, _M = Outcome.PLUS, Outcome.MINUS
_X, _Y, _Z = Basis.X, Basis.Y, Basis.Z

# Hand-transcribed reference tables.  Every derived entry is checked
# against these; disagreements are flagged, never silently corrected.
# Key order is the paper's: announcement columns, then Alice's rows.
_REFERENCE = {
    TableScenario.BELL_TABLE_I: {
        TwoQubitLabel.PSI_PLUS: {(_X, _P): (_X, _P), (_X, _M): (_X, _M), (_Z, _P): (_Z, _P), (_Z, _M): (_Z, _M)},
        TwoQubitLabel.PSI_MINUS: {(_X, _P): (_X, _M), (_X, _M): (_X, _P), (_Z, _P): (_Z, _P), (_Z, _M): (_Z, _M)},
        TwoQubitLabel.PHI_PLUS: {(_X, _P): (_X, _P), (_X, _M): (_X, _M), (_Z, _P): (_Z, _M), (_Z, _M): (_Z, _P)},
        TwoQubitLabel.PHI_MINUS: {(_X, _P): (_X, _M), (_X, _M): (_X, _P), (_Z, _P): (_Z, _M), (_Z, _M): (_Z, _P)},
    },
    TableScenario.MIXED_TABLE_II: {
        TwoQubitLabel.PHI_PLUS: {(_X, _P): (_X, _P), (_X, _M): (_X, _M), (_Z, _P): (_Z, _M), (_Z, _M): (_Z, _P)},
        TwoQubitLabel.PSI_MINUS: {(_X, _P): (_X, _M), (_X, _M): (_X, _P), (_Z, _P): (_Z, _P), (_Z, _M): (_Z, _M)},
        TwoQubitLabel.COMB_PHI_MINUS: {(_X, _P): (_Z, _M), (_X, _M): (_Z, _P), (_Z, _P): (_X, _M), (_Z, _M): (_X, _P)},
        TwoQubitLabel.COMB_PSI_PLUS: {(_X, _P): (_Z, _P), (_X, _M): (_Z, _M), (_Z, _P): (_X, _P), (_Z, _M): (_X, _M)},
    },
    TableScenario.GHZ_TABLE_III: {
        (_X, _P): {(_X, _P): (_X, _P), (_X, _M): (_X, _M), (_Y, _P): (_Y, _M), (_Y, _M): (_Y, _P)},
        (_X, _M): {(_X, _P): (_X, _M), (_X, _M): (_X, _P), (_Y, _P): (_Y, _P), (_Y, _M): (_Y, _M)},
        (_Y, _P): {(_X, _P): (_Y, _M), (_X, _M): (_Y, _P), (_Y, _P): (_X, _M), (_Y, _M): (_X, _P)},
        # The (Y-,Y+) cell below is transcribed as printed; the
        # projection oracle derives (X,+) instead and flags it.
        (_Y, _M): {(_X, _P): (_Y, _P), (_X, _M): (_Y, _M), (_Y, _P): (_X, _M), (_Y, _M): (_X, _M)},
    },
}


def scenario_announcements(scenario: TableScenario) -> tuple:
    """The scenario's center announcements in the table's column order."""
    return tuple(_REFERENCE[scenario])


@lru_cache(maxsize=None)
def _peer_outcomes(announcement) -> dict:
    """{(alice_basis, alice_outcome, peer_basis): Bob's outcome when
    uniquely determined, else None} for one announcement.

    A TwoQubitLabel announcement names a prepared pair directly; a
    (basis, outcome) announcement is the GHZ triplet collapsed by the
    center's measurement of its own particle.  Each state on the way is
    projected once per basis.
    """
    if isinstance(announcement, TwoQubitLabel):
        pair = make_two_qubit(announcement)
    else:
        basis, outcome = announcement
        _, pair = project(GHZ, 0, basis)[outcome.bit]
    table = {}
    for alice_basis in Basis:
        for alice_outcome, (_, bob) in zip((_P, _M), project(pair, 0, alice_basis)):
            for peer_basis in Basis:
                fixed = None
                if bob is not None:
                    p_plus, p_minus = outcome_distribution(bob, 0, peer_basis)
                    if p_plus >= 1 - ATOL:
                        fixed = Outcome.PLUS
                    elif p_minus >= 1 - ATOL:
                        fixed = Outcome.MINUS
                table[alice_basis, alice_outcome, peer_basis] = fixed
    return table


def deterministic_peer_outcome(announcement, alice_basis, alice_outcome, peer_basis):
    """Bob's outcome in peer_basis when uniquely determined, else None."""
    return _peer_outcomes(announcement)[alice_basis, alice_outcome, peer_basis]


def derive_correlation_table(scenario: TableScenario) -> CorrelationTable:
    """Recompute a full correlation table from projection arithmetic.

    For every announcement and every Alice (basis, outcome) row of the
    scenario, finds the basis in which Bob's outcome is deterministic
    and compares the result against the reference transcription.
    """
    entries = []
    for announcement, column in _REFERENCE[scenario].items():
        for (alice_basis, alice_outcome), ref in column.items():
            derived = None
            for bob_basis in (Basis.X, Basis.Y, Basis.Z):
                out = deterministic_peer_outcome(announcement, alice_basis, alice_outcome, bob_basis)
                if out is not None:
                    derived = (bob_basis, out)
                    break
            entries.append(
                TableEntry(
                    announcement=announcement,
                    alice_basis=alice_basis,
                    alice_outcome=alice_outcome,
                    bob_basis=None if derived is None else derived[0],
                    bob_outcome=None if derived is None else derived[1],
                    deterministic=derived is not None,
                    matches_paper=derived == ref,
                )
            )
    return CorrelationTable(scenario, tuple(entries))


def announcement_str(announcement) -> str:
    if isinstance(announcement, TwoQubitLabel):
        return announcement.value
    basis, outcome = announcement
    return f"{basis.value.lower()}{outcome.value}"


def _column_header(announcement) -> str:
    if isinstance(announcement, TwoQubitLabel):
        return {
            TwoQubitLabel.PSI_PLUS: "Psi+",
            TwoQubitLabel.PSI_MINUS: "Psi-",
            TwoQubitLabel.PHI_PLUS: "Phi+",
            TwoQubitLabel.PHI_MINUS: "Phi-",
            TwoQubitLabel.COMB_PSI_PLUS: "psi+",
            TwoQubitLabel.COMB_PHI_MINUS: "phi-",
        }[announcement]
    return announcement_str(announcement)


def table_to_csv(table: CorrelationTable) -> str:
    lines = ["scenario,center,alice_basis,alice_outcome,bob_basis,bob_outcome,deterministic,matches_paper"]
    for e in table.entries:
        lines.append(
            ",".join(
                [
                    table.scenario.value,
                    announcement_str(e.announcement),
                    e.alice_basis.value,
                    e.alice_outcome.value,
                    "" if e.bob_basis is None else e.bob_basis.value,
                    "" if e.bob_outcome is None else e.bob_outcome.value,
                    str(e.deterministic).lower(),
                    str(e.matches_paper).lower(),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def table_to_text(table: CorrelationTable) -> str:
    """Aligned four-column layout: one column per announcement, row
    pairs of Alice's state and Bob's derived state.  Entries that
    disagree with the reference transcription carry a '*'."""
    cells = {(e.announcement, e.alice_basis, e.alice_outcome): e for e in table.entries}
    announcements = dict.fromkeys(announcement for announcement, _, _ in cells)
    rows = dict.fromkeys((basis, outcome) for _, basis, outcome in cells)
    width = 10
    header = "Center".ljust(width) + "".join(_column_header(a).ljust(width) for a in announcements)
    lines = [f"{table.scenario.value}\n{header}", "-" * (width * (len(announcements) + 1))]
    for row in rows:
        bob_cells = []
        for announcement in announcements:
            e = cells[(announcement, *row)]
            cell = announcement_str((e.bob_basis, e.bob_outcome)) if e.deterministic else "?"
            bob_cells.append(cell if e.matches_paper else cell + "*")
        lines.append("Alice".ljust(width) + announcement_str(row).ljust(width) * len(announcements))
        lines.append("Bob".ljust(width) + "".join(c.ljust(width) for c in bob_cells))
    flagged = table.discrepancies()
    if flagged:
        lines.append(f"* {len(flagged)} entr{'y' if len(flagged) == 1 else 'ies'} disagree(s) with the reference table")
    return "\n".join(lines) + "\n"
