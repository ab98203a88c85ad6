"""Three-party key distribution sessions over a trusted center.

Five protocols share one driver.  `_SCHEMES` describes each one once:
Alice's and Bob's bases, the center's announcements in the column order
of the paper's correlation table (Table I for BELL4, Table II for
BELL5, Table III for the triplet protocols, its x columns for GHZ1),
the bases the center measures in, whether it measures after the bases
are disclosed, and the efficiency bound.  Everything below reads that
record; nothing else branches on the protocol.

* GHZ1 — the center measures its triplet particle in x and announces;
  Alice and Bob measure randomly in x/y and keep equal-basis positions.
* GHZ2 — the center measures randomly in x or y; positions are kept
  when (x announcement, equal bases) or (y announcement, different
  bases).
* GHZ3 — Alice and Bob measure first and disclose their bases; the
  center then measures in x for equal bases and y otherwise, so every
  position is usable.
* BELL4 — the center hands out a uniformly random z-correlated or
  z-anticorrelated pair and announces its label; equal-basis (x/z)
  positions are kept.
* BELL5 — the prepared set adds the two x/z-correlated combination
  states; the keep rule pairs plain labels with equal bases and
  combination labels with different bases.

The keep rules above are not coded one by one: a position is kept when,
for its announcement and bases, the correlation tables fix Bob's
outcome from Alice's, whichever outcome she got.

The four non-orthogonal BELL5 states cannot all be distinguished by a
single projective measurement, so preparation is modeled directly: the
center draws a label and announces it.

Bob's outcome is the key reference (+ -> 0, - -> 1); Alice encodes the
correlation table's prediction of Bob's outcome, which makes both bit
strings equal whenever the correlations hold.  The eavesdrop check
discloses a random subset of kept positions and compares them against
the same prediction; checked bits never enter key material.

GHZ1 deliberately fixes the center's basis to x: letting the center
also measure y while keeping GHZ1's equal-bases rule would waste every
y announcement and cap the yield at 12.5%, which is why the y-using
variant exists only as the separate GHZ2 rule set.

Sessions are deterministic: every random choice comes from a named
per-actor stream (center, alice, bob, eve, channel, postproc) derived
from the session seed, so identical configs produce byte-identical
transcripts.  Parties interact only through explicit announcement and
basis messages, recorded in an ordered event log that depends only on
the (protocol, attack) pairing.

A session runs as array operations over all positions at once.  Every
position goes through the same fixed sequence of measurements
(`_steps`): a cheating center's or an intercepting adversary's, then
the center, Alice and Bob in protocol order, then the probe read-out.
Each step names its role, the bases it may use and the actor stream it
draws from.  `_compile` walks that sequence once per (protocol, attack)
pairing from the start registers with the exact Born-rule branches and
stores integer tables: basis_of[node, choice], the basis a step's
choice selects (the GHZ3 center has one choice, the rule's basis),
p_plus[node, basis], the probability a draw is compared against, and
next[node, basis, outcome].  It also says once what each path means,
one row per leaf: the announcement, both parties' bases and outcomes,
whether it is kept, Alice's key bit, the adversary's shown record and
her guess of Bob's bit.  A session draws per level the choices and
outcomes from the step's stream, advances the node ids, and gathers
its transcript columns, check mismatches, key bits and adversary
records from the leaf rows it reached.  Compiled tables are built on
first use and kept (up to 64 pairings).

The exact oracles `predict_detection_rate` and
`predict_adversary_accuracy` read the same rows: `_compile` weighs
every leaf by its Born probability and basis choices and stores both
weighted sums on the table, so the sampler and the oracles cannot
disagree on what a position does.

Each run of consecutive steps on one stream is drawn in bulk in exactly
the order of one scalar call per position and step
(`replay.replay_draws`), so transcripts are the same bytes as
position-by-position sampling gives, and a stream left for a later
phase (Bob's check sample) is in the same state.  The tests hold every
field of a session against `scalar_session` in tests/oracle.py, which
samples that way.

A transcript stores its positions as columns, never as objects: lost,
announcement index, Alice's and Bob's basis and outcome (-1 for None),
kept and used_for_check (`_Positions`), and the adversary's records as
position, shown basis, outcome and inferred bit (`_AdversaryRecords`).
Both are read-only sequences that build a `PositionRecord`, resp. a
dict, on index, slice or iteration.  The JSON document (schema 2) keeps
them as columns: `positions` holds the legends and one string per
column with one digit per position (`-` for None), and the adversary's
`records` one string per column with one digit per arrived position.
`transcript_from_json` reads a document back into the same columns.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from . import postproc
from .adversary import (
    AncillaEntangle,
    AttackModel,
    CheatingCenterMeasureAll,
    InterceptResend,
    NoAttack,
    Party,
    UnsupportedAttackError,
    infer_bob_outcome,
    probe_vectors,
)
from .qstate import (
    GHZ,
    Basis,
    Outcome,
    Register,
    TableScenario,
    TwoQubitLabel,
    deterministic_peer_outcome,
    make_two_qubit,
    scenario_announcements,
)
from .replay import replay_draws

TIME_RESERVED_EPR_BASELINE = 0.125
DEFAULT_EPSILON = 2.0**-32


class ProtocolId(Enum):
    GHZ1 = "GHZ1"
    GHZ2 = "GHZ2"
    GHZ3 = "GHZ3"
    BELL4 = "BELL4"
    BELL5 = "BELL5"


@dataclass(frozen=True)
class _Scheme:
    """One protocol as the paper defines it.

    bases are the two directions Alice and Bob each draw from.
    announcements are what the center may announce, in the column order
    of the protocol's correlation table; they index every per-announcement
    table.  center_bases are the bases the center measures its triplet
    particle in, empty for prepared pairs, whose label is the
    announcement.  With center_after_bases the center measures after
    Alice and Bob disclose their bases, in the basis
    `center_basis_rule_p3` picks.
    """

    bases: tuple[Basis, Basis]
    announcements: tuple
    center_bases: tuple[Basis, ...] = ()
    center_after_bases: bool = False
    efficiency_bound: float = 0.5


_TABLE_III = scenario_announcements(TableScenario.GHZ_TABLE_III)
_XY, _XZ = (Basis.X, Basis.Y), (Basis.X, Basis.Z)
_SCHEMES = {
    ProtocolId.GHZ1: _Scheme(_XY, tuple(a for a in _TABLE_III if a[0] is Basis.X), (Basis.X,)),
    ProtocolId.GHZ2: _Scheme(_XY, _TABLE_III, _XY),
    ProtocolId.GHZ3: _Scheme(_XY, _TABLE_III, _XY, center_after_bases=True, efficiency_bound=1.0),
    ProtocolId.BELL4: _Scheme(_XZ, scenario_announcements(TableScenario.BELL_TABLE_I)),
    ProtocolId.BELL5: _Scheme(_XZ, scenario_announcements(TableScenario.MIXED_TABLE_II)),
}


def party_bases(protocol: ProtocolId) -> tuple[Basis, Basis]:
    """The two measurement directions each communicator draws from."""
    return _SCHEMES[protocol].bases


def efficiency_bound(protocol: ProtocolId) -> float:
    """Final key bits per prepared state, upper bound."""
    return _SCHEMES[protocol].efficiency_bound


def center_basis_rule_p3(alice_basis: Basis, bob_basis: Basis) -> Basis:
    """GHZ3 rule: x for equal disclosed bases, y for different ones."""
    for b in (alice_basis, bob_basis):
        if b not in (Basis.X, Basis.Y):
            raise ValueError("GHZ3 uses the x/y pool only")
    return Basis.X if alice_basis is bob_basis else Basis.Y


def _require_announcement_type(protocol: ProtocolId, announcement):
    if announcement not in _SCHEMES[protocol].announcements:
        raise TypeError(f"{protocol.value} does not announce {announcement!r}")


def keep_rule(protocol: ProtocolId, center_announcement, alice_basis: Basis,
              bob_basis: Basis) -> bool:
    """Whether a position carries a deterministic correlation: the
    correlation tables fix Bob's outcome from Alice's, whichever outcome
    she got.  Both bases must be in the protocol's pool."""
    _require_announcement_type(protocol, center_announcement)
    pool = _SCHEMES[protocol].bases
    if alice_basis not in pool or bob_basis not in pool:
        names = "/".join(b.value.lower() for b in pool)
        raise ValueError(f"{protocol.value} uses the {names} pool only")
    return all(deterministic_peer_outcome(center_announcement, alice_basis, outcome, bob_basis)
               is not None for outcome in Outcome)


def consistency_map(protocol: ProtocolId, center_announcement, own_basis: Basis,
                    own_outcome: Outcome, peer_basis: Basis) -> Outcome:
    """The peer's outcome as uniquely fixed by the correlation tables.

    These are the key bits the compiled leaf rows hold for Alice, which
    the check compares Bob's against.  A non-deterministic combination
    raises LookupError: the keep rule admits only deterministic ones.
    """
    _require_announcement_type(protocol, center_announcement)
    out = deterministic_peer_outcome(center_announcement, own_basis, own_outcome, peer_basis)
    if out is None:
        raise LookupError(
            f"no deterministic correlation for {center_announcement!r}, "
            f"own ({own_basis.value},{own_outcome.value}), peer {peer_basis.value}"
        )
    return out


@dataclass(frozen=True)
class SessionConfig:
    protocol: ProtocolId
    num_states: int
    check_fraction: float = 0.1
    qber_abort_threshold: float = 0.0
    loss_probability: float = 0.0
    rng_seed: int = 0
    attack: AttackModel = field(default_factory=NoAttack)

    def __post_init__(self):
        if self.num_states < 1:
            raise ValueError("num_states must be >= 1")
        if not 0.0 < self.check_fraction < 1.0:
            raise ValueError("check_fraction must be in (0, 1)")
        if not 0.0 <= self.qber_abort_threshold < 1.0:
            raise ValueError("qber_abort_threshold must be in [0, 1)")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must be an unsigned 64-bit integer")
        if self.loss_probability < 1.0:
            # Total erasure (loss = 1) is allowed as a degenerate
            # experiment; anything short of it must be expected to
            # leave key material after the check.
            expected_unchecked = (
                (1.0 - self.check_fraction) * self.num_states
                * efficiency_bound(self.protocol) * (1.0 - self.loss_probability) ** 2
            )
            if expected_unchecked < 1.0:
                raise ValueError("configuration leaves no unchecked positions in expectation")
        _validate_attack(self.protocol, self.attack)


def _validate_attack(protocol: ProtocolId, attack: AttackModel):
    scheme = _SCHEMES[protocol]
    if isinstance(attack, (NoAttack, InterceptResend)):
        return
    if isinstance(attack, CheatingCenterMeasureAll):
        if not scheme.center_bases or scheme.center_after_bases:
            raise UnsupportedAttackError(
                "cheating center is modeled where the center measures before the parties (GHZ1/GHZ2)")
        if attack.basis not in scheme.center_bases:
            names = " or ".join(b.value for b in scheme.center_bases)
            raise UnsupportedAttackError(
                f"{protocol.value} announces results in {names}; cheating basis must be {names}")
        return
    if isinstance(attack, AncillaEntangle):
        if not scheme.center_bases:
            raise UnsupportedAttackError("the ancilla attack targets the triplet protocols")
        return
    raise UnsupportedAttackError(f"unknown attack {attack!r}")


# The compiled session stores a basis as its index here and an outcome
# as its key bit.
_BASES = tuple(Basis)
_OUTCOMES = (Outcome.PLUS, Outcome.MINUS)


@dataclass
class PositionRecord:
    index: int
    lost: bool
    center_announcement: object  # (Basis, Outcome) | TwoQubitLabel | None
    alice_basis: Basis | None
    bob_basis: Basis | None
    alice_outcome: Outcome | None
    bob_outcome: Outcome | None
    kept: bool
    used_for_check: bool


class _Columns(Sequence):
    """A read-only sequence whose items are built on access from
    equal-length columns, never stored.  `first` holds each item's first
    value, an integer (a range or an integer array); the other columns
    are small integers with -1 for None.  In JSON each of those is one
    string, named in `names`, of one character per item (`_digits`)."""

    names: tuple = ()

    def __init__(self, lookup, first, *columns):
        self._lookup = lookup  # what `_item` decodes column values with
        self._first = first
        self._columns = columns

    def __len__(self) -> int:
        return len(self._first)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._item(int(self._first[i]), *(c[i].item() for c in self._columns))

    def _first_values(self):
        return self._first.tolist() if isinstance(self._first, np.ndarray) else self._first

    def __iter__(self):
        return itertools.starmap(self._item, zip(self._first_values(),
                                                 *(c.tolist() for c in self._columns)))

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._lookup == other._lookup
                and all(np.array_equal(a, b) for a, b in
                        zip((self._first, *self._columns), (other._first, *other._columns))))

    def _json_columns(self) -> dict:
        return {name: _digits(c) for name, c in zip(self.names, self._columns)}


# A code's character: 0-9 are digits, and -1 indexes the trailing '-'.
_DIGITS = np.frombuffer(b"0123456789-", dtype=np.uint8)
# A character's code: the inverse of _DIGITS, 99 for any other byte.
_CODES = np.full(256, 99, dtype=np.int8)
_CODES[_DIGITS] = (*range(10), -1)


def _digits(column) -> str:
    """One character per entry of an integer or bool column."""
    return _DIGITS[np.asarray(column, dtype=np.intp)].tobytes().decode("ascii")


# Column value -> object; -1 indexes the trailing None.
_BASES_OR_NONE = (*_BASES, None)
_OUTCOMES_OR_NONE = (*_OUTCOMES, None)


class _Positions(_Columns):
    """A session's positions, one `PositionRecord` per prepared state,
    built on access.  Built as (announcements + (None,), range(n), lost,
    announcement, Alice's basis, Bob's basis, Alice's outcome, Bob's
    outcome, kept, used_for_check): the announcement is an index in the
    announcements, a basis one in `Basis` and an outcome its key bit."""

    names = ("lost", "center_announcement", "alice_basis", "bob_basis", "alice_outcome",
             "bob_outcome", "kept", "used_for_check")

    def _item(self, index, lost, announcement, a_basis, b_basis, a_out, b_out, kept, checked):
        return PositionRecord(index, lost, self._lookup[announcement],
                              _BASES_OR_NONE[a_basis], _BASES_OR_NONE[b_basis],
                              _OUTCOMES_OR_NONE[a_out], _OUTCOMES_OR_NONE[b_out], kept, checked)

    def to_json(self) -> dict:
        return {**_legends(self._lookup[:-1]), **self._json_columns()}


def _legends(announcements) -> dict:
    """What the digits of the position columns stand for."""
    return {"announcements": [_announcement_json(a) for a in announcements],
            "bases": [b.value for b in _BASES], "outcomes": [o.value for o in _OUTCOMES]}


class _AdversaryRecords(_Columns):
    """The adversary's record per arrived position, as a dict built on
    access.  Built as (prefix, position, basis, outcome, inferred bit):
    the basis she shows is an index in `Basis`, named with the prefix,
    and her outcome is its key bit.  In JSON the position is implied:
    one character per arrived position, in position order."""

    names = ("basis_used", "outcome", "inferred_bit")

    def _item(self, position, basis, outcome, bit):
        return {"position": position, "basis_used": self._lookup + _BASES_OR_NONE[basis].value,
                "outcome": _OUTCOMES_OR_NONE[outcome].value, "inferred_bit": bit}

    def to_json(self) -> dict:
        return {"basis_prefix": self._lookup, **self._json_columns()}


@dataclass
class CheckReport:
    checked_count: int
    error_count: int
    aborted: bool
    empty_check_warning: bool = False

    @property
    def qber(self) -> float:
        return self.error_count / self.checked_count if self.checked_count else 0.0


@dataclass
class PostprocSummary:
    qber_used: float
    reconcile_leaked: int
    epsilon: float
    stage_lengths: dict
    final_length: int


@dataclass
class SessionTranscript:
    config: SessionConfig
    positions: _Positions
    events: list
    check_report: CheckReport
    alice_raw_key: str
    bob_raw_key: str
    alice_final_key: str
    bob_final_key: str
    postproc_summary: PostprocSummary
    adversary: dict | None
    kept_count: int
    efficiency_measured: float
    efficiency_bound: float

    @property
    def kept_fraction(self) -> float:
        return self.kept_count / self.config.num_states


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


_STREAM_CENTER, _STREAM_ALICE, _STREAM_BOB, _STREAM_EVE, _STREAM_CHANNEL, _STREAM_POSTPROC = range(6)


def _events(protocol: ProtocolId, attack: AttackModel) -> list:
    """The session's ordered event log; it depends only on the pairing."""
    scheme = _SCHEMES[protocol]
    cheating = isinstance(attack, CheatingCenterMeasureAll)
    center = [("center", "center_measure"), ("center", "announce_results")]
    names = [("center", "prepare_states")]
    if not scheme.center_bases:
        names.append(("center", "announce_labels"))
    if cheating:
        names.append(center.pop(0))  # before sending
    names.append(("channel", "transmit_particles"))
    if scheme.center_bases and not scheme.center_after_bases:
        names += center
    names += [("alice", "alice_measure"), ("bob", "bob_measure")]
    if scheme.center_after_bases:
        names += [("alice", "send_basis"), ("bob", "send_basis"), *center]
    names += [("all", "compare_bases_and_sift"), ("bob", "eavesdrop_check"),
              ("all", "encode_key_bits"), ("all", "postprocess")]
    return [{"seq": i, "actor": actor, "event": event} for i, (actor, event) in enumerate(names)]


def eavesdrop_check(mismatch: np.ndarray, check_fraction: float, rng: np.random.Generator,
                    qber_abort_threshold: float) -> tuple[CheckReport, np.ndarray]:
    """Bob discloses a random subset of the kept positions; Alice compares
    each against the correlation table's prediction.  mismatch[i] says
    whether Bob's outcome at the i-th kept position differs from that
    prediction.  Returns the report and the indices, among the kept
    positions, of those checked; they are excluded from key material."""
    k = int(check_fraction * len(mismatch))
    if k == 0:
        return CheckReport(0, 0, aborted=False, empty_check_warning=True), np.zeros(0, np.intp)
    chosen = rng.choice(len(mismatch), size=k, replace=False)
    errors = int(np.count_nonzero(mismatch[chosen]))
    return CheckReport(k, errors, aborted=(errors / k) > qber_abort_threshold), chosen


def _start_registers(protocol: ProtocolId, probe) -> dict:
    """The register each position starts from, keyed by prepared label
    (None for the GHZ triplet), with the ancilla probe attached when
    `probe` is given.  Registers are immutable, so one per key serves
    every position of a session."""
    scheme = _SCHEMES[protocol]
    if scheme.center_bases:
        starts = {None: Register.from_state(GHZ, ("c", "a", "b"))}
    else:
        starts = {label: Register.from_state(make_two_qubit(label), ("a", "b"))
                  for label in scheme.announcements}
    if probe is not None:
        starts = {key: reg.attach_probe("a", "eve", *probe) for key, reg in starts.items()}
    return starts


def _intercept_pool(protocol: ProtocolId, attack: InterceptResend) -> tuple[Basis, ...]:
    return attack.basis_pool or party_bases(protocol)


def _steps(protocol: ProtocolId, attack: AttackModel) -> tuple:
    """The measurements every position goes through, in order, as
    (role, bases it may be measured in, resend, stream it draws from).
    With resend a fresh eigenstate of the result replaces the measured
    particle.  The GHZ3 center measures in the one basis
    `center_basis_rule_p3` picks from Alice's and Bob's."""
    scheme = _SCHEMES[protocol]
    steps = []
    cheating = isinstance(attack, CheatingCenterMeasureAll)
    if cheating:
        # The center measures the whole triplet and sends eigenstates.
        basis = (attack.basis,)
        steps += [(role, basis, role != "c", _STREAM_CENTER) for role in ("c", "a", "b")]
    elif isinstance(attack, InterceptResend):
        role = "a" if attack.target_party is Party.ALICE else "b"
        steps.append((role, _intercept_pool(protocol, attack), True, _STREAM_EVE))
    center = ("c", scheme.center_bases, False, _STREAM_CENTER)
    if scheme.center_bases and not scheme.center_after_bases and not cheating:
        steps.append(center)
    steps += [("a", scheme.bases, False, _STREAM_ALICE), ("b", scheme.bases, False, _STREAM_BOB)]
    if scheme.center_after_bases:
        steps.append(center)
    if isinstance(attack, AncillaEntangle):
        steps.append(("eve", (Basis.X,), False, _STREAM_EVE))
    return tuple(steps)


@dataclass(frozen=True)
class _Table:
    """One (protocol, attack) pairing's per-position process, compiled.

    Nodes are the registers reachable along `_steps`, numbered level by
    level from the start registers (one per prepared label, else the
    triplet); the last level are the leaves, one per path.  For the
    other nodes, basis_of[node, choice] is the basis index a step's
    choice selects (-1 past its choices), p_plus[node, basis] the
    probability a draw is compared against (outcome + iff draw <
    p_plus, as in `Register.measure`; NaN for a basis not measured
    there) and next[node, basis, outcome] the node that outcome leads
    to, -1 for a zero-probability branch.

    leaves[column, node - len(p_plus)] says what a path means, in the
    columns: announcement (an index in announcements), Alice's basis,
    Bob's basis, Alice's outcome, Bob's outcome (a basis as its index in
    `Basis`, an outcome as its key bit), kept (`keep_rule`), Alice's key
    bit (Bob's outcome as `deterministic_peer_outcome` fixes it from
    Alice's, -1 where it does not), the basis and outcome the adversary
    shows (-1 without one) and her guess of Bob's bit
    (`infer_bob_outcome` from her record; -1 for a coin or without
    her).  Her record is her
    intercept, the probe's x read-out in Alice's place, or the
    eigenstate a cheating center sent Bob; a cheating center shows its
    own triplet measurement.  coin[node] says she tosses a coin at every
    leaf below node.

    steps lists what a session draws, in order: (stream, number of
    basis choices) per level, then, with an adversary, (her stream,
    None) for her coins.  Per level a position draws its choice, which
    draws nothing for one choice, then its outcome.

    detection_rate and adversary_accuracy are the exact oracles: sums
    over the leaves in order, weighted by their probability when every
    choice is uniform, of the kept leaves where Bob's outcome differs
    from Alice's key bit, resp. matches the guess (a coin counts one
    half), each divided by the kept weight.  adversary_accuracy is None
    without an adversary.
    """

    steps: tuple
    basis_of: np.ndarray
    p_plus: np.ndarray
    next: np.ndarray
    coin: np.ndarray
    leaves: np.ndarray
    announcements: tuple
    detection_rate: float
    adversary_accuracy: float | None


@lru_cache(maxsize=64)
def _compile(protocol: ProtocolId, attack: AttackModel) -> _Table:
    """Walk `_steps` from the start registers with the exact Born-rule
    branches; built on first use of a pairing and kept.

    Each node also carries its weight, the probability of reaching it
    when every choice is uniform, and what its path recorded: per role
    its (basis, outcome), a resent particle's under "eve", and under
    "c" the announcement (a prepared pair's label from the start)."""
    scheme = _SCHEMES[protocol]
    probe = probe_vectors(attack.coupling) if isinstance(attack, AncillaEntangle) else None
    starts = _start_registers(protocol, probe)
    level = [(reg, 1 / len(starts), {"c": label}) for label, reg in starts.items()]
    steps, basis_of, p_plus, nxt = [], [], [], []
    for role, bases, resend, stream in _steps(protocol, attack):
        children = []
        first_child = len(p_plus) + len(level)
        for reg, weight, seen in level:
            followed = bases
            if scheme.center_after_bases and role == "c":
                followed = (center_basis_rule_p3(seen["a"][0], seen["b"][0]),)
            p_row = np.full(len(_BASES), np.nan)
            next_row = np.full((len(_BASES), 2), -1)
            for basis in followed:
                b = _BASES.index(basis)
                branches = reg.branches(role, basis)
                p_row[b] = branches[0][0]
                for p, outcome, child in branches:
                    if child is None:
                        continue
                    next_row[b, outcome.bit] = first_child + len(children)
                    if resend:
                        child = child.add_eigenstate(role, basis, outcome)
                    record = {**seen, "eve" if resend else role: (basis, outcome)}
                    children.append((child, weight * p / len(followed), record))
            basis_of.append([_BASES.index(b) for b in followed] + [-1] * (len(_BASES) - len(followed)))
            p_plus.append(p_row)
            nxt.append(next_row)
        steps.append((stream, len(followed)))
        level = children

    # Her record is filed under "eve": her intercept, the eigenstate a
    # cheating center sent Bob, or the probe's x read-out.
    cheating = isinstance(attack, CheatingCenterMeasureAll)
    target = attack.target_party if isinstance(attack, InterceptResend) else (
        Party.BOB if cheating else Party.ALICE)
    adversary = not isinstance(attack, NoAttack)
    if adversary:  # her coins
        steps.append((_STREAM_CENTER if cheating else _STREAM_EVE, None))
    rows = []
    for _, _, seen in level:
        ann, (a, a_out), (b, b_out) = seen["c"], seen["a"], seen["b"]
        shown = seen.get("c" if cheating else "eve", (None, None))
        guess = infer_bob_outcome(ann, *seen["eve"], target, b) if adversary else None
        bit = deterministic_peer_outcome(ann, a, a_out, b)
        rows.append([scheme.announcements.index(ann), *map(_code, (a, b, a_out, b_out)),
                     keep_rule(protocol, ann, a, b), *map(_code, (bit, *shown, guess))])
    leaves = np.array(rows, dtype=np.int8).T

    # Sequential sums in leaf order; the oracle floats are pinned bit
    # for bit, and a pairwise (np.sum) order would move their last bits.
    kept = errors = correct = 0.0
    for (_, weight, _), (*_, b_out, keep, bit, _, _, guess) in zip(level, rows):
        if not keep:
            continue
        kept += weight
        if bit != b_out:
            errors += weight
        if guess < 0:
            correct += 0.5 * weight
        elif guess == b_out:
            correct += weight

    coin = np.concatenate([np.zeros(len(p_plus), dtype=bool), leaves[-1] < 0])  # guess -1
    nxt = np.array(nxt)
    for node in reversed(range(len(p_plus))):
        coin[node] = coin[nxt[node][nxt[node] >= 0]].all()
    arrays = [np.array(basis_of), np.array(p_plus), nxt, coin, leaves]
    for a in arrays:
        a.flags.writeable = False
    return _Table(tuple(steps), *arrays, scheme.announcements, errors / kept,
                  correct / kept if adversary else None)


def _code(value) -> int:
    """A basis as its index in `Basis`, an outcome as its key bit, None as -1."""
    if value is None:
        return -1
    return value.bit if isinstance(value, Outcome) else _BASES.index(value)


def predict_detection_rate(protocol: ProtocolId, attack: AttackModel) -> float:
    """Exact per-checked-position error probability under the attack,
    summed over the compiled tree's leaves."""
    _validate_attack(protocol, attack)
    return _compile(protocol, attack).detection_rate


def predict_adversary_accuracy(protocol: ProtocolId, attack: AttackModel) -> float:
    """Exact probability that the adversary's inferred bit matches
    Bob's key bit on a kept position (coin guesses count 1/2), summed
    over the compiled tree's leaves."""
    _validate_attack(protocol, attack)
    accuracy = _compile(protocol, attack).adversary_accuracy
    if accuracy is None:
        raise UnsupportedAttackError("no adversary present")
    return accuracy


def _channel_losses(rng: np.random.Generator, n: int, loss_a: float, loss_b: float) -> np.ndarray:
    """Per-position erasure.  Alice's leg draws first and Bob's leg draws
    only when her particle arrived, so a position takes one or two draws:
    draw 2n and walk them in that order.

    The walk j -> j + 1 + (not lost_a[j]) visits draw 0 and every draw
    right after one below loss_a: after a visited one Alice's particle
    was lost, and a skipped draw is always followed by a visited one.
    Between such restarts it strides by two, so it visits draw j exactly
    when j lies an even distance past the last restart at or before it.
    Position i starts at the i-th visited draw."""
    draws = rng.random(2 * n)
    lost_a, lost_b = draws < loss_a, draws < loss_b
    j = np.arange(2 * n)
    restart = np.where(np.concatenate(([True], lost_a[:-1])), j, 0)
    start = np.flatnonzero((j - np.maximum.accumulate(restart)) % 2 == 0)[:n]
    return lost_a[start] | lost_b[start + 1]


def run_session(config: SessionConfig, leg_loss: tuple[float, float] | None = None) -> SessionTranscript:
    """Execute one full session and return its transcript.

    leg_loss overrides the per-leg erasure probabilities (Alice leg,
    Bob leg) for network runs with asymmetric channels; by default both
    legs use config.loss_probability.
    """
    protocol = config.protocol
    attack = config.attack
    n = config.num_states
    loss_a, loss_b = leg_loss if leg_loss is not None else (
        config.loss_probability, config.loss_probability)
    rngs = [_stream(config.rng_seed, key) for key in range(_STREAM_POSTPROC)]
    pp_seed_seq = np.random.SeedSequence(config.rng_seed, spawn_key=(_STREAM_POSTPROC,))
    pa_seed, rec_seed = (int(x) for x in pp_seed_seq.generate_state(2, dtype=np.uint64))
    table = _compile(protocol, attack)

    # -- prepare, then transmit (loss) ----------------------------------------
    # Every array below has one entry per position that arrived.
    scheme = _SCHEMES[protocol]
    is_bell = not scheme.center_bases
    if is_bell:
        labels = rngs[_STREAM_CENTER].integers(len(table.announcements), size=n)
    present = np.flatnonzero(~_channel_losses(rngs[_STREAM_CHANNEL], n, loss_a, loss_b))
    m = len(present)
    nodes = labels[present] if is_bell else np.zeros(m, dtype=np.intp)

    # -- measure: the compiled steps, in order -----------------------------------
    # Consecutive draws on one stream are made position by position: per
    # level the basis choice, integers(choices), unless there is one
    # choice, then the outcome; the adversary's coin is integers(2) where
    # she tosses one, and nothing elsewhere.
    coins = None
    for stream, run in itertools.groupby(table.steps, key=lambda step: step[0]):
        run = [choices for _, choices in run]
        slots = []
        for k in run:
            slots += [np.where(table.coin[nodes], 2, 1)] if k is None else [k, 0] if k > 1 else [0]
        bounds = np.column_stack([np.broadcast_to(slot, m) for slot in slots])
        draws = iter(replay_draws(rngs[stream], bounds.reshape(-1)).reshape(m, len(slots)).T)
        for k in run:
            if k is None:
                coins = next(draws)
                continue
            basis = table.basis_of[nodes, next(draws).astype(np.intp) if k > 1 else 0]
            minus = (next(draws) >= table.p_plus[nodes, basis]).astype(np.intp)
            nodes = table.next[nodes, basis, minus]
            if np.any(nodes < 0):
                raise AssertionError("selected a zero-probability branch")
    (ann, a_basis, b_basis, a_out, b_out, keep, key_bit, shown_basis, shown_out,
     guess) = table.leaves[:, nodes - len(table.p_plus)]

    # -- sift -----------------------------------------------------------------
    kept_at = np.flatnonzero(keep)
    kept_count = len(kept_at)

    # -- eavesdrop check -------------------------------------------------------
    report, checked = eavesdrop_check(key_bit[kept_at] != b_out[kept_at], config.check_fraction,
                                      rngs[_STREAM_BOB], config.qber_abort_threshold)
    in_key = np.zeros(m, dtype=bool)
    in_key[kept_at] = True
    in_key[kept_at[checked]] = False

    # -- key material -----------------------------------------------------------
    if report.aborted:
        alice_raw = bob_raw = ""
    else:
        alice_raw = postproc.bits_to_str(key_bit[in_key])
        bob_raw = postproc.bits_to_str(b_out[in_key])

    # -- post-processing ---------------------------------------------------------
    qber_used = report.qber
    reconcile_leaked = 0
    bob_rec = bob_raw
    if alice_raw and qber_used > 0.0:
        block = max(8, min(len(alice_raw), math.ceil(0.73 / qber_used)))
        bob_rec, reconcile_leaked = postproc.reconcile(
            alice_raw, bob_raw, passes=2, initial_block=block, seed=rec_seed)
    if alice_raw:
        alice_final = postproc.privacy_amplify(alice_raw, reconcile_leaked, qber_used,
                                               DEFAULT_EPSILON, pa_seed)
        # The hash is a function of its inputs: equal keys, equal output.
        bob_final = alice_final if bob_rec == alice_raw else postproc.privacy_amplify(
            bob_rec, reconcile_leaked, qber_used, DEFAULT_EPSILON, pa_seed)
    else:
        alice_final = bob_final = ""
    summary = PostprocSummary(
        qber_used=qber_used,
        reconcile_leaked=reconcile_leaked,
        epsilon=DEFAULT_EPSILON,
        stage_lengths={
            "raw": kept_count,
            "sifted": len(alice_raw),
            "reconciled": len(bob_rec),
            "final": len(alice_final),
        },
        final_length=len(alice_final),
    )

    adversary_section = None
    if not isinstance(attack, NoAttack):
        inferred = np.where(guess < 0, coins, guess).astype(np.int8)
        total = int(np.count_nonzero(in_key))
        hits = int(np.count_nonzero(inferred[in_key] == b_out[in_key]))
        records = _AdversaryRecords("probe-" if isinstance(attack, AncillaEntangle) else "", present,
                                    shown_basis, shown_out, inferred)
        adversary_section = _adversary_section(config, report, records,
                                                hits / total if total else None)

    # -- transcript columns, one entry per prepared state, -1 where lost ---------------
    columns = np.full((5, n), -1, dtype=np.int8)
    columns[:, present] = ann, a_basis, b_basis, a_out, b_out
    if is_bell:
        columns[0] = labels  # the center announced every prepared pair's label
    kept = np.zeros(n, dtype=bool)
    kept[present[kept_at]] = True
    used_for_check = np.zeros(n, dtype=bool)
    used_for_check[present[kept_at[checked]]] = True
    lost = columns[1] < 0  # Alice measured every arrived position
    positions = _Positions((*table.announcements, None), range(n), lost, *columns,
                           kept, used_for_check)

    transcript = SessionTranscript(
        config=config,
        positions=positions,
        events=_events(protocol, attack),
        check_report=report,
        alice_raw_key=alice_raw,
        bob_raw_key=bob_raw,
        alice_final_key=alice_final,
        bob_final_key=bob_final,
        postproc_summary=summary,
        adversary=adversary_section,
        kept_count=kept_count,
        efficiency_measured=len(alice_final) / n,
        efficiency_bound=scheme.efficiency_bound,
    )
    return transcript


def _adversary_section(config, report, records, observed_accuracy):
    attack = config.attack
    resolved = attack
    if isinstance(attack, InterceptResend):
        resolved = replace(attack, basis_pool=_intercept_pool(config.protocol, attack))
    params = _attack_json(resolved)
    del params["kind"]
    return {
        "kind": attack.kind,
        "params": params,
        "predicted_detection_rate": predict_detection_rate(config.protocol, attack),
        "observed_check_error_rate": report.qber,
        "predicted_accuracy": predict_adversary_accuracy(config.protocol, attack),
        "observed_accuracy": observed_accuracy,
        "records": records,
    }


# --- serialization -----------------------------------------------------------


def _announcement_json(ann):
    if ann is None:
        return None
    if isinstance(ann, TwoQubitLabel):
        return {"label": ann.value}
    return {"basis": ann[0].value, "outcome": ann[1].value}


def _attack_json(attack: AttackModel) -> dict:
    doc = {"kind": attack.kind}
    if isinstance(attack, InterceptResend):
        doc["target_party"] = attack.target_party.value
        doc["basis_pool"] = None if attack.basis_pool is None else [b.value for b in attack.basis_pool]
    elif isinstance(attack, CheatingCenterMeasureAll):
        doc["basis"] = attack.basis.value
    elif isinstance(attack, AncillaEntangle):
        doc["coupling"] = attack.coupling
    return doc


def attack_from_json(doc) -> AttackModel:
    if not isinstance(doc, dict):
        raise ValueError(f"attack: expected an object, got {type(doc).__name__}")
    kind = doc.get("kind", "none")
    if kind == "none":
        return NoAttack()
    if kind == "intercept_resend":
        pool = doc.get("basis_pool")
        if pool is not None and not isinstance(pool, list):
            raise ValueError(f"basis_pool: expected a list, got {type(pool).__name__}")
        return InterceptResend(
            target_party=Party(doc.get("target_party", "alice")),
            basis_pool=None if pool is None else tuple(Basis(b) for b in pool),
        )
    if kind == "cheating_center":
        return CheatingCenterMeasureAll(basis=Basis(doc.get("basis", "X")))
    if kind == "ancilla":
        return AncillaEntangle(coupling=float(doc.get("coupling", 1.0)))
    raise ValueError(f"unknown attack kind {kind!r}")


def config_to_json_dict(config: SessionConfig) -> dict:
    return {
        "protocol": config.protocol.value,
        "num_states": config.num_states,
        "check_fraction": config.check_fraction,
        "qber_abort_threshold": config.qber_abort_threshold,
        "loss_probability": config.loss_probability,
        "rng_seed": config.rng_seed,
        "attack": _attack_json(config.attack),
    }


def _integer(value, path: str) -> int:
    """int(value) for a config or scenario field at path, refusing to
    truncate a fractional number or to read an infinite one."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{path}: expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: expected a number, got {value!r}") from None


def _of_type(value, kind, path: str):
    """value, if it has the JSON type kind; true and false are not numbers."""
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        expected = {dict: "an object", list: "a list", str: "a string", bool: "true or false",
                    int: "an integer", (int, float): "a number"}[kind]
        raise ValueError(f"{path}: expected {expected}, got {type(value).__name__}")
    return value


def _member(doc: dict, key: str, path: str):
    if key not in doc:
        raise ValueError(f"{path}: missing {key!r}")
    return doc[key]


def config_from_json_dict(doc: dict) -> SessionConfig:
    return SessionConfig(
        protocol=ProtocolId(doc["protocol"]),
        num_states=_integer(doc["num_states"], "num_states"),
        check_fraction=float(doc.get("check_fraction", 0.1)),
        qber_abort_threshold=float(doc.get("qber_abort_threshold", 0.0)),
        loss_probability=float(doc.get("loss_probability", 0.0)),
        rng_seed=_integer(doc.get("rng_seed", 0), "rng_seed"),
        attack=attack_from_json(doc.get("attack", {"kind": "none"})),
    )


def _config_at(doc, path: str) -> SessionConfig:
    """`config_from_json_dict` for the document at path; a malformed one
    raises one ValueError line that starts with path."""
    try:
        return config_from_json_dict(_of_type(doc, dict, path))
    except KeyError as exc:
        raise ValueError(f"{path}: missing {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


SCHEMA_VERSION = 2


def transcript_to_json_dict(transcript: SessionTranscript) -> dict:
    cr = transcript.check_report
    adversary = transcript.adversary
    if adversary is not None:
        adversary = {**adversary, "records": adversary["records"].to_json()}
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_json_dict(transcript.config),
        "events": transcript.events,
        "positions": transcript.positions.to_json(),
        "check_report": {
            "checked_count": cr.checked_count,
            "error_count": cr.error_count,
            "qber": cr.qber,
            "aborted": cr.aborted,
            "empty_check_warning": cr.empty_check_warning,
        },
        "alice_raw_key": transcript.alice_raw_key,
        "bob_raw_key": transcript.bob_raw_key,
        "alice_final_key": transcript.alice_final_key,
        "bob_final_key": transcript.bob_final_key,
        "postproc": {
            "qber_used": transcript.postproc_summary.qber_used,
            "reconcile_leaked": transcript.postproc_summary.reconcile_leaked,
            "epsilon": transcript.postproc_summary.epsilon,
            "stage_lengths": transcript.postproc_summary.stage_lengths,
            "final_length": transcript.postproc_summary.final_length,
        },
        "adversary": adversary,
        "kept_count": transcript.kept_count,
        "kept_fraction": transcript.kept_fraction,
        "efficiency_measured": transcript.efficiency_measured,
        "efficiency_bound": transcript.efficiency_bound,
        "baseline_time_reserved": TIME_RESERVED_EPR_BASELINE,
    }


def transcript_to_json(transcript: SessionTranscript) -> str:
    return json.dumps(transcript_to_json_dict(transcript), separators=(",", ":")) + "\n"


def _field(doc: dict, key: str, kind, path: str = ""):
    """doc[key] of the given type, for the document at path ("" for the
    top level)."""
    return _of_type(_member(doc, key, path or "transcript"), kind, f"{path}.{key}" if path else key)


def _column_at(doc: dict, key: str, path: str, n: int, size: int, none: bool) -> np.ndarray:
    """The column doc[key] as int8 codes: n characters, each a digit
    below size or, with none, '-' (-1)."""
    alphabet = "/".join([*map(str, range(size)), *"-"[:none]])
    expected = f"{path}.{key}: expected {n} characters of {alphabet}"
    text = _field(doc, key, str, path)
    if len(text) != n or not text.isascii():
        raise ValueError(f"{expected}, got {len(text)}")
    codes = _CODES[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    bad = np.flatnonzero((codes < (-1 if none else 0)) | (codes >= size))
    if len(bad):
        raise ValueError(f"{expected}, got {text[bad[0]]!r} at {bad[0]}")
    return codes


def _positions_from_json(doc: dict, n: int, announcements: tuple) -> _Positions:
    doc = _field(doc, "positions", dict)
    for key, legend in _legends(announcements).items():
        if _member(doc, key, "positions") != legend:
            raise ValueError(f"positions.{key}: expected {json.dumps(legend)}")
    # Per column: its number of digits, and whether '-' (None) may appear.
    shapes = [(2, False), (len(announcements), True), *[(len(_BASES), True)] * 2,
              *[(len(_OUTCOMES), True)] * 2, (2, False), (2, False)]
    lost, ann, *parties, kept, checked = (_column_at(doc, key, "positions", n, *shape)
                                          for key, shape in zip(_Positions.names, shapes))
    lost, kept, checked = (c.astype(bool) for c in (lost, kept, checked))
    for key, column in zip(_Positions.names[2:6], parties):
        at = np.flatnonzero((column < 0) != lost)
        if len(at):
            raise ValueError(f"positions.{key}: expected '-' exactly where lost, not at {at[0]}")
    for key, inner, outer, what in (("kept", kept, ~lost, "arrived"),
                                    ("used_for_check", checked, kept, "kept")):
        at = np.flatnonzero(inner & ~outer)
        if len(at):
            raise ValueError(f"positions.{key}: position {at[0]} is not {what}")
    return _Positions((*announcements, None), range(n), lost, ann, *parties, kept, checked)


def _records_from_json(doc: dict, present: np.ndarray) -> _AdversaryRecords:
    """The adversary's records; present are the arrived positions."""
    path = "adversary.records"
    doc = _field(doc, "records", dict, "adversary")
    sizes = (len(_BASES), len(_OUTCOMES), 2)
    return _AdversaryRecords(_field(doc, "basis_prefix", str, path), present, *(
        _column_at(doc, key, path, len(present), size, False)
        for key, size in zip(_AdversaryRecords.names, sizes)))


def transcript_from_json(text: str) -> SessionTranscript:
    """Read back a `transcript_to_json` document: the transcript's
    columns are rebuilt, so writing it again gives the same bytes.  The
    fields the writer derives (check_report.qber, kept_fraction and
    baseline_time_reserved) are not read.  A malformed document raises
    one ValueError line naming the field, e.g. `positions.kept: expected
    3000 characters of 0/1, got 2999`."""
    doc = _of_type(json.loads(text), dict, "transcript")
    version = _field(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ValueError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    config = _config_at(_member(doc, "config", "transcript"), "config")
    positions = _positions_from_json(doc, config.num_states,
                                     _SCHEMES[config.protocol].announcements)
    cr, pp = _field(doc, "check_report", dict), _field(doc, "postproc", dict)
    number = (int, float)
    adversary = _member(doc, "adversary", "transcript")
    if adversary is not None:
        adversary = _field(doc, "adversary", dict)
        present = np.flatnonzero(~positions._columns[0])  # not lost
        adversary = {**adversary, "records": _records_from_json(adversary, present)}
    return SessionTranscript(
        config=config,
        positions=positions,
        events=_field(doc, "events", list),
        check_report=CheckReport(*(_field(cr, key, kind, "check_report") for key, kind in (
            ("checked_count", int), ("error_count", int), ("aborted", bool),
            ("empty_check_warning", bool)))),
        alice_raw_key=_field(doc, "alice_raw_key", str),
        bob_raw_key=_field(doc, "bob_raw_key", str),
        alice_final_key=_field(doc, "alice_final_key", str),
        bob_final_key=_field(doc, "bob_final_key", str),
        postproc_summary=PostprocSummary(*(_field(pp, key, kind, "postproc") for key, kind in (
            ("qber_used", number), ("reconcile_leaked", int), ("epsilon", number),
            ("stage_lengths", dict), ("final_length", int)))),
        adversary=adversary,
        kept_count=_field(doc, "kept_count", int),
        efficiency_measured=_field(doc, "efficiency_measured", number),
        efficiency_bound=_field(doc, "efficiency_bound", number),
    )


SUMMARY_CSV_HEADER = ("protocol,num_states,loss,attack,kept_fraction,qber,aborted,"
                      "key_bits,efficiency_measured,efficiency_bound")


def summary_csv_row(transcript: SessionTranscript) -> str:
    c = transcript.config
    return ",".join(
        [
            c.protocol.value,
            str(c.num_states),
            repr(c.loss_probability),
            c.attack.kind,
            repr(transcript.kept_fraction),
            repr(transcript.check_report.qber),
            str(transcript.check_report.aborted).lower(),
            str(len(transcript.alice_final_key)),
            repr(transcript.efficiency_measured),
            repr(transcript.efficiency_bound),
        ]
    )
