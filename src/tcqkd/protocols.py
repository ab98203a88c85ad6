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
basis messages.

One function, `_timeline`, states who acts when, once per (protocol,
attack) pairing: the session's events in order, each with the
measurements every position goes through at it.  A cheating center
measures the whole triplet before transmitting; an adversary
intercepts at transmission; the center measures before Alice (GHZ1,
GHZ2) or after both parties send their bases (GHZ3); the probe is read
out at sifting.  The transcript's event log numbers its events, the
compiled table walks its measurements, and a pairing it has no place
for is refused.

A session runs as array operations over all positions at once.  Each
measurement step names its role, the bases it may use and the actor
stream it draws from.  `_compile` walks the steps of `_timeline` once
per pairing from the start registers with the exact Born-rule branches
and stores, per node and choice of a step, p_plus[node, choice], the
probability a draw is compared against, and next[node, choice,
outcome] (the GHZ3 center has one choice, the rule's basis).  It also
says once what each path means, one row per leaf: the announcement,
both parties' bases and outcomes, whether it is kept, Alice's key bit,
the adversary's shown record and her guess of Bob's bit, then a lost
column for a position that did not arrive.  A session advances its
node ids per level with one take of the thresholds and one of the
children, then takes its position columns from the leaf rows; its
check mismatches, key bits and adversary records are read off them.  Compiled tables
are built on first use and kept (up to 64 pairings).

The exact oracles `predict_detection_rate` and
`predict_adversary_accuracy` read the same rows: `_compile` weighs
every leaf by its Born probability and basis choices and stores both
weighted sums on the table, so the sampler and the oracles cannot
disagree on what a position does.

Each stream is drawn slot-major, in plain bulk calls: per level, every
arrived position's basis choice (`integers(k, size=m)`, nothing for one
choice), then every position's outcome draw (`random(m)`); after the
levels, the adversary's coins (`integers(2, size=c)`) at the arrived
positions whose leaf leaves her a guess, in position order.  Channel
loss draws `random(n)` for Alice's leg, then `random(n)` for Bob's,
against `config.legs`: the config is the one place a session's loss is
stated, for a network session too.  A leg at loss 0 or 1 draws
nothing, as its outcome is known, unless Bob's leg draws after it: his
leg always reads doubles n..2n-1 of the channel stream.
Exactness rests on the Born probabilities the draws are compared
against, not on the order, which only has to be fixed.  A bulk call
returns what as many scalar calls would, so the tests hold every field
of a session against `scalar_session` in tests/oracle.py, which makes
one scalar call per draw in the same order.

A transcript stores its positions as columns, never as objects: lost,
announcement index, Alice's and Bob's basis and outcome (-1 for None),
kept and used_for_check (`_Positions`), and the adversary's records as
position, shown basis, outcome and inferred bit (`_AdversaryRecords`).
Both are read-only sequences that build a `PositionRecord`, resp. a
dict, on index, slice or iteration.  The JSON document keeps them as
columns: `positions` holds the legends and one string per column with
one digit per position (`-` for None), and the adversary's `records`
one string per column with one digit per arrived position.
`transcript_to_json` is the one writer: it writes the document field by
field in document order, the bytes `json.dumps` gives for it.  It copies
those strings, and each key of 0/1 only, between quotes: they hold
nothing to escape, and `json` would scan them a character at a time.
The small fields go through `json`; the event log and the position
legends are encoded once per pairing, by `_compile`.

A config's document is its fields: `SessionConfig` and the attack models
read their own fields as the document reader would, so each default is
stated once, on the dataclass.  `config_to_json_dict` writes a config
or an attack field by field; the readers refuse a key no field has and
pass the others to the dataclass.

A transcript stores only what the session decided (`SessionTranscript`);
everything else it reports is derived from that on access, by the same
code for a session just run and one read back by `transcript_from_json`,
which reads the decided fields only.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property, lru_cache
from typing import get_args

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
from .jsonfields import _enum, _integer, _known_keys, _number, _of_type
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
    loss_probability: float | tuple[float, float] = 0.0
    rng_seed: int = 0
    attack: AttackModel = field(default_factory=NoAttack)

    @property
    def legs(self) -> tuple[float, float]:
        """(Alice's leg, Bob's leg) erasure probabilities: loss_probability
        is one number for both legs, or that pair."""
        loss = self.loss_probability
        return loss if isinstance(loss, tuple) else (loss, loss)

    def __post_init__(self):
        # Each field is stored as the document reader makes it, so the
        # config holds only what its document can carry: the protocol by
        # value, Python numbers, and a loss pair as a tuple.  The attack
        # models read their own fields.
        object.__setattr__(self, "protocol", _enum(self.protocol, ProtocolId, "protocol"))
        for name, read in (("num_states", _integer), ("check_fraction", _number),
                           ("qber_abort_threshold", _number), ("rng_seed", _integer)):
            object.__setattr__(self, name, read(getattr(self, name), name))
        loss = self.loss_probability
        object.__setattr__(self, "loss_probability", tuple(
            _number(leg, f"loss_probability[{i}]") for i, leg in enumerate(loss))
            if isinstance(loss, (list, tuple)) else _number(loss, "loss_probability"))
        if self.num_states < 1:
            raise ValueError("num_states must be >= 1")
        if not 0.0 < self.check_fraction < 1.0:
            raise ValueError("check_fraction must be in (0, 1)")
        if not 0.0 <= self.qber_abort_threshold < 1.0:
            raise ValueError("qber_abort_threshold must be in [0, 1)")
        legs = self.legs
        if len(legs) != 2:
            raise ValueError(f"loss_probability: expected one number or two, got {len(legs)}")
        if not all(0.0 <= leg <= 1.0 for leg in legs):
            raise ValueError("loss_probability must be in [0, 1]")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must be an unsigned 64-bit integer")
        arriving = (1.0 - legs[0]) * (1.0 - legs[1])
        if arriving > 0.0:
            # Total erasure on a leg (loss = 1) is allowed as a
            # degenerate experiment; anything short of it must be
            # expected to leave key material after the check.
            expected_unchecked = (
                (1.0 - self.check_fraction) * self.num_states
                * efficiency_bound(self.protocol) * arriving
            )
            if expected_unchecked < 1.0:
                raise ValueError("configuration leaves no unchecked positions in expectation")
        _timeline(self.protocol, self.attack)  # refuses an attack the course has no place for


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
    string, named in `names`, of one character per item (`json_members`)."""

    names: tuple = ()

    def __init__(self, decoding, first, *columns):
        self._decoding = decoding  # what `_item` decodes column values with
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
        return (type(other) is type(self) and self._decoding == other._decoding
                and all(np.array_equal(a, b) for a, b in
                        zip((self._first, *self._columns), (other._first, *other._columns))))

    def column(self, name: str) -> np.ndarray:
        """The column called name in JSON."""
        return self._columns[self.names.index(name)]

    def json_members(self) -> list:
        """The columns as JSON members, in pieces: `,"name":"` and one
        character per item, its byte translated through _DIGITS, then the
        closing quote.  One translate covers every column."""
        n = len(self)
        text = memoryview(b"".join(c.view(np.uint8).tobytes() for c in self._columns)
                          .translate(_DIGITS))
        pieces = []
        for i, name in enumerate(self.names):
            pieces += (f',"{name}":"', str(text[i * n:(i + 1) * n], "ascii"), '"')
        return pieces


# A code's character, indexed by the code's byte: 0-9 are digits, and
# -1 (byte 255) is '-'; no other byte is a code.  None of its bytes is
# one JSON escapes.
_DIGITS = b"0123456789" + b"?" * 245 + b"-"
# A character's code, 99 for a byte that is none of 0-9 and '-'.
_CODES = np.full(256, 99, dtype=np.int8)
_CODES[np.frombuffer(b"0123456789-", dtype=np.uint8)] = (*range(10), -1)


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
        return PositionRecord(index, lost, self._decoding[announcement],
                              _BASES_OR_NONE[a_basis], _BASES_OR_NONE[b_basis],
                              _OUTCOMES_OR_NONE[a_out], _OUTCOMES_OR_NONE[b_out], kept, checked)

    def in_key(self) -> np.ndarray:
        """Per position, whether it is key material: kept and not checked."""
        return self.column("kept") & ~self.column("used_for_check")


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
        return {"position": position, "basis_used": self._decoding + _BASES_OR_NONE[basis].value,
                "outcome": _OUTCOMES_OR_NONE[outcome].value, "inferred_bit": bit}


@dataclass
class CheckReport:
    """How many kept positions the check disclosed, and how many disagreed."""

    checked_count: int
    error_count: int
    qber_abort_threshold: float

    @property
    def qber(self) -> float:
        return self.error_count / self.checked_count if self.checked_count else 0.0

    @property
    def aborted(self) -> bool:
        return self.qber > self.qber_abort_threshold

    @property
    def empty_check_warning(self) -> bool:
        return self.checked_count == 0


@dataclass(frozen=True)
class PostprocSummary:
    qber_used: float
    reconcile_leaked: int
    epsilon: float
    stage_lengths: dict
    final_length: int


# A session's summary row, in column order; a loss is one leg's.
_SUMMARY_FIELDS = ("protocol", "num_states", "loss_alice", "loss_bob", "attack", "kept_fraction",
                   "qber", "aborted", "key_bits", "efficiency_measured", "efficiency_bound")
SUMMARY_CSV_HEADER = ",".join(_SUMMARY_FIELDS)


@dataclass(frozen=True)
class SessionTranscript:
    """What a session decided: the config, the position columns, the
    check's error count (its checked count is the used_for_check
    column's), Alice's raw key, both final keys, the parity bits
    reconciliation disclosed and the adversary's records.  Every
    property is derived from these on access; kept_count, which three
    fields of the document read, is counted once, and the event log is
    the compiled pairing's."""

    config: SessionConfig
    positions: _Positions
    check_report: CheckReport
    alice_raw_key: str
    alice_final_key: str
    bob_final_key: str
    reconcile_leaked: int
    adversary_records: _AdversaryRecords | None

    @property
    def events(self) -> list:
        return json.loads(_compile(self.config.protocol, self.config.attack).events_json)

    @cached_property
    def kept_count(self) -> int:
        return int(np.count_nonzero(self.positions.column("kept")))

    @property
    def kept_fraction(self) -> float:
        return self.kept_count / self.config.num_states

    @property
    def bob_raw_key(self) -> str:
        """Bob's outcomes at the key positions, empty when the check aborted."""
        if self.check_report.aborted:
            return ""
        # compress selects what a boolean index would, several times faster.
        bob = self.positions.column("bob_outcome")
        return postproc.bits_to_str(bob.compress(self.positions.in_key()))

    @property
    def postproc_summary(self) -> PostprocSummary:
        # Reconciliation keeps the length: the reconciled key is as long as the sifted one.
        sifted, final = len(self.alice_raw_key), len(self.alice_final_key)
        return PostprocSummary(
            self.check_report.qber, self.reconcile_leaked, DEFAULT_EPSILON,
            {"raw": self.kept_count, "sifted": sifted, "reconciled": sifted, "final": final}, final)

    @property
    def adversary(self) -> dict | None:
        """Her section: the attack, the oracles' predictions next to what
        the check and her records show, and the records; None without her."""
        records = self.adversary_records
        if records is None:
            return None
        protocol, attack = self.config.protocol, self.config.attack
        params = config_to_json_dict(attack)
        if isinstance(attack, InterceptResend):  # the pool she drew from
            params["basis_pool"] = [b.value for b in _intercept_pool(protocol, attack)]
        return {
            "kind": params.pop("kind"),
            "params": params,
            "predicted_detection_rate": predict_detection_rate(protocol, attack),
            "observed_check_error_rate": self.check_report.qber,
            "predicted_accuracy": predict_adversary_accuracy(protocol, attack),
            "observed_accuracy": _observed_accuracy(self.positions, records),
            "records": records,
        }

    @property
    def efficiency_measured(self) -> float:
        return len(self.alice_final_key) / self.config.num_states

    @property
    def efficiency_bound(self) -> float:
        return efficiency_bound(self.config.protocol)

    @property
    def summary(self) -> dict:
        """What the session reports in one row, in the column order of
        `SUMMARY_CSV_HEADER`: the CSV row, the network report and
        `tcqkd run` read it from here."""
        c, report = self.config, self.check_report
        return dict(zip(_SUMMARY_FIELDS, (
            c.protocol.value, c.num_states, *c.legs, c.attack.kind, self.kept_fraction,
            report.qber, report.aborted, len(self.alice_final_key), self.efficiency_measured,
            self.efficiency_bound)))


def _observed_accuracy(positions: _Positions, records: _AdversaryRecords) -> float | None:
    """How often her inferred bit is Bob's over the key positions, None
    without one.  Her records are per arrived position, in position
    order, and every key position arrived: her bits at the key positions
    line up with Bob's."""
    in_key = positions.in_key()
    hers = in_key.take(records._first)
    total = int(np.count_nonzero(hers))
    if not total:
        return None
    bob = positions.column("bob_outcome").compress(in_key)
    return int(np.count_nonzero(records.column("inferred_bit").compress(hers) == bob)) / total


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


_STREAM_CENTER, _STREAM_ALICE, _STREAM_BOB, _STREAM_EVE, _STREAM_CHANNEL, _STREAM_POSTPROC = range(6)


def eavesdrop_check(mismatch: np.ndarray, check_fraction: float, rng: np.random.Generator,
                    qber_abort_threshold: float) -> tuple[CheckReport, np.ndarray]:
    """Bob discloses a random subset of the kept positions; Alice compares
    each against the correlation table's prediction.  mismatch[i] says
    whether Bob's outcome at the i-th kept position differs from that
    prediction.  Returns the report and the indices, among the kept
    positions, of those checked; they are excluded from key material."""
    k = int(check_fraction * len(mismatch))
    chosen = rng.choice(len(mismatch), size=k, replace=False) if k else np.zeros(0, np.intp)
    return CheckReport(k, int(np.count_nonzero(mismatch[chosen])), qber_abort_threshold), chosen


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


def _timeline(protocol: ProtocolId, attack: AttackModel) -> list:
    """The session's course in order, as (actor, event, measurements); it
    depends only on the pairing.  measurements are the steps every
    position goes through at that event, as (role, bases it may be
    measured in, resend, stream it draws from).  With resend a fresh
    eigenstate of the result replaces the measured particle.  The GHZ3
    center measures in the one basis `center_basis_rule_p3` picks from
    Alice's and Bob's.  An attack the course has no place for raises
    UnsupportedAttackError."""
    scheme = _SCHEMES[protocol]
    before_sending = [] if scheme.center_bases else [("center", "announce_labels", ())]
    center = [("center", "center_measure", (("c", scheme.center_bases, False, _STREAM_CENTER),)),
              ("center", "announce_results", ())]
    intercept = probe = ()
    if isinstance(attack, CheatingCenterMeasureAll):
        if not scheme.center_bases or scheme.center_after_bases:
            raise UnsupportedAttackError(
                "cheating center is modeled where the center measures before the parties (GHZ1/GHZ2)")
        if attack.basis not in scheme.center_bases:
            names = " or ".join(b.value for b in scheme.center_bases)
            raise UnsupportedAttackError(
                f"{protocol.value} announces results in {names}; cheating basis must be {names}")
        # Its center_measure comes before sending: it measures the whole
        # triplet and sends eigenstates.
        measured = tuple((role, (attack.basis,), role != "c", _STREAM_CENTER) for role in "cab")
        before_sending.append(("center", "center_measure", measured))
        del center[0]
    elif isinstance(attack, InterceptResend):
        role = "a" if attack.target_party is Party.ALICE else "b"
        intercept = ((role, _intercept_pool(protocol, attack), True, _STREAM_EVE),)
    elif isinstance(attack, AncillaEntangle):
        if not scheme.center_bases:
            raise UnsupportedAttackError("the ancilla attack targets the triplet protocols")
        probe = (("eve", (Basis.X,), False, _STREAM_EVE),)  # read out at sifting
    elif not isinstance(attack, NoAttack):
        raise UnsupportedAttackError(f"unknown attack {attack!r}")
    parties = [("alice", "alice_measure", (("a", scheme.bases, False, _STREAM_ALICE),)),
               ("bob", "bob_measure", (("b", scheme.bases, False, _STREAM_BOB),))]
    if scheme.center_after_bases:
        parties += [("alice", "send_basis", ()), ("bob", "send_basis", ()), *center]
    elif scheme.center_bases:
        parties = center + parties
    return [("center", "prepare_states", ()), *before_sending,
            ("channel", "transmit_particles", intercept), *parties,
            ("all", "compare_bases_and_sift", probe), ("bob", "eavesdrop_check", ()),
            ("all", "encode_key_bits", ()), ("all", "postprocess", ())]


@dataclass(frozen=True)
class _Table:
    """One (protocol, attack) pairing's per-position process, compiled.

    Nodes are the registers reachable along the measurements of
    `_timeline`, numbered level by level from the start registers (one
    per prepared label, else the triplet); the last level are the
    leaves, one per path.  For the other nodes, per choice a step's draw
    selects (the choice-th of the bases the step may use; the GHZ3
    center's one basis): p_plus[node, choice] is the probability a draw
    is compared against (outcome + iff draw < p_plus, as in
    `Register.measure`) and next[node, choice, outcome] the node that
    outcome leads to, -1 for a zero-probability branch.  Past a step's
    choices p_plus holds NaN and next -1.  A session reads
    p_plus and next raveled: choice row node * width + choice, outcome
    entry 2 * row + bit.

    leaves[column, node - len(p_plus)] says what a path means, in the
    columns: announcement (an index in announcements), Alice's basis,
    Bob's basis, Alice's outcome, Bob's outcome (a basis as its index in
    `Basis`, an outcome as its key bit), kept (`keep_rule`), Alice's key
    bit (Bob's outcome as `deterministic_peer_outcome` fixes it from
    Alice's, -1 where it does not), the basis and outcome the adversary
    shows (-1 without one) and her guess of Bob's bit
    (`infer_bob_outcome` from her record; -1 for a coin or without
    her).  Her record is her intercept, the probe's x read-out in Alice's
    place, or the eigenstate a cheating center sent Bob; a cheating
    center shows its own triplet measurement.  A trailing lost column,
    -1 everywhere and kept 0, is what a position that did not arrive
    shows; no path leads to it.

    events_json is the transcript's event log as JSON: the (actor, event)
    pairs of `_timeline`, in order, numbered by seq.  legends_json is the
    position legends' (`_legends`).  Every transcript of the pairing
    writes both.

    steps lists what a session draws per level, in order: (stream,
    number of basis choices).  Per level a session draws every
    position's choice, nothing for one choice, then every position's
    outcome.

    detection_rate and adversary_accuracy are the exact oracles: sums
    over the leaves in order, weighted by their probability when every
    choice is uniform, of the kept leaves where Bob's outcome differs
    from Alice's key bit, resp. matches the guess (a coin counts one
    half), each divided by the kept weight.  adversary_accuracy is None
    without an adversary.
    """

    steps: tuple
    p_plus: np.ndarray
    next: np.ndarray
    leaves: np.ndarray
    announcements: tuple
    detection_rate: float
    adversary_accuracy: float | None
    events_json: str
    legends_json: str


@lru_cache(maxsize=64)
def _compile(protocol: ProtocolId, attack: AttackModel) -> _Table:
    """Walk the measurements of `_timeline`, in order, from the start
    registers with the exact Born-rule branches; built on first use of a
    pairing and kept.  A pairing the course has no place for raises
    UnsupportedAttackError.

    Each node also carries its weight, the probability of reaching it
    when every choice is uniform, and what its path recorded: per role
    its (basis, outcome), a resent particle's under "eve", and under
    "c" the announcement (a prepared pair's label from the start)."""
    timeline = _timeline(protocol, attack)
    scheme = _SCHEMES[protocol]
    probe = probe_vectors(attack.coupling) if isinstance(attack, AncillaEntangle) else None
    starts = _start_registers(protocol, probe)
    level = [(reg, 1 / len(starts), {"c": label}) for label, reg in starts.items()]
    steps, p_plus, nxt = [], [], []
    for role, bases, resend, stream in itertools.chain.from_iterable(m for *_, m in timeline):
        children = []
        first_child = len(p_plus) + len(level)
        for reg, weight, seen in level:
            followed = bases
            if scheme.center_after_bases and role == "c":
                followed = (center_basis_rule_p3(seen["a"][0], seen["b"][0]),)
            p_row = np.full(len(_BASES), np.nan)
            next_row = np.full((len(_BASES), 2), -1)
            for choice, basis in enumerate(followed):
                branches = reg.branches(role, basis)
                p_row[choice] = branches[0][0]
                for p, outcome, child in branches:
                    if child is None:
                        continue
                    next_row[choice, outcome.bit] = first_child + len(children)
                    if resend:
                        child = child.add_eigenstate(role, basis, outcome)
                    record = {**seen, "eve" if resend else role: (basis, outcome)}
                    children.append((child, weight * p / len(followed), record))
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
    rows = []
    for _, _, seen in level:
        ann, (a, a_out), (b, b_out) = seen["c"], seen["a"], seen["b"]
        shown = seen.get("c" if cheating else "eve", (None, None))
        guess = infer_bob_outcome(ann, *seen["eve"], target, b) if adversary else None
        bit = deterministic_peer_outcome(ann, a, a_out, b)
        rows.append([scheme.announcements.index(ann), *map(_code, (a, b, a_out, b_out)),
                     keep_rule(protocol, ann, a, b), *map(_code, (bit, *shown, guess))])
    lost = [-1] * 5 + [0] + [-1] * 4  # what a position that did not arrive shows
    leaves = np.ascontiguousarray(np.array([*rows, lost], dtype=np.int8).T)

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

    arrays = [np.array(p_plus), np.array(nxt), leaves]
    for a in arrays:
        a.flags.writeable = False
    log = [{"seq": i, "actor": actor, "event": event} for i, (actor, event, _) in enumerate(timeline)]
    return _Table(tuple(steps), *arrays, scheme.announcements, errors / kept,
                  correct / kept if adversary else None, _JSON.encode(log),
                  _JSON.encode(_legends(scheme.announcements)))


def _code(value) -> int:
    """A basis as its index in `Basis`, an outcome as its key bit, None as -1."""
    if value is None:
        return -1
    return value.bit if isinstance(value, Outcome) else _BASES.index(value)


def predict_detection_rate(protocol: ProtocolId, attack: AttackModel) -> float:
    """Exact per-checked-position error probability under the attack,
    summed over the compiled tree's leaves; `_compile` refuses the
    pairing through `_timeline` if the course has no place for it."""
    return _compile(protocol, attack).detection_rate


def predict_adversary_accuracy(protocol: ProtocolId, attack: AttackModel) -> float:
    """Exact probability that the adversary's inferred bit matches
    Bob's key bit on a kept position (coin guesses count 1/2), summed
    over the compiled tree's leaves; refused as by
    `predict_detection_rate`."""
    accuracy = _compile(protocol, attack).adversary_accuracy
    if accuracy is None:
        raise UnsupportedAttackError("no adversary present")
    return accuracy


def run_session(config: SessionConfig) -> SessionTranscript:
    """Execute one full session and return its transcript."""
    protocol = config.protocol
    attack = config.attack
    n = config.num_states
    loss_a, loss_b = config.legs
    table = _compile(protocol, attack)
    # Only the streams something draws from: no adversary's stream
    # without an intercept or a probe.
    rngs = {key: _stream(config.rng_seed, key) for key in
            {_STREAM_CENTER, _STREAM_BOB, _STREAM_CHANNEL, *(stream for stream, _ in table.steps)}}
    pp_seed_seq = np.random.SeedSequence(config.rng_seed, spawn_key=(_STREAM_POSTPROC,))
    pa_seed, rec_seed = (int(x) for x in pp_seed_seq.generate_state(2, dtype=np.uint64))

    # -- prepare, then transmit (loss) ----------------------------------------
    scheme = _SCHEMES[protocol]
    is_bell = not scheme.center_bases
    if is_bell:
        labels = rngs[_STREAM_CENTER].integers(len(table.announcements), size=n)
    # A leg at loss 0 or 1 needs no draw, but Alice's leg still draws
    # when Bob's does: his leg reads doubles n..2n-1 of the channel stream.
    channel = rngs[_STREAM_CHANNEL]
    bob_draws = 0 < loss_b < 1
    lost = channel.random(n) < loss_a if bob_draws or 0 < loss_a < 1 else np.full(n, loss_a == 1)
    lost |= channel.random(n) < loss_b if bob_draws else loss_b == 1
    present = np.flatnonzero(~lost)
    # Until the leaves, every array has one entry per position that arrived.
    m = len(present)
    nodes = labels[present] if is_bell else np.zeros(m, dtype=np.intp)

    # -- measure: the compiled levels, in order, on the raveled tables --------------
    width = table.p_plus.shape[1]
    for stream, k in table.steps:
        rng = rngs[stream]
        row = nodes * width  # the node's row for choice 0
        if k > 1:
            row += rng.integers(k, size=m)
        minus = rng.random(m) >= table.p_plus.take(row)
        nodes = table.next.take(2 * row + minus)
        if m and nodes.min() < 0:
            raise AssertionError("selected a zero-probability branch")

    # -- per position its leaf, the lost column where lost ---------------------------
    # The transcript keeps what it is given: the six rows it shows, taken apart.
    arrived = nodes - len(table.p_plus)
    if m == n:
        leaf = arrived
    else:
        leaf = np.full(n, table.leaves.shape[1] - 1)
        leaf[present] = arrived
    ann, a_basis, b_basis, a_out, b_out, keep = table.leaves[:6].take(leaf, axis=1)
    key_bit = table.leaves[6].take(leaf)
    if is_bell:
        ann[:] = labels  # the center announced every prepared pair's label
    kept = keep.view(bool)

    # -- sift and check ----------------------------------------------------------
    kept_at = np.flatnonzero(kept)
    report, checked = eavesdrop_check(key_bit.take(kept_at) != b_out.take(kept_at), config.check_fraction,
                                      rngs[_STREAM_BOB], config.qber_abort_threshold)
    used_for_check = np.zeros(n, dtype=bool)
    used_for_check[kept_at[checked]] = True
    positions = _Positions((*table.announcements, None), range(n), lost, ann, a_basis, b_basis,
                           a_out, b_out, kept, used_for_check)

    # -- key material: 0/1 uint8 arrays up to the hash ------------------------------
    alice_raw = ""
    if not report.aborted:
        in_key = kept & ~used_for_check
        # Kept positions hold key bits 0/1, never the -1 of the int8 leaves.
        alice_bits = key_bit.compress(in_key).view(np.uint8)
        bob_bits = b_out.compress(in_key).view(np.uint8)
        alice_raw = postproc.bits_to_str(alice_bits)

    # -- post-processing ---------------------------------------------------------
    qber_used = report.qber
    reconcile_leaked = 0
    alice_final = bob_final = ""
    if alice_raw:
        bob_rec = bob_bits
        if qber_used > 0.0:
            block = max(8, min(len(alice_raw), math.ceil(0.73 / qber_used)))
            bob_rec, reconcile_leaked = postproc.reconcile(
                alice_bits, bob_bits, passes=3, initial_block=block, seed=rec_seed)
        alice_final = postproc.privacy_amplify(alice_bits, reconcile_leaked, qber_used,
                                               DEFAULT_EPSILON, pa_seed)
        # The hash is a function of its inputs: equal keys, equal output.
        bob_final = alice_final if np.array_equal(bob_rec, alice_bits) else postproc.privacy_amplify(
            bob_rec, reconcile_leaked, qber_used, DEFAULT_EPSILON, pa_seed)

    records = None
    if not isinstance(attack, NoAttack):
        shown_basis, shown_out, guess = table.leaves[7:].take(arrived, axis=1)
        # Her coins where her record leaves a guess, on her stream (a cheating center's own).
        coin = np.flatnonzero(guess < 0)
        guess[coin] = rngs[_STREAM_CENTER if isinstance(attack, CheatingCenterMeasureAll)
                           else _STREAM_EVE].integers(2, size=len(coin))
        records = _AdversaryRecords("probe-" if isinstance(attack, AncillaEntangle) else "", present,
                                    shown_basis, shown_out, guess)
    return SessionTranscript(config, positions, report, alice_raw, alice_final, bob_final,
                             reconcile_leaked, records)


# --- serialization -----------------------------------------------------------


def _announcement_json(ann):
    if isinstance(ann, TwoQubitLabel):
        return {"label": ann.value}
    return {"basis": ann[0].value, "outcome": ann[1].value}


def attack_from_json(doc) -> AttackModel:
    """The attack `config_to_json_dict` wrote; a key it does not write is
    refused, and a field it leaves out is the attack's default."""
    if not isinstance(doc, dict):
        raise ValueError(f"attack: expected an object, got {type(doc).__name__}")
    kind, models = doc.get("kind", NoAttack.kind), get_args(AttackModel)
    cls = next((cls for cls in models if cls.kind == kind), None)
    if cls is None:
        expected = "/".join(cls.kind for cls in models)
        raise ValueError(f"attack.kind: expected {expected}, got {kind!r}")
    _known_keys(doc, ["kind", *(f.name for f in fields(cls))], "attack: ")
    return cls(**{key: value for key, value in doc.items() if key != "kind"})


def config_to_json_dict(config) -> dict:
    """The document of a config or of its attack: its fields in
    declaration order, an attack's kind first, with an enum by value, a
    tuple as a list and the attack as its own document."""
    doc = {"kind": config.kind} if hasattr(config, "kind") else {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = [item.value if isinstance(item, Enum) else item for item in value]
        elif hasattr(value, "kind"):
            value = config_to_json_dict(value)
        doc[f.name] = value
    return doc


def _member(doc: dict, key: str, path: str):
    if key not in doc:
        raise ValueError(f"{path}: missing {key!r}")
    return doc[key]


def config_from_json_dict(doc: dict) -> SessionConfig:
    """The config `config_to_json_dict` wrote; a key it does not write
    is refused, and a field it leaves out is the config's default."""
    _known_keys(doc, [f.name for f in fields(SessionConfig)])
    doc = dict(doc)
    protocol, num_states = doc.pop("protocol"), doc.pop("num_states")
    if "attack" in doc:
        doc["attack"] = attack_from_json(doc["attack"])
    return SessionConfig(protocol, num_states, **doc)


def _config_at(doc, path: str) -> SessionConfig:
    """`config_from_json_dict` for the document at path; a malformed one
    raises one ValueError line that starts with path."""
    try:
        return config_from_json_dict(_of_type(doc, dict, path))
    except KeyError as exc:
        raise ValueError(f"{path}: missing {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


SCHEMA_VERSION = 4


_JSON = json.JSONEncoder(separators=(",", ":"))


def transcript_to_json(transcript: SessionTranscript) -> str:
    """The transcript's document and a newline, written field by field
    in document order: the bytes `json.dumps(doc, separators=(",", ":"))`
    gives.  The small fields go through `_JSON`; the event log and the
    position legends are the pairing's, encoded once by `_compile`.  The
    position and record columns, and each key of 0/1 only (`_is_bits`),
    are copied between quotes: they hold nothing to escape, and `json`
    would scan them a character at a time.  A key that is not bits goes
    through `_JSON`."""
    config, report = transcript.config, transcript.check_report
    table = _compile(config.protocol, config.attack)
    out = [f'{{"schema_version":{SCHEMA_VERSION},"config":', _JSON.encode(config_to_json_dict(config)),
           ',"events":', table.events_json, ',"positions":', table.legends_json[:-1],
           *transcript.positions.json_members(), '},"check_report":',
           _JSON.encode({key: getattr(report, key) for key in (
               "checked_count", "error_count", "qber", "aborted", "empty_check_warning")})]
    for key in ("alice_raw_key", "bob_raw_key", "alice_final_key", "bob_final_key"):
        bits = getattr(transcript, key)
        out += (f',"{key}":"', bits, '"') if _is_bits(bits) else (f',"{key}":', _JSON.encode(bits))
    out += (',"postproc":', _JSON.encode(vars(transcript.postproc_summary)), ',"adversary":')
    adversary = transcript.adversary
    if adversary is None:
        out.append("null")
    else:
        records = adversary.pop("records")
        out += (_JSON.encode(adversary)[:-1], ',"records":{"basis_prefix":',
                _JSON.encode(records._decoding), *records.json_members(), "}}")
    out += (",", _JSON.encode({
        "kept_count": transcript.kept_count,
        "kept_fraction": transcript.kept_fraction,
        "efficiency_measured": transcript.efficiency_measured,
        "efficiency_bound": transcript.efficiency_bound,
        "baseline_time_reserved": TIME_RESERVED_EPR_BASELINE,
    })[1:], "\n")
    return "".join(out)


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
    """Read back a `transcript_to_json` document, so that writing it
    again gives the same bytes.  Only what the session decided is read:
    config, positions, check_report.error_count, alice_raw_key, both
    final keys, postproc.reconcile_leaked and adversary.records; the
    other fields are derived from those, as for a session just run.
    A decided field that contradicts the rest is refused: an error count
    outside [0, checked], a raw key that is not empty when the check
    aborted nor one bit per key position otherwise, a key character
    other than 0/1, a negative leak count, or a final key not as long as
    `final_key_length` makes it.  A
    malformed document raises one ValueError line naming the field,
    e.g. `positions.kept: expected 3000 characters of 0/1, got 2999`."""
    doc = _of_type(json.loads(text), dict, "transcript")
    version = _field(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ValueError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    config = _config_at(_member(doc, "config", "transcript"), "config")
    positions = _positions_from_json(doc, config.num_states,
                                     _SCHEMES[config.protocol].announcements)
    records = None
    if not isinstance(config.attack, NoAttack):
        records = _records_from_json(_field(doc, "adversary", dict),
                                     np.flatnonzero(~positions.column("lost")))
    checked = int(np.count_nonzero(positions.column("used_for_check")))
    errors = _field(_field(doc, "check_report", dict), "error_count", int, "check_report")
    if not 0 <= errors <= checked:
        raise ValueError(f"check_report.error_count: expected 0 to {checked}, got {errors}")
    report = CheckReport(checked, errors, config.qber_abort_threshold)
    raw = 0 if report.aborted else int(np.count_nonzero(positions.in_key()))
    alice_raw = _key_at(doc, "alice_raw_key", raw, " (the check aborted)" if report.aborted else "")
    leaked = _field(_field(doc, "postproc", dict), "reconcile_leaked", int, "postproc")
    if leaked < 0:
        raise ValueError(f"postproc.reconcile_leaked: expected a count >= 0, got {leaked}")
    length = postproc.final_key_length(raw, report.qber, leaked, DEFAULT_EPSILON)
    return SessionTranscript(config, positions, report, alice_raw, *(
        _key_at(doc, key, length) for key in ("alice_final_key", "bob_final_key")), leaked, records)


def _key_at(doc: dict, key: str, length: int, why: str = "") -> str:
    """doc[key]: length characters, each 0 or 1."""
    text = _field(doc, key, str)
    if len(text) != length:
        raise ValueError(f"{key}: expected {length} bits{why}, got {len(text)}")
    if not _is_bits(text):
        at = next(i for i, bit in enumerate(text) if bit not in "01")
        raise ValueError(f"{key}: expected bits 0/1, got {text[at]!r} at {at}")
    return text


def _is_bits(text: str) -> bool:
    """Whether text holds no character but 0 and 1.  Deleting those
    bytes takes about 1 ns a character; str.count takes several on
    random bits."""
    return text.isascii() and not text.encode("ascii").translate(None, b"01")


def summary_csv_row(transcript: SessionTranscript) -> str:
    """The summary as a `SUMMARY_CSV_HEADER` row: a boolean in lower
    case, anything else by str, which for a float is its repr."""
    return ",".join(str(value).lower() if isinstance(value, bool) else str(value)
                    for value in transcript.summary.values())
