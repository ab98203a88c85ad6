"""Three-party key distribution sessions over a trusted center.

Five protocols share one driver:

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
basis messages, recorded in an ordered event log.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from . import postproc
from .adversary import (
    AncillaEntangle,
    AttackModel,
    CheatingCenterMeasureAll,
    EveRecord,
    InterceptResend,
    NoAttack,
    Party,
    UnsupportedAttackError,
    infer_bob_outcome,
    predict_adversary_accuracy,
    predict_detection_rate,
    probe_guess_to_alice_x,
    probe_vectors,
)
from .qstate import (
    GHZ,
    Basis,
    Outcome,
    Register,
    TwoQubitLabel,
    deterministic_peer_outcome,
    make_two_qubit,
)

TIME_RESERVED_EPR_BASELINE = 0.125
DEFAULT_EPSILON = 2.0**-32


class ProtocolId(Enum):
    GHZ1 = "GHZ1"
    GHZ2 = "GHZ2"
    GHZ3 = "GHZ3"
    BELL4 = "BELL4"
    BELL5 = "BELL5"


_GHZ_PROTOCOLS = (ProtocolId.GHZ1, ProtocolId.GHZ2, ProtocolId.GHZ3)

_BELL4_LABELS = (
    TwoQubitLabel.PSI_PLUS,
    TwoQubitLabel.PSI_MINUS,
    TwoQubitLabel.PHI_PLUS,
    TwoQubitLabel.PHI_MINUS,
)
_BELL5_LABELS = (
    TwoQubitLabel.PHI_PLUS,
    TwoQubitLabel.PSI_MINUS,
    TwoQubitLabel.COMB_PHI_MINUS,
    TwoQubitLabel.COMB_PSI_PLUS,
)
_BELL5_SAME_BASIS_LABELS = (TwoQubitLabel.PHI_PLUS, TwoQubitLabel.PSI_MINUS)


def party_bases(protocol: ProtocolId) -> tuple[Basis, Basis]:
    """The two measurement directions each communicator draws from."""
    if protocol in _GHZ_PROTOCOLS:
        return (Basis.X, Basis.Y)
    return (Basis.X, Basis.Z)


def prepared_labels(protocol: ProtocolId) -> tuple[TwoQubitLabel, ...]:
    if protocol is ProtocolId.BELL4:
        return _BELL4_LABELS
    if protocol is ProtocolId.BELL5:
        return _BELL5_LABELS
    raise ValueError(f"{protocol} does not prepare labeled pairs")


def intercept_default_pool(protocol: ProtocolId) -> tuple[Basis, Basis]:
    """Eve's default basis pool mirrors the protocol's legitimate pool."""
    return party_bases(protocol)


def sift_fraction_bound(protocol: ProtocolId) -> float:
    """Expected kept fraction at zero loss."""
    return 1.0 if protocol is ProtocolId.GHZ3 else 0.5


def efficiency_bound(protocol: ProtocolId) -> float:
    """Final key bits per prepared state, upper bound."""
    return 1.0 if protocol is ProtocolId.GHZ3 else 0.5


def center_basis_rule_p3(alice_basis: Basis, bob_basis: Basis) -> Basis:
    """GHZ3 rule: x for equal disclosed bases, y for different ones."""
    for b in (alice_basis, bob_basis):
        if b not in (Basis.X, Basis.Y):
            raise ValueError("GHZ3 uses the x/y pool only")
    return Basis.X if alice_basis is bob_basis else Basis.Y


def _require_announcement_type(protocol: ProtocolId, announcement):
    if protocol in _GHZ_PROTOCOLS:
        if not (isinstance(announcement, tuple) and len(announcement) == 2
                and isinstance(announcement[0], Basis) and isinstance(announcement[1], Outcome)):
            raise TypeError(f"{protocol.value} announces a (basis, outcome) pair")
    else:
        if not isinstance(announcement, TwoQubitLabel):
            raise TypeError(f"{protocol.value} announces a pair-state label")


def keep_rule(protocol: ProtocolId, center_announcement, alice_basis: Basis,
              bob_basis: Basis) -> bool:
    """Whether a position carries a deterministic correlation."""
    _require_announcement_type(protocol, center_announcement)
    if protocol is ProtocolId.GHZ1:
        return alice_basis is bob_basis
    if protocol is ProtocolId.GHZ2:
        ann_basis = center_announcement[0]
        if ann_basis is Basis.X:
            return alice_basis is bob_basis
        if ann_basis is Basis.Y:
            return alice_basis is not bob_basis
        raise ValueError("GHZ2 announcements use the x/y pool")
    if protocol is ProtocolId.GHZ3:
        return True
    if protocol is ProtocolId.BELL4:
        return alice_basis is bob_basis
    if protocol is ProtocolId.BELL5:
        if center_announcement in _BELL5_SAME_BASIS_LABELS:
            return alice_basis is bob_basis
        return alice_basis is not bob_basis
    raise ValueError(f"unknown protocol {protocol}")


@lru_cache(maxsize=None)
def _cached_peer_outcome(announcement, own_basis, own_outcome, peer_basis):
    return deterministic_peer_outcome(announcement, own_basis, own_outcome, peer_basis)


def consistency_map(protocol: ProtocolId, center_announcement, own_basis: Basis,
                    own_outcome: Outcome, peer_basis: Basis) -> Outcome:
    """The peer's outcome as uniquely fixed by the correlation tables.

    Both the check and Alice's bit encoding go through this; a
    non-deterministic combination here means the keep rule admitted a
    position it should not have, which is a logic error.
    """
    _require_announcement_type(protocol, center_announcement)
    out = _cached_peer_outcome(center_announcement, own_basis, own_outcome, peer_basis)
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
                * sift_fraction_bound(self.protocol) * (1.0 - self.loss_probability) ** 2
            )
            if expected_unchecked < 1.0:
                raise ValueError("configuration leaves no unchecked positions in expectation")
        _validate_attack(self.protocol, self.attack)


def _validate_attack(protocol: ProtocolId, attack: AttackModel):
    if isinstance(attack, NoAttack):
        return
    if isinstance(attack, InterceptResend):
        return
    if isinstance(attack, CheatingCenterMeasureAll):
        if protocol not in (ProtocolId.GHZ1, ProtocolId.GHZ2):
            raise UnsupportedAttackError("cheating center is modeled for GHZ1/GHZ2 only")
        if protocol is ProtocolId.GHZ1 and attack.basis is not Basis.X:
            raise UnsupportedAttackError("GHZ1 announcements are x results; cheating basis must be X")
        if attack.basis is Basis.Z:
            raise UnsupportedAttackError("announcements use the x/y pool; cheating basis must be X or Y")
        return
    if isinstance(attack, AncillaEntangle):
        if protocol not in _GHZ_PROTOCOLS:
            raise UnsupportedAttackError("the ancilla attack targets the triplet protocols")
        return
    raise UnsupportedAttackError(f"unknown attack {attack!r}")


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
    positions: list
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


def measured_efficiency(transcript: SessionTranscript) -> float:
    """Final key bits per prepared state."""
    return len(transcript.alice_final_key) / transcript.config.num_states


def encode_bit(protocol: ProtocolId, position: PositionRecord, party: Party) -> int:
    """Key bit convention: Bob encodes his own outcome (+ -> 0, - -> 1);
    Alice encodes the predicted Bob outcome, aligning the strings."""
    if not position.kept or position.used_for_check:
        raise ValueError("position does not contribute key material")
    if party is Party.BOB:
        return position.bob_outcome.bit
    predicted = consistency_map(
        protocol, position.center_announcement,
        position.alice_basis, position.alice_outcome, position.bob_basis,
    )
    return predicted.bit


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


_STREAM_CENTER, _STREAM_ALICE, _STREAM_BOB, _STREAM_EVE, _STREAM_CHANNEL, _STREAM_POSTPROC = range(6)


class _EventLog:
    def __init__(self):
        self.events = []

    def emit(self, actor: str, event: str):
        self.events.append({"seq": len(self.events), "actor": actor, "event": event})


def eavesdrop_check(protocol: ProtocolId, positions: list, check_fraction: float,
                    rng: np.random.Generator, qber_abort_threshold: float) -> CheckReport:
    """Bob discloses a random subset of kept positions; Alice compares
    each against the correlation table's prediction.  Marks the chosen
    positions used_for_check; they are excluded from key material."""
    kept = [p for p in positions if p.kept]
    k = int(check_fraction * len(kept))
    if k == 0:
        return CheckReport(0, 0, aborted=False, empty_check_warning=True)
    chosen = rng.choice(len(kept), size=k, replace=False)
    errors = 0
    for i in sorted(int(c) for c in chosen):
        pos = kept[i]
        pos.used_for_check = True
        expected = consistency_map(
            protocol, pos.center_announcement, pos.alice_basis, pos.alice_outcome, pos.bob_basis
        )
        if pos.bob_outcome is not expected:
            errors += 1
    aborted = (errors / k) > qber_abort_threshold
    return CheckReport(k, errors, aborted)


def _start_registers(protocol: ProtocolId, probe) -> dict:
    """The register each position starts from, keyed by prepared label
    (None for the GHZ triplet), with the ancilla probe attached when
    `probe` is given.  Registers are immutable, so one per key serves
    every position of a session."""
    if protocol in _GHZ_PROTOCOLS:
        starts = {None: Register.from_state(GHZ, ("c", "a", "b"))}
    else:
        starts = {label: Register.from_state(make_two_qubit(label), ("a", "b"))
                  for label in prepared_labels(protocol)}
    if probe is not None:
        starts = {key: reg.attach_probe("a", "eve", *probe) for key, reg in starts.items()}
    return starts


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
    center_rng = _stream(config.rng_seed, _STREAM_CENTER)
    alice_rng = _stream(config.rng_seed, _STREAM_ALICE)
    bob_rng = _stream(config.rng_seed, _STREAM_BOB)
    eve_rng = _stream(config.rng_seed, _STREAM_EVE)
    channel_rng = _stream(config.rng_seed, _STREAM_CHANNEL)
    pp_seed_seq = np.random.SeedSequence(config.rng_seed, spawn_key=(_STREAM_POSTPROC,))
    pa_seed, rec_seed = (int(x) for x in pp_seed_seq.generate_state(2, dtype=np.uint64))

    log = _EventLog()
    bases = party_bases(protocol)
    is_bell = protocol in (ProtocolId.BELL4, ProtocolId.BELL5)
    is_intercept = isinstance(attack, InterceptResend)
    is_cheating = isinstance(attack, CheatingCenterMeasureAll)
    is_ancilla = isinstance(attack, AncillaEntangle)
    pool = None
    if is_intercept:
        pool = attack.basis_pool or intercept_default_pool(protocol)
    probe = probe_vectors(attack.coupling) if is_ancilla else None
    starts = _start_registers(protocol, probe)

    # Per-position working state: None when lost, else a dict.
    work: list[dict | None] = [None] * n
    eve_records: list[EveRecord] = []
    center_guesses: dict[int, Outcome | None] = {}

    # -- prepare ------------------------------------------------------------
    log.emit("center", "prepare_states")
    labels = None
    if is_bell:
        labels = [prepared_labels(protocol)[int(center_rng.integers(4))] for _ in range(n)]
        log.emit("center", "announce_labels")
    if is_cheating:
        log.emit("center", "center_measure")  # cheating center measures before sending

    # -- transmit (loss, then in-flight attacks) -----------------------------
    log.emit("channel", "transmit_particles")
    for i in range(n):
        lost = (channel_rng.random() < loss_a) or (channel_rng.random() < loss_b)
        if lost:
            continue
        if is_bell:
            entry = {"reg": starts[labels[i]], "announcement": labels[i]}
        elif is_cheating:
            reg = starts[None]
            o_c, reg = reg.measure("c", attack.basis, center_rng.random())
            o_a, reg = reg.measure("a", attack.basis, center_rng.random())
            o_b, reg = reg.measure("b", attack.basis, center_rng.random())
            reg = Register((), {})
            reg = reg.add_eigenstate("a", attack.basis, o_a)
            reg = reg.add_eigenstate("b", attack.basis, o_b)
            entry = {"reg": reg, "announcement": (attack.basis, o_c), "cheat_ab": (o_a, o_b)}
        else:
            entry = {"reg": starts[None], "announcement": None}
        if is_intercept:
            role = "a" if attack.target_party is Party.ALICE else "b"
            eve_basis = pool[int(eve_rng.integers(len(pool)))]
            eve_out, reg = entry["reg"].measure(role, eve_basis, eve_rng.random())
            entry["reg"] = reg.add_eigenstate(role, eve_basis, eve_out)
            entry["eve"] = (eve_basis, eve_out)
        work[i] = entry

    # -- measurement and announcement order differs per protocol -------------
    if protocol in (ProtocolId.GHZ1, ProtocolId.GHZ2):
        if not is_cheating:
            log.emit("center", "center_measure")
            for entry in work:
                if entry is None:
                    continue
                if protocol is ProtocolId.GHZ1:
                    c_basis = Basis.X
                else:
                    c_basis = (Basis.X, Basis.Y)[int(center_rng.integers(2))]
                c_out, entry["reg"] = entry["reg"].measure("c", c_basis, center_rng.random())
                entry["announcement"] = (c_basis, c_out)
        log.emit("center", "announce_results")
        _measure_parties(work, bases, alice_rng, bob_rng, log)
    elif protocol is ProtocolId.GHZ3:
        _measure_parties(work, bases, alice_rng, bob_rng, log)
        log.emit("alice", "send_basis")
        log.emit("bob", "send_basis")
        log.emit("center", "center_measure")
        for entry in work:
            if entry is None:
                continue
            c_basis = center_basis_rule_p3(entry["a_basis"], entry["b_basis"])
            c_out, entry["reg"] = entry["reg"].measure("c", c_basis, center_rng.random())
            entry["announcement"] = (c_basis, c_out)
        log.emit("center", "announce_results")
    else:
        _measure_parties(work, bases, alice_rng, bob_rng, log)

    # -- sift -----------------------------------------------------------------
    log.emit("all", "compare_bases_and_sift")
    positions = []
    for i in range(n):
        entry = work[i]
        if entry is None:
            ann = labels[i] if is_bell else None
            positions.append(PositionRecord(i, True, ann, None, None, None, None, False, False))
            continue
        kept = keep_rule(protocol, entry["announcement"], entry["a_basis"], entry["b_basis"])
        positions.append(
            PositionRecord(
                index=i,
                lost=False,
                center_announcement=entry["announcement"],
                alice_basis=entry["a_basis"],
                bob_basis=entry["b_basis"],
                alice_outcome=entry["a_out"],
                bob_outcome=entry["b_out"],
                kept=kept,
                used_for_check=False,
            )
        )
    kept_count = sum(1 for p in positions if p.kept)

    # -- adversary's own final measurements and inferences --------------------
    if is_intercept:
        for i in range(n):
            entry = work[i]
            if entry is None:
                continue
            eve_basis, eve_out = entry["eve"]
            pred = infer_bob_outcome(entry["announcement"], eve_basis, eve_out,
                                     attack.target_party, entry["b_basis"])
            if pred is None:
                pred = (Outcome.PLUS, Outcome.MINUS)[int(eve_rng.integers(2))]
            eve_records.append(EveRecord(i, eve_basis.value, eve_out, pred.bit))
    elif is_ancilla:
        for i in range(n):
            entry = work[i]
            if entry is None:
                continue
            probe_out, entry["reg"] = entry["reg"].measure("eve", Basis.X, eve_rng.random())
            guess = probe_guess_to_alice_x(probe_out)
            pred = deterministic_peer_outcome(entry["announcement"], Basis.X, guess,
                                              entry["b_basis"])
            if pred is None:
                pred = (Outcome.PLUS, Outcome.MINUS)[int(eve_rng.integers(2))]
            eve_records.append(EveRecord(i, "probe-X", probe_out, pred.bit))
    elif is_cheating:
        for i in range(n):
            entry = work[i]
            if entry is None:
                continue
            o_a, o_b = entry["cheat_ab"]
            if entry["b_basis"] is attack.basis:
                guess = o_b
            else:
                guess = (Outcome.PLUS, Outcome.MINUS)[int(center_rng.integers(2))]
            center_guesses[i] = guess
            eve_records.append(EveRecord(i, attack.basis.value, entry["announcement"][1], guess.bit))

    # -- eavesdrop check -------------------------------------------------------
    log.emit("bob", "eavesdrop_check")
    report = eavesdrop_check(protocol, positions, config.check_fraction, bob_rng,
                             config.qber_abort_threshold)

    # -- key material -----------------------------------------------------------
    log.emit("all", "encode_key_bits")
    if report.aborted:
        alice_raw = bob_raw = ""
    else:
        key_positions = [p for p in positions if p.kept and not p.used_for_check]
        alice_raw, bob_raw = (
            postproc.bits_to_str([encode_bit(protocol, p, party) for p in key_positions])
            for party in (Party.ALICE, Party.BOB))

    # -- post-processing ---------------------------------------------------------
    log.emit("all", "postprocess")
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
        bob_final = postproc.privacy_amplify(bob_rec, reconcile_leaked, qber_used,
                                             DEFAULT_EPSILON, pa_seed)
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

    adversary_section = _adversary_section(config, positions, eve_records, report)

    transcript = SessionTranscript(
        config=config,
        positions=positions,
        events=log.events,
        check_report=report,
        alice_raw_key=alice_raw,
        bob_raw_key=bob_raw,
        alice_final_key=alice_final,
        bob_final_key=bob_final,
        postproc_summary=summary,
        adversary=adversary_section,
        kept_count=kept_count,
        efficiency_measured=len(alice_final) / n,
        efficiency_bound=efficiency_bound(protocol),
    )
    return transcript


def _measure_parties(work, bases, alice_rng, bob_rng, log):
    log.emit("alice", "alice_measure")
    for entry in work:
        if entry is None:
            continue
        entry["a_basis"] = bases[int(alice_rng.integers(2))]
        entry["a_out"], entry["reg"] = entry["reg"].measure("a", entry["a_basis"],
                                                            alice_rng.random())
    log.emit("bob", "bob_measure")
    for entry in work:
        if entry is None:
            continue
        entry["b_basis"] = bases[int(bob_rng.integers(2))]
        entry["b_out"], entry["reg"] = entry["reg"].measure("b", entry["b_basis"],
                                                            bob_rng.random())


def _adversary_section(config, positions, eve_records, report):
    attack = config.attack
    if isinstance(attack, NoAttack):
        return None
    try:
        predicted_rate = predict_detection_rate(config.protocol, attack)
        predicted_accuracy = predict_adversary_accuracy(config.protocol, attack)
    except UnsupportedAttackError:
        predicted_rate = None
        predicted_accuracy = None
    by_position = {r.position: r for r in eve_records}
    hits = 0
    total = 0
    for p in positions:
        if p.kept and not p.used_for_check and p.index in by_position:
            total += 1
            if by_position[p.index].inferred_bit == p.bob_outcome.bit:
                hits += 1
    observed_accuracy = hits / total if total else None
    params: dict[str, object] = {}
    if isinstance(attack, InterceptResend):
        pool = attack.basis_pool or intercept_default_pool(config.protocol)
        params = {"target_party": attack.target_party.value,
                  "basis_pool": [b.value for b in pool]}
    elif isinstance(attack, CheatingCenterMeasureAll):
        params = {"basis": attack.basis.value}
    elif isinstance(attack, AncillaEntangle):
        params = {"coupling": attack.coupling}
    return {
        "kind": attack.kind,
        "params": params,
        "predicted_detection_rate": predicted_rate,
        "observed_check_error_rate": report.qber,
        "predicted_accuracy": predicted_accuracy,
        "observed_accuracy": observed_accuracy,
        "records": [
            {"position": r.position, "basis_used": r.basis_used,
             "outcome": None if r.outcome is None else r.outcome.value,
             "inferred_bit": r.inferred_bit}
            for r in eve_records
        ],
    }


# --- serialization -----------------------------------------------------------


def _announcement_json(ann):
    if ann is None:
        return None
    if isinstance(ann, TwoQubitLabel):
        return {"label": ann.value}
    return {"basis": ann[0].value, "outcome": ann[1].value}


def _attack_json(attack: AttackModel):
    if isinstance(attack, NoAttack):
        return {"kind": "none"}
    if isinstance(attack, InterceptResend):
        return {
            "kind": attack.kind,
            "target_party": attack.target_party.value,
            "basis_pool": None if attack.basis_pool is None else [b.value for b in attack.basis_pool],
        }
    if isinstance(attack, CheatingCenterMeasureAll):
        return {"kind": attack.kind, "basis": attack.basis.value}
    return {"kind": attack.kind, "coupling": attack.coupling}


def attack_from_json(doc) -> AttackModel:
    kind = doc.get("kind", "none")
    if kind == "none":
        return NoAttack()
    if kind == "intercept_resend":
        pool = doc.get("basis_pool")
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


def config_from_json_dict(doc: dict) -> SessionConfig:
    return SessionConfig(
        protocol=ProtocolId(doc["protocol"]),
        num_states=int(doc["num_states"]),
        check_fraction=float(doc.get("check_fraction", 0.1)),
        qber_abort_threshold=float(doc.get("qber_abort_threshold", 0.0)),
        loss_probability=float(doc.get("loss_probability", 0.0)),
        rng_seed=int(doc.get("rng_seed", 0)),
        attack=attack_from_json(doc.get("attack", {"kind": "none"})),
    )


def transcript_to_json_dict(transcript: SessionTranscript) -> dict:
    cr = transcript.check_report
    return {
        "schema_version": 1,
        "config": config_to_json_dict(transcript.config),
        "events": transcript.events,
        "positions": [
            {
                "index": p.index,
                "lost": p.lost,
                "center_announcement": _announcement_json(p.center_announcement),
                "alice_basis": None if p.alice_basis is None else p.alice_basis.value,
                "bob_basis": None if p.bob_basis is None else p.bob_basis.value,
                "alice_outcome": None if p.alice_outcome is None else p.alice_outcome.value,
                "bob_outcome": None if p.bob_outcome is None else p.bob_outcome.value,
                "kept": p.kept,
                "used_for_check": p.used_for_check,
            }
            for p in transcript.positions
        ],
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
        "adversary": transcript.adversary,
        "kept_count": transcript.kept_count,
        "kept_fraction": transcript.kept_fraction,
        "efficiency_measured": transcript.efficiency_measured,
        "efficiency_bound": transcript.efficiency_bound,
        "baseline_time_reserved": TIME_RESERVED_EPR_BASELINE,
    }


def transcript_to_json(transcript: SessionTranscript) -> str:
    return json.dumps(transcript_to_json_dict(transcript), separators=(",", ":")) + "\n"


SUMMARY_CSV_HEADER = ("protocol,num_states,loss,attack,kept_fraction,qber,aborted,"
                      "key_bits,efficiency_measured,efficiency_bound")


def summary_csv_row(transcript: SessionTranscript) -> str:
    c = transcript.config
    attack = c.attack.kind if not isinstance(c.attack, NoAttack) else "none"
    return ",".join(
        [
            c.protocol.value,
            str(c.num_states),
            repr(c.loss_probability),
            attack,
            repr(transcript.kept_fraction),
            repr(transcript.check_report.qber),
            str(transcript.check_report.aborted).lower(),
            str(len(transcript.alice_final_key)),
            repr(transcript.efficiency_measured),
            repr(transcript.efficiency_bound),
        ]
    )
