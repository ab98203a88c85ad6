"""Compiled session tables checked against independent arithmetic.

Every p_plus entry is recomputed by following the table's own next
links along states projected with `oracle.project`, starting from the
literal triplet, pair and probed-triplet vectors; every leaf row is
checked against the path that reaches it, against projection and
against the correlation-table functions it encodes.  The detection and
accuracy oracles are recomputed as weighted sums over the same walk's
leaves and pinned bit for bit.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

import oracle
from tcqkd import predict_adversary_accuracy, predict_detection_rate, protocols, qstate
from tcqkd.adversary import (
    AncillaEntangle,
    CheatingCenterMeasureAll,
    InterceptResend,
    NoAttack,
    Party,
    UnsupportedAttackError,
    infer_bob_outcome,
)
from tcqkd.protocols import (
    ProtocolId,
    SessionConfig,
    keep_rule,
    party_bases,
    run_session,
)
from tcqkd.qstate import ATOL, Basis, Outcome, TwoQubitLabel, deterministic_peer_outcome

BASES = (Basis.X, Basis.Y, Basis.Z)
OUTCOMES = (Outcome.PLUS, Outcome.MINUS)
GHZ_PROTOCOLS = (ProtocolId.GHZ1, ProtocolId.GHZ2, ProtocolId.GHZ3)


def pairings():
    out = []
    for protocol in ProtocolId:
        pool = party_bases(protocol)
        attacks = [NoAttack(), InterceptResend(Party.ALICE), InterceptResend(Party.BOB),
                   InterceptResend(Party.ALICE, (pool[1],)),
                   InterceptResend(Party.BOB, (Basis.Z, Basis.X, Basis.Y))]
        if protocol in GHZ_PROTOCOLS:
            attacks += [AncillaEntangle(0.0), AncillaEntangle(0.3), AncillaEntangle(1.0)]
        if protocol in (ProtocolId.GHZ1, ProtocolId.GHZ2):
            attacks.append(CheatingCenterMeasureAll(Basis.X))
        if protocol is ProtocolId.GHZ2:
            attacks.append(CheatingCenterMeasureAll(Basis.Y))
        out += [(protocol, attack) for attack in attacks]
    return out


PAIRINGS = pairings()
IDS = [f"{p.value}-{a!r}" for p, a in PAIRINGS]


def start_states(protocol, attack):
    """(key, vector, roles) per start node, in the table's order; the key
    is the prepared pair's label value, None for the triplet."""
    if protocol in GHZ_PROTOCOLS:
        if isinstance(attack, AncillaEntangle):
            return [(None, oracle.probed_triplet(attack.coupling), ["c", "a", "b", "eve"])]
        return [(None, oracle.GHZ3, ["c", "a", "b"])]
    return [(label, oracle.PAIRS[label], ["a", "b"]) for label in oracle.PREPARED[protocol.value]]


def read_path(attack, path):
    """What a path recorded, as (basis value, outcome value) pairs: the
    announcement (for a prepared pair its label value), Alice's and
    Bob's own measurements, and the adversary's shown record and the
    record she guesses from (None without her)."""
    by_role = {}
    for role, basis, outcome in path[1:]:
        by_role.setdefault(role, []).append((basis, outcome))
    announcement = by_role["c"][0] if "c" in by_role else path[0][1]
    shown = hers = None
    if isinstance(attack, InterceptResend):
        shown = hers = path[1][1:]
    elif isinstance(attack, CheatingCenterMeasureAll):
        # It shows its triplet measurement and knows the eigenstate it sent Bob.
        shown, hers = by_role["c"][0], by_role["b"][0]
    elif isinstance(attack, AncillaEntangle):
        shown = hers = by_role["eve"][0]
    return announcement, by_role["a"][-1], by_role["b"][-1], shown, hers


def announcement_of(protocol, record):
    if protocol in GHZ_PROTOCOLS:
        return Basis(record[0]), Outcome(record[1])
    return TwoQubitLabel(record)


def columns(record):
    """A (basis value, outcome value) record as the table's integers."""
    if record is None:
        return [-1, -1]
    return [BASES.index(Basis(record[0])), Outcome(record[1]).bit]


def walk_tree(protocol, attack):
    """Follow the compiled table's next links along `oracle.project`
    projections, checking every p_plus and next entry on the way (per
    choice, the choice-th basis the step follows) and, per leaf, the
    columns of its row that its path fixes.

    Returns the table, the visited node ids and the leaves as (weight,
    path, row).  weight is the leaf's probability when every choice is
    uniform; path is ("start", start key, None) followed by (role, basis
    value, outcome value) per step; row is the leaf's column of
    table.leaves.  The trailing lost column of table.leaves is no
    path's.
    """
    table = protocols._compile(protocol, attack)
    steps = [step for *_, measurements in protocols._timeline(protocol, attack)
             for step in measurements]
    inner = len(table.p_plus)
    visited = set()
    leaves = []

    def walk(node, level, vec, roles, weight, path):
        visited.add(node)
        if level == len(steps):
            assert node >= inner
            row = table.leaves[:, node - inner]
            announcement, alice, bob, shown, _ = read_path(attack, path)
            ann = table.announcements.index(announcement_of(protocol, announcement))
            a_basis, a_bit = columns(alice)
            b_basis, b_bit = columns(bob)
            assert row[:5].tolist() == [ann, a_basis, b_basis, a_bit, b_bit]
            assert row[7:9].tolist() == columns(shown)
            leaves.append((weight, path, row))
            return
        role, bases, resend, _ = steps[level]
        q = roles.index(role)
        rest_roles = roles[:q] + roles[q + 1:]
        followed = list(bases)
        if protocol is ProtocolId.GHZ3 and role == "c":
            a_basis, b_basis = path[-2][1], path[-1][1]
            followed = [Basis.X if a_basis == b_basis else Basis.Y]
        for choice in range(len(followed), len(BASES)):
            # Past the step's choices (the GHZ3 center has one): never drawn.
            assert np.isnan(table.p_plus[node, choice])
            assert (table.next[node, choice] == -1).all()
        for choice, basis in enumerate(followed):
            p_plus, _ = oracle.project(vec, len(roles), q, oracle.EIGEN[(basis.value, "+")])
            assert table.p_plus[node, choice] == pytest.approx(p_plus, abs=1e-12)
            for outcome in OUTCOMES:
                eigen = oracle.EIGEN[(basis.value, outcome.value)]
                p, reduced = oracle.project(vec, len(roles), q, eigen)
                child = table.next[node, choice, outcome.bit]
                if p <= ATOL:
                    assert child == -1
                    continue
                assert child > node
                child_path = path + [(role, basis.value, outcome.value)]
                if resend:
                    reduced, child_roles = np.kron(reduced, eigen), rest_roles + [role]
                else:
                    child_roles = rest_roles
                walk(child, level + 1, reduced, child_roles, weight * p / len(followed), child_path)

    starts = start_states(protocol, attack)
    for node, (key, vec, roles) in enumerate(starts):
        walk(node, 0, vec, roles, 1 / len(starts), [("start", key, None)])
    return table, visited, leaves


@pytest.mark.parametrize("protocol,attack", PAIRINGS, ids=IDS)
def test_every_p_plus_entry_matches_projection(protocol, attack):
    table, visited, leaves = walk_tree(protocol, attack)
    assert visited == set(range(len(table.p_plus) + len(leaves)))
    # One column per path, then the lost column, which no path reaches.
    assert table.leaves.shape[1] == len(leaves) + 1
    assert table.leaves[:, -1].tolist() == [-1] * 5 + [0] + [-1] * 4


def peer_prediction(pair, own, peer_basis):
    """Bob's outcome value in peer_basis once the (Alice, Bob) `pair`
    has Alice's qubit projected on `own` = (basis, outcome) values, or
    None when it is not determined."""
    _, bob = oracle.project(pair, 2, 0, oracle.EIGEN[own])
    fixed = oracle.deterministic_outcome(bob)
    return fixed[1] if fixed is not None and fixed[0] == peer_basis else None


@pytest.mark.parametrize("protocol,attack", PAIRINGS, ids=IDS)
def test_oracles_match_projection_walk(protocol, attack):
    """The detection and accuracy oracles recomputed as sums over the
    projection walk's leaves, with the correlations read off projected
    vectors instead of the package's tables; each leaf row's key bit and
    guess are the projected ones.  The walk's leaves leave out the lost
    column, so the oracles equal sums without it."""
    _, _, leaves = walk_tree(protocol, attack)
    bob_measures_hers = isinstance(attack, CheatingCenterMeasureAll) or (
        isinstance(attack, InterceptResend) and attack.target_party is Party.BOB)
    kept = errors = correct = 0.0
    for weight, path, row in leaves:
        announcement, alice, (b_basis, b_out), _, hers = read_path(attack, path)
        if protocol in GHZ_PROTOCOLS:
            _, pair = oracle.project(oracle.GHZ3, 3, 0, oracle.EIGEN[announcement])
        else:
            pair = oracle.PAIRS[announcement]
        announcement = announcement_of(protocol, announcement)
        if not keep_rule(protocol, announcement, Basis(alice[0]), Basis(b_basis)):
            continue
        bit = peer_prediction(pair, alice, b_basis)
        assert row[6] == Outcome(bit).bit
        kept += weight
        errors += weight * (b_out != bit)
        if hers is None:
            continue
        if bob_measures_hers:
            guess = hers[1] if hers[0] == b_basis else None
        else:  # her record in Alice's place
            guess = peer_prediction(pair, hers, b_basis)
        assert row[9] == (-1 if guess is None else Outcome(guess).bit)
        correct += weight * (0.5 if guess is None else float(guess == b_out))
    assert predict_detection_rate(protocol, attack) == pytest.approx(errors / kept, abs=1e-12)
    if isinstance(attack, NoAttack):
        assert errors == 0.0
    else:
        assert predict_adversary_accuracy(protocol, attack) == pytest.approx(
            correct / kept, abs=1e-12)


ORACLE_PAIRINGS = PAIRINGS + [
    (protocol, InterceptResend(Party.ALICE, (Basis.Z, Basis.X, Basis.Y))) for protocol in ProtocolId]

# float.hex() of (predict_detection_rate, predict_adversary_accuracy)
# for each of ORACLE_PAIRINGS, in order; None where no adversary is
# present.  Transcripts carry both floats, so a moved bit here changes
# pinned transcript bytes.
PINNED_ORACLE_HEX = [
    # GHZ1
    ('0x0.0p+0', None),
    ('0x1.0000000000002p-2', '0x1.7ffffffffffffp-1'),
    ('0x1.0000000000002p-2', '0x1.7ffffffffffffp-1'),
    ('0x1.0000000000000p-2', '0x1.8000000000000p-1'),
    ('0x1.555555555555bp-2', '0x1.5555555555558p-1'),
    ('0x0.0p+0', '0x1.0000000000001p-1'),
    ('0x1.3333333333332p-4', '0x1.5b69085d5da5ap-1'),
    ('0x1.ffffffffffffbp-3', '0x1.8000000000001p-1'),
    ('0x1.ffffffffffffep-3', '0x1.8000000000000p-1'),
    # GHZ2
    ('0x0.0p+0', None),
    ('0x1.0000000000001p-2', '0x1.7fffffffffffep-1'),
    ('0x1.0000000000001p-2', '0x1.7fffffffffffep-1'),
    ('0x1.0000000000002p-2', '0x1.7ffffffffffffp-1'),
    ('0x1.5555555555551p-2', '0x1.555555555554ap-1'),
    ('0x0.0p+0', '0x1.ffffffffffffdp-2'),
    ('0x1.3333333333336p-4', '0x1.5b69085d5da5fp-1'),
    ('0x1.ffffffffffff9p-3', '0x1.8000000000000p-1'),
    ('0x1.ffffffffffffep-3', '0x1.8000000000000p-1'),
    ('0x1.ffffffffffff9p-2', '0x1.8000000000000p-1'),
    # GHZ3
    ('0x0.0p+0', None),
    ('0x1.0000000000001p-2', '0x1.7fffffffffffep-1'),
    ('0x1.0000000000001p-2', '0x1.7fffffffffffep-1'),
    ('0x1.0000000000003p-2', '0x1.7ffffffffffffp-1'),
    ('0x1.555555555554fp-2', '0x1.555555555554bp-1'),
    ('0x0.0p+0', '0x1.0000000000001p-1'),
    ('0x1.3333333333338p-4', '0x1.5b69085d5da64p-1'),
    ('0x1.ffffffffffff6p-3', '0x1.7ffffffffffffp-1'),
    # BELL4
    ('0x0.0p+0', None),
    ('0x1.fffffffffffffp-3', '0x1.8000000000000p-1'),
    ('0x1.fffffffffffffp-3', '0x1.8000000000000p-1'),
    ('0x1.ffffffffffffdp-3', '0x1.8000000000000p-1'),
    ('0x1.5555555555549p-2', '0x1.5555555555547p-1'),
    # BELL5
    ('0x0.0p+0', None),
    ('0x1.fffffffffffffp-3', '0x1.8000000000000p-1'),
    ('0x1.fffffffffffffp-3', '0x1.8000000000000p-1'),
    ('0x1.ffffffffffffdp-3', '0x1.8000000000000p-1'),
    ('0x1.5555555555549p-2', '0x1.5555555555547p-1'),
    # ORACLE_PAIRINGS beyond PAIRINGS: the (Z, X, Y) pool on Alice
    ('0x1.555555555555bp-2', '0x1.5555555555558p-1'),
    ('0x1.555555555554fp-2', '0x1.555555555554bp-1'),
    ('0x1.555555555554fp-2', '0x1.555555555554ep-1'),
    ('0x1.5555555555549p-2', '0x1.5555555555547p-1'),
    ('0x1.5555555555549p-2', '0x1.5555555555547p-1'),
]


@pytest.mark.parametrize("protocol,attack,pinned", [
    (p, a, pinned) for (p, a), pinned in zip(ORACLE_PAIRINGS, PINNED_ORACLE_HEX, strict=True)
], ids=[f"{p.value}-{a!r}" for p, a in ORACLE_PAIRINGS])
def test_oracle_floats_are_pinned(protocol, attack, pinned):
    rate_hex, accuracy_hex = pinned
    assert predict_detection_rate(protocol, attack) == float.fromhex(rate_hex)
    if accuracy_hex is None:
        with pytest.raises(UnsupportedAttackError):
            predict_adversary_accuracy(protocol, attack)
    else:
        assert predict_adversary_accuracy(protocol, attack) == float.fromhex(accuracy_hex)


@pytest.mark.parametrize("protocol,attack", PAIRINGS, ids=IDS)
def test_prediction_tables_match_correlation_tables(protocol, attack):
    """Each leaf's kept flag, key bit and guess are what `keep_rule`,
    `deterministic_peer_outcome` and `infer_bob_outcome` give for its
    path."""
    table, _, leaves = walk_tree(protocol, attack)
    anns = table.announcements
    if protocol in GHZ_PROTOCOLS:
        for i, ann in enumerate(anns):
            assert ann == (BASES[i // 2], OUTCOMES[i % 2])
    else:
        assert tuple(a.value for a in anns) == oracle.PREPARED[protocol.value]
    if isinstance(attack, InterceptResend):
        target = attack.target_party
    else:  # the eigenstate a cheating center sent Bob, or the probe in Alice's place
        target = Party.BOB if isinstance(attack, CheatingCenterMeasureAll) else Party.ALICE
    for _, path, row in leaves:
        ann, a, b, a_out, b_out, kept, bit, _, _, guess = row.tolist()
        ann, a, b, a_out = anns[ann], BASES[a], BASES[b], OUTCOMES[a_out]
        assert kept == keep_rule(protocol, ann, a, b)
        peer = deterministic_peer_outcome(ann, a, a_out, b)
        assert bit == (-1 if peer is None else peer.bit)
        if kept:
            assert peer is not None
        hers = read_path(attack, path)[-1]
        if hers is None:
            assert guess == -1
            continue
        expected = infer_bob_outcome(ann, Basis(hers[0]), Outcome(hers[1]), target, b)
        assert guess == (-1 if expected is None else expected.bit)


# Each pairing's event log as (actor, event), written out.  The center
# measures after transmitting and before the parties (GHZ1/GHZ2), a
# cheating one before transmitting, the GHZ3 center after the parties
# disclose their bases, and the Bell center prepares and labels pairs.
CENTER_FIRST = (
    ("center", "prepare_states"), ("channel", "transmit_particles"),
    ("center", "center_measure"), ("center", "announce_results"),
    ("alice", "alice_measure"), ("bob", "bob_measure"), ("all", "compare_bases_and_sift"),
    ("bob", "eavesdrop_check"), ("all", "encode_key_bits"), ("all", "postprocess"))
CHEATING_CENTER = (
    ("center", "prepare_states"), ("center", "center_measure"),
    ("channel", "transmit_particles"), ("center", "announce_results"),
    ("alice", "alice_measure"), ("bob", "bob_measure"), ("all", "compare_bases_and_sift"),
    ("bob", "eavesdrop_check"), ("all", "encode_key_bits"), ("all", "postprocess"))
PARTIES_FIRST = (
    ("center", "prepare_states"), ("channel", "transmit_particles"),
    ("alice", "alice_measure"), ("bob", "bob_measure"),
    ("alice", "send_basis"), ("bob", "send_basis"),
    ("center", "center_measure"), ("center", "announce_results"),
    ("all", "compare_bases_and_sift"), ("bob", "eavesdrop_check"),
    ("all", "encode_key_bits"), ("all", "postprocess"))
PREPARED = (
    ("center", "prepare_states"), ("center", "announce_labels"),
    ("channel", "transmit_particles"), ("alice", "alice_measure"), ("bob", "bob_measure"),
    ("all", "compare_bases_and_sift"), ("bob", "eavesdrop_check"),
    ("all", "encode_key_bits"), ("all", "postprocess"))
EVENTS_OF = {
    ("GHZ1", "none"): CENTER_FIRST, ("GHZ1", "intercept_resend"): CENTER_FIRST,
    ("GHZ1", "ancilla"): CENTER_FIRST, ("GHZ1", "cheating_center"): CHEATING_CENTER,
    ("GHZ2", "none"): CENTER_FIRST, ("GHZ2", "intercept_resend"): CENTER_FIRST,
    ("GHZ2", "ancilla"): CENTER_FIRST, ("GHZ2", "cheating_center"): CHEATING_CENTER,
    ("GHZ3", "none"): PARTIES_FIRST, ("GHZ3", "intercept_resend"): PARTIES_FIRST,
    ("GHZ3", "ancilla"): PARTIES_FIRST,
    ("BELL4", "none"): PREPARED, ("BELL4", "intercept_resend"): PREPARED,
    ("BELL5", "none"): PREPARED, ("BELL5", "intercept_resend"): PREPARED,
}


@pytest.mark.parametrize("protocol,attack", PAIRINGS, ids=IDS)
def test_event_log_is_pinned(protocol, attack):
    events = run_session(SessionConfig(protocol, 100, rng_seed=1, attack=attack)).events
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert [(e["actor"], e["event"]) for e in events] == list(
        EVENTS_OF[protocol.value, attack.kind])


def test_tables_are_read_only_and_shared():
    a = protocols._compile(ProtocolId.GHZ2, AncillaEntangle(0.5))
    assert a is protocols._compile(ProtocolId.GHZ2, AncillaEntangle(0.5))
    for arr in (a.p_plus, a.next, a.leaves):
        assert not arr.flags.writeable


# sha256 of each pairing's compiled table, in PAIRINGS order: its steps'
# repr, then per array of p_plus, next and leaves its dtype, shape and
# bytes.  A change to how registers are built or projected that moves
# any float or link of any table moves one of these.
PINNED_TABLE_SHA256 = [
    "0aad7ae9db86f2f16b6dd75bcce0bff277c697e270a9721599dbae00166c1809",
    "735b7276fd91d1b22befba48d87dce65819d03192cc59c311a2c7f6c39452d23",
    "876a3d6a26ca11b5cc15b512a156b2a3845f39c79976b0883da1a56bd6003e8c",
    "7430085cdaaaef5e010058b9875fe8fd0cb8d9c50dbce7f8f29316082281ad37",
    "5e2e54c35bd52048f4cc0d5baae75cbd954279f34fe0c2ca5f2338bcaacc5d64",
    "92126278119900ee8558632cd465824f068d6a9cb4e3016de8531ece2c1a159d",
    "2bcd4d026b8b7d3b9b8e425bcccad180723c5668ed70dac6cc8570eefc357f9c",
    "de364299f0e708efd72231eb8c5006e765dbe66ded43926ac4538a62fe019fee",
    "6012a32d47727fd7bfaa14f669e84882aa1a02300b172703bf75d96dcd3a28a1",
    "c47949c7ffb472448d402b6890ed70b8e96cabb3c5feec7d171cafe5bd38b68b",
    "c3d6d260a43f9dd02c88a5531daa50c16815f22e9ac1df658e894a25ce086d6a",
    "141cb5fd9c3152cb7424ee76b677fedf055e395cdc2d99d94fa0a38969a1b818",
    "c0b1177cd00396b4ca3cb0c27cc31546e9dc7f11258958584fc7ae5186fba398",
    "c6d7db850299e41d1a0a7c0a3201d24345960d470bf0c27623c8f0a298bcc76d",
    "80b11f36b357253399171afed5d142179c263bf12a3b14343aacca4825d9b1f7",
    "a41caa83d9d6fda51fe69f2c8877153cd1fa6fa7f9dc000b700ea3f0f6641005",
    "4a99f38dc32a038bf45e818e420ffd0055bab73cba8a1b3b069370309f518c08",
    "6012a32d47727fd7bfaa14f669e84882aa1a02300b172703bf75d96dcd3a28a1",
    "249e484c779e5ea2e194806b33ae69a58c1be9a0a60215008d0c930af57220e7",
    "e43a5870042c2c2a9bb1615051164c8c37a167ea4400b779b24855070c4d49fd",
    "04f78238f8278c1699b8b075bc5ffdaea75be46d0eb3e9ea88546fa3e859f85a",
    "e44f1ca186dac7939017a154f7dfff9178eaaf51bd3dec85ad698313728380a3",
    "430dfce1f0a890390e4e05f877e521d49952a6f9eb80c0a04d5594760c24cd31",
    "d729ba4ff9c2c0421b3252828771f43a9bb60496d60a1d71e2f4eb3e5ea6d6f3",
    "3a06b780b624d931f2a9ed652dc54f51c5e0318868d0cd531e6efd63a68c9a11",
    "205a75927c474aaf53c04ecde0264b99411ff8c0a4d8900f959d010e8da894a4",
    "03d799646f0b1127bece9fe1338ba1c86d4dd1d0a42b24fa66df85e75e23ffad",
    "f9f8ada89b285ceba0144050ee25d91a4738ade1861877c5cb256f7b873cb5d2",
    "446327ca1704948df01312b0d2aad35f5a6c4c10b9852c8d96a7f401fb606709",
    "274dcb623f8db787ede8418c958c7be1ae723efe211393037ad0bb43d04b6f56",
    "e9c6f9716f2a35cb979cf474683ce32850ee3df08036ec038cc78686eb9c7dc0",
    "abb02a98884dfe0c6ee0d49ed9c3b65e337398b54e5ae60afc14fbbfbad1347e",
    "926b3407196b1abee89eff3ec1f42dca40dea7f0299326416523cae4218e117e",
    "8a33405e61149ff427426e4329869730b1173609b77db35100833c157a62d2d3",
    "d4b42ac7c18c06111b88fbba973ea1bcf21aa49dfe580b534bd12aa09dc467e7",
    "ceb5082d1395f2b07631276c37ec22a76685a304d9bcbf7d817dc2a350f475b1",
    "b97b09e0fce1435db4c56f0e36f29493981ad96f724338b7c66ba056ebadfe0a",
]


def table_digest(table) -> str:
    h = hashlib.sha256(repr(table.steps).encode())
    for arr in (table.p_plus, table.next, table.leaves):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("protocol,attack,pinned", [
    (p, a, pinned) for (p, a), pinned in zip(PAIRINGS, PINNED_TABLE_SHA256, strict=True)
], ids=IDS)
def test_compiled_table_is_pinned(protocol, attack, pinned):
    assert table_digest(protocols._compile(protocol, attack)) == pinned


@pytest.mark.parametrize("level", ["first", "last"])
def test_session_refuses_a_zero_probability_branch(monkeypatch, level):
    """A table whose drawn branch leads to -1 makes the session raise, at
    the first level (the root) and at the last (a node whose children
    are leaves): every choice there is forced to outcome + and its +
    child is -1."""
    table = protocols._compile(ProtocolId.GHZ1, NoAttack())
    node = 0 if level == "first" else len(table.p_plus) - 1
    p_plus, nxt = table.p_plus.copy(), table.next.copy()
    p_plus[node] = 1.0
    nxt[node, :, Outcome.PLUS.bit] = -1
    broken = replace(table, p_plus=p_plus, next=nxt)
    monkeypatch.setattr(protocols, "_compile", lambda protocol, attack: broken)
    config = SessionConfig(ProtocolId.GHZ1, 400, rng_seed=3)
    with pytest.raises(AssertionError, match="^selected a zero-probability branch$"):
        run_session(config)


def test_compile_projects_each_node_and_basis_once(monkeypatch):
    """One `qstate._components` call per p_plus entry `_compile` fills.
    The per-announcement peer tables are built before counting: they are
    shared by every pairing and kept across `_compile.cache_clear()`."""
    for protocol, attack in PAIRINGS:
        protocols._compile(protocol, attack)
    calls = []
    components = qstate._components

    def counted(*args):
        calls.append(args)
        return components(*args)

    monkeypatch.setattr(qstate, "_components", counted)
    protocols._compile.cache_clear()
    entries = sum(int(np.count_nonzero(~np.isnan(protocols._compile(p, a).p_plus)))
                  for p, a in PAIRINGS)
    assert len(calls) == entries


@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_kept_weight_of_the_tree_is_the_efficiency_bound(protocol):
    """The paper's efficiency, read off the compiled tree alone: walked
    forward from a uniform start (one node per prepared label, else the
    triplet), each choice weighted 1/k and each outcome by p_plus, every
    level's weights sum to 1 and the kept leaves weigh the bound."""
    table = protocols._compile(protocol, NoAttack())
    starts = 1 if protocol in GHZ_PROTOCOLS else len(table.announcements)
    level = {node: 1 / starts for node in range(starts)}
    for _, k in table.steps:
        children = {}
        for node, weight in level.items():
            for choice in range(k):
                p_plus = table.p_plus[node, choice]
                for bit, p in ((0, p_plus), (1, 1.0 - p_plus)):
                    child = int(table.next[node, choice, bit])
                    if child < 0:
                        assert p <= ATOL
                        continue
                    children[child] = children.get(child, 0.0) + weight * p / k
        assert sum(children.values()) == pytest.approx(1.0, abs=1e-12)
        level = children
    inner = len(table.p_plus)
    assert len(level) == table.leaves.shape[1] - 1  # every leaf but the lost column
    kept = sum(weight for node, weight in level.items() if table.leaves[5, node - inner])
    assert kept == pytest.approx(protocols.efficiency_bound(protocol), abs=1e-12)
