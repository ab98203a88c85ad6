"""Compiled session tables checked against independent arithmetic.

Every p_plus entry is recomputed by following the table's own next
links along states projected with `oracle.project`, starting from the
literal triplet, pair and probed-triplet vectors; every leaf row is
checked against the path that reaches it, against projection and
against the correlation-table functions it encodes.  The detection and
accuracy oracles are recomputed as weighted sums over the same walk's
leaves and pinned bit for bit.
"""

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
    keep_rule,
    party_bases,
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
    projections, checking every basis_of, p_plus, next and coin entry on
    the way and, per leaf, the columns of its row that its path fixes.

    Returns the table, the visited node ids and the leaves as (weight,
    path, row).  weight is the leaf's probability when every choice is
    uniform; path is ("start", start key, None) followed by (role, basis
    value, outcome value) per step; row is the leaf's column of
    table.leaves.
    """
    table = protocols._compile(protocol, attack)
    steps = protocols._steps(protocol, attack)
    inner = len(table.p_plus)
    visited = set()
    leaves = []

    def walk(node, level, vec, roles, weight, path):
        """Returns, per leaf below node, whether the adversary tosses a coin there."""
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
            assert table.coin[node] == (row[-1] < 0)
            leaves.append((weight, path, row))
            return [row[-1] < 0]
        role, bases, resend, _ = steps[level]
        q = roles.index(role)
        rest_roles = roles[:q] + roles[q + 1:]
        followed = list(bases)
        if protocol is ProtocolId.GHZ3 and role == "c":
            a_basis, b_basis = path[-2][1], path[-1][1]
            followed = [Basis.X if a_basis == b_basis else Basis.Y]
        assert table.basis_of[node].tolist() == [BASES.index(b) for b in followed] + [-1] * (
            len(BASES) - len(followed))
        coins = []
        for b, basis in enumerate(BASES):
            if basis not in followed:
                # The GHZ3 center's off-rule basis included: never measured.
                assert np.isnan(table.p_plus[node, b])
                assert (table.next[node, b] == -1).all()
                continue
            p_plus, _ = oracle.project(vec, len(roles), q, oracle.EIGEN[(basis.value, "+")])
            assert table.p_plus[node, b] == pytest.approx(p_plus, abs=1e-12)
            for outcome in OUTCOMES:
                eigen = oracle.EIGEN[(basis.value, outcome.value)]
                p, reduced = oracle.project(vec, len(roles), q, eigen)
                child = table.next[node, b, outcome.bit]
                if p <= ATOL:
                    assert child == -1
                    continue
                assert child > node
                child_path = path + [(role, basis.value, outcome.value)]
                if resend:
                    reduced, child_roles = np.kron(reduced, eigen), rest_roles + [role]
                else:
                    child_roles = rest_roles
                coins += walk(child, level + 1, reduced, child_roles, weight * p / len(followed),
                              child_path)
        assert table.coin[node] == all(coins)
        return coins

    starts = start_states(protocol, attack)
    for node, (key, vec, roles) in enumerate(starts):
        walk(node, 0, vec, roles, 1 / len(starts), [("start", key, None)])
    return table, visited, leaves


@pytest.mark.parametrize("protocol,attack", PAIRINGS, ids=IDS)
def test_every_p_plus_entry_matches_projection(protocol, attack):
    table, visited, leaves = walk_tree(protocol, attack)
    assert visited == set(range(len(table.p_plus) + len(leaves)))
    assert table.leaves.shape[1] == len(leaves)


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
    guess are the projected ones."""
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
    coin_after_probe = {}
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
        if isinstance(attack, AncillaEntangle):
            coin_after_probe.setdefault(tuple(path[:-1]), set()).add(guess < 0)
    # The session draws the probe read-out and the coin from one stream,
    # so whether she tosses one must not depend on the read-out.
    assert all(len(coins) == 1 for coins in coin_after_probe.values())


def test_tables_are_read_only_and_shared():
    a = protocols._compile(ProtocolId.GHZ2, AncillaEntangle(0.5))
    assert a is protocols._compile(ProtocolId.GHZ2, AncillaEntangle(0.5))
    for arr in (a.basis_of, a.p_plus, a.next, a.coin, a.leaves):
        assert not arr.flags.writeable


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
