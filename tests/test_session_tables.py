"""Compiled session tables checked against independent arithmetic.

Every p_plus entry is recomputed by following the table's own next
links along states projected with `oracle.project`, starting from the
literal triplet, pair and probed-triplet vectors; the prediction tables
are checked against the correlation-table functions they encode.  The
detection and accuracy oracles are recomputed as weighted sums over the
same walk's leaves and pinned bit for bit.
"""

import itertools
import math

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
    center_basis_rule_p3,
    keep_rule,
    party_bases,
    prepared_labels,
)
from tcqkd.qstate import ATOL, Basis, Outcome, TwoQubitLabel, deterministic_peer_outcome

BASES = (Basis.X, Basis.Y, Basis.Z)
OUTCOMES = (Outcome.PLUS, Outcome.MINUS)
PAIRS = {
    "PsiPlus": oracle.PSI_PLUS, "PsiMinus": oracle.PSI_MINUS,
    "PhiPlus": oracle.PHI_PLUS, "PhiMinus": oracle.PHI_MINUS,
    "CombPsiPlus": oracle.COMB_PSI_PLUS, "CombPhiMinus": oracle.COMB_PHI_MINUS,
}
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


def probed_triplet(coupling):
    """GHZ with a probe entangled to Alice's x components: the term of
    Alice's x outcome s carries probe state u (s = +) or v (s = -)."""
    phi = math.acos(1.0 - coupling) / 2.0
    probe = {"+": np.array([math.cos(phi), math.sin(phi)]),
             "-": np.array([math.cos(phi), -math.sin(phi)])}
    joint = np.zeros((2, 2, 2, 2), dtype=complex)  # (center, alice, bob, probe)
    for sign in "+-":
        x = oracle.EIGEN[("X", sign)]
        p, rest = oracle.project(oracle.GHZ3, 3, 1, x)
        rest = math.sqrt(p) * rest.reshape(2, 2)
        joint += np.einsum("cb,a,e->cabe", rest, x, probe[sign])
    return joint.reshape(-1)


def start_states(protocol, attack):
    """(key, vector, roles) per start node, in the table's order; the key
    is the prepared pair's label value, None for the triplet."""
    if protocol in GHZ_PROTOCOLS:
        if isinstance(attack, AncillaEntangle):
            return [(None, probed_triplet(attack.coupling), ["c", "a", "b", "eve"])]
        return [(None, oracle.GHZ3, ["c", "a", "b"])]
    return [(label.value, PAIRS[label.value], ["a", "b"]) for label in prepared_labels(protocol)]


def walk_tree(protocol, attack):
    """Follow the compiled table's next links along `oracle.project`
    projections, checking every p_plus and next entry on the way.

    Returns the table, the visited node ids and the leaves as (weight,
    path).  weight is the leaf's probability when every basis is drawn
    uniformly and the GHZ3 center follows its basis rule, None off that
    rule; path is ("start", start key, None) followed by (role, basis
    value, outcome value) per step.
    """
    table = protocols._compile(protocol, attack)
    steps = protocols._steps(protocol, attack)
    visited = set()
    leaves = []

    def walk(node, level, vec, roles, weight, path):
        visited.add(node)
        if level == len(steps):
            assert np.isnan(table.p_plus[node]).all()
            assert (table.next[node] == -1).all()
            leaves.append((weight, path))
            return
        role, bases, resend, _ = steps[level]
        q = roles.index(role)
        rest_roles = roles[:q] + roles[q + 1:]
        followed = list(bases)
        if protocol is ProtocolId.GHZ3 and role == "c":
            a_basis, b_basis = path[-2][1], path[-1][1]
            followed = [Basis.X if a_basis == b_basis else Basis.Y]
        for b, basis in enumerate(BASES):
            if basis not in bases:
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
                child_weight = None
                if weight is not None and basis in followed:
                    child_weight = weight * p / len(followed)
                child_path = path + [(role, basis.value, outcome.value)]
                if resend:
                    walk(child, level + 1, np.kron(reduced, eigen), rest_roles + [role],
                         child_weight, child_path)
                else:
                    walk(child, level + 1, reduced, rest_roles, child_weight, child_path)

    starts = start_states(protocol, attack)
    for node, (key, vec, roles) in enumerate(starts):
        walk(node, 0, vec, roles, 1 / len(starts), [("start", key, None)])
    return table, visited, leaves


@pytest.mark.parametrize("protocol,attack", PAIRINGS, ids=IDS)
def test_every_p_plus_entry_matches_projection(protocol, attack):
    table, visited, _ = walk_tree(protocol, attack)
    assert visited == set(range(len(table.p_plus)))


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
    vectors instead of the package's tables."""
    _, _, leaves = walk_tree(protocol, attack)
    kept = errors = correct = 0.0
    for weight, path in leaves:
        if weight is None:
            continue
        start = path[0][1]
        by_role = {}
        for role, basis, outcome in path[1:]:
            by_role.setdefault(role, []).append((basis, outcome))
        if protocol in GHZ_PROTOCOLS:
            announcement = by_role["c"][0]
            _, pair = oracle.project(oracle.GHZ3, 3, 0, oracle.EIGEN[announcement])
            announcement = (Basis(announcement[0]), Outcome(announcement[1]))
        else:
            announcement = TwoQubitLabel(start)
            pair = PAIRS[start]
        alice, (b_basis, b_out) = by_role["a"][-1], by_role["b"][-1]
        if not keep_rule(protocol, announcement, Basis(alice[0]), Basis(b_basis)):
            continue
        kept += weight
        errors += weight * (b_out != peer_prediction(pair, alice, b_basis))
        if isinstance(attack, InterceptResend):
            eve = path[1][1:]
            if attack.target_party is Party.ALICE:
                guess = peer_prediction(pair, eve, b_basis)
            else:
                guess = eve[1] if eve[0] == b_basis else None
        elif isinstance(attack, CheatingCenterMeasureAll):
            sent = by_role["b"][0]  # the eigenstate the center sent Bob
            guess = sent[1] if sent[0] == b_basis else None
        elif isinstance(attack, AncillaEntangle):
            guess = peer_prediction(pair, by_role["eve"][0], b_basis)
        else:
            continue
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
    table = protocols._compile(protocol, attack)
    anns = table.announcements
    if protocol in GHZ_PROTOCOLS:
        for i, ann in enumerate(anns):
            assert ann == (BASES[i // 2], OUTCOMES[i % 2])
    else:
        assert anns == prepared_labels(protocol)
    assert (table.keep == (table.expect >= 0).all(axis=2)).all()
    bases = party_bases(protocol)
    for i, ann in enumerate(anns):
        for a, o, b in itertools.product(bases, OUTCOMES, bases):
            ai, bi = BASES.index(a), BASES.index(b)
            assert table.keep[i, ai, bi] == keep_rule(protocol, ann, a, b)
            peer = deterministic_peer_outcome(ann, a, o, b)
            assert table.expect[i, ai, o.bit, bi] == (-1 if peer is None else peer.bit)
            reachable = (protocol is not ProtocolId.GHZ3
                         or center_basis_rule_p3(a, b) is ann[0])
            if table.keep[i, ai, bi] and reachable:
                assert peer is not None
    if isinstance(attack, (InterceptResend, CheatingCenterMeasureAll)):
        if isinstance(attack, InterceptResend):
            pool, target = attack.basis_pool or party_bases(protocol), attack.target_party
        else:  # the record is the eigenstate the center sent Bob
            pool, target = (attack.basis,), Party.BOB
        for i, ann in enumerate(anns):
            for eb, eo, b in itertools.product(pool, OUTCOMES, bases):
                guess = infer_bob_outcome(ann, eb, eo, target, b)
                expected = -1 if guess is None else guess.bit
                assert table.eve_expect[i, BASES.index(eb), eo.bit, BASES.index(b)] == expected
    elif isinstance(attack, AncillaEntangle):
        for i, ann in enumerate(anns):
            for eo, b in itertools.product(OUTCOMES, bases):
                guess = deterministic_peer_outcome(ann, Basis.X, eo, b)
                expected = -1 if guess is None else guess.bit
                assert table.eve_expect[i, 0, eo.bit, BASES.index(b)] == expected
        # The session draws the probe read-out and the coin from one
        # stream, so where the coins fall must not depend on the read-out.
        coin = table.eve_expect < 0
        assert (coin[:, :, 0] == coin[:, :, 1]).all()
    else:
        assert table.eve_expect is None


def test_tables_are_read_only_and_shared():
    a = protocols._compile(ProtocolId.GHZ2, AncillaEntangle(0.5))
    assert a is protocols._compile(ProtocolId.GHZ2, AncillaEntangle(0.5))
    for arr in (a.p_plus, a.next, a.keep, a.expect, a.eve_expect):
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
