"""Compiled session tables checked against independent arithmetic.

Every p_plus entry is recomputed by following the table's own next
links along states projected with `oracle.project`, starting from the
literal triplet, pair and probed-triplet vectors; the prediction tables
are checked against the correlation-table functions they encode.
"""

import itertools
import math

import numpy as np
import pytest

import oracle
from tcqkd import protocols
from tcqkd.adversary import (
    AncillaEntangle,
    CheatingCenterMeasureAll,
    InterceptResend,
    NoAttack,
    Party,
    infer_bob_outcome,
)
from tcqkd.protocols import (
    ProtocolId,
    center_basis_rule_p3,
    keep_rule,
    party_bases,
    prepared_labels,
)
from tcqkd.qstate import ATOL, Basis, Outcome, deterministic_peer_outcome

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
    """(vector, roles) per start node, in the table's order."""
    if protocol in GHZ_PROTOCOLS:
        if isinstance(attack, AncillaEntangle):
            return [(probed_triplet(attack.coupling), ["c", "a", "b", "eve"])]
        return [(oracle.GHZ3, ["c", "a", "b"])]
    return [(PAIRS[label.value], ["a", "b"]) for label in prepared_labels(protocol)]


@pytest.mark.parametrize("protocol,attack", PAIRINGS, ids=IDS)
def test_every_p_plus_entry_matches_projection(protocol, attack):
    table = protocols._compile(protocol, attack)
    steps = protocols._steps(protocol, attack)
    visited = set()

    def walk(node, level, vec, roles):
        visited.add(node)
        if level == len(steps):
            assert np.isnan(table.p_plus[node]).all()
            assert (table.next[node] == -1).all()
            return
        role, bases, resend = steps[level]
        q = roles.index(role)
        rest_roles = roles[:q] + roles[q + 1:]
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
                if resend:
                    walk(child, level + 1, np.kron(reduced, eigen), rest_roles + [role])
                else:
                    walk(child, level + 1, reduced, rest_roles)

    starts = start_states(protocol, attack)
    for node, (vec, roles) in enumerate(starts):
        walk(node, 0, vec, roles)
    assert visited == set(range(len(table.p_plus)))


@pytest.mark.parametrize("protocol,attack", PAIRINGS, ids=IDS)
def test_prediction_tables_match_correlation_tables(protocol, attack):
    table = protocols._compile(protocol, attack)
    anns = table.announcements
    if protocol in GHZ_PROTOCOLS:
        for i, ann in enumerate(anns):
            assert ann == (BASES[i // 2], OUTCOMES[i % 2])
    else:
        assert anns == prepared_labels(protocol)
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
    if isinstance(attack, InterceptResend):
        pool = attack.basis_pool or party_bases(protocol)
        for i, ann in enumerate(anns):
            for eb, eo, b in itertools.product(pool, OUTCOMES, bases):
                guess = infer_bob_outcome(ann, eb, eo, attack.target_party, b)
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
