"""Whole sessions against `oracle.scalar_session`, the protocol read one
position at a time with one scalar generator call per random choice.

`run_session` draws each actor's stream in bulk and walks compiled
tables; the reference walks amplitude vectors.  They must agree on every
position column, the check sample, both raw keys and the adversary's
records, for every protocol, attack, per-leg loss and seed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from tcqkd import protocols, replay
from tcqkd.adversary import (
    AncillaEntangle,
    CheatingCenterMeasureAll,
    InterceptResend,
    NoAttack,
    Party,
)
from tcqkd.protocols import ProtocolId, SessionConfig, run_session, transcript_to_json
from tcqkd.qstate import Basis, TwoQubitLabel

X, Y, Z = Basis.X, Basis.Y, Basis.Z
GHZ = (ProtocolId.GHZ1, ProtocolId.GHZ2, ProtocolId.GHZ3)


def session_fields(transcript):
    """The transcript in the reference's terms."""
    positions = list(transcript.positions)

    def value(x):
        return None if x is None else x.value

    def announcement(a):
        if a is None or isinstance(a, TwoQubitLabel):
            return value(a)
        return a[0].value, a[1].value

    report = transcript.check_report
    adversary = transcript.adversary
    return {
        "lost": [p.lost for p in positions],
        "announcement": [announcement(p.center_announcement) for p in positions],
        "alice_basis": [value(p.alice_basis) for p in positions],
        "bob_basis": [value(p.bob_basis) for p in positions],
        "alice_outcome": [value(p.alice_outcome) for p in positions],
        "bob_outcome": [value(p.bob_outcome) for p in positions],
        "kept": [p.kept for p in positions],
        "checked": [p.index for p in positions if p.used_for_check],
        "check": (report.checked_count, report.error_count, report.aborted),
        "alice_raw_key": transcript.alice_raw_key,
        "bob_raw_key": transcript.bob_raw_key,
        "adversary_records": None if adversary is None else list(adversary["records"]),
    }


def reference_fields(config, leg_loss=None):
    """The reference, with the checked positions in position order (the
    transcript keeps which, not the order Bob drew them in)."""
    ref = oracle.scalar_session(config, leg_loss)
    return dict(ref, checked=sorted(ref["checked"]))


POOLS = st.permutations([X, Y, Z]).flatmap(
    lambda bases: st.sampled_from([tuple(bases), tuple(bases[:2]), tuple(bases[:1]), None]))

# Every supported (protocol, attack) family, with the attack's own
# parameters drawn: intercept pools of three, two or one bases in any
# order, or the protocol's own (None), and ancilla couplings.
ATTACKS = [(p, "none", st.just(NoAttack())) for p in ProtocolId]
ATTACKS += [(p, "intercept_resend", st.builds(InterceptResend, st.sampled_from(Party), POOLS))
            for p in ProtocolId]
ATTACKS += [(p, "ancilla", st.builds(AncillaEntangle, st.floats(0.0, 1.0))) for p in GHZ]
ATTACKS += [(ProtocolId.GHZ1, "cheating_center", st.just(CheatingCenterMeasureAll(X))),
            (ProtocolId.GHZ2, "cheating_center",
             st.sampled_from([CheatingCenterMeasureAll(X), CheatingCenterMeasureAll(Y)]))]


def draw_session(data, protocol, attacks):
    """A config with an attack from attacks, and a per-leg loss (None:
    both legs use the config's); None when the config is invalid."""
    loss = st.floats(0.0, 0.6)
    try:
        config = SessionConfig(
            protocol=protocol,
            num_states=data.draw(st.integers(1, 400)),
            check_fraction=data.draw(st.floats(0.01, 0.6)),
            qber_abort_threshold=data.draw(st.floats(0.0, 0.99)),
            loss_probability=data.draw(loss),
            rng_seed=data.draw(st.integers(0, 2**64 - 1)),
            attack=data.draw(attacks),
        )
    except ValueError:  # no unchecked positions in expectation
        return None
    return config, data.draw(st.none() | st.tuples(loss, loss))


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_session_equals_scalar_reference(data):
    """Each example runs one session of every family in ATTACKS."""
    for protocol, _, attacks in ATTACKS:
        session = draw_session(data, protocol, attacks)
        if session is not None:
            config, leg_loss = session
            fields = reference_fields(config, leg_loss)
            assert session_fields(run_session(config, leg_loss)) == fields, (config, leg_loss)


# One session per protocol whose every stream goes through the scalar
# route of `replay`, which a batch takes only when a 32-bit word would be
# rejected (about 2**-32 per word).
FALLBACK_CASES = [
    (ProtocolId.GHZ1, CheatingCenterMeasureAll(X)),
    (ProtocolId.GHZ2, InterceptResend(Party.ALICE, (Z, X, Y))),
    (ProtocolId.GHZ3, AncillaEntangle(0.4)),
    (ProtocolId.BELL4, InterceptResend(Party.BOB, (Y, Z, X))),
    (ProtocolId.BELL5, InterceptResend(Party.ALICE, (X, Y, Z))),
]


@pytest.mark.parametrize("protocol,attack", FALLBACK_CASES,
                         ids=[f"{p.value}-{a.kind}" for p, a in FALLBACK_CASES])
def test_scalar_fallback_equals_reference(protocol, attack, monkeypatch):
    config = SessionConfig(protocol, 300, check_fraction=0.2, qber_abort_threshold=0.5,
                           loss_probability=0.1, rng_seed=11, attack=attack)
    leg_loss = (0.05, 0.2)
    bulk = transcript_to_json(run_session(config, leg_loss))
    calls = []

    def scalar_draws(rng, bounds):
        calls.append(len(bounds))
        return replay._scalar_draws(rng, np.asarray(bounds, dtype=np.int64))

    monkeypatch.setattr(protocols, "replay_draws", scalar_draws)
    transcript = run_session(config, leg_loss)
    assert calls
    assert session_fields(transcript) == reference_fields(config, leg_loss)
    assert transcript_to_json(transcript) == bulk
