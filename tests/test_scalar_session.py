"""Whole sessions against `oracle.scalar_session`, the protocol read one
particle at a time with one scalar generator call per random choice.

`run_session` draws each actor's stream in plain bulk calls and walks
compiled tables; the reference makes the same draws one scalar call at a
time and walks amplitude vectors.  They must agree on every position
column, the check sample, both raw keys and the adversary's records, for
every protocol, attack, per-leg loss and seed.  The premise that makes
this possible, a bulk `integers(k, size=m)` or `random(m)` returning
what m scalar calls would, is checked on its own in test_bulk_draws.py.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
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


def reference_fields(config):
    """The reference, with the checked positions in position order (the
    transcript keeps which, not the order Bob drew them in)."""
    ref = oracle.scalar_session(config)
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
    """A config with an attack from attacks and a loss for both legs or
    a pair, one per leg; None when the config is invalid."""
    loss = st.floats(0.0, 0.6)
    try:
        return SessionConfig(
            protocol=protocol,
            num_states=data.draw(st.integers(1, 400)),
            check_fraction=data.draw(st.floats(0.01, 0.6)),
            qber_abort_threshold=data.draw(st.floats(0.0, 0.99)),
            loss_probability=data.draw(loss | st.tuples(loss, loss)),
            rng_seed=data.draw(st.integers(0, 2**64 - 1)),
            attack=data.draw(attacks),
        )
    except ValueError:  # no unchecked positions in expectation
        return None


# Five examples (about 1.2 s), or the loaded profile's count when it
# raises hypothesis's default (CI runs this file with
# --hypothesis-profile=session-ci, 150 examples).
EXAMPLES = settings.default.max_examples
if EXAMPLES <= settings.get_profile("default").max_examples:
    EXAMPLES = 5


@settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_session_equals_scalar_reference(data):
    """Each example runs one session of every family in ATTACKS."""
    for protocol, _, attacks in ATTACKS:
        config = draw_session(data, protocol, attacks)
        if config is not None:
            assert session_fields(run_session(config)) == reference_fields(config), config


# One session per protocol, each with an asymmetric per-leg loss; the
# intercept pools of three bases draw integers(3), a range that is not a
# power of two.
FIXED_CASES = [
    (ProtocolId.GHZ1, CheatingCenterMeasureAll(X)),
    (ProtocolId.GHZ2, InterceptResend(Party.ALICE, (Z, X, Y))),
    (ProtocolId.GHZ3, AncillaEntangle(0.4)),
    (ProtocolId.BELL4, InterceptResend(Party.BOB, (Y, Z, X))),
    (ProtocolId.BELL5, InterceptResend(Party.ALICE, (X, Y, Z))),
]


@pytest.mark.parametrize("protocol,attack", FIXED_CASES,
                         ids=[f"{p.value}-{a.kind}" for p, a in FIXED_CASES])
def test_fixed_session_equals_reference(protocol, attack):
    config = SessionConfig(protocol, 300, check_fraction=0.2, qber_abort_threshold=0.5,
                           loss_probability=(0.05, 0.2), rng_seed=11, attack=attack)
    transcript = run_session(config)
    assert session_fields(transcript) == reference_fields(config)
    assert transcript_to_json(transcript) == transcript_to_json(run_session(config))

