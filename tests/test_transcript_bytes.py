"""Transcript bytes pinned per seed.

Transcript bytes for a given seed may change only together with a
`schema_version` bump, so speed work on the session core and on
post-processing must leave these digests as they are.  The cases cover
every attack the sessions execute, both pair protocols' labelled
registers, reconciliation and the Toeplitz hash.
"""

import hashlib

import pytest

from tcqkd import protocols
from tcqkd.adversary import AncillaEntangle, CheatingCenterMeasureAll, InterceptResend, Party
from tcqkd.protocols import ProtocolId, SessionConfig, run_session, transcript_to_json
from tcqkd.qstate import GHZ, Basis, Outcome, TwoQubitLabel, make_eigenstate, make_two_qubit

N = 3000

CASES = {
    "ghz3_ancilla": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=0.5, rng_seed=11,
                      attack=AncillaEntangle(0.05)),
        "bc16e3826bb856b6de5cf1fdc22d5570d597a1eb07082f43a3de36d4c954168a",
    ),
    # The ancilla attack is defined for the triplet protocols only, so
    # BELL5 is pinned under intercept-resend.
    "bell5_intercept_alice": (
        SessionConfig(ProtocolId.BELL5, N, qber_abort_threshold=0.5, rng_seed=12,
                      attack=InterceptResend(Party.ALICE)),
        "f605b3f0b83ad8f76162d9e048bd79e71e0f78c1d18fdbfd0a1a8e4f796e990f",
    ),
    "ghz1_cheating_center": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=0.5, rng_seed=13,
                      attack=CheatingCenterMeasureAll(Basis.X)),
        "47b6bd3dd9d97db11d5840d3eb3089c165d34a4b8aa8888d96e68b4229d9f0b5",
    ),
    "bell4_intercept_bob": (
        SessionConfig(ProtocolId.BELL4, N, qber_abort_threshold=0.5, rng_seed=14,
                      attack=InterceptResend(Party.BOB)),
        "7608a503e9ac54b0e49381f8467912345cad0e84620daeb1064c4f1c1e7b33b4",
    ),
    "ghz2_intercept_alice": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=0.5, rng_seed=15,
                      attack=InterceptResend(Party.ALICE)),
        "5db31356c279b60f16ed008fa8e293ee4db366e159d05017639d7d0256277477",
    ),
    "ghz1_loss": (
        SessionConfig(ProtocolId.GHZ1, N, loss_probability=0.05, rng_seed=16),
        "e9b8c8886fdf7cfb3f179eb16d1f948f39d71ab0263248fac337c655f8cc6137",
    ),
}


def digest(transcript) -> str:
    return hashlib.sha256(transcript_to_json(transcript).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_digest_pinned(name):
    config, expected = CASES[name]
    assert digest(run_session(config)) == expected


def test_pinned_cases_reach_the_hash():
    for name in ("ghz3_ancilla", "ghz1_loss"):
        tr = run_session(CASES[name][0])
        assert len(tr.alice_final_key) > 1000
        assert tr.alice_final_key == tr.bob_final_key
    assert run_session(CASES["ghz3_ancilla"][0]).postproc_summary.reconcile_leaked > 0


def _snapshot(reg):
    return [f.amplitudes.tobytes() for f in reg.factors], dict(reg.where)


@pytest.mark.parametrize("name", sorted(CASES))
def test_session_leaves_shared_states_unchanged(name, monkeypatch):
    shared = [make_eigenstate(b, o) for b in Basis for o in Outcome]
    shared += [make_two_qubit(label) for label in TwoQubitLabel] + [GHZ]
    before = [s.amplitudes.tobytes() for s in shared]
    built = []
    real = protocols._start_registers

    def recording(*args):
        starts = real(*args)
        built.append((starts, {key: _snapshot(reg) for key, reg in starts.items()}))
        return starts

    monkeypatch.setattr(protocols, "_start_registers", recording)
    run_session(CASES[name][0])
    assert len(built) == 1
    starts, snapshots = built[0]
    assert {key: _snapshot(reg) for key, reg in starts.items()} == snapshots
    assert [s.amplitudes.tobytes() for s in shared] == before
    assert all(make_eigenstate(b, o) is make_eigenstate(b, o) for b in Basis for o in Outcome)
