"""Transcript bytes pinned per seed.

Transcript bytes for a given seed may change only together with a
`schema_version` bump, so speed work on the session core and on
post-processing must leave these digests as they are.  The cases cover
every attack the sessions execute, both pair protocols' labelled
registers, reconciliation and the Toeplitz hash.
"""

import hashlib
import json

import pytest

from tcqkd import protocols
from tcqkd.cli import main
from tcqkd.adversary import AncillaEntangle, CheatingCenterMeasureAll, InterceptResend, Party
from tcqkd.protocols import (
    ProtocolId,
    SessionConfig,
    run_session,
    transcript_from_json,
    transcript_to_json,
)
from tcqkd.qstate import GHZ, Basis, Outcome, TwoQubitLabel, make_eigenstate, make_two_qubit

N = 3000

CASES = {
    "ghz3_ancilla": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=0.5, rng_seed=11,
                      attack=AncillaEntangle(0.05)),
        "dfc99cffc01b870b5bf217098e4bc49b66d88abe86651b316f840cf706acef5b",
    ),
    # The ancilla attack is defined for the triplet protocols only, so
    # BELL5 is pinned under intercept-resend.
    "bell5_intercept_alice": (
        SessionConfig(ProtocolId.BELL5, N, qber_abort_threshold=0.5, rng_seed=12,
                      attack=InterceptResend(Party.ALICE)),
        "4d98ebdb506a3fb95b9ae95bf375584c9dcf171b28a3632646b77eec11fddd4a",
    ),
    "ghz1_cheating_center": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=0.5, rng_seed=13,
                      attack=CheatingCenterMeasureAll(Basis.X)),
        "eb673412bad1d5f0e6041b9cd9bf473f3828254a36ff3a04ba6084c5bf2ca8e1",
    ),
    "bell4_intercept_bob": (
        SessionConfig(ProtocolId.BELL4, N, qber_abort_threshold=0.5, rng_seed=14,
                      attack=InterceptResend(Party.BOB)),
        "f967b59cd2448c4bf96d4181976726d0ecdb0413e6453574061d4196fdf5956c",
    ),
    "ghz2_intercept_alice": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=0.5, rng_seed=15,
                      attack=InterceptResend(Party.ALICE)),
        "23c26935d25a8521e8b82c6c0d4967e467f7c2caa7f4b79630479eb809f730ac",
    ),
    "ghz1_loss": (
        SessionConfig(ProtocolId.GHZ1, N, loss_probability=0.05, rng_seed=16),
        "4943b111f43f6d281808744c3cce4fa7f371ebe98f705bb7fb0dcbf37570ad06",
    ),
}


# (config, leg_loss, digest): every protocol x attack pairing the
# sessions execute, intercept pools of one and three bases, odd n, total
# loss, an empty check and asymmetric legs.
T = 0.5
MORE_CASES = {
    "ghz2_none": (SessionConfig(ProtocolId.GHZ2, N, rng_seed=21), None,
                  "0478df0dc4bd26716cbf51048bd40bc828c030c7ef50e4bdaf064ceb44db028a"),
    "ghz3_none": (SessionConfig(ProtocolId.GHZ3, N, rng_seed=22), None,
                  "9da51cf477155f0ceed2b443fe38a92b970551b7077f097cb5970b568c5c48bd"),
    "bell4_none": (SessionConfig(ProtocolId.BELL4, N, rng_seed=23), None,
                   "49ea0e5b21ee46f90dcf18d90d15e56878f185a6775035645bbdbeba3811243f"),
    "bell5_none": (SessionConfig(ProtocolId.BELL5, N, rng_seed=24), None,
                   "f05b20aa643088609b32901c873d7522d95099fa4756dd26b247590081965f8f"),
    "ghz1_intercept_alice": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=T, rng_seed=25,
                      attack=InterceptResend(Party.ALICE)), None,
        "75298bf01a9e7988ba0eef8b0bb4cda1cb97af9154c3506e49f50af32cbcc627"),
    "ghz3_intercept_alice": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=26,
                      attack=InterceptResend(Party.ALICE)), None,
        "986c6cfe4451ea89229dcad8bc3c91eb1f5e26611b2064d9cadf9dbfcef4681e"),
    "bell4_intercept_alice": (
        SessionConfig(ProtocolId.BELL4, N, qber_abort_threshold=T, rng_seed=27,
                      attack=InterceptResend(Party.ALICE)), None,
        "113c46ecb0bf63f5cc71da7eff49119352d7c0accdf2277101742ed69e2731d4"),
    "ghz1_intercept_bob": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=T, rng_seed=28,
                      attack=InterceptResend(Party.BOB)), None,
        "9e3c7f5ceb737bcfdfdc3c17f67f4f860cec73ac872faa43867e52c79d335c8b"),
    "ghz2_intercept_bob": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=29,
                      attack=InterceptResend(Party.BOB)), None,
        "01903c2a03943370061dd391a9cb4f4affe863de41f393013d0f77ef93cfc8a6"),
    "ghz3_intercept_bob": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=30,
                      attack=InterceptResend(Party.BOB)), None,
        "4427a80b9710a197de740deaca5a4b8fd4cc0524d95182c925d5fcb2999e5f58"),
    "bell5_intercept_bob": (
        SessionConfig(ProtocolId.BELL5, N, qber_abort_threshold=T, rng_seed=31,
                      attack=InterceptResend(Party.BOB)), None,
        "896e05283883ae3d1238b6cc5b59563bb140726e8ead6144b4651f948aeec818"),
    "ghz2_cheating_x": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=32,
                      attack=CheatingCenterMeasureAll(Basis.X)), None,
        "933826973892011ed90327c618065035236b0f141a0fb99bb1010999aae3344a"),
    "ghz2_cheating_y": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=33,
                      attack=CheatingCenterMeasureAll(Basis.Y)), None,
        "d1b43795be73c4aee416723f9f7ab2906334c1ee82cd195220e54b353b7b45c3"),
    "ghz1_ancilla_1": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=T, rng_seed=34,
                      attack=AncillaEntangle(1.0)), None,
        "57ac76d21cafbefb49f5fb0f8a4ab483cf4ea2d9413a7d6e55f9f930cfa02c37"),
    "ghz2_ancilla_0": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=35,
                      attack=AncillaEntangle(0.0)), None,
        "c11f84bf3a1185f7deea323fe5894f1d3f5432c285fbdbd1053776d908ca75e4"),
    "ghz3_ancilla_1": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=36,
                      attack=AncillaEntangle(1.0)), None,
        "f407d8f00ea3b5be3325db4ca29fb8265ce256e40860fe8871ffc9c9efb7b8a8"),
    "ghz2_pool_1": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=37,
                      attack=InterceptResend(Party.ALICE, (Basis.Y,))), None,
        "874fd40668a185783c0ce6cad184176060a4fcf3ce23a68a323353c7d5c0be07"),
    "bell4_pool_3": (
        SessionConfig(ProtocolId.BELL4, N, qber_abort_threshold=T, rng_seed=38,
                      attack=InterceptResend(Party.ALICE, (Basis.X, Basis.Y, Basis.Z))), None,
        "ac293776481ee20038ff6e0d062eb6cdc6134be55bc1837d22a1b9152925f9bd"),
    "ghz3_pool_3_bob": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=39,
                      attack=InterceptResend(Party.BOB, (Basis.Z, Basis.X, Basis.Y))), None,
        "9a4157e8b04657637ce6f709642f5d47acb0e293469438086245a43c666347e7"),
    "bell5_odd_n": (SessionConfig(ProtocolId.BELL5, 3001, loss_probability=0.1, rng_seed=40), None,
                    "87646df9011f425bf9debb8ef72b22e9c415cbcde7a98c76b689ec2d30bf3019"),
    "ghz2_total_loss": (SessionConfig(ProtocolId.GHZ2, N, loss_probability=1.0, rng_seed=41), None,
                        "2a1f769e1b2122f899b4e8aa30bed843a1cb41ebe43d70c2221d9c39d523e060"),
    "ghz3_empty_check": (SessionConfig(ProtocolId.GHZ3, 20, check_fraction=0.01, rng_seed=42), None,
                         "7e1fda574167af1263540e965a8c13e125897a944b84b938dff82ebebd32baa7"),
    "ghz2_leg_loss": (
        SessionConfig(ProtocolId.GHZ2, 3001, qber_abort_threshold=T, rng_seed=43,
                      attack=AncillaEntangle(0.3)), (0.02, 0.2),
        "4b2050d8bb6d409bdf2790f28c1dcf217eeed04dbe96d9e45abc62021a4b3779"),
    "bell4_leg_loss": (SessionConfig(ProtocolId.BELL4, N, rng_seed=44), (0.3, 0.0),
                       "c269a0ce64e9eaa63c2703b2d989d53e0d734be1da21f36061898be94b8014d5"),
}

NETWORK_SCENARIO = {
    "seed": 2024,
    "users": ["u1", "u2", "u3"],
    "channels": {"u1": {"loss_probability": 0.1, "latency_ticks": 2},
                 "u2": {"loss_probability": 0.0, "latency_ticks": 1},
                 "u3": {"loss_probability": 0.25}},
    "sessions": [
        {"requester": "u1", "responder": "u2",
         "config": {"protocol": "GHZ3", "num_states": 2001}},
        {"requester": "u3", "responder": "u1",
         "config": {"protocol": "BELL5", "num_states": 2000}},
        {"requester": "u2", "responder": "u3",
         "config": {"protocol": "GHZ2", "num_states": 2000,
                    "attack": {"kind": "intercept_resend", "target_party": "bob"}}},
    ],
}
NETWORK_CSV_DIGEST = "cc52d06b8be91527d758e0f0cf00ba4ce968a0f43abd2e611076eab24e12cb00"


def digest(transcript) -> str:
    return hashlib.sha256(transcript_to_json(transcript).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_digest_pinned(name):
    config, expected = CASES[name]
    assert digest(run_session(config)) == expected


@pytest.mark.parametrize("name", sorted(MORE_CASES))
def test_more_transcript_digests_pinned(name):
    config, leg_loss, expected = MORE_CASES[name]
    assert digest(run_session(config, leg_loss=leg_loss)) == expected


def assert_round_trip(transcript):
    """Reading the document back gives the transcript, and writing that
    again gives the same bytes."""
    text = transcript_to_json(transcript)
    back = transcript_from_json(text)
    assert back == transcript
    assert transcript_to_json(back) == text


@pytest.mark.parametrize("name", sorted(CASES) + sorted(MORE_CASES))
def test_document_reads_back(name):
    if name in CASES:
        transcript = run_session(CASES[name][0])
    else:
        config, leg_loss, _ = MORE_CASES[name]
        transcript = run_session(config, leg_loss=leg_loss)
    assert_round_trip(transcript)


def test_document_reads_back_at_scale():
    transcript = run_session(SessionConfig(ProtocolId.GHZ1, 10**5, loss_probability=0.05,
                                           qber_abort_threshold=T, rng_seed=45,
                                           attack=AncillaEntangle(0.5)))
    assert transcript.adversary is not None
    assert_round_trip(transcript)


def test_network_csv_pinned(tmp_path, capsys):
    scenario, csv = tmp_path / "scenario.json", tmp_path / "sessions.csv"
    scenario.write_text(json.dumps(NETWORK_SCENARIO), encoding="utf-8")
    assert main(["network", str(scenario), "--csv", str(csv)]) == 2
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == NETWORK_CSV_DIGEST


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
    protocols._compile.cache_clear()
    # The first session compiles its pairing from the start registers;
    # the second reuses the compiled table.
    run_session(CASES[name][0])
    run_session(CASES[name][0])
    assert len(built) == 1
    starts, snapshots = built[0]
    assert {key: _snapshot(reg) for key, reg in starts.items()} == snapshots
    assert [s.amplitudes.tobytes() for s in shared] == before
    assert all(make_eigenstate(b, o) is make_eigenstate(b, o) for b in Basis for o in Outcome)
