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

from tcqkd import netsim, protocols
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
        "fb1bf12679880fd1e5edca13b4787be80d0a37f9228152d88c66f7b94e99507a",
    ),
    # The ancilla attack is defined for the triplet protocols only, so
    # BELL5 is pinned under intercept-resend.
    "bell5_intercept_alice": (
        SessionConfig(ProtocolId.BELL5, N, qber_abort_threshold=0.5, rng_seed=12,
                      attack=InterceptResend(Party.ALICE)),
        "1a352ce9dcd46f687750300a106d4ab1b0946ad65281b0f7ddb279bd992c05d4",
    ),
    "ghz1_cheating_center": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=0.5, rng_seed=13,
                      attack=CheatingCenterMeasureAll(Basis.X)),
        "f8737a842268d04c5d1745e230a605e11cc76e8d4068ca1323957ecb7a6db59b",
    ),
    "bell4_intercept_bob": (
        SessionConfig(ProtocolId.BELL4, N, qber_abort_threshold=0.5, rng_seed=14,
                      attack=InterceptResend(Party.BOB)),
        "df318590e0f73995c7f73ea28e82cdcad3bce5954b8b7d32b35b1ebad9e2d3c1",
    ),
    "ghz2_intercept_alice": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=0.5, rng_seed=15,
                      attack=InterceptResend(Party.ALICE)),
        "252ef7e2ff4bace180553f2de6bce416853c8afedb28b0cc5230fcb0a8c6edfe",
    ),
    "ghz1_loss": (
        SessionConfig(ProtocolId.GHZ1, N, loss_probability=0.05, rng_seed=16),
        "216e5fd8f2095c169a261f44dd0793f872f8f800c5946527e1f9dccaafa3e324",
    ),
}


# (config, digest): every protocol x attack pairing the
# sessions execute, intercept pools of one and three bases, odd n, total
# loss, an empty check and asymmetric legs.
T = 0.5
MORE_CASES = {
    "ghz2_none": (SessionConfig(ProtocolId.GHZ2, N, rng_seed=21),
                  "6aa6285074643dceebc1c35808513f5b52ecf8c178660360d7bb8b681e51c6c8"),
    "ghz3_none": (SessionConfig(ProtocolId.GHZ3, N, rng_seed=22),
                  "122a5a8939ce58abf825e2ce94f1a506bdec8e408a903b229d5d34807c3b5c0c"),
    "bell4_none": (SessionConfig(ProtocolId.BELL4, N, rng_seed=23),
                   "891d4736d2e237581e6f483d9d1f8680fab71bdaadad94a475d7720c658979de"),
    "bell5_none": (SessionConfig(ProtocolId.BELL5, N, rng_seed=24),
                   "74bd5c64f95a8ac17ee72c2329e278df465fec9629d55c44387e11f7e322703d"),
    "ghz1_intercept_alice": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=T, rng_seed=25,
                      attack=InterceptResend(Party.ALICE)),
        "d104c897f3cde809293664e7ba59369f6dd8fb34283ab42a779a39aa44ae0d6c"),
    "ghz3_intercept_alice": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=26,
                      attack=InterceptResend(Party.ALICE)),
        "76f2d1766abb3d5718145a175a7e24bb76ac1084d0f80aedb22af33009fdfcc7"),
    "bell4_intercept_alice": (
        SessionConfig(ProtocolId.BELL4, N, qber_abort_threshold=T, rng_seed=27,
                      attack=InterceptResend(Party.ALICE)),
        "a03b4c504b6c286e4eda0c7fea8aca40b1a9d61aaa34094cdf15ef76cf3aecfe"),
    "ghz1_intercept_bob": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=T, rng_seed=28,
                      attack=InterceptResend(Party.BOB)),
        "b8720a9c40e9f9b03239233a33b0e27a688830f98f92f07edf67b7b378d9177e"),
    "ghz2_intercept_bob": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=29,
                      attack=InterceptResend(Party.BOB)),
        "be1ebfb455001bc1de29349097b43a231b6fe8648b912746023c869ce1996069"),
    "ghz3_intercept_bob": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=30,
                      attack=InterceptResend(Party.BOB)),
        "4f5821ea471ac13e20fb5f21e03548e9ddca47872ec0f8670fbdcf4a1e9e659f"),
    "bell5_intercept_bob": (
        SessionConfig(ProtocolId.BELL5, N, qber_abort_threshold=T, rng_seed=31,
                      attack=InterceptResend(Party.BOB)),
        "ee4670b01e5985b0ac93a5b6e3db5f9a8030128005d1b66b820469891bfb8385"),
    "ghz2_cheating_x": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=32,
                      attack=CheatingCenterMeasureAll(Basis.X)),
        "67beef3636404b74c49273bc47c49c973d2437a7e8382158ea89c1b1114e6d01"),
    "ghz2_cheating_y": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=33,
                      attack=CheatingCenterMeasureAll(Basis.Y)),
        "a839eefe0daa1be3679fc5f55abf8f467e1e69c40c7b6a58d109f117579545db"),
    "ghz1_ancilla_1": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=T, rng_seed=34,
                      attack=AncillaEntangle(1.0)),
        "b1c04f376658b9e6a6b2c97b3c3a0525c0e0f28e40a5a23bcdfc9968466604db"),
    "ghz2_ancilla_0": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=35,
                      attack=AncillaEntangle(0.0)),
        "db97e4997738074928fef6443ab4a62800e6bc50303d895b8900099cac07c5cb"),
    "ghz3_ancilla_1": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=36,
                      attack=AncillaEntangle(1.0)),
        "5cdc4c53ee0d32a6aef0fb02d92139298a2ca09540cc8e62cd526f1c84cfebce"),
    "ghz2_pool_1": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=37,
                      attack=InterceptResend(Party.ALICE, (Basis.Y,))),
        "d21c1205b5390ac6a8d36dba1c168b2862a567f9021de7bf0f626ce00279d444"),
    "bell4_pool_3": (
        SessionConfig(ProtocolId.BELL4, N, qber_abort_threshold=T, rng_seed=38,
                      attack=InterceptResend(Party.ALICE, (Basis.X, Basis.Y, Basis.Z))),
        "c4c0c8cf1baf4e7b7406ad96da9f2991ac78e846992970a5e91d0e5d7005a379"),
    "ghz3_pool_3_bob": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=39,
                      attack=InterceptResend(Party.BOB, (Basis.Z, Basis.X, Basis.Y))),
        "509e4e4ed63fd96a88ba2c455f97fade72f1772f8e211ee385e151e6d92ecdc1"),
    "bell5_odd_n": (SessionConfig(ProtocolId.BELL5, 3001, loss_probability=0.1, rng_seed=40),
                    "1f42a523a4267ee5fb44279c41db03d88a4618ac18b98ad0ee24ca91be7ce9e4"),
    "ghz2_total_loss": (SessionConfig(ProtocolId.GHZ2, N, loss_probability=1.0, rng_seed=41),
                        "e98de8f98c23c6bbc9425fd34fd9f74ba4da44a00f6de44916e33b584bed4b15"),
    "ghz3_empty_check": (SessionConfig(ProtocolId.GHZ3, 20, check_fraction=0.01, rng_seed=42),
                         "5eb8833fb7f5eab6ba403f3da8e93e6ac98e910e4cb3a5485a76f30f04cc1a00"),
    "ghz2_leg_loss": (
        SessionConfig(ProtocolId.GHZ2, 3001, qber_abort_threshold=T, loss_probability=(0.02, 0.2),
                      rng_seed=43, attack=AncillaEntangle(0.3)),
        "ced1a75520688e16a5528bf2e5cd24cd7a2c94ebdcb9bc4dba6e901c567dedd0"),
    "bell4_leg_loss": (SessionConfig(ProtocolId.BELL4, N, loss_probability=(0.3, 0.0), rng_seed=44),
                       "3b5d1e9e37a841e4e9dd91e126267a31f5b313b072d77c003e6a689caa1c1c01"),
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
NETWORK_CSV_DIGEST = "7d528afa53516a684954e736699d2a38d286e1dcc1a4a57f4c581716bf9ee6bd"


def digest(transcript) -> str:
    return hashlib.sha256(transcript_to_json(transcript).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_digest_pinned(name):
    config, expected = CASES[name]
    assert digest(run_session(config)) == expected


@pytest.mark.parametrize("name", sorted(MORE_CASES))
def test_more_transcript_digests_pinned(name):
    config, expected = MORE_CASES[name]
    assert digest(run_session(config)) == expected


def assert_round_trip(transcript):
    """Reading the document back gives the transcript, and writing that
    again gives the same bytes."""
    text = transcript_to_json(transcript)
    back = transcript_from_json(text)
    assert back == transcript
    assert transcript_to_json(back) == text


@pytest.mark.parametrize("name", sorted(CASES) + sorted(MORE_CASES))
def test_document_reads_back(name):
    assert_round_trip(run_session({**CASES, **MORE_CASES}[name][0]))


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


def test_network_transcripts_equal_a_rerun_of_their_config():
    """Each session of a scenario whose users' channels lose unequally
    states its legs in its config, so its document reads back and a
    re-run of that config writes the same bytes."""
    scenario = netsim.scenario_from_json_dict(NETWORK_SCENARIO)
    result = netsim.run_network_scenario(scenario)
    assert result.errors == [None] * len(scenario.sessions)
    for spec, transcript in zip(scenario.sessions, result.transcripts):
        assert transcript.config.legs == (scenario.channels[spec.requester].loss_probability,
                                          scenario.channels[spec.responder].loss_probability)
        assert_round_trip(transcript)
        assert transcript_to_json(run_session(transcript.config)) == transcript_to_json(transcript)


def test_pinned_cases_reach_the_hash():
    for name in ("ghz3_ancilla", "ghz1_loss"):
        tr = run_session(CASES[name][0])
        assert len(tr.alice_final_key) > 1000
        assert tr.alice_final_key == tr.bob_final_key
    assert run_session(CASES["ghz3_ancilla"][0]).postproc_summary.reconcile_leaked > 0


def _snapshot(reg):
    return [(state.amplitudes.tobytes(), roles) for state, roles in reg.factors]


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
