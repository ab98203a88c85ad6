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
        "2052bfe2cbb092fb7c5ebfeb66b26dc11c162d7465106b5a73eee34707b00ff9",
    ),
    # The ancilla attack is defined for the triplet protocols only, so
    # BELL5 is pinned under intercept-resend.
    "bell5_intercept_alice": (
        SessionConfig(ProtocolId.BELL5, N, qber_abort_threshold=0.5, rng_seed=12,
                      attack=InterceptResend(Party.ALICE)),
        "68843ed4c5bf307fa47989eecb0599a9bace7d4bc6fde1a6c51bc7db5a4249ff",
    ),
    "ghz1_cheating_center": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=0.5, rng_seed=13,
                      attack=CheatingCenterMeasureAll(Basis.X)),
        "6159935815061e62dca0c1962ee388361a8fff5fe1a767441e0bbdb502da72f0",
    ),
    "bell4_intercept_bob": (
        SessionConfig(ProtocolId.BELL4, N, qber_abort_threshold=0.5, rng_seed=14,
                      attack=InterceptResend(Party.BOB)),
        "34b0f4fd846b1e192b740f47f20702872a64b2d2e49b6411f1d23e4451ad08c6",
    ),
    "ghz2_intercept_alice": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=0.5, rng_seed=15,
                      attack=InterceptResend(Party.ALICE)),
        "42bc94aed2031c4e3b9354fedec6cd2b1638cd520cf052f24f63a29db607ba75",
    ),
    "ghz1_loss": (
        SessionConfig(ProtocolId.GHZ1, N, loss_probability=0.05, rng_seed=16),
        "bcb85f27aa3263573def339aaa7a8c82812597a04f799ace436e17293b25923e",
    ),
}


# (config, leg_loss, digest): every protocol x attack pairing the
# sessions execute, intercept pools of one and three bases, odd n, total
# loss, an empty check and asymmetric legs.
T = 0.5
MORE_CASES = {
    "ghz2_none": (SessionConfig(ProtocolId.GHZ2, N, rng_seed=21), None,
                  "c438354e5b8e80e5d031159b398ca51c88deef5e3b1c489fc4ee1c5f1b237ced"),
    "ghz3_none": (SessionConfig(ProtocolId.GHZ3, N, rng_seed=22), None,
                  "bfe7776ca231048d6950c535763802c13801c844f2220970d5a627d1879d7164"),
    "bell4_none": (SessionConfig(ProtocolId.BELL4, N, rng_seed=23), None,
                   "7050f9cfc3807fbdafdffbbfbad72e4454662f95f7a71100e7a482680f1b8d7f"),
    "bell5_none": (SessionConfig(ProtocolId.BELL5, N, rng_seed=24), None,
                   "fabfce59196c07d49f701ad22d4ba59242ace0c4ae02ce584bec12dea718a3df"),
    "ghz1_intercept_alice": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=T, rng_seed=25,
                      attack=InterceptResend(Party.ALICE)), None,
        "f6326e4b90e55609682cb700adbf8da6d722a52e4ec90cabb340e0839874c149"),
    "ghz3_intercept_alice": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=26,
                      attack=InterceptResend(Party.ALICE)), None,
        "e73adaa75b13b082a1e1900a98c708517663b65b1ba43cf365fffb79a5011ca8"),
    "bell4_intercept_alice": (
        SessionConfig(ProtocolId.BELL4, N, qber_abort_threshold=T, rng_seed=27,
                      attack=InterceptResend(Party.ALICE)), None,
        "28b0b42ad07964cf8ad28fb0c8341dfdd1da3621ce794113a2b7698cce0295b4"),
    "ghz1_intercept_bob": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=T, rng_seed=28,
                      attack=InterceptResend(Party.BOB)), None,
        "5e45839efb5c39d9aa3b0745f1603a7262a99abbc78998851ce98d28464dc41a"),
    "ghz2_intercept_bob": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=29,
                      attack=InterceptResend(Party.BOB)), None,
        "e9f35cf23ba87dcf7c3397ace16c616aab8b47f5245889fa91eb18b01975addf"),
    "ghz3_intercept_bob": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=30,
                      attack=InterceptResend(Party.BOB)), None,
        "4018eb44af630b54ec2ad995caf66edf62f2267929e73662fe33d3b89133bc87"),
    "bell5_intercept_bob": (
        SessionConfig(ProtocolId.BELL5, N, qber_abort_threshold=T, rng_seed=31,
                      attack=InterceptResend(Party.BOB)), None,
        "b0bc86dbbe635592025a491db6b3a0c76d0a5d559305e5db7b9146b6be7e30ec"),
    "ghz2_cheating_x": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=32,
                      attack=CheatingCenterMeasureAll(Basis.X)), None,
        "075694303ad0f5b56addbdf466a0fb07589a26b5ec9fd4eb222421787305aacc"),
    "ghz2_cheating_y": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=33,
                      attack=CheatingCenterMeasureAll(Basis.Y)), None,
        "b16bd04ba13a1b5be18a11b2ba1fe67cf0f47ec85e41ae3bc57da982f989f4d1"),
    "ghz1_ancilla_1": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=T, rng_seed=34,
                      attack=AncillaEntangle(1.0)), None,
        "940ca57f8711bc3e5a3d4e6d261bf998b2ede893fa2f571031ab5deae8a12c4e"),
    "ghz2_ancilla_0": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=35,
                      attack=AncillaEntangle(0.0)), None,
        "72bdd6dc6089447f3343fbad4f5bf5df5222332aaa7e5c26639e90e1eeee9b91"),
    "ghz3_ancilla_1": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=36,
                      attack=AncillaEntangle(1.0)), None,
        "744fa0f275dbbb8bf70eaa86e8ec250fbba2fe6bec9d7fce0330b95fdf53cf7f"),
    "ghz2_pool_1": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=37,
                      attack=InterceptResend(Party.ALICE, (Basis.Y,))), None,
        "19f0055f8c030d9e2262e5587bca98b78ca37dffb6966eac7802c21413251465"),
    "bell4_pool_3": (
        SessionConfig(ProtocolId.BELL4, N, qber_abort_threshold=T, rng_seed=38,
                      attack=InterceptResend(Party.ALICE, (Basis.X, Basis.Y, Basis.Z))), None,
        "de397daa07058f7aedba7ae50629850411f8fcd6743a11ca02338b7bdc53083d"),
    "ghz3_pool_3_bob": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=39,
                      attack=InterceptResend(Party.BOB, (Basis.Z, Basis.X, Basis.Y))), None,
        "7ba4af6240651eddbfd49089d257531b43301a8664008545d1dea0100bf26522"),
    "bell5_odd_n": (SessionConfig(ProtocolId.BELL5, 3001, loss_probability=0.1, rng_seed=40), None,
                    "593be820bde19b46e27b019289ceb4855b457aaf3c7d03b7e7781f3c2687ac03"),
    "ghz2_total_loss": (SessionConfig(ProtocolId.GHZ2, N, loss_probability=1.0, rng_seed=41), None,
                        "13557bf28f211e194f1851c9ca0e9286dd13554cbcdaa910135be09cd522dfda"),
    "ghz3_empty_check": (SessionConfig(ProtocolId.GHZ3, 20, check_fraction=0.01, rng_seed=42), None,
                         "d78f02f8204f3c5f335a580b76773170f29265bde8b7760eab33eec22ee8109f"),
    "ghz2_leg_loss": (
        SessionConfig(ProtocolId.GHZ2, 3001, qber_abort_threshold=T, rng_seed=43,
                      attack=AncillaEntangle(0.3)), (0.02, 0.2),
        "3e1a3b9fc4983bed708170df0869c7702bab3d0a9baf246c098eabf326f8e6c6"),
    "bell4_leg_loss": (SessionConfig(ProtocolId.BELL4, N, rng_seed=44), (0.3, 0.0),
                       "1e590667a60848b1f298f0f2476044084711133fb5412352c2c4815d89e2aa0a"),
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
NETWORK_CSV_DIGEST = "41899da750491e899408a58adb195adfd24950f7fde91813f715e310084ef2d7"


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
