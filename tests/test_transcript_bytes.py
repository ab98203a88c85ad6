"""Transcript bytes pinned per seed.

Transcript bytes for a given seed may change only together with a
`schema_version` bump, so speed work on the session core and on
post-processing must leave these digests as they are.  The cases cover
every attack the sessions execute, both pair protocols' labelled
registers, reconciliation and the Toeplitz hash.
"""

import hashlib
import json
import os

import pytest

from tcqkd import protocols
from tcqkd.cli import main
from tcqkd.adversary import AncillaEntangle, CheatingCenterMeasureAll, InterceptResend, Party
from tcqkd.protocols import (
    ProtocolId,
    SessionConfig,
    run_session,
    transcript_to_json,
    transcript_to_json_dict,
)
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


# (config, leg_loss, digest): every protocol x attack pairing the
# sessions execute, intercept pools of one and three bases, odd n, total
# loss, an empty check and asymmetric legs.
T = 0.5
MORE_CASES = {
    "ghz2_none": (SessionConfig(ProtocolId.GHZ2, N, rng_seed=21), None,
                  "e0587b83c03b470165ed43c59308c75a9a3ae43ae07dcc8ec3ea9e9b031c6392"),
    "ghz3_none": (SessionConfig(ProtocolId.GHZ3, N, rng_seed=22), None,
                  "c63d4a884fe12c029bfc25182402ffa919a51b6be2b569ad1bebb2daad2a1f6e"),
    "bell4_none": (SessionConfig(ProtocolId.BELL4, N, rng_seed=23), None,
                   "314f987412ef8ae34be09d5517e2a5e500c8bd7cddf34e3655288f40227ba981"),
    "bell5_none": (SessionConfig(ProtocolId.BELL5, N, rng_seed=24), None,
                   "ad1e3a1511611de47aefb43a681a84c489f827ef9edc64866f8eee495f7e7043"),
    "ghz1_intercept_alice": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=T, rng_seed=25,
                      attack=InterceptResend(Party.ALICE)), None,
        "3b96e48c1d51be61efcdf3d2f53dde2bc7fb02fce6eb9b52ecc3f36536df37ca"),
    "ghz3_intercept_alice": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=26,
                      attack=InterceptResend(Party.ALICE)), None,
        "57171d4f28555506482f2dfabf1cdb44d26a9f64deb0ded2165e7d6d898d8f1b"),
    "bell4_intercept_alice": (
        SessionConfig(ProtocolId.BELL4, N, qber_abort_threshold=T, rng_seed=27,
                      attack=InterceptResend(Party.ALICE)), None,
        "590ce84eb962c5c3be51cc5a490597285780f2d278cc21d7215f712409cd5fe3"),
    "ghz1_intercept_bob": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=T, rng_seed=28,
                      attack=InterceptResend(Party.BOB)), None,
        "528e747b61aa1177ea6804720b7f598f8528c9bdf0598036449a3b8539efe156"),
    "ghz2_intercept_bob": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=29,
                      attack=InterceptResend(Party.BOB)), None,
        "1f3ab60691dff822ef9de0ede1f58db294b324069b6a2056dce0bccfd533b64e"),
    "ghz3_intercept_bob": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=30,
                      attack=InterceptResend(Party.BOB)), None,
        "63c5d99159aaceea3f2964b766e5ba5781f4b53ffe255f88ee425fb772867f7f"),
    "bell5_intercept_bob": (
        SessionConfig(ProtocolId.BELL5, N, qber_abort_threshold=T, rng_seed=31,
                      attack=InterceptResend(Party.BOB)), None,
        "583418ae193950bb4f8569ab1278340abbc46cdd6ce494a0891b54de8ec394b3"),
    "ghz2_cheating_x": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=32,
                      attack=CheatingCenterMeasureAll(Basis.X)), None,
        "830253759988b0aba9d34608cd4ab8ce28a458bd3c8fe1123d7900c62c3ad289"),
    "ghz2_cheating_y": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=33,
                      attack=CheatingCenterMeasureAll(Basis.Y)), None,
        "e60ea3d06f4a77a18adf3336e018d81dbee721af3d57356000d911b5bc8c667d"),
    "ghz1_ancilla_1": (
        SessionConfig(ProtocolId.GHZ1, N, qber_abort_threshold=T, rng_seed=34,
                      attack=AncillaEntangle(1.0)), None,
        "914ba854a791f60a3247c3cff2142d46e9e1eab71252494d0e3037c215388463"),
    "ghz2_ancilla_0": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=35,
                      attack=AncillaEntangle(0.0)), None,
        "ff8104593b0e32e9573dfe695bcf7f91463f2fb2079f2e0a66585e41ff4086f9"),
    "ghz3_ancilla_1": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=36,
                      attack=AncillaEntangle(1.0)), None,
        "1dba3565df2bacfa8c4545058f027cf1840286bbfeaad01b6624967e43ab5c94"),
    "ghz2_pool_1": (
        SessionConfig(ProtocolId.GHZ2, N, qber_abort_threshold=T, rng_seed=37,
                      attack=InterceptResend(Party.ALICE, (Basis.Y,))), None,
        "312348d7e5557e9aff5d8e4797e93e50e7a93da725f5fd3d9af5ca3da322b847"),
    "bell4_pool_3": (
        SessionConfig(ProtocolId.BELL4, N, qber_abort_threshold=T, rng_seed=38,
                      attack=InterceptResend(Party.ALICE, (Basis.X, Basis.Y, Basis.Z))), None,
        "2142bb4ac2fbdc65ed1cc4cf31421b7f3bb271c7af0a57b58cd81ed4d4882bde"),
    "ghz3_pool_3_bob": (
        SessionConfig(ProtocolId.GHZ3, N, qber_abort_threshold=T, rng_seed=39,
                      attack=InterceptResend(Party.BOB, (Basis.Z, Basis.X, Basis.Y))), None,
        "e8a0249758bfad86b530531d0f04d68eff864f31c8342e1770b79984045683cd"),
    "bell5_odd_n": (SessionConfig(ProtocolId.BELL5, 3001, loss_probability=0.1, rng_seed=40), None,
                    "c9a65555536809eb1fa452f5eb20f6af17ea17216e42f183495055d673627ae4"),
    "ghz2_total_loss": (SessionConfig(ProtocolId.GHZ2, N, loss_probability=1.0, rng_seed=41), None,
                        "85a0ef09908e67e9ffa733332cd770816170d22ebf9a51e9bff070a170c2a356"),
    "ghz3_empty_check": (SessionConfig(ProtocolId.GHZ3, 20, check_fraction=0.01, rng_seed=42), None,
                         "61df768efe80b32a724d9d54428e11092b62b449baa2c122eecba1c8d6069d54"),
    "ghz2_leg_loss": (
        SessionConfig(ProtocolId.GHZ2, 3001, qber_abort_threshold=T, rng_seed=43,
                      attack=AncillaEntangle(0.3)), (0.02, 0.2),
        "46d02a218a6376d8ad313ba999dd72fc76fca8d16a7938f663251c10bc1bc14d"),
    "bell4_leg_loss": (SessionConfig(ProtocolId.BELL4, N, rng_seed=44), (0.3, 0.0),
                       "29b40b343d20b8d18875e08172b01ae3a22c7002494a6d372e249dc64d5484f2"),
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


def assert_exact_route(transcript):
    """transcript_to_json equals the document dumped whole by
    `json.dumps`, positions and adversary records as lists of dicts built
    from their items.  A difference is reported by its offset: a diff of
    two long documents would take minutes."""
    fast = transcript_to_json(transcript)
    exact = json.dumps(transcript_to_json_dict(transcript), separators=(",", ":")) + "\n"
    if fast != exact:
        at = len(os.path.commonprefix([fast, exact]))
        pytest.fail(f"first difference at offset {at}: "
                    f"{fast[at - 80:at + 80]!r} != {exact[at - 80:at + 80]!r}")


@pytest.mark.parametrize("name", sorted(CASES) + sorted(MORE_CASES))
def test_fragment_writer_is_the_exact_route(name):
    if name in CASES:
        transcript = run_session(CASES[name][0])
    else:
        config, leg_loss, _ = MORE_CASES[name]
        transcript = run_session(config, leg_loss=leg_loss)
    assert_exact_route(transcript)


def test_fragment_writer_is_the_exact_route_at_scale():
    transcript = run_session(SessionConfig(ProtocolId.GHZ1, 10**5, loss_probability=0.05,
                                           qber_abort_threshold=T, rng_seed=45,
                                           attack=AncillaEntangle(0.5)))
    assert transcript.adversary is not None
    assert_exact_route(transcript)


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
